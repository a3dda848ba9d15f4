"""Command-line front end.

Subcommands: ``solve`` (binary-search approximation), ``check`` (validation
plus the Hall condition), ``oracle`` (exact optimum on small instances),
``gen`` (seeded instance generation), and ``bench`` (a directory of instances
against the solver and, where tractable, the oracle).

Exit codes: 0 success, 1 solver failure, 2 validation or usage error or an
output file that cannot be written.
``main`` returns the exit code to an in-process caller, 2 for a usage error
included; it raises no ``SystemExit``.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

from . import hall, oracle
from .generator import gen_inclusion_free, gen_planted
from .instance_model import (Mode, format_value, instance_to_dict, load_instance,
                             parse_value, validate)
from .solver import SolveError, SolveResult, solve_maxmin, solve_minmax


def _result_dict(result: SolveResult) -> dict:
    return {
        "t_star": format_value(result.t_star),
        "objective": format_value(result.objective),
        "guarantee": format_value(result.guarantee),
        "assignment": {aid: list(ids) for aid, ids in result.assignment.bundles},
    }


def _print_result(payload: dict) -> None:
    for key in ("t_star", "objective", "guarantee"):
        print(f"{key}: {payload[key]}")
    print("assignment:")
    for aid, ids in payload["assignment"].items():
        print(f"  {aid}: {' '.join(ids) if ids else '-'}")


def _solve(instance, k: int, delta=None, trace=None) -> SolveResult:
    # Looked up at call time, so that a wrapper installed on this module's
    # solve_maxmin / solve_minmax is the one called.
    solve = solve_maxmin if instance.mode is Mode.MAXMIN else solve_minmax
    return solve(instance, k, delta, trace)


def _opt(instance):
    opt = oracle.opt_maxmin if instance.mode is Mode.MAXMIN else oracle.opt_minmax
    return opt(instance)


def _load(path: str):
    try:
        return load_instance(path)
    except (OSError, ValueError, RecursionError) as exc:  # RecursionError: deeply nested JSON
        print(f"error: cannot read instance {path!r}: {exc}", file=sys.stderr)
        raise SystemExit(2)


def _write(path: str, text: str) -> None:
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:  # a missing directory, a directory, no permission
        print(f"error: cannot write {path!r}: {exc}", file=sys.stderr)
        raise SystemExit(2)


def cmd_solve(args: argparse.Namespace) -> int:
    instance = _load(args.input)
    mode = Mode(args.mode) if args.mode else instance.mode
    if mode is not instance.mode:
        print(f"error: instance mode is {instance.mode.value}, requested {mode.value}",
              file=sys.stderr)
        return 2
    trace: list[str] | None = [] if args.trace else None
    try:
        delta = parse_value(args.delta) if args.delta else None
        result = _solve(instance, args.k, delta, trace)
        payload = _result_dict(result)  # a value too long to print raises here
    except (SolveError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.trace:
        _write(args.trace, "\n".join(trace) + "\n")
    text = json.dumps(payload, indent=2) if args.json or args.output else None
    if args.output:
        _write(args.output, text + "\n")
    if args.json:
        print(text)
    else:
        _print_result(payload)
    return 1 if result.failed else 0


def cmd_check(args: argparse.Namespace) -> int:
    instance = _load(args.input)
    report = validate(instance)
    check_hall = (hall.check_hall_maxmin if instance.mode is Mode.MAXMIN
                  else hall.check_hall_minmax)
    witness = check_hall(instance) if report.ok else None
    if args.json:
        payload = {"valid": report.ok,
                   "violations": [v.message for v in report.violations]}
        if report.ok:
            payload["hall"] = (None if witness is None else
                               {"lo": witness.lo, "hi": witness.hi,
                                "lhs": format_value(witness.lhs),
                                "rhs": format_value(witness.rhs)})
        print(json.dumps(payload, indent=2))
        return 0 if report.ok else 2
    if not report.ok:
        print("inclusion-free: FAILED")
        for v in report.violations:
            print(f"  {v.message}")
        return 2
    print("inclusion-free: ok")
    if witness is None:
        print("hall: ok")
    else:
        print(f"hall: violated on [{witness.lo},{witness.hi}] "
              f"(value {format_value(witness.lhs)} vs demand {format_value(witness.rhs)})")
    return 0


def cmd_oracle(args: argparse.Namespace) -> int:
    instance = _load(args.input)
    try:
        opt, witness = _opt(instance)
        opt_text = format_value(opt)  # a value too long to print raises here
    except (oracle.OracleSizeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps({"opt": opt_text,
                          "assignment": {aid: list(ids) for aid, ids in witness.bundles}},
                         indent=2))
    else:
        print(f"opt: {opt_text}")
    return 0


def cmd_gen(args: argparse.Namespace) -> int:
    mode = Mode(args.mode)
    try:
        if args.plant:
            instance, _ = gen_planted(args.seed, args.n, args.m, parse_value(args.plant), mode)
        else:
            instance = gen_inclusion_free(args.seed, args.n, args.m, mode=mode)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    text = json.dumps(instance_to_dict(instance), indent=2)
    if args.output:
        _write(args.output, text + "\n")
    else:
        print(text)
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    directory = Path(args.directory)
    paths = sorted(directory.glob("*.json"))
    if not paths:
        print(f"error: no instances under {directory}", file=sys.stderr)
        return 2
    rows = []
    for path in paths:
        instance = _load(str(path))
        try:
            result = _solve(instance, args.k)
            try:
                opt = _opt(instance)[0]
            except oracle.OracleSizeError:
                opt = None
            # a value too long to print raises here
            rows.append((path.name, instance.mode.value, format_value(result.objective),
                         "-" if opt is None else format_value(opt),
                         format_value(result.objective / opt) if opt else "-"))
        except (SolveError, ValueError) as exc:
            print(f"error: {path}: {exc}", file=sys.stderr)
            return 2
    if args.json:
        print(json.dumps([{"instance": r[0], "mode": r[1], "objective": r[2],
                           "opt": r[3], "ratio": r[4]} for r in rows], indent=2))
        return 0
    header = ("instance", "mode", "objective", "opt", "ratio")
    widths = [max(len(str(row[i])) for row in rows + [header]) for i in range(5)]
    for row in [header] + rows:
        print("  ".join(str(cell).ljust(w) for cell, w in zip(row, widths)))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="convalloc",
                                     description="Approximation schemes for ordered "
                                                 "Max-Min / Min-Max allocation")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="approximate an instance by binary search")
    p.add_argument("--mode", choices=[m.value for m in Mode], default=None)
    p.add_argument("-k", type=int, default=8, help="error parameter (k >= 4)")
    p.add_argument("--delta", default=None, help="binary-search precision, e.g. 1/40")
    p.add_argument("-i", "--input", required=True)
    p.add_argument("-o", "--output", default=None, help="write the result JSON here")
    p.add_argument("--trace", default=None, help="write the table trace here")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("check", help="validate and run the Hall condition")
    p.add_argument("-i", "--input", required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("oracle", help="exact optimum by exhaustive search")
    p.add_argument("-i", "--input", required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("gen", help="generate a seeded random instance")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("-n", type=int, required=True, help="number of agents")
    p.add_argument("-m", type=int, required=True, help="number of items")
    p.add_argument("--mode", choices=[m.value for m in Mode], default=Mode.MAXMIN.value)
    p.add_argument("--plant", default=None, help="plant an assignment at this target")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("bench", help="solve every instance in a directory")
    p.add_argument("-d", "--directory", required=True)
    p.add_argument("-k", type=int, default=8)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_bench)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # Built on the first call of ``main``, not at import.  Sharing it is safe:
    # ``parse_args`` leaves the parser as it was and returns a new Namespace,
    # as long as no argument has a mutable default (an ``append`` action).
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
        return args.func(args)
    except SystemExit as exc:
        return int(exc.code or 0)


if __name__ == "__main__":
    sys.exit(main())
