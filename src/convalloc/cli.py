"""Command-line front end.

Subcommands: ``solve`` (binary-search approximation), ``check`` (validation
plus the Hall condition), ``oracle`` (exact optimum on small instances),
``gen`` (seeded instance generation), and ``bench`` (a directory of instances
against the solver and, where tractable, the oracle).

Exit codes: 0 success, 1 solver failure, 2 validation or usage error or
output that cannot be written: an output file, or a standard output closed
early, as by ``| head``.  A command refuses by raising ``_Refused`` or a
``ValueError``; ``main`` alone prints the one ``error:`` line and returns 2.
``main`` returns the exit code to an in-process caller, 2 for a usage error
included; it raises no ``SystemExit``.
"""

from __future__ import annotations

import argparse
import errno
import functools
import json
import os
import sys
from contextlib import suppress
from pathlib import Path

from . import hall
from .instance_model import (Mode, format_value, instance_to_dict, load_instance,
                             parse_value, validate)
from .solver import SolveResult, solve_maxmin, solve_minmax


class _Refused(Exception):
    """A refusal that ``main`` reports as ``error: {message}`` with exit 2."""


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
    from . import oracle
    opt = oracle.opt_maxmin if instance.mode is Mode.MAXMIN else oracle.opt_minmax
    return opt(instance)


def _load(path: str):
    try:
        return load_instance(path)
    except (OSError, ValueError, RecursionError) as exc:  # RecursionError: deeply nested JSON
        raise _Refused(f"cannot read instance {path!r}: {exc}") from exc


def _write(texts: dict[str, str]) -> None:
    """Write each text to its path.  The texts go to temporary files beside
    their paths, which replace the paths once all are written, so a failure
    while writing replaces no path.  A failure while replacing leaves the
    paths replaced before it.  Either way no temporary file is left."""
    temps: dict[str, str] = {}
    try:
        for path, text in texts.items():
            if os.path.isdir(path):  # fail before any path is replaced
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR))
            with open(f"{path}.{os.getpid()}.tmp", "w", encoding="utf-8") as file:
                temps[path] = file.name
                file.write(text)
        for path in list(temps):
            os.replace(temps[path], path)
            del temps[path]  # renamed: nothing left to remove
    except OSError as exc:  # a missing directory, a directory, no permission
        for temp in temps.values():
            os.remove(temp)
        raise _Refused(f"cannot write {path!r}: {exc.strerror or exc}") from exc


def cmd_solve(args: argparse.Namespace) -> int:
    # paths are resolved only when there are two to compare
    if (args.output and args.trace
            and os.path.realpath(args.output) == os.path.realpath(args.trace)):
        raise _Refused(f"-o and --trace name the same file {args.output!r}")
    instance = _load(args.input)
    trace: list[str] | None = [] if args.trace else None
    delta = parse_value(args.delta) if args.delta else None
    result = _solve(instance, args.k, delta, trace)
    payload = _result_dict(result)  # a value too long to print raises here
    text = json.dumps(payload, indent=2) if args.json or args.output else None
    texts = {args.trace: "\n".join(trace) + "\n"} if args.trace else {}
    if args.output:
        texts[args.output] = text + "\n"
    _write(texts)
    if args.json:
        print(text)
    else:
        _print_result(payload)
    return 1 if result.failed else 0


def cmd_check(args: argparse.Namespace) -> int:
    instance = _load(args.input)
    report = validate(instance)
    witness = next(hall.hall_violations(instance), None) if report.ok else None
    # a value too long to print raises here
    sides = None if witness is None else (format_value(witness.lhs),
                                          format_value(witness.rhs))
    if args.json:
        payload = {"valid": report.ok,
                   "violations": [v.message for v in report.violations]}
        if report.ok:
            payload["hall"] = (None if witness is None else
                               {"lo": witness.lo, "hi": witness.hi,
                                "lhs": sides[0], "rhs": sides[1]})
        print(json.dumps(payload, indent=2))
        return 0 if report.ok else 2
    if not report.ok:
        nested = any(v.code == "margined-inclusion" for v in report.violations)
        print("inclusion-free: FAILED" if nested else "valid: FAILED")
        for v in report.violations:
            print(f"  {v.message}")
        return 2
    print("inclusion-free: ok")
    if witness is None:
        print("hall: ok")
    else:
        print(f"hall: violated on [{witness.lo},{witness.hi}] "
              f"(value {sides[0]} vs demand {sides[1]})")
    return 0


def cmd_oracle(args: argparse.Namespace) -> int:
    instance = _load(args.input)
    opt, witness = _opt(instance)
    opt_text = format_value(opt)  # a value too long to print raises here
    if args.json:
        print(json.dumps({"opt": opt_text,
                          "assignment": {aid: list(ids) for aid, ids in witness.bundles}},
                         indent=2))
    else:
        print(f"opt: {opt_text}")
    return 0


def cmd_gen(args: argparse.Namespace) -> int:
    from .generator import gen_inclusion_free, gen_planted
    mode = Mode(args.mode)
    if args.plant:
        instance, _ = gen_planted(args.seed, args.n, args.m, parse_value(args.plant), mode)
    else:
        instance = gen_inclusion_free(args.seed, args.n, args.m, mode=mode)
    text = json.dumps(instance_to_dict(instance), indent=2)
    if args.output:
        _write({args.output: text + "\n"})
    else:
        print(text)
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    from . import oracle
    directory = Path(args.directory)
    paths = sorted(directory.glob("*.json"))
    if not paths:
        raise _Refused(f"no instances under {directory}")
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
        except ValueError as exc:
            raise _Refused(f"{path}: {exc}") from exc
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
    p.add_argument("-k", type=int, default=8, help="error parameter (4 <= k <= 1024)")
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
        try:
            args = _parser().parse_args(argv)
            code = args.func(args)
        except SystemExit as exc:
            code = int(exc.code or 0)
        except (_Refused, ValueError) as exc:  # every refusal of every command
            print(f"error: {exc}", file=sys.stderr)
            code = 2
        sys.stdout.flush()  # buffered output meets a closed reader here, not at exit
        return code
    except BrokenPipeError:
        # The reader closed standard output.  Point it at os.devnull, as
        # Python's note on SIGPIPE does, so that the flush at exit cannot fail
        # again; an in-process stdout may have no descriptor to point.
        with suppress(OSError, ValueError), open(os.devnull, "wb") as null:
            os.dup2(null.fileno(), sys.stdout.fileno())
        print("error: cannot write standard output: the reader closed it", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
