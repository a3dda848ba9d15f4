"""The convalloc benchmark: seeded solve workloads, checked answers, metrics.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

A run generates its workload's instances from the seed, writes them as
instance files, and solves them one after another through convalloc's public
entry points (a closed loop with one caller).  The instance count is sized so
that the solves take about ``--seconds`` with the current code.  Only the call
into convalloc is timed, and each time is normalized to a reference host speed
(see reference.py).  The run then checks every answer, outside the timed
region: the public ``verify`` must accept the assignment and reproduce its
objective, the objective must meet the certified bound against ``t_star``,
and where the exact oracle fits it must meet ``guarantee * OPT``, with
``t_star = 0`` only when OPT = 0.  Any violation is a failed solve.

With ``--trace 0`` the last stdout line carries the end-to-end metrics.  With
``--trace 1`` half the time solves instances with a span around every call
into each layer, the same instances are then solved again untraced, and the
last line carries the per-layer metrics; the spans are written to
``perfbench/work/``.  The tracing overhead compares the two passes; since the
untraced one repeats the instances, it overstates the cost where a repeated
solve runs faster (through the CLI a second pass ran about 20% faster).
Either way the first instances of the run are solved once more, untimed, with
the DP trace on, and sha256 digests of their result JSON and trace lines are
printed, so a later change can show that its output is byte-identical.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from time import perf_counter
from typing import Optional

from reference import REFERENCE_SECONDS, time_reference
from tracer import TraceError, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / "perfbench" / "work"
PROBE = Path(__file__).resolve().parent / "setup_probe.py"
SETUP_PROBES = 5
# The exhaustive oracle's cost has a long tail; instances beyond this much
# search work are checked without it.
ORACLE_WORK_CAP = 200_000


@dataclass
class Case:
    index: int
    path: str
    instance: object  # convalloc.ConvexInstance
    k: int


@dataclass
class Outcome:
    index: int
    seconds: float
    text: str = ""        # result JSON exactly as `convalloc solve -o` writes it
    error: str = ""
    exit_code: Optional[int] = None  # only for solves through the CLI
    reference: float = 0.0  # the reference loop's time just before the solve


def import_convalloc():
    """Import convalloc from this checkout's src/, never from elsewhere."""
    package = SRC / "convalloc"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"error: no convalloc sources at {package}")
    sys.path.insert(0, str(SRC))
    import convalloc
    import convalloc.cli
    if Path(convalloc.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"error: imported convalloc from {convalloc.__file__}, not {package}")
    return convalloc


def result_text(convalloc, result) -> str:
    fmt = convalloc.format_value
    data = {"t_star": fmt(result.t_star), "objective": fmt(result.objective),
            "guarantee": fmt(result.guarantee),
            "assignment": {aid: list(ids) for aid, ids in result.assignment.bundles}}
    return json.dumps(data, indent=2) + "\n"


class Runner:
    """Solves cases of one workload; only the call into convalloc is timed."""

    def __init__(self, convalloc, workload, work: Path):
        self.convalloc = convalloc
        self.workload = workload
        self.out = work / "result.json"
        self.trace = work / "trace.txt"
        self.sink = open(os.devnull, "w", encoding="utf-8")

    def close(self) -> None:
        self.sink.close()

    def solve(self, case: Case, with_trace: bool = False) -> tuple[Outcome, str]:
        """Solve one case; with_trace also returns its DP trace text.

        The reference loop is timed just before the solve, outside its timing.
        """
        reference = time_reference()
        outcome, trace_text = (self._solve_cli if self.workload.via_cli
                               else self._solve_library)(case, with_trace)
        outcome.reference = reference
        return outcome, trace_text

    def _solve_library(self, case: Case, with_trace: bool) -> tuple[Outcome, str]:
        solver = self.convalloc.solver
        search = (solver.solve_maxmin if case.instance.mode is self.convalloc.Mode.MAXMIN
                  else solver.solve_minmax)
        trace: Optional[list[str]] = [] if with_trace else None
        start = perf_counter()
        try:
            result = search(case.instance, case.k, None, trace)
        except Exception as exc:  # a raising solve is a failed solve
            return Outcome(case.index, perf_counter() - start,
                           error=f"raised {exc.__class__.__name__}: {exc}"), ""
        seconds = perf_counter() - start
        trace_text = "\n".join(trace) + "\n" if with_trace else ""
        return Outcome(case.index, seconds, result_text(self.convalloc, result)), trace_text

    def _solve_cli(self, case: Case, with_trace: bool) -> tuple[Outcome, str]:
        argv = ["solve", "-i", case.path, "-k", str(case.k), "--json", "-o", str(self.out)]
        if with_trace:
            argv += ["--trace", str(self.trace)]
        for path in (self.out, self.trace):
            path.unlink(missing_ok=True)
        with contextlib.redirect_stdout(self.sink):
            start = perf_counter()
            try:
                code = self.convalloc.cli.main(argv)
            except Exception as exc:
                return Outcome(case.index, perf_counter() - start,
                               error=f"raised {exc.__class__.__name__}: {exc}"), ""
            seconds = perf_counter() - start
        if code not in (0, 1) or not self.out.exists():
            return Outcome(case.index, seconds, error=f"convalloc solve exited {code}",
                           exit_code=code), ""
        trace_text = self.trace.read_text(encoding="utf-8") if with_trace else ""
        return Outcome(case.index, seconds, self.out.read_text(encoding="utf-8"),
                       exit_code=code), trace_text


def timed_loop(runner: Runner, cases: list[Case], cap: float,
               tracer: Optional[Tracer] = None) -> list[Outcome]:
    """Solve the cases in order, tagging each solve's spans when tracing.

    Stops early once ``cap`` seconds of solve time are spent, so that a much
    slower version still ends in time.
    """
    outcomes: list[Outcome] = []
    spent = 0.0
    for case in cases:
        if outcomes and spent >= cap:
            break
        if tracer is not None:
            tracer.solve_id = case.index
        outcomes.append(runner.solve(case)[0])
        spent += outcomes[-1].seconds
    return outcomes


def normalized_seconds(outcomes: list[Outcome]) -> list[float]:
    """Solve times at the reference speed: each is scaled by REFERENCE_SECONDS
    over the median reference time of the 15 solves around it."""
    refs = [o.reference for o in outcomes]
    return [o.seconds * REFERENCE_SECONDS / statistics.median(refs[max(0, i - 7):i + 8])
            for i, o in enumerate(outcomes)]


def oracle_opt(convalloc, instance) -> Optional[Fraction]:
    """Exact optimum where the exhaustive oracle fits, else None."""
    oracle = convalloc.oracle
    if instance.n > oracle.MAX_AGENTS or instance.m > oracle.MAX_ITEMS:
        return None
    exact = oracle.opt_maxmin if instance.mode is convalloc.Mode.MAXMIN else oracle.opt_minmax
    try:
        return exact(instance, ORACLE_WORK_CAP)[0]
    except oracle.OracleSizeError:
        return None


def problems(convalloc, case: Case, outcome: Outcome, opt: Optional[Fraction]) -> list[str]:
    """Every way the outcome breaks the correctness gate."""
    if outcome.error:
        return [outcome.error]
    data = json.loads(outcome.text)
    t_star, objective, guarantee = (Fraction(data[key])
                                    for key in ("t_star", "objective", "guarantee"))
    inst, k = case.instance, case.k
    assignment = convalloc.Assignment(
        inst.mode, tuple((aid, tuple(ids)) for aid, ids in data["assignment"].items()))
    report = convalloc.verify(inst, assignment)
    found = []
    if not report.feasible:
        found.append("verify rejects the assignment: " + "; ".join(report.violations))
    if report.objective != objective:
        found.append(f"objective {objective} but verify values it {report.objective}")
    if inst.mode is convalloc.Mode.MAXMIN:
        if t_star > 0 and objective < (1 - Fraction(4, k + 1)) * t_star:
            found.append(f"objective {objective} below (1-4/(k+1)) t_star, t_star={t_star}")
        if t_star == 0 and opt != 0:
            found.append(f"t_star = 0 while OPT is {opt if opt is not None else 'unknown'}")
        if opt is not None and objective < guarantee * opt:
            found.append(f"objective {objective} below guarantee {guarantee} x OPT {opt}")
    else:
        if objective > (1 + Fraction(4, k) + Fraction(3, k * k)) * t_star:
            found.append(f"objective {objective} above (1+4/k+3/k^2) t_star, t_star={t_star}")
        if opt is not None and objective > guarantee * opt:
            found.append(f"objective {objective} above guarantee {guarantee} x OPT {opt}")
    if outcome.exit_code is not None and outcome.exit_code != (1 if t_star == 0 else 0):
        found.append(f"exit code {outcome.exit_code} with t_star = {t_star}")
    return [f"instance {case.index}: {p}" for p in found]


def opt_ratio(convalloc, outcome: Outcome, mode, opt: Optional[Fraction]) -> Optional[Fraction]:
    """objective/OPT (Max-Min) or OPT/objective (Min-Max): higher is better."""
    if opt is None or opt == 0 or outcome.error:
        return None
    objective = Fraction(json.loads(outcome.text)["objective"])
    return objective / opt if mode is convalloc.Mode.MAXMIN else opt / objective


def tail(seconds: list[float]) -> tuple[float, float]:
    """(time, percentile) at the highest percentile with ten solves beyond it.

    Below eleven solves no percentile has ten beyond it; the maximum stands in.
    """
    ordered = sorted(seconds, reverse=True)
    if len(ordered) <= 10:
        return ordered[0], 100.0
    return ordered[10], 100.0 * (len(ordered) - 10) / len(ordered)


def measure_setup(corpus: Path) -> float:
    """Median over fresh interpreters of import convalloc + loading the
    corpus, each normalized by that interpreter's reference time."""
    times = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run([sys.executable, str(PROBE), str(SRC), str(corpus)],
                              capture_output=True, text=True, timeout=120, check=True)
        elapsed, reference = map(float, done.stdout.split())
        times.append(elapsed * REFERENCE_SECONDS / reference)
    return statistics.median(times)


def install_spans(tracer, convalloc) -> None:
    """Wrap each layer's public functions where their callers look them up."""
    cli, solver = convalloc.cli, convalloc.solver
    dp, model = convalloc.dp_engine, convalloc.instance_model

    def count_decide(tr, assignment) -> None:
        tr.counters["decide_rejected"] += assignment is None

    def count_table(tr, table) -> None:
        tr.counters["row_n"] += math.prod(c + 1 for c in table.nu_in)
        tr.counters["inner"] += sum(math.prod(c + 1 for c in nu)
                                    for row in table.rows[1:] for nu in row)
        tr.counters["marked"] += sum(len(row) for row in table.rows)

    for module, attr, name, hook in (
            (cli, "main", "cli.main", None),
            (cli, "load_instance", "instance_model.load_instance", None),
            (model, "load_instance", "instance_model.load_instance", None),
            (cli, "solve_maxmin", "solver.search", None),
            (cli, "solve_minmax", "solver.search", None),
            (solver, "solve_maxmin", "solver.search", None),
            (solver, "solve_minmax", "solver.search", None),
            (solver, "validate", "instance_model.validate", None),
            (solver, "decide", "solver.decide", count_decide),
            (solver, "scale", "solver.scale", None),
            (solver, "round_instance", "rounding.round_instance", None),
            (solver, "verify", "solver.verify", None),
            (dp, "forward", "dp_engine.forward", count_table),
            (dp, "backward", "dp_engine.backward", None)):
        tracer.wrap(module, attr, name, hook)


def traced_pass(convalloc, runner: Runner, cases: list[Case], cap: float):
    """``timed_loop`` with every layer wrapped; returns the tracer, the
    outcomes and the lexicographic_order cache size at the end."""
    tracer = Tracer()
    install_spans(tracer, convalloc)
    try:
        if not runner.workload.via_cli:
            # The library path's set-up: load the files (the CLI loads per solve).
            load = convalloc.instance_model.load_instance
            cases = [Case(c.index, c.path, load(c.path), c.k) for c in cases]
        outcomes = timed_loop(runner, cases, cap, tracer)
        tracer.solve_id = None
        cache_info = getattr(convalloc.instance_model.lexicographic_order, "cache_info", None)
        cache_entries = cache_info().currsize if cache_info is not None else 0
    finally:
        tracer.uninstall()
    return tracer, outcomes, cache_entries


def per_layer_metrics(tracer, traced_sps: float,
                      untraced_sps: float, cache_entries: int) -> dict[str, tuple[float, str]]:
    calls, busy, own = tracer.layer_times()
    c = tracer.counters
    candidates = c["row_n"] + c["inner"]
    return {
        "dp_engine.forward.busy_s": (busy["dp_engine.forward"], "s"),
        "dp_engine.forward.calls": (calls["dp_engine.forward"], "count"),
        "dp_engine.dense_candidates.row_n": (c["row_n"], "count"),
        "dp_engine.dense_candidates.inner": (c["inner"], "count"),
        "dp_engine.marked_entries": (c["marked"], "count"),
        "dp_engine.marked_per_candidate": (c["marked"] / candidates if candidates else 0.0,
                                           "ratio"),
        "dp_engine.backward.busy_s": (busy["dp_engine.backward"], "s"),
        "solver.decide.calls": (calls["solver.decide"], "count"),
        "solver.decide.rejected": (c["decide_rejected"], "count"),
        "solver.decide.self_s": (own["solver.decide"], "s"),
        "solver.search.self_s": (own["solver.search"], "s"),
        "solver.scale.busy_s": (busy["solver.scale"], "s"),
        "rounding.round_instance.busy_s": (busy["rounding.round_instance"], "s"),
        "solver.verify.busy_s": (busy["solver.verify"], "s"),
        "instance_model.load_instance.busy_s": (busy["instance_model.load_instance"], "s"),
        "instance_model.validate.busy_s": (busy["instance_model.validate"], "s"),
        "cli.main.self_s": (own["cli.main"], "s"),
        "instance_model.lexicographic_order.cache_entries": (cache_entries, "count"),
        "bench.trace_overhead_solves_per_s": (traced_sps - untraced_sps, "1/s"),
    }


def throughput(outcomes: list[Outcome]) -> float:
    """Instances solved per normalized second of solve time."""
    return sum(1 for o in outcomes if not o.error) / sum(normalized_seconds(outcomes))


def show(name: str, value, unit: str, note: str = "") -> None:
    text = f"{value:.6g}" if isinstance(value, float) else str(value)
    print(f"{name:<48} {text:>14} {unit}" + (f"  ({note})" if note else ""))


def write_corpus(convalloc, workload, seed: int, count: int, corpus: Path) -> list[Case]:
    """Generate the run's instances, write them as instance files, load them back."""
    from workloads import generate
    corpus.mkdir()
    cases = []
    for i, (instance, k) in enumerate(generate(workload, seed, count)):
        path = str(corpus / f"{i:05d}.json")
        convalloc.dump_instance(instance, path)
        cases.append(Case(i, path, convalloc.load_instance(path), k))
    return cases


def output_digests(runner: Runner, cases: list[Case], untraced: list[Outcome]):
    """Re-solve the cases with the DP trace on; returns the sha256 of their
    result JSON and of their trace lines, the decide count, and the indices
    whose result differs from the timed solve."""
    results, traces = hashlib.sha256(), hashlib.sha256()
    decides = 0
    mismatched = []
    for case in cases:
        outcome, trace_text = runner.solve(case, with_trace=True)
        results.update(outcome.text.encode())
        traces.update(trace_text.encode())
        decides += trace_text.count("# decide ")
        if case.index < len(untraced) and untraced[case.index].text != outcome.text:
            mismatched.append(case.index)
    return results.hexdigest(), traces.hexdigest(), decides, mismatched


def show_quality(convalloc, cases: list[Case], untraced: list[Outcome],
                 opts: dict[int, Optional[Fraction]]) -> None:
    """Answer quality against the exact oracle and the workload's input
    properties; printed, not part of the result object."""
    solved = cases[:len(untraced)]
    ratios = [r for r in (opt_ratio(convalloc, o, c.instance.mode, opts[c.index])
                          for c, o in zip(solved, untraced)) if r is not None]
    if ratios:
        show("opt_ratio_mean", float(sum(ratios) / len(ratios)), "ratio",
             f"over {len(ratios)} solves with exact OPT > 0")
        show("opt_ratio_min", float(min(ratios)), "ratio")
    else:
        print("opt_ratio_mean, opt_ratio_min: n/a (no instance fits the exact oracle)")
    show("property.m_per_instance", sum(c.instance.m for c in solved) / len(solved), "count")
    maxmin_opts = [opts[c.index] for c in solved
                   if c.instance.mode is convalloc.Mode.MAXMIN and opts[c.index] is not None]
    if maxmin_opts:
        show("property.maxmin_opt_zero_share",
             sum(o == 0 for o in maxmin_opts) / len(maxmin_opts), "ratio",
             f"of {len(maxmin_opts)} Max-Min instances with exact OPT")


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="solve time the run is sized for; at least one instance is solved")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    convalloc = import_convalloc()
    from workloads import WORKLOADS
    workload = WORKLOADS.get(args.workload)
    if workload is None:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")

    WORK.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=WORK))
    runner = Runner(convalloc, workload, work)
    try:
        # Traced runs spend half their time traced, half untraced.
        budget = args.seconds / 2 if args.trace else args.seconds
        solves = math.ceil(budget * workload.per_second)

        # Preparation, excluded from every metric.
        cases = write_corpus(convalloc, workload, args.seed,
                             max(solves, workload.digest_prefix), work / "corpus")
        setup_s = None if args.trace else measure_setup(work / "corpus")

        if args.trace:
            try:
                tracer, traced, cache_entries = traced_pass(
                    convalloc, runner, cases[:solves], cap=3 * budget)
                calls = tracer.layer_times()[0]
                silent = sorted(name for name in workload.expected_spans if not calls[name])
                if silent:
                    raise TraceError("layers recorded zero calls: " + ", ".join(silent))
            except TraceError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 2
            tracer.write(WORK / f"spans-{workload.name}-seed{args.seed}.jsonl")
            solves = len(traced)
        untraced = timed_loop(runner, cases[:solves], cap=3 * budget)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        checked = list(zip(cases, untraced))
        if args.trace:
            checked += list(zip(cases, traced))

        # Correctness gate, untimed.
        opts = {c.index: oracle_opt(convalloc, c.instance) for c in cases[:len(untraced)]}
        found = [problems(convalloc, case, outcome, opts[case.index])
                 for case, outcome in checked]
        failed = sum(1 for lines in found if lines)
        failed_untraced = sum(1 for lines in found[:len(untraced)] if lines)

        # Digests over a fixed prefix of the run, so they do not depend on speed.
        prefix = cases[:workload.digest_prefix]
        result_sha, trace_sha, decides, mismatched = output_digests(runner, prefix, untraced)
    finally:
        runner.close()
        shutil.rmtree(work, ignore_errors=True)

    seconds = normalized_seconds(untraced)
    solve_tail, tail_pct = tail(seconds)
    wall = sum(o.seconds for o in untraced)
    print(f"workload {workload.name}, seed {args.seed}: {len(untraced)} solves in {wall:.3f} s "
          f"of solve time{' (untraced replay)' if args.trace else ''}; host at "
          f"{REFERENCE_SECONDS / statistics.median(o.reference for o in untraced):.3f} "
          "of reference speed")
    print(f"  why: {workload.why}")
    end_to_end = {
        "solves_per_s": (throughput(untraced), "1/s"),
        "solve_s_p50": (statistics.median(seconds), "s"),
        "solve_s_tail": (solve_tail, "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    if setup_s is not None:
        end_to_end["setup_s"] = (setup_s, "s")
    for name, (value, unit) in end_to_end.items():
        show(name, value, unit,
             f"p{tail_pct:.1f} over {len(seconds)} solves" if name == "solve_s_tail" else "")
    show("solves_per_s.wall", (len(untraced) - failed_untraced) / wall, "1/s",
         "not normalized")
    show("failed_frac", failed / len(checked), "ratio", f"{failed} of {len(checked)} solves; "
         f"{sum(o is not None for o in opts.values())} of {len(opts)} checked against OPT")
    show_quality(convalloc, cases, untraced, opts)
    show("property.decides_per_solve", decides / len(prefix), "count",
         f"first {len(prefix)} instances")
    print(f"digest.result_sha256 {result_sha}  (first {len(prefix)} instances)")
    print(f"digest.trace_sha256  {trace_sha}  (first {len(prefix)} instances)")
    for line in [line for lines in found for line in lines][:20]:
        print(f"FAILED {line}")
    for index in mismatched:
        print(f"NONDETERMINISTIC instance {index}: the untimed re-solve differs")

    metrics = end_to_end
    if args.trace:
        traced_seconds = sum(o.seconds for o in traced)
        metrics = per_layer_metrics(tracer, throughput(traced), throughput(untraced),
                                    cache_entries)
        print(f"traced pass: {len(traced)} solves in {traced_seconds:.3f} s")
        for name, (value, unit) in metrics.items():
            show(name, value, unit)
        decide_calls = metrics["solver.decide.calls"][0]
        show("layer_share.dp_engine.forward",
             metrics["dp_engine.forward.busy_s"][0] / traced_seconds, "ratio",
             "of traced solve time")
        show("property.decides_per_solve.traced", decide_calls / len(traced), "count")
        show("property.dense_candidates_per_decide",
             (tracer.counters["row_n"] + tracer.counters["inner"]) / max(decide_calls, 1),
             "count")

    print(json.dumps({
        "correct": failed == 0 and not mismatched,
        "attempted": len(checked),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
