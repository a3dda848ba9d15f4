"""The three seeded workloads of the convalloc benchmark.

Every instance comes from ``convalloc.generator.gen_inclusion_free``, seeded
with ``seed * SEED_STRIDE + i`` for the i-th instance of a run, so a run seed
pins its whole instance stream.  The program only ever sees the generated
instance files.

A run solves a fixed number of instances, ``per_second`` times the seconds
it measures, so the instances a run measures do not depend on how fast the
host or the code is.  ``per_second`` was measured on a shared 2-core x86 VM,
a little below the current code's rate there.

Shapes are chosen so that one run is steady across seeds: solve time varies
widely between instances of one shape, so a run must average many.  Measured
on that VM: Max-Min k=6, n=5, m=30 with values in (0, 1] takes from 0.01 s to
over 50 s per solve and up to 1.9 GB RSS, so n=5, m=20 with values in
(1/2, 1] stands in for it.  Min-Max k=8, n=12, m=120 with values in (1/4, 1]
has a solve-time coefficient of variation above 1; values in (1/3, 1] bring
it to 0.4, while dp_engine.forward's share of solve time falls from ~94% to
84-86%.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from convalloc import ConvexInstance, Mode, gen_inclusion_free

SEED_STRIDE = 100_000
CLI_KS = (4, 6, 8, 12)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    via_cli: bool      # solve through convalloc.cli.main instead of the library
    per_second: float  # solves per second of the current code, which sizes a run
    digest_prefix: int  # leading instances re-solved, untimed, for the output digests
    expected_spans: frozenset[str]
    make: Callable[[int, int], tuple[ConvexInstance, int]]  # (seed, index) -> (instance, k)


def _maxmin_dense(s: int, i: int) -> tuple[ConvexInstance, int]:
    return gen_inclusion_free(s, 5, 20, (Fraction(1, 2), Fraction(1)), Mode.MAXMIN), 6


def _minmax_wide(s: int, i: int) -> tuple[ConvexInstance, int]:
    return gen_inclusion_free(s, 12, 120, (Fraction(1, 3), Fraction(1)), Mode.MINMAX), 8


def _cli_mixed(s: int, i: int) -> tuple[ConvexInstance, int]:
    # Modes alternate; k cycles through CLI_KS within each mode.
    mode = Mode.MAXMIN if i % 2 == 0 else Mode.MINMAX
    return gen_inclusion_free(s, 4, 6, mode=mode), CLI_KS[(i // 2) % len(CLI_KS)]


_SOLVE_SPANS = frozenset({
    "instance_model.load_instance", "instance_model.validate", "solver.search",
    "solver.decide", "solver.scale", "rounding.round_instance",
    "dp_engine.forward", "dp_engine.backward", "solver.verify",
})

WORKLOADS = {w.name: w for w in (
    Workload("maxmin-dense-k6",
             "Max-Min k=6, n=5, m=20: dp_engine.forward enumerates every dominated "
             "vector and takes over 90% of solve time",
             via_cli=False, per_second=15, digest_prefix=10,
             expected_spans=_SOLVE_SPANS, make=_maxmin_dense),
    Workload("minmax-wide-k8",
             "Min-Max k=8, n=12, m=120: the largest required shape, rounding down, "
             "inner DP rows dominate, 120 items per scale and verify",
             via_cli=False, per_second=4.5, digest_prefix=8,
             expected_spans=_SOLVE_SPANS, make=_minmax_wide),
    Workload("cli-mixed-small",
             "tiny n=4, m=6 instances of both modes, k in 4..12, through cli.main: "
             "per-call overhead, JSON I/O and the binary search dominate",
             via_cli=True, per_second=75, digest_prefix=40,
             expected_spans=_SOLVE_SPANS | {"cli.main"}, make=_cli_mixed),
)}


def generate(workload: Workload, seed: int, count: int) -> list[tuple[ConvexInstance, int]]:
    """The run's first ``count`` instances with their k, in solve order."""
    return [workload.make(seed * SEED_STRIDE + i, i) for i in range(count)]
