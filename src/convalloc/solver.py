"""End-to-end approximation solvers for both objectives.

``decide`` answers one guess t: scale values by t, round, and run the
dynamic program.  It succeeds whenever a t-assignment exists, and any success
certifies an original-value objective within the rounded factor of t:
at least (1 - 4/(k+1)) t for Max-Min, at most (1 + 4/k + 3/k^2) t for
Min-Max.  ``solve_maxmin`` / ``solve_minmax`` wrap it in a binary search over
t and re-verify the winning assignment against the original values.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from . import dp_engine
from .instance_model import (Assignment, ConvexInstance, Item, Mode,
                             assignment_from_positions, lexicographic_order,
                             partition_violations, validate)
from .rounding import direction_for, round_instance, scheme

MAX_SEARCH_ITERATIONS = 128


class SolveError(Exception):
    """The instance is unusable (failed validation or wrong mode)."""


@dataclass(frozen=True)
class VerifyReport:
    feasible: bool
    violations: tuple[str, ...]
    agent_values: tuple[tuple[str, Fraction], ...]
    objective: Fraction
    unassigned: tuple[str, ...]


@dataclass(frozen=True)
class SolveResult:
    mode: Mode
    k: int
    delta: Fraction
    t_star: Fraction
    objective: Fraction
    guarantee: Fraction
    assignment: Assignment

    @property
    def failed(self) -> bool:
        return self.t_star == 0


def scale(instance: ConvexInstance, t: Fraction) -> Optional[ConvexInstance]:
    """Normalize values by the guess t so that a t-assignment becomes a
    1-assignment.

    Max-Min clamps values above t down to t first; Min-Max instead reports
    infeasibility (None) when any processing time exceeds t.
    """
    if t <= 0:
        raise ValueError(f"guess t must be positive, got {t}")
    items = []
    for it in instance.items:
        v = it.value
        if v > t:
            if instance.mode is Mode.MINMAX:
                return None
            v = t
        items.append(Item(it.id, v / t))
    return ConvexInstance(instance.mode, tuple(items), instance.agents)


def decide(instance: ConvexInstance, t: Fraction, k: int,
           trace: Optional[list[str]] = None) -> Optional[Assignment]:
    """Search for an assignment certifying the guess t; None means failure.

    Succeeds whenever a t-assignment exists.  On success the returned
    partition's original-value objective is >= (1 - 4/(k+1)) t (Max-Min)
    or <= (1 + 4/k + 3/k^2) t (Min-Max).
    """
    scaled = scale(instance, t)
    if scaled is None:
        if trace is not None:
            trace.append(f"# decide t={t} k={k} infeasible-scaling")
        return None
    rounded = round_instance(scaled, scheme(k, direction_for(instance.mode)))
    assignment, table = dp_engine.solve_rounded(rounded)
    if trace is not None:
        trace.append(f"# decide t={t} k={k} "
                     f"{'success' if assignment is not None else 'failure'}")
        trace.extend(dp_engine.trace_lines(table))
    return assignment


def verify(instance: ConvexInstance, assignment: Assignment) -> VerifyReport:
    """Check an assignment against the original instance and value it.

    Max-Min assignments may leave items unassigned (they are reported but not
    a violation); Min-Max assignments must place every job.  The objective is
    the minimum agent value (Max-Min) or the maximum load (Min-Max) in
    original, unrounded values.
    """
    require_cover = instance.mode is Mode.MINMAX
    violations = tuple(partition_violations(instance, assignment, require_cover))
    # reversed: with duplicate ids the first item wins, as in item_index
    value_of = {it.id: it.value for it in reversed(instance.items)}
    assigned: set[str] = set()
    values = []
    for aid, ids in assignment.bundles:
        total = Fraction(0)
        for x in ids:
            assigned.add(x)
            # an unknown id is already reported as a violation
            total += value_of.get(x, 0)
        values.append((aid, total))
    unassigned = tuple(it.id for it in instance.items if it.id not in assigned)
    if values:
        totals = [v for _, v in values]
        objective = min(totals) if instance.mode is Mode.MAXMIN else max(totals)
    else:
        objective = Fraction(0)
    return VerifyReport(not violations, violations, tuple(values), objective, unassigned)


def _require_valid(instance: ConvexInstance, mode: Mode) -> None:
    if instance.mode is not mode:
        raise SolveError(f"expected a {mode.value} instance, got {instance.mode.value}")
    report = validate(instance)
    if not report.ok:
        raise SolveError("invalid instance: "
                         + "; ".join(v.message for v in report.violations))


def _fallback_partition(instance: ConvexInstance) -> Assignment:
    """Every item to its first covering agent in lexicographic order."""
    order = lexicographic_order(instance)
    bundles: dict[int, list[int]] = {}
    for pos in range(1, instance.m + 1):
        for idx in order:
            if instance.agents[idx].covers(pos):
                bundles.setdefault(idx, []).append(pos)
                break
    return assignment_from_positions(instance, bundles)


def solve_maxmin(instance: ConvexInstance, k: int,
                 delta: Optional[Fraction] = None,
                 trace: Optional[list[str]] = None) -> SolveResult:
    """Binary search for the largest certified guess on [0, total/n].

    The certified objective is >= (1 - 4/(k+1)) (1 - delta) OPT.  When no
    guess certifies (the optimum is 0: some agent cannot be served), the
    result carries t_star = 0 and a deterministic fallback partition.
    """
    _require_valid(instance, Mode.MAXMIN)
    delta = Fraction(1, 4 * k) if delta is None else Fraction(delta)
    if not 0 < delta < 1:
        raise ValueError(f"delta must lie in (0,1), got {delta}")
    upper = instance.total_value() / instance.n
    best: Optional[tuple[Fraction, Assignment]] = None

    top = decide(instance, upper, k, trace)
    if top is not None:
        best = (upper, top)
        lo = hi = upper
    else:
        lo, hi = Fraction(0), upper

    iterations = 0
    while iterations < MAX_SEARCH_ITERATIONS and hi - lo > delta * lo:
        mid = (lo + hi) / 2
        if mid == lo or mid == hi or mid <= 0:
            break
        iterations += 1
        found = decide(instance, mid, k, trace)
        if found is not None:
            lo, best = mid, (mid, found)
        else:
            hi = mid

    factor = 1 - Fraction(4, k + 1)
    if best is None:
        assignment = _fallback_partition(instance)
        return SolveResult(Mode.MAXMIN, k, delta, Fraction(0),
                           verify(instance, assignment).objective, Fraction(0),
                           assignment)
    t_star, assignment = best
    objective = verify(instance, assignment).objective
    return SolveResult(Mode.MAXMIN, k, delta, t_star, objective,
                       factor * (1 - delta), assignment)


def solve_minmax(instance: ConvexInstance, k: int,
                 delta: Optional[Fraction] = None,
                 trace: Optional[list[str]] = None) -> SolveResult:
    """Binary search for the smallest certified guess on [total/n, total].

    The certified makespan is <= (1 + 4/k + 3/k^2) (1 + delta) OPT.
    """
    _require_valid(instance, Mode.MINMAX)
    delta = Fraction(1, 4 * k) if delta is None else Fraction(delta)
    if not 0 < delta < 1:
        raise ValueError(f"delta must lie in (0,1), got {delta}")
    total = instance.total_value()
    lower = total / instance.n

    bottom = decide(instance, lower, k, trace)
    if bottom is not None:
        best = (lower, bottom)
        lo = hi = lower
    else:
        top = decide(instance, total, k, trace)
        if top is None:
            raise AssertionError("decide failed at t = total load, which always"
                                 " admits an assignment")
        best = (total, top)
        lo, hi = lower, total

    iterations = 0
    while iterations < MAX_SEARCH_ITERATIONS and hi - lo > delta * lo:
        mid = (lo + hi) / 2
        if mid == lo or mid == hi:
            break
        iterations += 1
        found = decide(instance, mid, k, trace)
        if found is not None:
            hi, best = mid, (mid, found)
        else:
            lo = mid

    t_star, assignment = best
    factor = 1 + Fraction(4, k) + Fraction(3, k * k)
    objective = verify(instance, assignment).objective
    return SolveResult(Mode.MINMAX, k, delta, t_star, objective,
                       factor * (1 + delta), assignment)
