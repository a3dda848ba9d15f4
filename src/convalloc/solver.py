"""End-to-end approximation solvers for both objectives.

``decide`` answers one guess t: scale values by t, round, and run the
dynamic program.  It succeeds whenever a t-assignment exists, and any success
certifies an original-value objective within the rounded factor of t:
at least (1 - 4/(k+1)) t for Max-Min, at most (1 + 4/k + 3/k^2) t for
Min-Max.  One binary search over t serves both modes, inside the interval
Hall bracket of ``hall.hall_bound``: [max(v_min, U - v_max), U] for
Max-Min, with OPT <= U and OPT >= U - v_max by Bezakova-Dani (SIGecom
Exchanges 5(3), 2005), and [L, min(total, L + p_max)] for Min-Max, with
OPT >= L and OPT <= L + p_max by Lenstra-Shmoys-Tardos (Math. Programming
46, 1990).  It tries U or L first, and a Max-Min instance with no
agent-covering matching (OPT = 0) needs no decide at all.  The search reports the largest (Max-Min)
or smallest (Min-Max) certified guess and the assignment with the best
objective any success verified against the original values.
``solve_maxmin`` / ``solve_minmax`` are its two entry points.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from . import dp_engine
from .hall import hall_bound
from .instance_model import (Assignment, ConvexInstance, Mode, _partition_pass,
                             assignment_from_positions, scaled_by, validate, with_integers)
from .rounding import round_instance, scheme


class SolveError(ValueError):
    """The instance is unusable (failed validation or wrong mode)."""


class _AgentValues(Sequence):
    """Each bundle's (agent id, value), built on first read: the search
    reads a report's feasibility and objective, never these values.  Equal
    to the tuple of the same pairs, and hashed as it."""

    __slots__ = ("_bundles", "_totals", "_denom", "_values")

    def __init__(self, bundles, totals: list[int], denom: int) -> None:
        self._bundles, self._totals, self._denom = bundles, totals, denom
        self._values: Optional[tuple[tuple[str, Fraction], ...]] = None

    def _tuple(self) -> tuple[tuple[str, Fraction], ...]:
        if self._values is None:
            denom = self._denom
            self._values = tuple((aid, Fraction(total, denom))
                                 for (aid, _), total in zip(self._bundles, self._totals))
        return self._values

    def __getitem__(self, index):
        return self._tuple()[index]

    def __len__(self) -> int:
        return len(self._totals)

    def __eq__(self, other) -> bool:
        if isinstance(other, (tuple, _AgentValues)):
            return self._tuple() == tuple(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._tuple())

    def __repr__(self) -> str:
        return repr(self._tuple())


@dataclass(frozen=True)
class VerifyReport:
    feasible: bool
    violations: tuple[str, ...]
    agent_values: Sequence[tuple[str, Fraction]]
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
    infeasibility (None) when any processing time exceeds t.  With the
    instance's integer view (w, D), v / t = w t_den / (D t_num), so the
    scaled instance is the view (w t_den, D t_num), a clamped weight being
    D t_num.  When no value exceeds t, nothing is clamped and the result is
    ``scaled_by`` the factor t_den, in O(1): its weights are built when
    first read, which ``round_instance`` does unless every value is small.
    A clamped instance builds its weights here; its items are built only
    when read.
    """
    if t <= 0:
        raise ValueError(f"guess t must be positive, got {t}")
    scaling, t_den = instance.scaling, t.denominator
    denom = (instance.integers[1] if scaling is None else scaling.denom) * t.numerator
    if instance.spread[1] * t_den <= denom:  # the largest scaled weight
        return scaled_by(instance, t_den, 1, denom)
    if instance.mode is Mode.MINMAX:
        return None
    return with_integers(instance, (tuple([min(w * t_den, denom)
                                           for w in instance.integers[0]]), denom))


def decide(instance: ConvexInstance, t: Fraction, k: int,
           trace: Optional[list[str]] = None) -> Optional[Assignment]:
    """Search for an assignment certifying the guess t; None means failure.

    Succeeds whenever a t-assignment exists.  On success the returned
    partition's original-value objective is >= (1 - 4/(k+1)) t (Max-Min)
    or <= (1 + 4/k + 3/k^2) t (Min-Max).  Contrapositively, it fails
    whenever OPT < (1 - 4/(k+1)) t (Max-Min) or OPT > (1 + 4/k + 3/k^2) t
    (Min-Max); between that line and t it may succeed or fail.
    """
    scaled = scale(instance, t)
    if scaled is None:
        if trace is not None:
            trace.append(f"# decide t={t} k={k} infeasible-scaling")
        return None
    rounded = round_instance(scaled, scheme(k, instance.mode))
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
    maxmin = instance.mode is Mode.MAXMIN
    violations, totals, assigned = _partition_pass(instance, assignment, not maxmin)
    weights, denom = instance.integers
    # assigned holds first positions of ids: no item is unassigned iff it holds m
    if len(assigned) < len(weights):
        pos_of = instance.ids[0]
        unassigned = tuple(x for x in instance.item_ids if pos_of[x] not in assigned)
    else:
        unassigned = ()
    return VerifyReport(not violations, tuple(violations),
                        _AgentValues(assignment.bundles, totals, denom),
                        Fraction((min if maxmin else max)(totals, default=0), denom),
                        unassigned)


def _require_valid(instance: ConvexInstance, mode: Mode) -> None:
    if instance.mode is not mode:
        raise SolveError(f"expected a {mode.value} instance, got {instance.mode.value}")
    report = validate(instance)
    if not report.ok:
        raise SolveError("invalid instance: "
                         + "; ".join(v.message for v in report.violations))


def _search_parameters(k: int, mode: Mode, delta: Optional[Fraction]) -> tuple[int, Fraction]:
    """Check k, then delta; returns k as an int and delta, 1/(4k) when not
    given.  k is read from ``rounding.scheme``, which checks it, so a solve
    that decides no guess refuses a bad k too."""
    k = scheme(k, mode).k
    if delta is None:
        return k, Fraction(1, 4 * k)  # in (0, 1) for every k >= 4
    delta = Fraction(delta)
    if not 0 < delta < 1:
        raise ValueError(f"delta must lie in (0,1), got {delta}")
    return k, delta


def _fallback_partition(instance: ConvexInstance) -> Assignment:
    """Every item to its first covering agent in lexicographic order: on a
    valid instance, the first rank whose high reaches the item's position."""
    order, _, highs = instance.lex
    bundles: dict[int, list[int]] = {}
    for pos in range(1, instance.m + 1):
        bundles.setdefault(order[bisect_left(highs, pos)], []).append(pos)
    return assignment_from_positions(instance, bundles)


def _search(instance: ConvexInstance, mode: Mode, k: int,
            delta: Optional[Fraction], trace: Optional[list[str]]) -> SolveResult:
    """Binary search inside the interval Hall bracket of ``hall.hall_bound``.

    When the bound reports OPT = 0, which only a Max-Min instance with no
    agent-covering matching can, the search takes the fallback with no
    decide.  Otherwise Max-Min brackets
    [max(v_min, U - v_max), U] and Min-Max [L, min(total, L + p_max)], and
    the first guess is the tight end, U or L.  A success there ends the
    search, so the bracket is built only when that guess fails.  A success
    moves lo (Max-Min) or hi (Min-Max), a failure the other end.  If no
    guess succeeds, the untried end of the bracket, which bounds OPT, is
    decided last.
    """
    _require_valid(instance, mode)
    k, delta = _search_parameters(k, mode, delta)
    if instance.n == 0:
        raise SolveError("instance has no agents")
    bound, opt_positive = hall_bound(instance)
    if not opt_positive:
        assignment = _fallback_partition(instance)
        return SolveResult(mode, k, delta, Fraction(0),
                           verify(instance, assignment).objective, Fraction(0),
                           assignment)
    maxmin = mode is Mode.MAXMIN
    t_star: Optional[Fraction] = None  # the last success, the tightest
    best: Optional[tuple[Fraction, Assignment]] = None  # the best verified objective

    def succeeds(t: Fraction) -> bool:
        nonlocal t_star, best
        found = decide(instance, t, k, trace)
        if found is None:
            return False
        report = verify(instance, found)
        if not report.feasible:
            raise AssertionError(f"decide returned an infeasible assignment at t={t}: "
                                 f"{report.violations[0]}")
        objective = report.objective
        if best is None or (objective > best[0] if maxmin else objective < best[0]):
            best = (objective, found)
        t_star = t
        return True

    if not succeeds(bound):
        w_min, w_max, _ = instance.spread
        denom = instance.integers[1]
        v_max = Fraction(w_max, denom)
        if maxmin:
            # OPT > 0 gives every agent an item, so OPT >= v_min
            lo, hi = max(Fraction(w_min, denom), bound - v_max), bound
        else:
            lo, hi = bound, min(instance.total_value(), bound + v_max)
        # Each step halves hi - lo, and lo >= v_min > 0 (Max-Min) or lo >= L > 0
        # (Min-Max), so the loop ends.
        while hi - lo > delta * lo:
            mid = (lo + hi) / 2
            if succeeds(mid) is maxmin:
                lo = mid
            else:
                hi = mid
        if t_star is None and not succeeds(lo if maxmin else hi):
            raise AssertionError("decide failed at a proven bound on the optimum")
    objective, assignment = best
    # (1 - 4/(k+1)) (1 - delta) and (1 + 4/k + 3/k^2) (1 + delta), each as
    # one fraction over delta = dn / dd
    dn, dd = delta.numerator, delta.denominator
    if maxmin:
        guarantee = Fraction((k - 3) * (dd - dn), (k + 1) * dd)
    else:
        guarantee = Fraction((k + 1) * (k + 3) * (dd + dn), k * k * dd)
    return SolveResult(mode, k, delta, t_star, objective, guarantee, assignment)


def solve_maxmin(instance: ConvexInstance, k: int,
                 delta: Optional[Fraction] = None,
                 trace: Optional[list[str]] = None) -> SolveResult:
    """The largest certified guess on [max(v_min, U - v_max), U], U first.

    U is the interval Hall bound, so OPT <= U, and OPT >= U - v_max
    (Bezakova-Dani, SIGecom Exchanges 5(3), 2005).  The certified objective
    is >= (1 - 4/(k+1)) (1 - delta) OPT.  When no matching covers every
    agent (the optimum is 0), the result carries t_star = 0 and a
    deterministic fallback partition, with no decide.
    """
    return _search(instance, Mode.MAXMIN, k, delta, trace)


def solve_minmax(instance: ConvexInstance, k: int,
                 delta: Optional[Fraction] = None,
                 trace: Optional[list[str]] = None) -> SolveResult:
    """The smallest certified guess on [L, min(total, L + p_max)], L first.

    L is the interval Hall bound, so OPT >= L, and OPT <= L + p_max
    (Lenstra-Shmoys-Tardos, Math. Programming 46, 1990).  The certified makespan
    is <= (1 + 4/k + 3/k^2) (1 + delta) OPT.
    """
    return _search(instance, Mode.MINMAX, k, delta, trace)
