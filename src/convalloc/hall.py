"""Generalized Hall feasibility conditions for both objectives.

On inclusion-free instances it suffices to check the condition on intervals:
item intervals against the demands of fully-enclosed agents (Max-Min), and
machine intervals against the processing time of fully-enclosed jobs
(Min-Max).  A subset-enumeration oracle cross-validates the interval checks
on small instances.

With every demand (Max-Min) or every allowed load (Min-Max) equal to one
number t, the interval condition solved for t bounds the optimum:

- Max-Min: ``U = min over item intervals of val(interval) / #agents inside``.
  The agents inside an interval can only take items from it, so OPT <= U.
  OPT > 0 exactly when a matching covers every agent, which is the interval
  condition with every value and demand 1.  U is the optimum of the
  fractional assignment, and rounding it loses at most one item per agent
  (Bezakova and Dani, "Allocating indivisible goods", SIGecom Exchanges 5(3),
  2005), so OPT >= U - v_max.
- Min-Max: ``L = max(p_max, max over machine runs of p(jobs confined to the
  run) / #machines)``, so OPT >= L.  L is the optimum of the fractional
  schedule, and rounding it adds at most one job per machine (Lenstra, Shmoys
  and Tardos, Math. Programming 46, 1990), so OPT <= L + p_max.

On an inclusion-free instance the agents inside an item interval, and the
machines a job can use, are runs of consecutive lexicographic ranks, so both
bounds are an O(n^2) sweep over the runs i..j of that order, on integer
weights over one common denominator.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, combinations
from typing import Iterator, Optional, Sequence

from .instance_model import ConvexInstance, Mode, coverage_ranges, lexicographic_order

BRUTE_FORCE_LIMIT = 20


@dataclass(frozen=True)
class HallWitness:
    """A violated interval: lhs and rhs reproduce the failed inequality."""
    lo: int
    hi: int
    lhs: Fraction
    rhs: Fraction


def _resolve_demands(instance: ConvexInstance,
                     demands: Optional[Sequence[Fraction]]) -> tuple[Fraction, ...]:
    if demands is None:
        return tuple(a.demand for a in instance.agents)
    if len(demands) != instance.n:
        raise ValueError(f"expected {instance.n} demand entries, got {len(demands)}")
    return tuple(Fraction(d) for d in demands)


def _iter_maxmin_violations(instance: ConvexInstance,
                            demands: tuple[Fraction, ...]) -> Iterator[HallWitness]:
    m = instance.m
    prefix = [Fraction(0)] * (m + 1)
    for pos in range(1, m + 1):
        prefix[pos] = prefix[pos - 1] + instance.value_at(pos)
    by_hi: list[list[tuple[int, Fraction]]] = [[] for _ in range(m + 1)]
    for i, a in enumerate(instance.agents):
        by_hi[a.hi].append((a.lo, demands[i]))
    for lo in range(1, m + 1):
        demanded = Fraction(0)
        for hi in range(lo, m + 1):
            for agent_lo, d in by_hi[hi]:
                if agent_lo >= lo:
                    demanded += d
            lhs = prefix[hi] - prefix[lo - 1]
            if lhs < demanded:
                yield HallWitness(lo, hi, lhs, demanded)


def check_hall_maxmin(instance: ConvexInstance,
                      demands: Optional[Sequence[Fraction]] = None) -> Optional[HallWitness]:
    """First (smallest lo, then hi) item interval [lo,hi] with
    val([lo,hi]) < sum of demands of agents fully inside it; None if Hall holds.
    """
    if instance.mode is not Mode.MAXMIN:
        raise ValueError("check_hall_maxmin expects a Max-Min instance")
    return next(_iter_maxmin_violations(instance, _resolve_demands(instance, demands)), None)


def all_hall_violations_maxmin(instance: ConvexInstance,
                               demands: Optional[Sequence[Fraction]] = None
                               ) -> tuple[HallWitness, ...]:
    return tuple(_iter_maxmin_violations(instance, _resolve_demands(instance, demands)))


def _iter_minmax_violations(instance: ConvexInstance,
                            loads: tuple[Fraction, ...]) -> Iterator[HallWitness]:
    # Machines in lexicographic order; each job's machine set must be a
    # contiguous range of lex ranks (coverage_ranges raises otherwise).
    order = lexicographic_order(instance)
    n_machines = instance.n
    ranges = coverage_ranges(instance)
    loads_by_rank = [loads[order[r - 1]] for r in range(1, n_machines + 1)]
    by_last: list[list[tuple[int, Fraction]]] = [[] for _ in range(n_machines + 1)]
    for pos in range(1, instance.m + 1):
        first, last = ranges[pos - 1]
        by_last[last].append((first, instance.value_at(pos)))
    for lo in range(1, n_machines + 1):
        work = Fraction(0)
        allowed = Fraction(0)
        for hi in range(lo, n_machines + 1):
            allowed += loads_by_rank[hi - 1]
            for first, p in by_last[hi]:
                if first >= lo:
                    work += p
            if work > allowed:
                yield HallWitness(lo, hi, work, allowed)


def check_hall_minmax(instance: ConvexInstance,
                      loads: Optional[Sequence[Fraction]] = None) -> Optional[HallWitness]:
    """First machine interval [lo,hi] (lex ranks) whose enclosed jobs exceed
    the interval's total allowable load; None if Hall holds.

    Raises ValueError when some job's machine set is not an interval, which
    signals a non-inclusion-free input.
    """
    if instance.mode is not Mode.MINMAX:
        raise ValueError("check_hall_minmax expects a Min-Max instance")
    return next(_iter_minmax_violations(instance, _resolve_demands(instance, loads)), None)


def all_hall_violations_minmax(instance: ConvexInstance,
                               loads: Optional[Sequence[Fraction]] = None
                               ) -> tuple[HallWitness, ...]:
    return tuple(_iter_minmax_violations(instance, _resolve_demands(instance, loads)))


def _lex_profile(instance: ConvexInstance) -> tuple[list[int], list[int], int, list[int]]:
    """Lows and highs in lexicographic order, the common denominator D of the
    instance's integer view, and the prefix sums of its weights D v."""
    if not instance.agents:
        raise ValueError("instance has no agents")
    order = lexicographic_order(instance)
    lows = [instance.agents[i].lo for i in order]
    highs = [instance.agents[i].hi for i in order]
    weights, denom = instance.integers
    return lows, highs, denom, list(accumulate(weights, initial=0))


def maxmin_upper_bound(instance: ConvexInstance) -> tuple[Fraction, bool]:
    """(U, covered) for a valid Max-Min instance: OPT <= U, OPT >= U - v_max,
    and covered tells whether a matching covers every agent, i.e. OPT > 0.

    The run i..j of lexicographic ranks is tightest on [lo_i, hi_j]: that
    interval holds the run, and every interval holding the run contains it.
    """
    if instance.mode is not Mode.MAXMIN:
        raise ValueError("maxmin_upper_bound expects a Max-Min instance")
    lows, highs, denom, prefix = _lex_profile(instance)
    best_w, best_c = prefix[-1], 1  # val / count, kept as two integers
    covered = True
    for i, low in enumerate(lows):
        before = prefix[low - 1]
        for j in range(i, len(lows)):
            count = j - i + 1
            covered = covered and highs[j] - low + 1 >= count
            w = prefix[highs[j]] - before
            if w * best_c < best_w * count:
                best_w, best_c = w, count
    return Fraction(best_w, denom * best_c), covered


def minmax_lower_bound(instance: ConvexInstance) -> Fraction:
    """L for a valid Min-Max instance: L <= OPT <= L + p_max.

    A job is confined to the machine run i..j iff it lies right of every
    machine ranked below i and left of every machine ranked above j, so the
    confined jobs are the positions hi_{i-1} < p < lo_{j+1}.
    """
    if instance.mode is not Mode.MINMAX:
        raise ValueError("minmax_lower_bound expects a Min-Max instance")
    lows, highs, denom, prefix = _lex_profile(instance)
    n, m = len(lows), instance.m
    best_w = max(instance.integers[0])  # p_max
    best_c = 1
    for i in range(n):
        start = highs[i - 1] if i else 0
        for j in range(i, n):
            end = lows[j + 1] - 1 if j + 1 < n else m
            count = j - i + 1
            w = prefix[end] - prefix[start]
            if w * best_c > best_w * count:
                best_w, best_c = w, count
    return Fraction(best_w, denom * best_c)


def check_hall_bruteforce(instance: ConvexInstance,
                          weights: Optional[Sequence[Fraction]] = None
                          ) -> Optional[tuple[str, ...]]:
    """Subset-enumeration oracle for the interval checks.

    Max-Min: enumerates agent subsets, smallest first, and returns the ids of
    the first subset whose neighbourhood value falls short of its demand.
    Min-Max: enumerates job subsets against the allowable loads of their
    machine neighbourhood.  Returns None when the condition holds everywhere.
    """
    if instance.mode is Mode.MAXMIN:
        if instance.n > BRUTE_FORCE_LIMIT:
            raise ValueError(f"brute-force Hall check limited to {BRUTE_FORCE_LIMIT} agents")
        demands = _resolve_demands(instance, weights)
        for size in range(1, instance.n + 1):
            for subset in combinations(range(instance.n), size):
                covered: set[int] = set()
                for i in subset:
                    covered.update(range(instance.agents[i].lo, instance.agents[i].hi + 1))
                value = sum((instance.value_at(p) for p in covered), Fraction(0))
                demand = sum((demands[i] for i in subset), Fraction(0))
                if value < demand:
                    return tuple(instance.agents[i].id for i in subset)
        return None

    if instance.m > BRUTE_FORCE_LIMIT:
        raise ValueError(f"brute-force Hall check limited to {BRUTE_FORCE_LIMIT} jobs")
    loads = _resolve_demands(instance, weights)
    order = lexicographic_order(instance)
    ranges = coverage_ranges(instance)
    loads_by_rank = [loads[order[r - 1]] for r in range(1, instance.n + 1)]
    for size in range(1, instance.m + 1):
        for subset in combinations(range(1, instance.m + 1), size):
            machines: set[int] = set()
            for pos in subset:
                first, last = ranges[pos - 1]
                machines.update(range(first, last + 1))
            work = sum((instance.value_at(p) for p in subset), Fraction(0))
            allowed = sum((loads_by_rank[r - 1] for r in machines), Fraction(0))
            if work > allowed:
                return tuple(instance.items[p - 1].id for p in subset)
    return None
