"""Generalized Hall feasibility conditions for both objectives.

On inclusion-free instances it suffices to check the condition on intervals:
item intervals against the demands of fully-enclosed agents (Max-Min), and
machine intervals against the processing time of fully-enclosed jobs
(Min-Max).  The agents inside an item interval, and the machines a job can
use, are then runs of consecutive lexicographic ranks (Glover, "Maximum
matching in a convex bipartite graph", Naval Res. Logistics Q. 14, 1967).
So each mode has one O(n^2) sweep over the runs i..j of that order, on
integer weights over one common denominator, and both its check and its
bound read it; a run's demand or allowed load is a prefix-sum difference
over the ranks.  The order and its endpoints are the instance's ``lex``,
and each agent's demand (Max-Min) or allowed load (Min-Max) is its own
``demand``.  A Max-Min witness is a tight interval (see ``_maxmin_runs``).

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
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from typing import Iterator, Optional, Sequence

from .instance_model import ConvexInstance, Mode


@dataclass(frozen=True)
class HallWitness:
    """A violated interval: lhs and rhs reproduce the failed inequality."""
    lo: int
    hi: int
    lhs: Fraction
    rhs: Fraction


def _lex_profile(instance: ConvexInstance
                 ) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...], int, list[int]]:
    """The instance's ``lex`` (order, lows, highs), the common denominator D
    of its integer view, and the prefix sums of its weights D v.  Raises
    ValueError with no agents, or when the highs decrease (a nesting)."""
    if not instance.agents:
        raise ValueError("instance has no agents")
    order, lows, highs = instance.lex
    if any(a > b for a, b in zip(highs, highs[1:])):
        raise ValueError("the highs decrease in lexicographic order: not inclusion-free")
    weights, denom = instance.integers
    return order, lows, highs, denom, list(accumulate(weights, initial=0))


def _maxmin_runs(lows: Sequence[int], highs: Sequence[int],
                 prefix: list[int]) -> Iterator[tuple[int, int, int]]:
    """(i, j, w) for each maximal run i..j of lexicographic ranks, in
    (lo_i, hi_j) order: no rank before i has lo_i and none after j has hi_j,
    so the tight interval [lo_i, hi_j] holds exactly agents i..j; w is its
    integer value.  The agents inside any item interval form one maximal run,
    and shrinking the interval to that run's tight one lowers the value.
    """
    n = len(lows)
    ends = [j for j in range(n) if j + 1 == n or highs[j] < highs[j + 1]]
    for i in range(n):
        if i == 0 or lows[i - 1] < lows[i]:
            before = prefix[lows[i] - 1]
            for j in ends:
                if j >= i:
                    yield i, j, prefix[highs[j]] - before


def _minmax_runs(lows: Sequence[int], highs: Sequence[int],
                 prefix: list[int]) -> Iterator[tuple[int, int, int]]:
    """(i, j, w) for each run i..j of lexicographic ranks, i then j
    ascending, with w the integer work of the jobs confined to it: those
    right of every machine ranked below i and left of every machine ranked
    above j, the positions hi_{i-1} < p < lo_{j+1}.
    """
    n = len(lows)
    ends = [low - 1 for low in lows[1:]] + [len(prefix) - 1]  # confined: p <= ends[j]
    for i in range(n):
        start = highs[i - 1] if i else 0
        before = prefix[start]
        for j in range(i, n):
            yield i, j, (prefix[ends[j]] - before if ends[j] > start else 0)


def _violations(instance: ConvexInstance, mode: Mode) -> Iterator[HallWitness]:
    """The violated runs of ``mode``'s sweep, in sweep order."""
    if instance.mode is not mode:
        raise ValueError(f"expected a {mode.value} instance, got {instance.mode.value}")
    if not instance.agents:
        return
    order, lows, highs, denom, prefix = _lex_profile(instance)
    sums = list(accumulate((instance.agents[i].demand for i in order), initial=Fraction(0)))
    if mode is Mode.MAXMIN:
        for i, j, w in _maxmin_runs(lows, highs, prefix):
            value, demand = Fraction(w, denom), sums[j + 1] - sums[i]
            if value < demand:
                yield HallWitness(lows[i], highs[j], value, demand)
    else:
        for i, j, w in _minmax_runs(lows, highs, prefix):
            work, load = Fraction(w, denom), sums[j + 1] - sums[i]
            if work > load:
                yield HallWitness(i + 1, j + 1, work, load)


def check_hall_maxmin(instance: ConvexInstance) -> Optional[HallWitness]:
    """First tight item interval [lo,hi], in (lo, hi) order, with
    val([lo,hi]) < sum of demands of agents fully inside it; None if Hall
    holds.  Every violated item interval contains a violated tight one.
    Raises ValueError when the instance is not inclusion-free.
    """
    return next(_violations(instance, Mode.MAXMIN), None)


def all_hall_violations_maxmin(instance: ConvexInstance) -> tuple[HallWitness, ...]:
    return tuple(_violations(instance, Mode.MAXMIN))


def check_hall_minmax(instance: ConvexInstance) -> Optional[HallWitness]:
    """First machine interval [lo,hi] (lex ranks) whose enclosed jobs exceed
    the interval's total allowable load; None if Hall holds.  Raises
    ValueError when the instance is not inclusion-free.
    """
    return next(_violations(instance, Mode.MINMAX), None)


def all_hall_violations_minmax(instance: ConvexInstance) -> tuple[HallWitness, ...]:
    return tuple(_violations(instance, Mode.MINMAX))


def maxmin_upper_bound(instance: ConvexInstance) -> tuple[Fraction, bool]:
    """(U, covered) for a valid Max-Min instance: OPT <= U, OPT >= U - v_max,
    and covered tells whether a matching covers every agent, i.e. OPT > 0.
    Both are extremes over the tight intervals of ``_maxmin_runs``.
    """
    if instance.mode is not Mode.MAXMIN:
        raise ValueError("maxmin_upper_bound expects a Max-Min instance")
    _, lows, highs, denom, prefix = _lex_profile(instance)
    best_w, best_c = prefix[-1], 1  # val / count, kept as two integers
    covered = True
    for i, j, w in _maxmin_runs(lows, highs, prefix):
        count = j - i + 1
        covered = covered and highs[j] - lows[i] + 1 >= count
        if w * best_c < best_w * count:
            best_w, best_c = w, count
    return Fraction(best_w, denom * best_c), covered


def minmax_lower_bound(instance: ConvexInstance) -> Fraction:
    """L for a valid Min-Max instance: L <= OPT <= L + p_max, with the
    confined work of each run from ``_minmax_runs``."""
    if instance.mode is not Mode.MINMAX:
        raise ValueError("minmax_lower_bound expects a Min-Max instance")
    _, lows, highs, denom, prefix = _lex_profile(instance)
    best_w, best_c = max(instance.integers[0]), 1  # p_max / 1
    for i, j, w in _minmax_runs(lows, highs, prefix):
        count = j - i + 1
        if w * best_c > best_w * count:
            best_w, best_c = w, count
    return Fraction(best_w, denom * best_c)
