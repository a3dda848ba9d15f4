"""Generalized Hall feasibility conditions for both objectives.

On inclusion-free instances it suffices to check the condition on intervals:
item intervals against the demands of fully-enclosed agents (Max-Min), and
machine intervals against the processing time of fully-enclosed jobs
(Min-Max).  The agents inside an item interval, and the machines a job can
use, are then runs of consecutive lexicographic ranks (Glover, "Maximum
matching in a convex bipartite graph", Naval Res. Logistics Q. 14, 1967).
So each mode has one O(n^2) sweep over the runs i..j of that order, on
integer weights over one common denominator; ``hall_violations`` and
``hall_bound`` each run the instance's own mode's sweep.  A run's
demand or allowed load is a prefix-sum difference over the ranks.  The
order and its endpoints are the instance's ``lex``, and each agent's demand
(Max-Min) or allowed load (Min-Max) is its own ``demand``.  A Max-Min
witness is a tight interval (see ``_maxmin_runs``).

With every demand (Max-Min) or every allowed load (Min-Max) equal to one
number t, the interval condition solved for t bounds the optimum, and
``hall_bound`` returns that bound with whether OPT > 0:

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
from operator import gt
from typing import Iterator, Sequence

from .instance_model import ConvexInstance, Mode


@dataclass(frozen=True)
class HallWitness:
    """A violated interval: lhs and rhs reproduce the failed inequality."""
    lo: int
    hi: int
    lhs: Fraction
    rhs: Fraction


def _lex_profile(instance: ConvexInstance
                 ) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...], int, tuple[int, ...]]:
    """The instance's ``lex`` (order, lows, highs), the common denominator D
    of its integer view, and its ``prefix``, the prefix sums of its weights
    D v, which the DP reads too.  Raises ValueError with no agents, when
    the highs decrease (a nesting), or when an interval leaves 1..m or has
    lo > hi."""
    if not instance.agents:
        raise ValueError("instance has no agents")
    if instance.nested:
        raise ValueError("the highs decrease in lexicographic order: not inclusion-free")
    order, lows, highs = instance.lex
    m = instance.m
    # the lows and, with no nesting, the highs never decrease in lex order
    if lows[0] < 1 or highs[-1] > m or any(map(gt, lows, highs)):
        raise ValueError(f"an agent interval is empty or not within [1,{m}]")
    return order, lows, highs, instance.integers[1], instance.prefix


def _maxmin_runs(lows: Sequence[int], highs: Sequence[int],
                 prefix: Sequence[int]) -> Iterator[tuple[int, int, int]]:
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
                 prefix: Sequence[int]) -> Iterator[tuple[int, int, int]]:
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


def hall_violations(instance: ConvexInstance) -> Iterator[HallWitness]:
    """The violated runs of the sweep of ``instance.mode``, in sweep order;
    none with no agents.  ``next(hall_violations(instance), None)`` is the
    first, or None when Hall holds.  Max-Min yields tight item intervals
    [lo,hi] whose value is below the demands of the agents inside (every
    violated item interval contains one); Min-Max yields runs [lo,hi] of lex
    ranks whose confined jobs exceed their total allowable load.  Raises
    ValueError when ``_lex_profile`` does.
    """
    if not instance.agents:
        return
    order, lows, highs, denom, prefix = _lex_profile(instance)
    sums = list(accumulate((instance.agents[i].demand for i in order), initial=Fraction(0)))
    if instance.mode is Mode.MAXMIN:
        for i, j, w in _maxmin_runs(lows, highs, prefix):
            value, demand = Fraction(w, denom), sums[j + 1] - sums[i]
            if value < demand:
                yield HallWitness(lows[i], highs[j], value, demand)
    else:
        for i, j, w in _minmax_runs(lows, highs, prefix):
            work, load = Fraction(w, denom), sums[j + 1] - sums[i]
            if work > load:
                yield HallWitness(i + 1, j + 1, work, load)


def hall_bound(instance: ConvexInstance) -> tuple[Fraction, bool]:
    """(bound, OPT > 0) from the sweep of ``instance.mode``: (U, whether a
    matching covers every agent) for Max-Min, extremes over the tight
    intervals, and (L, True) for Min-Max, with each run's confined work.
    Raises ValueError when ``_lex_profile`` does."""
    _, lows, highs, denom, prefix = _lex_profile(instance)
    covered = True
    if instance.mode is Mode.MAXMIN:
        best_w, best_c = prefix[-1], 1  # val / count, kept as two integers
        for i, j, w in _maxmin_runs(lows, highs, prefix):
            count = j - i + 1
            covered = covered and highs[j] - lows[i] + 1 >= count
            if w * best_c < best_w * count:
                best_w, best_c = w, count
    else:
        best_w, best_c = instance.spread[1], 1  # p_max / 1
        for i, j, w in _minmax_runs(lows, highs, prefix):
            count = j - i + 1
            if w * best_c > best_w * count:
                best_w, best_c = w, count
    return Fraction(best_w, denom * best_c), covered
