"""Exact brute-force solvers for small instances.

These are the ground truth the approximation bounds are measured against.
The search is a memoized dynamic program over agents in lexicographic order.
Because agent intervals are inclusion-free, once agents p_1..p_j have been
decided only the consumption pattern inside [l_{j+1}, r_j] matters, and items
with equal value between the same interval endpoints are interchangeable, so
states collapse to per-cell, per-value counts.  A work cap guards against the
exponential worst case (heavily overlapping intervals with all-distinct
values).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from typing import Optional

from .instance_model import (Assignment, ConvexInstance, Mode,
                             assignment_from_positions, validate)

MAX_AGENTS = 6
MAX_ITEMS = 64
DEFAULT_WORK_CAP = 5_000_000


class OracleSizeError(ValueError):
    """The instance exceeds what exhaustive search will attempt."""


def _prepare(instance: ConvexInstance):
    _, lows, highs = instance.lex
    m = instance.m
    weight = [0, *instance.integers[0]]

    # Cells: maximal position ranges not crossing any interval endpoint.
    cuts = sorted({1, m + 1} | set(lows) | {h + 1 for h in highs})
    cells = [(cuts[i], cuts[i + 1] - 1) for i in range(len(cuts) - 1)
             if cuts[i] <= cuts[i + 1] - 1]
    # Groups: (cell range, weight, positions ascending).
    groups = []
    for lo, hi in cells:
        by_weight: dict[int, list[int]] = {}
        for p in range(lo, hi + 1):
            by_weight.setdefault(weight[p], []).append(p)
        for w in sorted(by_weight):
            groups.append(((lo, hi), w, tuple(by_weight[w])))
    return groups


def _solve(instance: ConvexInstance, work_cap: int) -> tuple[Fraction, Assignment]:
    if instance.n > MAX_AGENTS:
        raise OracleSizeError(f"at most {MAX_AGENTS} agents supported, got {instance.n}")
    if instance.m > MAX_ITEMS:
        raise OracleSizeError(f"at most {MAX_ITEMS} items supported, got {instance.m}")
    report = validate(instance)
    if not report.ok:
        raise ValueError(f"oracle requires a valid instance: {report.violations[0].message}")

    maxmin = instance.mode is Mode.MAXMIN
    order, lows, highs = instance.lex
    groups = _prepare(instance)
    n = len(order)
    sentinel_low = instance.m + 1  # treat the (n+1)-th agent as starting past the end

    def low_of(j: int) -> int:
        return lows[j] if j < n else sentinel_low

    # Per step j: groups inside [l_j, r_j], split into forced (cell < l_{j+1})
    # and optional (cell >= l_{j+1}); the optional groups are exactly the
    # carry state of step j+1.
    step_forced: list[list[int]] = []
    step_optional: list[list[int]] = []
    for j in range(n):
        forced, optional = [], []
        for gi, ((lo, hi), _, _) in enumerate(groups):
            if lows[j] <= lo and hi <= highs[j]:
                (optional if lo >= low_of(j + 1) else forced).append(gi)
        step_forced.append(forced)
        step_optional.append(optional)
    fresh: list[list[int]] = []
    for j in range(n):
        prev_high = highs[j - 1] if j > 0 else 0
        fresh.append([gi for gi, ((lo, hi), _, _) in enumerate(groups)
                      if prev_high < lo and hi <= highs[j]])

    unit = [w for (_, w, _) in groups]
    size = [len(pos) for (_, _, pos) in groups]

    def available(j: int, carry: tuple[int, ...]) -> dict[int, int]:
        """Untaken items per group at step j: the carry plus fresh groups."""
        avail = dict(zip(step_optional[j - 1] if j > 0 else [], carry))
        for gi in fresh[j]:
            avail[gi] = size[gi]
        return avail

    work = 0
    memo: dict[tuple[int, tuple[int, ...]], tuple[int, tuple[int, ...]]] = {}

    def solve(j: int, carry: tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
        """Best objective over agents j..n-1; carry aligns with step_optional[j-1].

        Returns (objective, best take-vector over step_optional[j]).
        """
        nonlocal work
        key = (j, carry)
        hit = memo.get(key)
        if hit is not None:
            return hit
        avail = available(j, carry)
        base = sum(unit[gi] * avail.get(gi, 0) for gi in step_forced[j])
        optional = step_optional[j]
        best: Optional[int] = None
        best_take: tuple[int, ...] = ()
        for take in product(*(range(avail.get(gi, 0) + 1) for gi in optional)):
            work += 1
            if work > work_cap:
                raise OracleSizeError("exhaustive search work cap exceeded")
            bundle = base + sum(unit[gi] * t for gi, t in zip(optional, take))
            if j + 1 < n:
                rest, _ = solve(j + 1, tuple(avail.get(gi, 0) - t
                                             for gi, t in zip(optional, take)))
                value = min(bundle, rest) if maxmin else max(bundle, rest)
            else:
                value = bundle
            if best is None or (value > best if maxmin else value < best):
                best = value
                best_take = take
        assert best is not None
        memo[key] = (best, best_take)
        return memo[key]

    if n == 0:
        raise ValueError("instance has no agents")
    # The last agent must absorb everything; its optional set is empty by
    # construction (the l_{n+1} sentinel lies past every cell).
    assert not step_optional[n - 1]

    objective, _ = solve(0, ())

    # Reconstruct a witness by replaying the memoized best choices, handing
    # each agent the leftmost remaining positions of every group it takes.
    remaining = {gi: list(pos) for gi, (_, _, pos) in enumerate(groups)}
    bundles: dict[int, list[int]] = {i: [] for i in range(n)}
    carry: tuple[int, ...] = ()
    for j in range(n):
        avail = available(j, carry)
        _, take = memo[(j, carry)]
        agent = order[j]
        for gi in step_forced[j]:
            count = avail.get(gi, 0)
            bundles[agent].extend(remaining[gi][:count])
            del remaining[gi][:count]
        for gi, t in zip(step_optional[j], take):
            bundles[agent].extend(remaining[gi][:t])
            del remaining[gi][:t]
        carry = tuple(avail.get(gi, 0) - t for gi, t in zip(step_optional[j], take))

    witness = assignment_from_positions(instance, bundles)
    return Fraction(objective, instance.integers[1]), witness


def opt_maxmin(instance: ConvexInstance,
               work_cap: int = DEFAULT_WORK_CAP) -> tuple[Fraction, Assignment]:
    """Exact optimum of the Max-Min objective over all partitions, with witness."""
    if instance.mode is not Mode.MAXMIN:
        raise ValueError("opt_maxmin expects a Max-Min instance")
    return _solve(instance, work_cap)


def opt_minmax(instance: ConvexInstance,
               work_cap: int = DEFAULT_WORK_CAP) -> tuple[Fraction, Assignment]:
    """Exact minimum makespan over all complete job assignments, with witness."""
    if instance.mode is not Mode.MINMAX:
        raise ValueError("opt_minmax expects a Min-Max instance")
    return _solve(instance, work_cap)
