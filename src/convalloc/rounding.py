"""Scaling-relative classification and rounding of item values.

For an error parameter k >= 4, values (already scaled into (0, 1]) are split
into *small* (<= 1/k, kept exact) and *big* (> 1/k, snapped onto the geometric
grid q_tau = (1/k)(1+1/k)^tau).  Max-Min instances round up to the next grid
point, Min-Max instances round down.  The resulting per-category counts plus
the small mass expressed in units of 1/k form the configuration vectors the
dynamic program runs on, and an item's category is its coordinate in them:
0 for a small item, tau for grid category tau.

Rounding runs on integers.  With D the least common denominator of the values
and w = D v the integer numerator of a value v, v is small iff k w <= D, and
the grid becomes C integer thresholds: floor(D q_tau) for Max-Min and
ceil(D q_tau) for Min-Max.  For an integer w, w <= D q iff w <= floor(D q) and
w >= D q iff w >= ceil(D q), so bisecting w into the thresholds puts it in the
same category as bisecting v into the grid would, with no ``Fraction``
comparison.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Sequence

from .instance_model import ConvexInstance, Item, Mode, integer_values


InputVector = tuple[int, ...]


@dataclass(frozen=True)
class RoundingScheme:
    k: int
    mode: Mode  # Max-Min rounds up, Min-Max down
    C: int
    grid: tuple[Fraction, ...]  # q_1 .. q_C, strictly increasing, q_1 > 1/k
    small_threshold: Fraction  # 1/k, the largest small value

    def thresholds(self, denom: int) -> list[int]:
        """The grid on the denominator ``denom``, rounded to integers.

        Max-Min gets floor(denom q_tau), Min-Max ceil(denom q_tau): for an
        integer w, w <= denom q iff w <= floor(denom q), and w >= denom q iff
        w >= ceil(denom q).
        """
        if self.mode is Mode.MAXMIN:
            return [denom * q.numerator // q.denominator for q in self.grid]
        return [-(-denom * q.numerator // q.denominator) for q in self.grid]

    def zero_vector(self) -> InputVector:
        return (0,) * (self.C + 1)


@lru_cache(maxsize=64)
def scheme(k: int, mode: Mode) -> RoundingScheme:
    """Build the rounding scheme for error parameter k (k >= 4).

    The category count is C = ceil(log k / log(1+1/k)), computed exactly as
    the least C with (1+1/k)^C >= k, so that the top grid point q_C reaches
    1.  Since (1+1/k)^k >= 2, C <= k * ceil(log2 k) for every k >= 4, which
    is O(k log k) and depends on k alone.  Schemes are immutable, so each
    (k, mode) is built once and shared by every decide.
    """
    if k < 4:
        raise ValueError(f"error parameter k must be >= 4, got {k}")
    ratio = Fraction(k + 1, k)
    c = 0
    power = Fraction(1)
    while power < k:
        power *= ratio
        c += 1
    grid = []
    q = Fraction(1, k)
    for _ in range(c):
        q *= ratio
        grid.append(q)
    return RoundingScheme(k, mode, c, tuple(grid), Fraction(1, k))


@dataclass(frozen=True)
class RoundedInstance:
    """An instance with values snapped per the scheme, plus classification.

    ``instance`` carries the rounded values (same ids, order, agents and mode
    as the instance rounded).  ``category[i]`` is the configuration-vector
    coordinate of 1-based position i+1: 0 for a small item, which keeps its
    value, and c >= 1 for a big item snapped to the grid value q_c.  A
    Min-Max value in (1/k, q_1) rounds down to exactly 1/k and is small (it
    is value-interchangeable with small jobs from then on).
    """

    instance: ConvexInstance
    scheme: RoundingScheme
    category: tuple[int, ...]

    def value_at(self, pos: int) -> Fraction:
        return self.instance.value_at(pos)

    def positions(self) -> list[list[int]]:
        """Item positions grouped by coordinate: entry c lists the positions
        of coordinate c (0 for the small items) left to right, c = 0..C."""
        grouped: list[list[int]] = [[] for _ in range(self.scheme.C + 1)]
        for p, c in enumerate(self.category, start=1):
            grouped[c].append(p)
        return grouped


def _round_values(values: Sequence[Fraction], sch: RoundingScheme
                  ) -> tuple[list[Fraction], list[int]]:
    """Round values in (0, 1] on integers: (rounded, category) lists.

    A small value comes back as the same object.  Every other rounded value
    is a grid point or 1/k, shared with the scheme.
    """
    weights, denom = integer_values(values)
    thresholds = sch.thresholds(denom)
    k, grid, up = sch.k, sch.grid, sch.mode is Mode.MAXMIN
    rounded: list[Fraction] = []
    cats: list[int] = []
    for v, w in zip(values, weights):
        if not 0 < w <= denom:
            raise ValueError(f"value {v} outside (0, 1]; scale the instance first")
        if k * w <= denom:
            rounded.append(v)
            cats.append(0)
            continue
        if up:
            # v in (q_{tau-1}, q_tau] snaps to q_tau
            cat = bisect_left(thresholds, w) + 1
        else:
            # v in [q_tau, q_{tau+1}) snaps to q_tau; below q_1 it rounds
            # down to exactly 1/k, a small value (category 0)
            cat = bisect_right(thresholds, w)
        rounded.append(grid[cat - 1] if cat else sch.small_threshold)
        cats.append(cat)
    return rounded, cats


def round_value(value: Fraction, sch: RoundingScheme) -> tuple[Fraction, int]:
    """Round one value; returns (rounded, category)."""
    (rounded,), (cat,) = _round_values((value,), sch)
    return rounded, cat


def round_instance(instance: ConvexInstance, sch: RoundingScheme) -> RoundedInstance:
    """Round every item value; order, ids, agents and mode are unchanged.

    An item whose value rounding keeps is reused as it is.
    """
    items = instance.items
    rounded, cats = _round_values([it.value for it in items], sch)
    rounded_items = tuple(it if rv is it.value else Item(it.id, rv)
                          for it, rv in zip(items, rounded))
    return RoundedInstance(ConvexInstance(instance.mode, rounded_items, instance.agents),
                           sch, tuple(cats))


def small_units(total: Fraction, sch: RoundingScheme) -> int:
    """The nu_0 coordinate for a given small mass.

    Max-Min: the unique nu_0 with total in ((nu_0-1)/k, nu_0/k]; Min-Max:
    total in [nu_0/k, (nu_0+1)/k).  Zero mass gives 0 in both modes.
    """
    if total == 0:
        return 0
    scaled = total * sch.k
    if sch.mode is Mode.MAXMIN:
        return -((-scaled.numerator) // scaled.denominator)  # ceil
    return scaled.numerator // scaled.denominator            # floor


def input_vector(rounded: RoundedInstance, items: Iterable[int]) -> InputVector:
    """Configuration vector (nu_0, nu_1, ..., nu_C) of the item positions
    ``items``: big items counted by category, small mass by ``small_units``.
    Raises ValueError for a position outside 1..m.
    """
    m = rounded.instance.m
    counts = [0] * (rounded.scheme.C + 1)
    small_total = Fraction(0)
    for pos in items:
        if not 1 <= pos <= m:
            raise ValueError(f"item position {pos} outside 1..{m}")
        cat = rounded.category[pos - 1]
        if cat:
            counts[cat] += 1
        else:
            small_total += rounded.value_at(pos)
    counts[0] = small_units(small_total, rounded.scheme)
    return tuple(counts)
