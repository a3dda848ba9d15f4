"""Scaling-relative classification and rounding of item values.

For an error parameter k in 4..1024, values (already scaled into (0, 1]) are
split into *small* (<= 1/k, kept exact) and *big* (> 1/k, snapped onto the
geometric grid q_tau = (1/k)(1+1/k)^tau).  Max-Min instances round up to the
next grid point, Min-Max instances round down.  The resulting per-category
counts plus the small mass expressed in units of 1/k form the configuration
vectors the dynamic program runs on, and an item's category is its
coordinate in them: 0 for a small item, tau for grid category tau.

The grid is written once, as the integer table ``RoundingScheme.ratios``:
q_tau = (k+1)^tau / k^(tau+1) as the pair ((k+1)^tau, k^(tau+1)) for
tau = 0..C, entry 0 being 1/k.  Every reader takes the grid from it.

Rounding runs on integers.  With D a common denominator of the values and
w = D v the integer numerator of a value v, v is small iff k w <= D, and the
grid becomes C integer thresholds: floor(D q_tau) for Max-Min and
ceil(D q_tau) for Min-Max.  For an integer w, w <= D q iff w <= floor(D q) and
w >= D q iff w >= ceil(D q), so bisecting w into the thresholds puts it in the
same category as bisecting v into the grid would, with no ``Fraction``
comparison.  Any common denominator classifies as the least one does, so
``round_instance`` reads the instance's integer view: for a scaled instance
that is the ``D t_num`` that ``solver.scale`` hands over with the weights
``w t_den``.

The rounded values are an integer view too.  Over D' = lcm(D, k^(c+1)),
for the largest category c that occurs, every grid point up to q_c, 1/k and
each kept small value is an exact integer, read off the table's pairs.
``round_instance`` then cuts D' to the least common denominator of the
rounded values that k divides, so the dynamic program sums the smallest
integers, reads them as they are and takes no common denominator of its
own.  A scaled or rounded instance builds its ``Item``s only when its
``items`` is read, and no step of a decide reads them.

When every value is small, the scaled and the rounded weights are the
loaded instance's weights w times one factor, w num // den, over one
denominator, and no weight tuple is built.  ``solver.scale`` hands over a
view ``scaled_by`` the loaded instance, whose cached ``spread`` gives its
min, max and gcd in O(1).  ``all_small_view`` is the all-small test on
them, written once: ``round_instance`` takes it, reads the lift and the cut
off them and returns a view of the loaded instance too, and the dynamic
program takes it on the rounded view.  The program, in either mode, then
reads only the loaded instance's ``prefix`` times that factor.
"""

from __future__ import annotations

import operator
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from math import gcd, lcm
from typing import Iterable, Sequence

from .instance_model import ConvexInstance, Mode, scaled_by, with_integers


InputVector = tuple[int, ...]


@dataclass(frozen=True)
class RoundingScheme:
    k: int
    mode: Mode  # Max-Min rounds up, Min-Max down
    C: int
    # (a, b) with q_tau = a / b = (k+1)^tau / k^(tau+1), for tau = 0..C
    ratios: tuple[tuple[int, int], ...]

    @cached_property
    def grid(self) -> tuple[Fraction, ...]:
        """q_1 .. q_C, strictly increasing, q_1 > 1/k."""
        return tuple(Fraction(a, b) for a, b in self.ratios[1:])

    def thresholds(self, denom: int) -> list[int]:
        """The grid on the denominator ``denom``, rounded to integers.

        Max-Min gets floor(denom q_tau), Min-Max ceil(denom q_tau): for an
        integer w, w <= denom q iff w <= floor(denom q), and w >= denom q iff
        w >= ceil(denom q).
        """
        if self.mode is Mode.MAXMIN:
            return [denom * a // b for a, b in self.ratios[1:]]
        return [-(-denom * a // b) for a, b in self.ratios[1:]]

    def zero_vector(self) -> InputVector:
        return (0,) * (self.C + 1)


# The largest error parameter a scheme is built for.  The table holds
# C + 1 pairs, C ~ k ln k, whose numbers reach C log2 k bits: about
# C^2 log2 k bits in all, 68 MB at k = 1024 and over 300 MB at k = 2048.
MAX_K = 1024


@lru_cache(maxsize=64, typed=True)
def scheme(k: int, mode: Mode) -> RoundingScheme:
    """Build the rounding scheme for error parameter k, an int in
    4..``MAX_K``; any other k is refused with a ValueError before any
    table is built.

    The category count C is the least C with (1+1/k)^C >= k, that is with
    (k+1)^C >= k^(C+1), so that the top grid point q_C reaches 1: the table
    grows by one pair per step until it does.  Since (1+1/k)^k >= 2,
    C <= k * ceil(log2 k) for every k >= 4, which is O(k log k) and depends
    on k alone.  Schemes are immutable, so each (k, mode) is built once and
    shared by every decide; the cache keys on type, so a float or
    ``Fraction`` k equal to a cached int is refused too.
    """
    k = operator.index(k)
    if k < 4:
        raise ValueError(f"error parameter k must be >= 4, got {k}")
    if k > MAX_K:
        raise ValueError(f"error parameter k must be <= {MAX_K}, got {k}")
    a, b = 1, k
    ratios = [(a, b)]
    while a < b:
        a, b = a * (k + 1), b * k
        ratios.append((a, b))
    return RoundingScheme(k, mode, len(ratios) - 1, tuple(ratios))


@dataclass(frozen=True)
class RoundedInstance:
    """An instance with values snapped per the scheme, plus classification.

    ``instance`` carries the rounded values (same ids, order, agents and mode
    as the instance rounded) as its integer view; its items are built on
    first read.  ``category[i]`` is the configuration-vector coordinate of
    1-based position i+1: 0 for a small item, which keeps its value, and
    c >= 1 for a big item snapped to the grid value q_c.  A Min-Max value
    in (1/k, q_1) rounds down to exactly 1/k and is small (it is
    value-interchangeable with small jobs from then on).
    """

    instance: ConvexInstance
    scheme: RoundingScheme
    category: tuple[int, ...]

    def __post_init__(self) -> None:
        # the DP's rows read the scheme's mode, its backward pass the instance's
        if self.instance.mode is not self.scheme.mode:
            raise ValueError(f"a {self.scheme.mode.value} scheme cannot round a "
                             f"{self.instance.mode.value} instance")

    def value_at(self, pos: int) -> Fraction:
        return self.instance.value_at(pos)

    def positions(self) -> list[list[int]]:
        """Item positions grouped by coordinate: entry c lists the positions
        of coordinate c (0 for the small items) left to right, c = 0..C."""
        grouped: list[list[int]] = [[] for _ in range(self.scheme.C + 1)]
        for p, c in enumerate(self.category, start=1):
            grouped[c].append(p)
        return grouped


def _categories(weights: Sequence[int], denom: int, sch: RoundingScheme) -> list[int]:
    """The category of each value in (0, 1], given as integer ``weights``
    over a common denominator ``denom``.

    A value is small iff k w <= denom, that is iff w <= floor(denom/k).
    """
    if weights and not (min(weights) > 0 and max(weights) <= denom):
        bad = next(w for w in weights if not 0 < w <= denom)
        raise ValueError(f"value {Fraction(bad, denom)} outside (0, 1]; "
                         "scale the instance first")
    small, thresholds = denom // sch.k, sch.thresholds(denom)
    if sch.mode is Mode.MAXMIN:
        # v in (q_{tau-1}, q_tau] snaps to q_tau
        return [0 if w <= small else bisect_left(thresholds, w) + 1 for w in weights]
    # v in [q_tau, q_{tau+1}) snaps to q_tau; below q_1 it rounds down to
    # exactly 1/k, a small value (category 0)
    return [0 if w <= small else bisect_right(thresholds, w) for w in weights]


def all_small_view(instance: ConvexInstance, k: int) -> bool:
    """Whether ``instance`` is ``scaled_by`` one factor and every value is
    small, in (0, 1/k]: 0 < w and k w <= D for its least and largest weight,
    read off its cached ``spread`` in O(1).  A materialized instance is
    never one."""
    if instance.scaling is None:
        return False
    low, high, _ = instance.spread
    return low > 0 and k * high <= instance.scaling.denom


def round_instance(instance: ConvexInstance, sch: RoundingScheme) -> RoundedInstance:
    """Round every item value; order, ids, agents and mode are unchanged.

    The rounded instance is an integer view over the least common
    denominator of its values that k divides (module docstring).  When
    ``instance`` is an ``all_small_view``, as ``solver.scale`` hands over at
    an all-small guess, the rounded one is ``scaled_by`` one factor too,
    with no pass over the items.
    """
    k = sch.k
    if all_small_view(instance, k):
        # Every value is small (k w <= D): category 0, kept over lcm(k, D0)
        # for D0 the values' least common denominator, which is
        # lcm(D, k) / cut.  lift = lcm(D, k) / D takes the primes k has more
        # of than D, cut those D has more of than k and D0, so the two are
        # coprime, cut divides every w * lift, and each value is the
        # instance's times lift // cut.  A Min-Max value in (1/k, q_1) is
        # category 0 too, but it rounds to 1/k, so it takes the general path
        # below.
        denom, common = instance.scaling.denom, instance.spread[2]
        lcd = lcm(denom, k)
        cut = lcd // lcm(k, denom // gcd(denom, common))
        return RoundedInstance(scaled_by(instance, lcd // denom, cut, lcd // cut),
                               sch, (0,) * instance.m)
    weights, denom = instance.integers
    small = denom // k
    cats = _categories(weights, denom, sch)
    top = max(cats, default=0)
    common = lcm(denom, sch.ratios[top][1])
    lift = common // denom
    # 1/k, then q_1 .. q_top, over the common denominator
    on_grid = [common // b * a for a, b in sch.ratios[:top + 1]]
    rounded = [w * lift if w <= small else on_grid[c] for w, c in zip(weights, cats)]
    # Cut D' to the least common denominator that k divides: the DP's sums
    # then stay on the smallest integers.
    cut = common // lcm(k, common // gcd(common, *rounded))
    if cut > 1:
        common //= cut
        rounded = [w // cut for w in rounded]
    return RoundedInstance(with_integers(instance, (tuple(rounded), common)), sch, tuple(cats))


def small_units(weight: int, denom: int, sch: RoundingScheme) -> int:
    """The nu_0 coordinate of the small mass ``weight / denom``.

    Max-Min: the unique nu_0 with the mass in ((nu_0-1)/k, nu_0/k]; Min-Max:
    the mass in [nu_0/k, (nu_0+1)/k).  Zero mass gives 0 in both modes.
    """
    scaled = weight * sch.k
    if sch.mode is Mode.MAXMIN:
        return -(-scaled // denom)  # ceil
    return scaled // denom          # floor


def input_vector(rounded: RoundedInstance, items: Iterable[int]) -> InputVector:
    """Configuration vector (nu_0, nu_1, ..., nu_C) of the item positions
    ``items``: big items counted by category, small mass by ``small_units``.
    Raises ValueError for a position outside 1..m.
    """
    weights, denom = rounded.instance.integers
    m = len(weights)
    counts = [0] * (rounded.scheme.C + 1)
    small = 0
    for pos in items:
        if not 1 <= pos <= m:
            raise ValueError(f"item position {pos} outside 1..{m}")
        cat = rounded.category[pos - 1]
        if cat:
            counts[cat] += 1
        else:
            small += weights[pos - 1]
    counts[0] = small_units(small, denom, rounded.scheme)
    return tuple(counts)
