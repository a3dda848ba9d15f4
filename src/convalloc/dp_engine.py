"""The configuration-vector dynamic program for both objectives.

The forward phase fills one row per agent, last lexicographic rank first.
Each row maps configuration vectors to a back-pointer: a vector is marked in
row j when some marked vector of row j+1 dominates it and the item-set
difference of the two reconstructed remainder graphs is a feasible bundle for
the j-th agent.  The backward phase walks the pointers from row 1's all-zero
vector and re-materializes the bundles.  Row n+1 holds only the instance's
vector, which reconstructs to every item, so row n is filled by the same
step as every other row.

Reconstruction (``retrieve``) is a left-to-right sweep: the leftmost nu_tau
items of every big category, plus the maximal leftmost prefix of small items
of value < (nu_0+1)/k, truncated at the reachable positions of the agent
prefix.  A reconstruction whose big items strand (fall beyond the last
agent's interval) is rejected (returns None), which is what rules out
wasteful assignments.  The sweep reconstructs, for the configuration vector
of any right-aligned non-wasteful remainder, a small-item superset of that
remainder carrying under 2/k extra value, in both modes; reconstructing a
value-deficient subset instead (rounding the small mass from below) sounds
symmetric for Min-Max but is wrong: jobs missing from the reconstruction
leak into the bundle handed to the next machine, which cannot always run
them.

Rather than scanning all pairs of a dense table, rows iterate over the marked
vectors nu' of row j+1 and enumerate, in lexicographic ascending order, the
product of one window per coordinate.  With P_c the positions of big
category c and a = nu'_c, the window is
nu_c in [min(a, #{P_c < l_j}), min(a, #{P_c <= r_{j-1}})]: above it the
remainder strands an item, below it the bundle takes an item left of agent
j's interval.  The small prefix the sweep keeps grows monotonically with
nu_0, so the allowed nu_0 form one interval ending at nu'_0; below it the
bundle takes a small item left of l_j.  Row 1 considers only the zero
vector.  Every window contains all vectors that can pass, so the marking
and the back-pointers are exactly those of the dense double loop.

The windows also settle every other test of that loop, so ``forward`` tests
a candidate against the value bound alone.  This needs the highs
non-decreasing in lexicographic order (true of every inclusion-free
instance), l_1 = 1 and r_n = m; ``_Workspace`` raises ValueError otherwise.
Write R(nu, j) for the sweep's remainder: for a candidate nu of row j from
nu' in row j+1, agent j's bundle is R(nu', j) minus R(nu, j-1).
(i) nu reconstructs at j-1: each big window tops out at
    min(a, #{P_c <= r_{j-1}}), the sweep's stranding test, and row 1 takes
    only the zero vector.
(ii) R(nu, j-1) lies in R(nu', j): big items are leftmost prefixes with
    nu_c <= a, and the small prefix length is monotone in nu_0 <= nu'_0 and
    in the sweep's bound r_{j-1} <= r_j.
(iii) The bundle lies in [l_j, r_j]: the low end of each window leaves the
    remainder every item of the coordinate left of l_j, or all of R(nu', j)'s
    share.  R(nu', j) holds only items <= r_j: nu' reconstructs at j by (i),
    or it is row n+1's vector and r_n = m.  Row 1 gets R(nu', 1) whole, and
    l_1 = 1.
An item in a gap r_{j-1} < p < l_j needs no test: when R(nu', j) holds it,
its coordinate's window is empty.

A predecessor also skips the part of its box that the one sorted just
before it settled.  Let u and then v be consecutive predecessors of row j
(marked vectors of row j+1) with equal big coordinates, so u_0 < v_0, whose
budgets before_total - bound compare as u's >= v's (Max-Min) or u's <= v's
(Min-Max): every candidate that passes v's value test passes u's.  The big
windows depend on their own coordinate alone, so they are equal.  The low
end of the nu_0 window grows with before_small, which is
min(small_len[v_0], cap) and does not decrease as v_0 grows.  So the part of
v's box with nu_0 <= u_0 lies inside u's box, and each of its candidates
that passes v's test was marked by u or earlier: v's nu_0 range starts at
u_0 + 1.  By induction this holds also when u skipped a part of its own
box.  In Min-Max before_total grows with v_0, so the skip holds for every
such pair; in Max-Min it shrinks, so the skip holds on ties only.

All of this runs on the occupied coordinates only: nu_0 and the big
categories that hold an item of the rounded instance.  Every vector the DP
meets is dominated by the instance's vector, so an empty category's
coordinate is 0 in every candidate and every mark; dropping it keeps the
lexicographic order and hence the first-marking predecessor.  The
``DPTable`` keeps the marks on these coordinates, and ``succeeded`` and
``backward`` read them there; the full (nu_0, ..., nu_C) rows are built only
when a caller reads ``rows``, as ``trace_lines`` does.  ``backward`` walks
the pointer chain and, since by (ii) each remainder on it is a
per-coordinate prefix of the next, takes agent j's bundle as one slice of
each coordinate's positions, between the prefix lengths of R(chain[j-1],
j-1) and R(chain[j], j).

``forward`` never reconstructs an item set: it sums weights.  The sweep's
remainder is a product of per-coordinate prefixes, the leftmost nu_c items
of each big category and the small prefix its nu_0 keeps, so its weight is
separable: prefix_weight_c[nu_c] summed over the big coordinates, plus
small_prefix[min(small_len[nu_0], small_cap(j-1))].  Here small_len[x] is
the longest small prefix worth < (x+1)/k and small_cap(j-1) counts the
small items at positions <= r_{j-1}: the sweep's two stopping rules, each
monotone in the prefix length.  The one test this sum cannot see is the
stranding test, which turns a vector into None; by (i) no candidate fails
it, so the sum is exactly the weight of R(nu, j-1).  A mark carries its
(weight, small length) into the next row, where it is the predecessor's
``before_total`` and ``before_small``.  ``backward`` and ``retrieve`` read
a remainder's items as the position prefixes of those lengths, from the
tables whose weights ``forward`` sums, so the sweep's rule has one
definition (``small_kept``).  Value sums and comparisons run on integers
after normalizing every rounded value by a common denominator divisible by
k.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache, cached_property
from itertools import filterfalse, product
from operator import getitem
from typing import Iterator, Optional

from .instance_model import (Assignment, Mode, assignment_from_positions,
                             integer_values, lexicographic_order)
from .rounding import InputVector, RoundedInstance, small_units

# The bundle rule's margin in units of 1/k: an agent's bundle must be worth at
# least 1 - BUNDLE_MARGIN/k (Max-Min) or at most 1 + BUNDLE_MARGIN/k (Min-Max)
# in rounded, scaled values.
BUNDLE_MARGIN = 3


@dataclass(frozen=True)
class DPTable:
    """Sparse forward-phase result: row(j)[nu] = back-pointer into row j+1.

    Only marked entries are stored; row n entries point at the full
    instance's vector (row n+1, which is not stored).  ``marks[j-1]`` holds
    row j over the active coordinates of the workspace ``forward`` keeps on
    the table for ``backward``, or over every coordinate for a table built
    without one.  ``rows`` holds the same rows as full (nu_0, ..., nu_C)
    vectors; it is built on its first read (by ``row``, ``trace_lines`` or
    a caller), which ``solve_rounded`` never makes.
    """
    nu_in: InputVector
    marks: tuple[dict[InputVector, InputVector], ...]
    _ws: Optional[_Workspace] = field(default=None, compare=False, repr=False)

    @cached_property
    def rows(self) -> tuple[dict[InputVector, InputVector], ...]:
        """Index j-1 holds row j over every coordinate."""
        if self._ws is None:
            return self.marks
        expand = cache(self._ws.expand)
        return tuple({expand(nu): expand(ptr) for nu, ptr in row.items()} for row in self.marks)

    def row(self, j: int) -> dict[InputVector, InputVector]:
        return self.rows[j - 1]

    @property
    def succeeded(self) -> bool:
        # Row 1 can mark only the zero vector, the one R(., 0) accepts.
        return any(not any(nu) for nu in self.marks[0])


class _Workspace:
    """Integer-normalized view of a rounded instance for the DP hot path.

    Coordinate 0 stands for the small items and coordinate c >= 1 for big
    category c; ``positions[c]`` lists the coordinate's item positions left to
    right, from ``RoundedInstance.positions`` (an item's ``category`` is its
    coordinate).  The DP runs on the ``active`` coordinates only: 0 and every
    category that holds an item.  Over them, ``prefix_weight[i][x]`` is the
    weight of ``positions[active[i]][:x]``, the leftmost x items of
    coordinate ``active[i]``, ``reach[j-1][i]`` counts its items at
    positions <= r_j and ``left_of[j-1][i]`` those at positions < l_j, for
    the j-th agent in lexicographic order.  ``small_len[x]`` is the longest
    small prefix worth < (x + 1)/k, for x up to the instance's nu_0, so the
    methods take only vectors <= ``nu_in`` (``retrieve`` checks; the DP
    meets no other).

    Raises ValueError unless the highs are non-decreasing in that order,
    l_1 = 1 and r_n = m: the ``windows`` settle the reconstruction,
    containment and interval tests only then.
    """

    def __init__(self, rounded: RoundedInstance):
        inst = rounded.instance
        sch = rounded.scheme
        self.order = order = lexicographic_order(inst)
        self.lows = [inst.agents[i].lo for i in order]
        self.highs = [inst.agents[i].hi for i in order]
        if not (order and self.lows[0] == 1 and self.highs[-1] == inst.m
                and all(a <= b for a, b in zip(self.highs, self.highs[1:]))):
            raise ValueError("the dynamic program needs agents whose intervals start "
                             "at item 1, end at item m and are inclusion-free")
        self.up = sch.mode is Mode.MAXMIN

        weights, denom = integer_values([it.value for it in inst.items], sch.k)
        self.denom = denom
        self.unit = denom // sch.k
        self.weight = [0, *weights]

        self.positions = rounded.positions()
        self.active = tuple(c for c, ps in enumerate(self.positions) if c == 0 or ps)
        active_positions = [self.positions[c] for c in self.active]
        self.prefix_weight: list[list[int]] = []
        for positions in active_positions:
            weights = [0]
            for p in positions:
                weights.append(weights[-1] + self.weight[p])
            self.prefix_weight.append(weights)
        self.small_positions = self.positions[0]
        self.small_prefix = self.prefix_weight[0]
        self.reach = [tuple(bisect_right(ps, hi) for ps in active_positions) for hi in self.highs]
        self.left_of = [tuple(bisect_left(ps, lo) for ps in active_positions) for lo in self.lows]

        nu0 = small_units(Fraction(self.small_prefix[-1], denom), sch)
        self.nu_active = (nu0,) + tuple(len(ps) for ps in active_positions[1:])
        self.nu_in = self.expand(self.nu_active)
        # One merge sweep: the prefix length and its bound both grow with x.
        self.small_len: list[int] = []
        length = 0
        for bound in range(self.unit, (nu0 + 2) * self.unit, self.unit):
            while length < len(self.small_positions) and self.small_prefix[length + 1] < bound:
                length += 1
            self.small_len.append(length)

    def expand(self, nu: InputVector) -> InputVector:
        """The full (nu_0, ..., nu_C) vector of a vector over ``active``."""
        full = [0] * len(self.positions)
        for c, count in zip(self.active, nu):
            full[c] = count
        return tuple(full)

    def small_cap(self, j: int) -> int:
        """The small items at positions <= r_j: where the sweep for the
        agent prefix p_1..p_j stops (0 for j = 0, which keeps nothing)."""
        return self.reach[j - 1][0] if j else 0

    def small_kept(self, nu0: int, j: int) -> int:
        """The length of the small prefix R(nu, j) keeps: the sweep's two
        stopping rules."""
        return min(self.small_len[nu0], self.small_cap(j))

    def remainder(self, nu: InputVector, j: int) -> Optional[list[int]]:
        """The item positions of R(nu, j) for a full vector nu <= nu_in, or
        None when a big item strands: the small prefix that ``forward`` sums
        for nu_0 and the leftmost nu_c items of each big category."""
        if j == 0:
            # With no agents left, any reconstructed item would be stranded:
            # only the all-zero vector is valid and yields the empty graph.
            return [] if not any(nu) else None
        reach = self.reach[j - 1]
        items = self.small_positions[:self.small_kept(nu[0], j)]
        for c, top in zip(self.active[1:], reach[1:]):
            if nu[c] > top:
                return None  # stranded big item
            items += self.positions[c][:nu[c]]
        return items

    def windows(self, nu_prev: InputVector, before_small: int, j: int) -> list[range]:
        """One range per active coordinate: their product holds the vectors
        nu <= nu_prev that can leave agent j a bundle inside [l_j, r_j], in
        lexicographic ascending order.

        ``before_small`` is the number of small items in the remainder
        before agent j.  Every vector left out either reconstructs no
        remainder for agents 1..j-1 or hands agent j an item outside its
        interval; every vector in the product does neither (module
        docstring).
        """
        if j == 1:
            # The zero vector: the only one retrieve(., 0) accepts.
            return [range(1)] * len(nu_prev)
        reach = self.reach[j - 2]
        left_of = self.left_of[j - 1]
        # Small items: the remainder's prefix length grows monotonically with
        # nu_0 and must reach min(before_small, #small < l_j); the least such
        # nu_0 has (nu_0 + 1) * unit > small_prefix[target].
        target = min(before_small, left_of[0])
        if target > reach[0]:
            return [range(0)]
        ranges = [range(self.small_prefix[target] // self.unit, nu_prev[0] + 1)]
        # Big category c: the bundle takes items nu_c..a-1 of the category,
        # which must lie at or after l_j, while the remainder's first nu_c
        # items must lie at or before r_{j-1}.
        for i in range(1, len(nu_prev)):
            a = nu_prev[i]
            ranges.append(range(min(a, left_of[i]), min(a, reach[i]) + 1))
        return ranges


def retrieve(rounded: RoundedInstance, nu: InputVector, j: int) -> Optional[frozenset[int]]:
    """Reconstruct the remainder's item positions for vector nu and agent
    prefix p_1..p_j.

    Returns None when a reconstructed big item would be stranded (the small
    sweep instead stops at the prefix's reachable positions).  Raises when nu
    is not dominated by the full instance's vector.
    """
    ws = _Workspace(rounded)
    if len(nu) != len(ws.nu_in) or any(a > b for a, b in zip(nu, ws.nu_in)):
        raise ValueError(f"vector {nu} is not <= the instance vector {ws.nu_in}")
    if not 0 <= j <= rounded.instance.n:
        raise ValueError(f"agent count {j} out of range")
    items = ws.remainder(nu, j)
    return None if items is None else frozenset(items)


def _mark_rows(ws: _Workspace) -> Iterator[dict[InputVector, tuple[InputVector, int, int]]]:
    """Yield rows n..1 over the active coordinates.  Row j maps each marked
    nu to (pointer, weight, small length): its first (lexicographically
    smallest) marking predecessor, and the weight and small-prefix length of
    R(nu, j-1), which is what nu needs as a predecessor for row j-1.

    A candidate's remainder weight is a sum of table entries: the small
    prefix its nu_0 keeps, cut at the row's ``small_cap``, plus the prefix
    weight of each big coordinate (module docstring).  A box's coordinate-0
    range starts past the previous predecessor's nu_0 when that predecessor
    settled the part below (module docstring).
    """
    bound = ws.denom + (-BUNDLE_MARGIN if ws.up else BUNDLE_MARGIN) * ws.unit
    up = ws.up
    small_len, small_prefix = ws.small_len, ws.small_prefix
    # small_prefix[min(small_len[x], cap)] for every cap: small_len does not
    # decrease, so each row keeps a prefix of this list and pads with the cap.
    small_weight = [small_prefix[x] for x in small_len]
    # Row n+1: the instance's vector, with no pointer; it reconstructs to
    # every item.
    above = {ws.nu_active: (None, sum(ws.weight), len(ws.small_positions))}
    for j in range(len(ws.order), 0, -1):
        cap = ws.small_cap(j - 1)
        cut = bisect_right(small_len, cap)
        tables = [small_weight[:cut] + [small_prefix[cap]] * (len(small_len) - cut),
                  *ws.prefix_weight[1:]]
        row: dict[InputVector, tuple[InputVector, int, int]] = {}
        last_big, last_nu0, last_limit = None, 0, 0
        for nu_prev in sorted(above):
            _, before_total, before_small = above[nu_prev]
            # The bundle R(nu_prev, j) - R(nu, j-1) is worth before_total - after.
            limit = before_total - bound
            box = ws.windows(nu_prev, before_small, j)
            if nu_prev[1:] == last_big and (last_limit >= limit if up else last_limit <= limit):
                box[0] = range(max(box[0].start, last_nu0 + 1), box[0].stop)
            last_big, last_nu0, last_limit = nu_prev[1:], nu_prev[0], limit
            # The unmarked candidates, in lexicographic order.
            for nu in filterfalse(row.__contains__, product(*box)):
                after = sum(map(getitem, tables, nu))
                if (after <= limit) if up else (after >= limit):
                    row[nu] = (nu_prev, after, min(small_len[nu[0]], cap))
        yield row
        above = row


def forward(rounded: RoundedInstance) -> DPTable:
    """Fill the table; row j's back-pointers record the first (lexicographically
    smallest) marked predecessor vector in row j+1.
    """
    ws = _Workspace(rounded)
    marks = [{nu: mark[0] for nu, mark in row.items()} for row in _mark_rows(ws)]
    return DPTable(ws.nu_in, tuple(marks[::-1]), ws)  # rows 1..n


def backward(table: DPTable, rounded: RoundedInstance) -> Assignment:
    """Walk the pointers from row 1's zero vector and emit the partition.

    Raises LookupError when the forward phase recorded no success.
    """
    if not table.succeeded:
        raise LookupError("dynamic program recorded no feasible assignment")
    ws = table._ws or _Workspace(rounded)
    # forward's marks run over ws.active; a table built from full rows, over
    # every coordinate.
    coords = ws.active if table._ws else range(len(ws.positions))
    chain = [(0,) * len(coords)]
    for row in table.marks:
        chain.append(row[chain[-1]])
    # chain[j] is the vector marked at row j (chain[0] = zero for "row 0"),
    # chain[n] the instance's vector.  R(chain[j-1], j-1) is a per-coordinate
    # prefix of R(chain[j], j) (module docstring, (ii)), so bundle j is the
    # slice of each coordinate's positions between the two prefix lengths.
    small = [ws.small_kept(nu[0], j) for j, nu in enumerate(chain)]
    bundles = {}
    for j in range(1, len(chain)):
        items = ws.small_positions[small[j - 1]:small[j]]
        for c, a, b in zip(coords[1:], chain[j - 1][1:], chain[j][1:]):
            items += ws.positions[c][a:b]
        bundles[ws.order[j - 1]] = items
    return assignment_from_positions(rounded.instance, bundles)


def solve_rounded(rounded: RoundedInstance) -> tuple[Optional[Assignment], DPTable]:
    """Run forward and, on success, backward; None signals failure.

    Succeeds whenever the rounded instance admits a 1-assignment; any
    returned assignment gives every agent rounded value >= 1 - 3/k (Max-Min)
    or <= 1 + 3/k (Min-Max).
    """
    table = forward(rounded)
    if not table.succeeded:
        return None, table
    return backward(table, rounded), table


def trace_lines(table: DPTable) -> list[str]:
    """One line per marked entry, rows n..1, vectors ascending."""
    out = []
    for j in range(len(table.rows), 0, -1):
        for nu in sorted(table.row(j)):
            ptr = table.row(j)[nu]
            out.append(f"row={j} nu={','.join(map(str, nu))} ptr={','.join(map(str, ptr))}")
    return out
