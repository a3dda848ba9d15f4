"""The configuration-vector dynamic program for both objectives.

The forward phase fills one row per agent, last lexicographic rank first.
Each row maps configuration vectors to a back-pointer: a vector is marked in
row j when some marked vector of row j+1 dominates it and the item-set
difference of the two reconstructed remainder graphs is a feasible bundle for
the j-th agent.  A Max-Min row then keeps only its maximal vectors (the
dominance lemma below).  The backward phase walks the pointers from row 1's
all-zero vector and re-materializes the bundles.  Row n+1 holds only the instance's
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
and the back-pointers are exactly those of the dense double loop over the
same predecessors.  The
bounds #{P_c < l_j} and #{P_c <= r_{j-1}}, and their small-item
counterparts, depend on the row alone: ``_Workspace.row_windows`` reads them
once per row, and a predecessor's box then costs conditional expressions
only.

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

A Max-Min row keeps only its maximal vectors: a mark is dropped when another
mark of the row dominates it.  Write M_j for row j of the full table, whose
rows keep every mark, and before_total(v) for the weight of R(v, j), the sum
of prefix_weight_c[v_c] over the big coordinates plus
small_prefix[min(small_len[v_0], small_cap(j))].
Lemma (dominance, Max-Min): if v <= v* are marks of row j+1, every candidate
that v marks in row j passes v*'s box and value test.
Proof.  First, the low end of every window of row j is the same for all marks
of row j+1.  For a big coordinate, every mark v has
v_c >= #{P_c < l_{j+1}} >= #{P_c < l_j}, so min(v_c, #{P_c < l_j}) is
#{P_c < l_j}.  For coordinate 0, v's small length
before_small = min(small_len[v_0], small_cap(j)) is at least
#{small < l_{j+1}}, so the window's target min(before_small, #{small < l_j})
is #{small < l_j}, and its start small_prefix[target] // unit (or past nu_0
for every mark, when the target exceeds small_cap(j-1)).  Both bounds hold
by induction from row n+1, whose vector holds every item: a mark x of row j
lies in its window, so x_c >= #{P_c < l_j}, and x_0 >= start gives
small_len[x_0] >= target, so x's small length
min(small_len[x_0], small_cap(j-1)) is at least the target, which is at most
small_cap(j-1).  The high ends, min(v_c, #{P_c <= r_{j-1}}) and v_0, never
decrease in v, so v's box lies in v*'s.  Second, the prefix weights never
decrease, and neither does small_len, so before_total(v) <= before_total(v*):
a candidate whose remainder weighs at most v's budget before_total - bound
weighs at most v*'s.
So each pruned row j is exactly the set of maximal elements of M_j.  By
induction from row n+1 = {nu_in}: if row j+1 is the maximal elements of
M_{j+1}, the marks it makes lie in M_j, and every mark of M_j comes from some
v in M_{j+1}, which lies below a maximal v*, whose box and value test take
the same candidate by the lemma.  So the row before the cut is M_j, and the
cut leaves its maximal elements.  Row 1 is marked iff some predecessor's
budget admits weight 0, and the budgets never decrease in v, so the kept row
2 admits 0 iff M_2 does.  The success bit is the full table's, so every
guess of the search, and the number of decides, is too.  Each kept mark
points at its first marking predecessor among the kept marks of row j+1, so
the pointer chain, and the assignment ``backward`` reads off it, can differ
from the full table's: it runs through maximal remainders, which leave the
agents it peels first bundles close to the bound.

A predecessor also skips the part of its box that the one sorted just
before it settled.  Let u and then v be consecutive predecessors of row j
(marked vectors of row j+1) with equal big coordinates, so u_0 < v_0.  Then
u <= v, so only a Min-Max row has such a pair: a Max-Min row keeps its
maximal vectors alone.  In Min-Max before_total grows with v_0, so u's
budget before_total - bound is at most v's, and every candidate that passes
v's value test passes u's.  The big windows depend on their own coordinate
alone, so they are equal.  The low end of the nu_0 window grows with
before_small, which is min(small_len[v_0], cap) and does not decrease as v_0
grows.  So the part of v's box with nu_0 <= u_0 lies inside u's box, and
each of its candidates that passes v's test was marked by u or earlier: v's
nu_0 range starts at u_0 + 1.  By induction this holds also when u skipped a
part of its own box.

A box on nu_0 alone, when no big category is occupied, has a passing part
found by one bisection in Min-Max.  Candidate x leaves a remainder of weight
small_prefix[min(small_len[x], small_cap(j-1))]: small_len never decreases
in x, and neither the cut at the cap nor the prefix weights undo that, so
this row's table of these weights never decreases in x.  A candidate passes
iff its weight is at least the budget, so the passing part of the box
range(start, nu'_0 + 1) is a trailing run starting at bisect_left(table,
budget, start, nu'_0 + 1).  The run starts past the previous predecessor's
nu_0 (the skip), above every mark made so far, and more holds there: the
whole row is one interval, found without walking it.

Let c_j = small_cap(j), S_j = small_prefix[c_j] and
w[x] = small_prefix[small_len[x]], and for row j let
T_j[x] = small_prefix[min(small_len[x], c_{j-1})] = min(w[x], S_{j-1}) and
kept_j[x] = min(small_len[x], c_{j-1}), the weight and small length of
R(x, j-1).  Lemma (Min-Max, nu_0 alone): if row j+1 is the interval [a, b]
(row n+1 is {nu_in_0}, whose remainder is every item), row j is [lo, hi]
with lo = bisect_left(T_j, T_{j+1}[a] - bound, start(a), a + 1), start(a)
the low end of a's coordinate-0 window, and hi the last y in [a, b] with
D(y) = T_{j+1}[y] - T_j[y] <= bound; mark x points at max(x, a) and carries
(T_j[x], kept_j[x]).  The row is empty when lo > a, and then so is every
row below it.  Row 1 is {0: a} when T_2[a] <= bound, else empty.
Proof.  D(y) is the weight of the small items between the prefixes
min(small_len[y], c_{j-1}) and min(small_len[y], c_j): 0 while
small_len[y] <= c_{j-1}, then growing with small_len[y], then S_j - S_{j-1}
once small_len[y] >= c_j.  So D never decreases in y, and D(y) <= bound iff
S_j - S_{j-1} <= bound or w[y] <= S_{j-1} + bound.  The budgets
T_{j+1}[y] - bound never decrease in y either, so the skip holds for every
pair of consecutive predecessors y - 1, y of [a, b]: a's box gives the run
[lo, a] of the bisection above, each mark pointing at a, and each y > a
gives at most {y}, marked iff y's coordinate-0 window holds y and
T_j[y] >= T_{j+1}[y] - bound, that is D(y) <= bound.  The window holds y
unless it is empty: start(y) = small_prefix[t] // unit, with
t = min(kept_{j+1}[y], #{small < l_j}), is the least nu_0 whose sweep keeps
t items, and small_len[y] >= kept_{j+1}[y] >= t.  The window is empty only
when t > c_{j-1}, which needs a small item p in a gap r_{j-1} < p < l_j.
Such an item lies in no interval (``validate`` rejects it, ``_Workspace``
does not), and it can pass the weight test: D(y) can be any weight up to
S_j - S_{j-1}.  But by (iii) no bundle of agents j..n takes it, so every
remainder of row j+1 keeps it, every window of row j is empty, a's too,
and lo > a.  Otherwise the marks above a are (a, hi], a prefix of (a, b]
because D never decreases.  If a fails its weight test, D(a) > bound, then
D(y) > bound for every y > a too, lo > a and the row is empty; a row with
no predecessors marks nothing.  Row 1 is marked by the first sorted
predecessor whose budget admits 0 (below), and T_2 never decreases, so that
is a or none.

Row 1 is marked in closed form.  Its windows admit only the zero vector,
and R(0, 0) is empty, so the zero's remainder weighs 0 and keeps 0 small
items: a predecessor marks it iff its budget admits 0, before_total - bound
>= 0 (Max-Min) or <= 0 (Min-Max).  The skip only ever removes an
already-marked zero: it cuts v's box only where u's budget admits every
candidate v's does, so if v's admits the zero, u or an earlier predecessor
marked it.  So row 1 is {zero: (the first sorted predecessor whose budget
admits 0, weight 0, small length 0)}, or empty when no budget admits 0,
which is what enumerating the boxes marks.

All of this runs on the occupied coordinates only: nu_0 and the big
categories that hold an item of the rounded instance.  Every vector the DP
meets is dominated by the instance's vector, so an empty category's
coordinate is 0 in every candidate and every mark; dropping it keeps the
lexicographic order and hence the first-marking predecessor.  The
``DPTable`` keeps the marks on these coordinates, each row as
``_mark_rows`` yields it: a dict, or a ``_Run`` for a Min-Max row on nu_0
alone, which holds the lemma's interval and builds an entry only when one
is read.  ``succeeded`` and ``backward`` read them there; the full
(nu_0, ..., nu_C) rows are built only
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
(weight, small length) into the next row, where they are the predecessor's
``before_total`` (read as its budget, before_total - bound) and
``before_small``.  ``backward`` and ``retrieve`` read
a remainder's items as the position prefixes of those lengths, from the
tables whose weights ``forward`` sums, so the sweep's rule has one
definition (``small_kept``, whose two tables ``backward`` reads for the
whole pointer chain at once).  Value sums and comparisons run on the
rounded instance's integer view, whose common denominator ``round_instance``
makes divisible by k: the engine takes no lcm and builds no ``Fraction`` or
``Item``, and nu_0 is one integer ceil or floor.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import cache, cached_property
from itertools import accumulate, filterfalse, product, repeat
from math import gcd
from operator import getitem, le
from typing import Iterable, Iterator, Optional, Sequence

from .instance_model import Assignment, Mode, assignment_from_positions
from .rounding import InputVector, RoundedInstance, small_units

# The bundle rule's margin in units of 1/k: an agent's bundle must be worth at
# least 1 - BUNDLE_MARGIN/k (Max-Min) or at most 1 + BUNDLE_MARGIN/k (Min-Max)
# in rounded, scaled values.
BUNDLE_MARGIN = 3


# A mark's (pointer, weight, small length): its first marking predecessor,
# and the weight and small-prefix length of its remainder.
Mark = tuple[InputVector, int, int]


@dataclass(frozen=True)
class DPTable:
    """Sparse forward-phase result: row(j)[nu] = back-pointer into row j+1.

    Only marked entries are stored, and of a Max-Min row only the maximal
    ones, which no other mark of the row dominates (module docstring); row n
    entries point at the full instance's vector (row n+1, which is not
    stored).  ``marks[j-1]`` holds
    row j over the active coordinates of the workspace ``_ws``, which
    ``forward`` keeps on the table for ``backward``, as ``_mark_rows``
    yields it: each marked nu maps to (pointer, weight, small length), and
    a Min-Max row on nu_0 alone is a ``_Run``, one interval whose entries
    are built on read.  ``rows`` holds the same rows as full
    (nu_0, ..., nu_C) vectors mapping to their pointers; it is built on its
    first read (by ``row``, ``trace_lines`` or a caller), which
    ``solve_rounded`` never makes.
    """
    nu_in: InputVector
    marks: tuple[Mapping[InputVector, Mark], ...]
    _ws: _Workspace = field(compare=False, repr=False)

    @cached_property
    def rows(self) -> tuple[dict[InputVector, InputVector], ...]:
        """Index j-1 holds row j over every coordinate."""
        expand = cache(self._ws.expand)
        return tuple({expand(nu): expand(mark[0]) for nu, mark in row.items()}
                     for row in self.marks)

    def row(self, j: int) -> dict[InputVector, InputVector]:
        return self.rows[j - 1]

    @property
    def succeeded(self) -> bool:
        # Row 1 can mark only the zero vector, the one R(., 0) accepts.
        return any(not any(nu) for nu in self.marks[0])


class _Workspace:
    """The rounded instance's integer view, laid out for the DP hot path.

    Coordinate 0 stands for the small items and coordinate c >= 1 for big
    category c; ``positions[c]`` lists the coordinate's item positions left to
    right, from ``RoundedInstance.positions`` (an item's ``category`` is its
    coordinate).  The DP runs on the ``active`` coordinates only: 0 and every
    category that holds an item.  Over them, ``prefix_weight[i][x]`` is the
    weight of ``positions[active[i]][:x]``, the leftmost x items of
    coordinate ``active[i]``, ``reach[j-1][i]`` counts its items at
    positions <= r_j and ``left_of[j-1][i]`` those at positions < l_j, for
    the j-th agent in lexicographic order.  ``small_len[x]`` is the longest
    small prefix worth < (x + 1)/k and ``small_weight[x]`` its weight, for x
    up to the instance's nu_0, so the methods take only vectors <= ``nu_in``
    (``retrieve`` checks; the DP meets no other).

    Raises ValueError unless ``nested`` is empty (the highs never decrease
    in that order), l_1 = 1 and r_n = m: the ``windows`` settle the
    reconstruction, containment and interval tests only then.
    """

    def __init__(self, rounded: RoundedInstance):
        inst = rounded.instance
        sch = rounded.scheme
        weights, denom = inst.integers
        self.order, self.lows, self.highs = inst.lex
        if not (self.order and self.lows[0] == 1 and self.highs[-1] == len(weights)
                and not inst.nested):
            raise ValueError("the dynamic program needs agents whose intervals start "
                             "at item 1, end at item m and are inclusion-free")
        self.up = sch.mode is Mode.MAXMIN

        # round_instance's D is a multiple of k; any other view is lifted to one
        lift = sch.k // gcd(denom, sch.k)
        self.denom = denom * lift
        self.unit = self.denom // sch.k
        self.weight = [0, *weights] if lift == 1 else [0, *(w * lift for w in weights)]

        self.positions = rounded.positions()
        self.active = tuple(c for c, ps in enumerate(self.positions) if c == 0 or ps)
        active_positions = [self.positions[c] for c in self.active]
        # a coordinate that holds every item holds positions 1..m, and
        # weight[0] = 0 starts their prefix weights
        weight = self.weight
        self.prefix_weight = [list(accumulate(weight)) if len(ps) == len(weights)
                              else list(accumulate([weight[p] for p in ps], initial=0))
                              for ps in active_positions]
        self.small_positions = self.positions[0]
        self.small_prefix = self.prefix_weight[0]
        # Counted per coordinate by one C-level map over the agents, then
        # read per agent: reach[j-1][i], left_of[j-1][i].
        self.reach = list(zip(*[map(bisect_right, repeat(ps), self.highs)
                                for ps in active_positions]))
        self.left_of = list(zip(*[map(bisect_left, repeat(ps), self.lows)
                                  for ps in active_positions]))

        nu0 = small_units(self.small_prefix[-1], self.denom, sch)
        self.nu_active = (nu0,) + tuple(len(ps) for ps in active_positions[1:])
        self.nu_in = self.expand(self.nu_active)
        # The prefix weights never decrease, so the longest prefix worth
        # < (x + 1)/k is as long as the count of nonempty prefixes worth less.
        small_prefix, unit = self.small_prefix, self.unit
        self.small_len = list(map(bisect_left, repeat(small_prefix[1:]),
                                  range(unit, (nu0 + 2) * unit, unit)))
        self.small_weight = [small_prefix[x] for x in self.small_len]

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

    def row_windows(self, j: int, preds: Iterable[tuple[InputVector, int, int]]
                    ) -> Iterator[tuple[InputVector, int, int, Sequence[range]]]:
        """The boxes of row j >= 2: for each (nu_prev, budget, before_small)
        in ``preds``, yield (nu_prev, budget, start, big).  The box of
        nu_prev is range(start, nu_prev[0] + 1) times the ranges ``big`` of
        the big coordinates; start lies past nu_prev[0] when the
        coordinate-0 window is empty, and ``big`` is empty when no big
        category is occupied.  ``before_small`` is the number of small items
        in the remainder before agent j; ``budget`` passes through unread.

        Row j's bounds, ``left_of[j-1]`` and ``reach[j-2]``, are read once;
        each box then costs conditional expressions only.
        """
        reach, left_of = self.reach[j - 2], self.left_of[j - 1]
        left, top = left_of[0], reach[0]
        small_prefix, unit = self.small_prefix, self.unit
        past = self.nu_active[0] + 1
        bounds = tuple(zip(left_of[1:], reach[1:]))
        for nu_prev, budget, before_small in preds:
            # Small items: the remainder's prefix length grows monotonically
            # with nu_0 and must reach target = min(before_small, #small < l_j),
            # which the sweep keeps only if target <= #small <= r_{j-1}; the
            # least such nu_0 has (nu_0 + 1) * unit > small_prefix[target].
            target = before_small if before_small < left else left
            # Big category c: the bundle takes items nu_c..a-1 of the
            # category, which must lie at or after l_j, while the remainder's
            # first nu_c items must lie at or before r_{j-1}.
            yield (nu_prev, budget, small_prefix[target] // unit if target <= top else past,
                   [range(a if a < lo else lo, (a if a < hi else hi) + 1)
                    for a, (lo, hi) in zip(nu_prev[1:], bounds)])

    def windows(self, nu_prev: InputVector, before_small: int, j: int) -> list[range]:
        """One range per active coordinate: their product holds the vectors
        nu <= nu_prev that can leave agent j a bundle inside [l_j, r_j], in
        lexicographic ascending order.

        ``before_small`` is the number of small items in the remainder
        before agent j.  Every vector left out either reconstructs no
        remainder for agents 1..j-1 or hands agent j an item outside its
        interval; every vector in the product does neither (module
        docstring).  Rows j >= 2 read the box ``row_windows`` yields.
        """
        if j == 1:
            # The zero vector: the only one retrieve(., 0) accepts.
            return [range(1)] * len(nu_prev)
        _, _, start, big = next(self.row_windows(j, [(nu_prev, 0, before_small)]))
        return [range(start, nu_prev[0] + 1), *big]


def retrieve(rounded: RoundedInstance, nu: InputVector, j: int) -> Optional[frozenset[int]]:
    """Reconstruct the remainder's item positions for vector nu and agent
    prefix p_1..p_j.

    Returns None when a reconstructed big item would be stranded (the small
    sweep instead stops at the prefix's reachable positions).  Raises
    ValueError when a coordinate of nu is negative or above the full
    instance's.
    """
    ws = _Workspace(rounded)
    if len(nu) != len(ws.nu_in) or any(not 0 <= a <= b for a, b in zip(nu, ws.nu_in)):
        raise ValueError(f"vector {nu} is not between 0 and the instance vector {ws.nu_in}")
    if not 0 <= j <= rounded.instance.n:
        raise ValueError(f"agent count {j} out of range")
    items = ws.remainder(nu, j)
    return None if items is None else frozenset(items)


class _Run(Mapping):
    """Row j of a Min-Max DP on nu_0 alone: the marks (lo,) .. (hi,), mark
    (x,) pointing at (max(x, a),) and carrying the weight and small length
    of R(x, j-1), min(small_weight[x], small_prefix[cap]) and
    min(small_len[x], cap) for cap = small_cap(j-1) (module docstring).  It
    answers ``in``, ``[nu]``, ``len``, iteration and ``items()`` as a dict
    row does, and builds an entry only when it is read."""
    __slots__ = ("lo", "hi", "a", "cap", "cap_weight", "ws")

    def __init__(self, lo: int, hi: int, a: int, cap: int, ws: _Workspace):
        self.lo, self.hi, self.a, self.cap, self.ws = lo, hi, a, cap, ws
        self.cap_weight = ws.small_prefix[cap]

    def __contains__(self, nu) -> bool:
        return type(nu) is tuple and len(nu) == 1 and nu[0] in range(self.lo, self.hi + 1)

    def __getitem__(self, nu: InputVector) -> Mark:
        if nu not in self:
            raise KeyError(nu)
        x, cap, cap_weight = nu[0], self.cap, self.cap_weight
        weight, length = self.ws.small_weight[x], self.ws.small_len[x]
        return (self.pointer(nu), weight if weight < cap_weight else cap_weight,
                length if length < cap else cap)

    def pointer(self, nu: InputVector) -> InputVector:
        """The pointer of the mark nu alone, which ``backward`` reads: no
        weight or small length is built, and nu is not tested."""
        x, a = nu[0], self.a
        return (x if x > a else a,)

    def __len__(self) -> int:
        return self.hi - self.lo + 1

    def __iter__(self) -> Iterator[InputVector]:
        return ((x,) for x in range(self.lo, self.hi + 1))


def _run_rows(ws: _Workspace, bound: int) -> Iterator[Mapping[InputVector, Mark]]:
    """Yield rows n..1 of a Min-Max DP on nu_0 alone: each row j >= 2 is the
    ``_Run`` [lo, hi] that row j+1's interval [a, b] gives by the module
    docstring's lemma, found by two bisections of ``small_weight``.  An
    empty row and every row below it are {}."""
    small_weight, small_prefix, unit = ws.small_weight, ws.small_prefix, ws.unit
    # Row n+1: the instance's vector, whose remainder is every item (r_n = m,
    # so S_n is their weight).  before and before_small are T_{j+1}[a] and
    # kept_{j+1}[a], above and below S_j and S_{j-1}.
    a = b = ws.nu_active[0]
    before = above = small_prefix[-1]
    before_small = len(ws.small_positions)
    for j in range(len(ws.order), 1, -1):
        cap = ws.small_cap(j - 1)
        below = small_prefix[cap]
        # a's box is range(start, a + 1), empty when start > a; candidate x
        # passes iff T_j[x] = min(small_weight[x], below) >= before - bound.
        left, limit = ws.left_of[j - 1][0], before - bound
        target = before_small if before_small < left else left
        lo = (bisect_left(small_weight, limit, small_prefix[target] // unit, a + 1)
              if target <= cap and limit <= below else a + 1)
        if lo > a:
            yield from ({} for _ in range(j, 0, -1))
            return
        # y > a is marked iff D(y) <= bound: always when S_j - S_{j-1} <= bound,
        # else iff small_weight[y] <= S_{j-1} + bound.
        hi = (b if above - below <= bound
              else bisect_right(small_weight, below + bound, a, b + 1) - 1)
        yield _Run(lo, hi, a, cap, ws)
        a, b, above = lo, hi, below
        before, before_small = min(small_weight[lo], below), min(ws.small_len[lo], cap)
    # Row 1: the zero vector, pointing at a if its budget admits weight 0.
    yield {(0,): ((a,), 0, 0)} if before <= bound else {}


def _maximal(row: dict[InputVector, Mark]) -> dict[InputVector, Mark]:
    """The marks of ``row`` whose vectors no other mark of it dominates, in
    ascending lexicographic order.  A vector's dominators sort after it, so
    a walk in descending order meets each of them first, and a vector that
    a dropped one dominates is dominated by a kept one too."""
    kept: list[InputVector] = []
    for nu in sorted(row, reverse=True):
        for top in kept:
            if all(map(le, nu, top)):
                break
        else:
            kept.append(nu)
    return {nu: row[nu] for nu in reversed(kept)}


def _mark_rows(ws: _Workspace) -> Iterator[Mapping[InputVector, Mark]]:
    """Yield rows n..1 over the active coordinates.  Row j maps each kept
    mark nu to (pointer, weight, small length): its first (lexicographically
    smallest) marking predecessor, and the weight and small-prefix length of
    R(nu, j-1), which is what nu needs as a predecessor for row j-1.

    A Min-Max row on nu_0 alone is one interval, which ``_run_rows`` finds
    without walking a candidate.  Every other row is a dict, carried to the
    next as one sorted list of (nu, budget, small length), the budget being
    weight - bound, and ``row_windows`` gives each predecessor's box from
    bounds it reads once per row.  A candidate's remainder weight is a sum
    of table entries: the small prefix its nu_0 keeps, cut at the row's
    ``small_cap``, plus the prefix weight of each big coordinate (module
    docstring).  A box's coordinate-0 range starts past the previous
    predecessor's nu_0 when that predecessor settled the part below.  A
    complete Max-Min row is cut to its maximal vectors by ``_maximal``: the
    cut row is the one yielded and the one whose marks are the next row's
    predecessors, and it is the full table's row cut the same way (module
    docstring).  Row 1 is not enumerated: it is the zero vector, pointing at
    the first predecessor whose budget admits weight 0, or empty (module
    docstring).
    """
    bound = ws.denom + (-BUNDLE_MARGIN if ws.up else BUNDLE_MARGIN) * ws.unit
    up = ws.up
    if not up and ws.active == (0,):
        yield from _run_rows(ws, bound)
        return
    small_len, small_prefix, small_weight = ws.small_len, ws.small_prefix, ws.small_weight
    # Row n+1: the instance's vector; it reconstructs to every item.
    preds = [(ws.nu_active, sum(ws.weight) - bound, len(ws.small_positions))]
    for j in range(len(ws.order), 1, -1):
        cap = ws.small_cap(j - 1)
        # min(small_len[x], cap) and small_prefix of it: small_len does not
        # decrease, so the row keeps a prefix of each list and pads.
        cut = bisect_right(small_len, cap)
        kept = small_len[:cut] + [cap] * (len(small_len) - cut)
        small_table = small_weight[:cut] + [small_prefix[cap]] * (len(small_len) - cut)
        tables = [small_table, *ws.prefix_weight[1:]]
        # Built by name, so that a test can count the membership tests.
        row: dict[InputVector, Mark] = dict()
        last_big, last_nu0 = None, 0
        for nu_prev, limit, start, big in ws.row_windows(j, preds):
            # The bundle R(nu_prev, j) - R(nu, j-1) is worth before_total - after,
            # and limit is before_total - bound.
            big_prev, a0 = nu_prev[1:], nu_prev[0]
            if big_prev == last_big and start <= last_nu0:
                start = last_nu0 + 1
            last_big, last_nu0 = big_prev, a0
            # The unmarked candidates, in lexicographic order.
            for nu in filterfalse(row.__contains__, product(range(start, a0 + 1), *big)):
                after = sum(map(getitem, tables, nu))
                if (after <= limit) if up else (after >= limit):
                    row[nu] = (nu_prev, after, kept[nu[0]])
        if up:
            row = _maximal(row)
        yield row
        preds = sorted([(nu, after - bound, length) for nu, (_, after, length) in row.items()])
    # Row 1: the zero vector, whose remainder R(0, 0) is empty and weighs 0.
    first = next((nu_prev for nu_prev, limit, _ in preds if (limit >= 0 if up else limit <= 0)), None)
    yield {} if first is None else {(0,) * len(ws.active): (first, 0, 0)}


def forward(rounded: RoundedInstance) -> DPTable:
    """Fill the table; row j's back-pointers record the first (lexicographically
    smallest) kept predecessor vector in row j+1 that marks the entry.
    """
    ws = _Workspace(rounded)
    return DPTable(ws.nu_in, tuple(_mark_rows(ws))[::-1], ws)  # rows 1..n


def backward(table: DPTable, rounded: RoundedInstance) -> Assignment:
    """Walk the pointers from row 1's zero vector and emit the partition.

    Raises LookupError when the forward phase recorded no success.
    """
    if not table.succeeded:
        raise LookupError("dynamic program recorded no feasible assignment")
    ws = table._ws
    # chain[j] is the vector marked at row j (chain[0] = zero for "row 0"),
    # chain[n] the instance's vector; a mark of row j points into row j+1.
    chain = [(0,) * len(ws.active)]
    for row in table.marks:
        chain.append(row.pointer(chain[-1]) if type(row) is _Run else row[chain[-1]][0])
    # R(chain[j-1], j-1) is a per-coordinate prefix of R(chain[j], j) (module
    # docstring, (ii)), so bundle j is the slice of each coordinate's
    # positions between the two prefix lengths; the small one is
    # small_kept(chain[j][0], j), read off its tables.
    small_len, small_positions = ws.small_len, ws.small_positions
    caps = [0, *(reach[0] for reach in ws.reach)]
    small = [min(small_len[nu[0]], cap) for nu, cap in zip(chain, caps)]
    bundles = {i: small_positions[a:b] for i, a, b in zip(ws.order, small, small[1:])}
    for t, c in enumerate(ws.active[1:], start=1):
        ps = ws.positions[c]
        for i, before, after in zip(ws.order, chain, chain[1:]):
            bundles[i] += ps[before[t]:after[t]]
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
    """One line per kept mark, rows n..1, vectors ascending."""
    out = []
    for j in range(len(table.rows), 0, -1):
        for nu in sorted(table.row(j)):
            ptr = table.row(j)[nu]
            out.append(f"row={j} nu={','.join(map(str, nu))} ptr={','.join(map(str, ptr))}")
    return out
