"""The configuration-vector dynamic program for both objectives.

The forward phase fills one row per agent, last lexicographic rank first.
Each row maps configuration vectors to a back-pointer: a vector is marked in
row j when some marked vector of row j+1 dominates it and the item-set
difference of the two reconstructed remainder graphs is a feasible bundle for
the j-th agent.  Each row then keeps only its cut, its maximal (Max-Min) or
minimal (Min-Max) vectors (the dominance lemmas below).  The backward phase
walks the pointers from row 1's all-zero vector and re-materializes the
bundles.  Row n+1 holds only the instance's vector, which reconstructs to
every item, so row n is filled by the same step as every other row.

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

Each row keeps only its cut, the marks that no other mark of the row
dominates: the maximal ones in Max-Min, the minimal ones in Min-Max.  Write
M_j for row j of the full table, whose rows keep every mark, and
before_total(v) for the weight of R(v, j), the sum of prefix_weight_c[v_c]
over the big coordinates plus small_prefix[min(small_len[v_0], small_cap(j))].
First, the low end of every window of row j is the same for all marks of row
j+1.  For a big coordinate, every mark v has
v_c >= #{P_c < l_{j+1}} >= #{P_c < l_j}, so min(v_c, #{P_c < l_j}) is
#{P_c < l_j}.  For coordinate 0, v's small length
before_small = min(small_len[v_0], small_cap(j)) is at least
#{small < l_{j+1}}, so the window's target min(before_small, #{small < l_j})
is #{small < l_j}, and its start small_prefix[target] // unit (or past nu_0
for every mark, when the target exceeds small_cap(j-1)); small_len[v_0] >=
target puts the start at or below v_0.  Both bounds hold by induction from
row n+1, whose vector holds every item: a mark x of row j lies in its
window, so x_c >= #{P_c < l_j}, and x_0 >= start gives
small_len[x_0] >= target, so x's small length
min(small_len[x_0], small_cap(j-1)) is at least the target, which is at most
small_cap(j-1).  The high ends, min(v_c, #{P_c <= r_{j-1}}) and v_0, never
decrease in v, and neither do the prefix weights, small_len and so
before_total(v).
Lemma (dominance, Max-Min): if v <= v* are marks of row j+1, every candidate
that v marks in row j passes v*'s box and value test.
Proof.  v's box lies in v*'s, and a candidate whose remainder weighs at most
v's budget before_total - bound weighs at most v*'s.
Lemma (dual, Min-Max): if u' <= u are marks of row j+1 and u marks x in row
j, then u' marks min(x, u').
Proof.  min(x, u') lies in u''s box: it is at least the common low ends,
which lie below x and u', at most u', and its big coordinates are at most
x_c <= #{P_c <= r_{j-1}}.  The bundle weight, before_total(u) less the
weight of R(x, j-1), is separable: per coordinate, T'(u_c) - T(x_c), where
T' = T = prefix_weight_c for a big coordinate, and for coordinate 0 T'(y)
and T(y) are small_prefix[min(small_len[y], c)] at c = small_cap(j) and
c = small_cap(j-1).  Each term does not grow from (u_c, x_c) to (u'_c, min(x_c, u'_c)).  When
x_c <= u'_c, only T'(u_c) falls to T'(u'_c).  Otherwise the term is
T'(u'_c) - T(u'_c): 0 for a big coordinate, and for coordinate 0 it never
decreases in small_len[u'_0], because
small_prefix[min(len, c1)] - small_prefix[min(len, c2)] never decreases in
len for c2 <= c1; so it is at most T'(x_0) - T(x_0) <= T'(u_0) - T(x_0).
So u''s bundle weighs at most u's, at most the bound.
So each cut row j is exactly the cut of M_j.  By induction from row
n+1 = {nu_in}: if row j+1 is the cut of M_{j+1}, the marks it makes lie in
M_j, and every maximal (minimal) x of M_j comes from some u in M_{j+1}.  In
Max-Min u lies below a maximal u*, whose box and value test take x by the
first lemma.  In Min-Max u lies above a minimal u', which marks
min(x, u') <= x, so x by x's minimality.  So the row before the cut holds
the cut of M_j and lies in M_j, and the cut leaves the cut of M_j.  Row 1 is
marked iff some predecessor's budget admits weight 0, and the budgets never
decrease in v, so the kept row 2 admits 0 iff M_2 does.  The success bit is
the full table's, so every guess of the search, and the number of decides,
is too.  Each kept mark points at its first marking predecessor among the
kept marks of row j+1.  In Max-Min the pointer chain, and the assignment
``backward`` reads off it, can differ from the full table's: it runs
through maximal remainders, which leave the agents it peels first bundles
close to the bound.  In Min-Max they are the full table's.  If a mark x is
minimal in M_j and u is its first marking predecessor in M_{j+1}, any
u' <= u marks min(x, u') = x, so u is minimal and kept, and the kept marks
sorted before it are full-table marks that do not mark x: x keeps its
pointer.  Row 1's zero is minimal, so by induction the chain from it passes
minimal marks only, each with the full table's pointer.

A Max-Min row on two or more coordinates is built from the frontier of
each box, not from the whole box (one on nu_0 alone by the bisection
below).  A candidate's remainder weight is a sum of tables that never
decrease, so the part of a box that passes the value test is down-closed
in the box, and a passing candidate that no other one dominates (a
maximal one) fails once any coordinate below its range's top grows by one.
So a box whose lowest corner fails has no passing candidate, and one whose
top corner passes has that corner as its one maximal candidate.  Otherwise
``_prefixes`` chooses the box's leading coordinates one at a time and keeps,
for each, the values a maximal candidate can take with the choices made:
those that pass with the later coordinates at their lows, and of those below
the range's top, the ones whose successor fails with the later coordinates
at their tops (raising the later coordinates only raises the weight).  For
each kept prefix ``_frontier`` walks the last two coordinates, y then x, as
a staircase: the largest passing x for y never increases as y grows, so one
bisection of x's table finds it, one of y's table finds the last y that
keeps it, and the walk yields (prefix, y, x) there, the corner of each step.
So each yielded candidate passes, and every maximal candidate of the box is
yielded.
Claim: the row built from the frontiers, cut to its maximal vectors, is the
row built from the whole boxes cut the same way, with the same pointers,
weights and small lengths.  Proof.  Write B for the row built from the
boxes and F for the one built from the frontiers, each vector pointing at
the first predecessor that yields it, so F's vectors are some of B's.  A
maximal vector v of B lies in the passing part of every predecessor u that
marks it, and is maximal there, since a larger passing candidate of u's box
is a mark of B.  So every such u yields v, the first of them too, and no
earlier predecessor does, for it would mark v in B: v has B's pointer in F.
Its weight and small length depend on v alone.  A vector of F that is not
maximal in B lies below a maximal one, which F holds, so the cut drops it.

A row on nu_0 alone, when no big category is occupied, is one mark found
by one bisection, in both modes.  Candidate x leaves a remainder of weight
T_j[x] = small_prefix[min(small_len[x], small_cap(j-1))], which never
decreases in x, since small_len does not and neither the cap nor the prefix
weights undo that, and of kept_j[x] = min(small_len[x], small_cap(j-1))
small items.  Row n+1 is {nu_in_0}, and by the cut every row j+1 is one
mark a.  A candidate x of a's box start(a)..a, start(a) past a when the
coordinate-0 window is empty, passes iff T_j[x] <= limit (Max-Min) or
T_j[x] >= limit (Min-Max), with limit = T_{j+1}[a] - bound.  The cut keeps
the largest passing x (Max-Min) or the least, so row j is {x: a}, carrying
(T_j[x], kept_j[x]), or empty, and then so is every row below it.  Row 1
is {0: a} when T_2[a] >= bound (Max-Min) or <= bound (Min-Max), else empty.
Let first be the least prefix index up to the cap with small_prefix[first]
>= limit + 1 (Max-Min) or >= limit (Min-Max), and edge =
small_prefix[first] // unit, or a + 1 when there is none.  T_j[x] reaches
that sum iff small_len[x] >= first iff small_prefix[first] < (x+1) unit iff
x >= edge.  So a Max-Min x passes iff (x+1) unit <= small_prefix[first],
and the row's x is min(edge - 1, a); a Min-Max x passes iff x >= edge, and
the row's x is max(edge, start(a)); either is a mark iff start(a) <= x <= a.
kept_j[x] counts the nonempty prefixes up to the cap worth < (x+1) unit:
two bisections of the small prefix sums, and no table indexed by x.  On an
all-small rounded instance ``scaled_by`` one factor, the small prefix sums
are the factor times its source's ``prefix``, and each bisection runs on
that ``prefix`` with its threshold carried over.

Row 1 is marked in closed form.  Its windows admit only the zero vector,
and R(0, 0) is empty, so the zero's remainder weighs 0 and keeps 0 small
items: a predecessor marks it iff its budget admits 0, before_total - bound
>= 0 (Max-Min) or <= 0 (Min-Max).  So row 1 is {zero: (the first sorted
predecessor whose budget admits 0, weight 0, small length 0)}, or empty when
no budget admits 0, which is what enumerating the boxes marks.

All of this runs on the occupied coordinates only: nu_0 and the big
categories that hold an item of the rounded instance.  Every vector the DP
meets is dominated by the instance's vector, so an empty category's
coordinate is 0 in every candidate and every mark; dropping it keeps the
lexicographic order and hence the first-marking predecessor.  The
``DPTable`` keeps the marks on these coordinates, each row the dict
``_mark_rows`` yields.  ``succeeded`` and ``backward`` read them there; the
full (nu_0, ..., nu_C) rows are built only when a caller reads ``rows``, as
``trace_lines`` does.  ``backward`` walks the pointer chain and, since by
(ii) each remainder on it is a per-coordinate prefix of the next, takes
agent j's bundle as one slice of each coordinate's positions, between the
prefix lengths of R(chain[j-1], j-1) and R(chain[j], j).  When every item is
small, coordinate 0 holds positions 1..m, and the slice is one of the item
ids.

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
definition (``small_kept``; ``backward`` reads the small lengths of the
whole pointer chain off the marks, which carry them).  Value sums and comparisons run on the
rounded instance's integer view, whose common denominator ``round_instance``
makes divisible by k: the engine takes no lcm and builds no ``Fraction`` or
``Item``, and nu_0 is one integer ceil or floor.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from functools import cache, cached_property, reduce
from itertools import accumulate, filterfalse, product, repeat
from math import gcd
from operator import and_, getitem
from typing import Iterable, Iterator, Optional, Sequence

from .instance_model import Assignment, Mode, assignment_from_positions
from .rounding import InputVector, RoundedInstance, all_small_view, small_units

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

    Only marked entries are stored, and of each row only its cut, the
    maximal (Max-Min) or minimal (Min-Max) marks, which no other mark of the
    row dominates (module docstring); row n entries point at the full
    instance's vector (row n+1, which is not stored).  ``marks[j-1]`` holds
    row j over the active coordinates of the state ``_ws`` the rows ran on,
    a ``_Workspace`` or an ``_AllSmallWorkspace``, which ``forward`` keeps
    on the table for ``backward``, as ``_mark_rows`` yields it: each marked
    nu maps to (pointer, weight, small length).  ``rows`` holds the same
    rows as full (nu_0, ..., nu_C) vectors mapping to their pointers, read
    through ``_ws.expand``; it is built on its first read (by ``row``,
    ``trace_lines`` or a caller), which ``solve_rounded`` never makes.
    """
    nu_in: InputVector
    marks: tuple[dict[InputVector, Mark], ...]
    _ws: _Workspace | _AllSmallWorkspace = field(compare=False, repr=False)

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


def _lex_agents(rounded: RoundedInstance) -> tuple[tuple[int, ...], ...]:
    """The agents' lexicographic (order, lows, highs), checked."""
    inst = rounded.instance
    order, lows, highs = inst.lex
    if not (order and lows[0] == 1 and highs[-1] == inst.m and not inst.nested):
        raise ValueError("the dynamic program needs agents whose intervals start "
                         "at item 1, end at item m and are inclusion-free")
    return order, lows, highs


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
    the j-th agent in lexicographic order.  ``small_count`` is the number of
    small items.  ``small_len[x]`` is the longest small prefix worth
    < (x + 1)/k and ``small_weight[x]`` its weight, for x up to the
    instance's nu_0, so the methods take only vectors <= ``nu_in``
    (``retrieve`` checks; the DP meets no other).  ``folded`` is
    (prefix, num, den) with ``small_prefix[i] == prefix[i] * num // den``,
    which ``_run_rows`` reads: here (small_prefix, 1, 1).

    Raises ValueError unless ``nested`` is empty (the highs never decrease
    in that order), l_1 = 1 and r_n = m: the ``windows`` settle the
    reconstruction, containment and interval tests only then.
    """

    def __init__(self, rounded: RoundedInstance):
        self.order, self.lows, self.highs = _lex_agents(rounded)
        weights, denom = rounded.instance.integers
        sch = rounded.scheme
        self.up = sch.mode is Mode.MAXMIN
        self.width = sch.C + 1
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
        self.small_count = len(self.small_positions)
        self.small_prefix = self.prefix_weight[0]
        self.folded = (self.small_prefix, 1, 1)
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
        full = [0] * self.width
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


class _AllSmallWorkspace:
    """The DP state of a rounded instance of either mode whose items are
    all small and whose weights are ``scaled_by`` one factor, as
    ``round_instance`` makes at an all-small guess: its readers' fields.

    Its rows run on nu_0 alone (``_run_rows``) and read ``up``, ``folded``,
    which takes its prefix from the instance's scaling's source, and
    ``reach`` and ``left_of``, which coordinate 0, holding every item, reads
    off the agents' endpoints; ``backward`` and ``DPTable.rows`` read
    ``order``, ``small_count``, ``active`` and ``expand``.  So it is built in
    O(n) and holds no table: whatever needs one, as ``retrieve`` does,
    builds a ``_Workspace``.
    """

    active = (0,)
    expand = _Workspace.expand

    def __init__(self, rounded: RoundedInstance):
        self.order, lows, highs = _lex_agents(rounded)
        sch, scaling = rounded.scheme, rounded.instance.scaling
        self.up = sch.mode is Mode.MAXMIN
        self.width = sch.C + 1
        lift = sch.k // gcd(scaling.denom, sch.k)
        self.denom = scaling.denom * lift
        self.unit = self.denom // sch.k
        self.small_count = rounded.instance.m
        self.reach = list(zip(highs))
        self.left_of = [(lo - 1,) for lo in lows]
        prefix = scaling.source.prefix
        self.folded = (prefix, scaling.num * lift, scaling.den)
        self.nu_active = (small_units(prefix[-1] * scaling.num * lift // scaling.den,
                                      self.denom, sch),)
        self.nu_in = self.expand(self.nu_active)


def _workspace(rounded: RoundedInstance) -> _Workspace | _AllSmallWorkspace:
    """The state ``forward`` runs on: ``_AllSmallWorkspace`` for an
    instance ``scaled_by`` one factor whose values are all small, in either
    mode, else ``_Workspace``."""
    sch = rounded.scheme
    if all_small_view(rounded.instance, sch.k):
        return _AllSmallWorkspace(rounded)
    return _Workspace(rounded)


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


def _run_rows(ws: _Workspace | _AllSmallWorkspace, bound: int
              ) -> Iterator[dict[InputVector, Mark]]:
    """Yield rows n..1 of a DP on nu_0 alone, in either mode: each row
    j >= 2 is the one mark {(x,): ((a,), T_j[x], kept_j[x])} that row j+1's
    mark (a,) gives by the module docstring's lemma.  One bisection of the
    small prefix sums gives the edge that x is set by and a second the small
    length x keeps, both on ``folded``'s prefix, whose entries times
    num // den are the small prefix sums: each threshold is carried over to
    it.  An empty row and every row below it are {}."""
    prefix, num, den = ws.folded
    up, over, reach, left_of = ws.up, den * ws.unit, ws.reach, ws.left_of
    # Row n+1: the instance's vector, whose remainder is every item (r_n = m).
    # before and before_small are T_{j+1}[a] and kept_{j+1}[a].
    a = ws.nu_active[0]
    before = prefix[-1] * num // den
    before_small = ws.small_count
    for j in range(len(ws.order), 1, -1):
        # a's box is range(start, a + 1) with start = small_prefix[target] //
        # unit, empty when start > a.  With first the least prefix index
        # <= cap worth limit + up, limit = before - bound, x passes iff
        # x < edge (Max-Min) or x >= edge (Min-Max), edge =
        # small_prefix[first] // unit.
        cap, left = reach[j - 2][0], left_of[j - 1][0]
        target = before_small if before_small < left else left
        start = prefix[target] * num // over if target <= cap else a + 1
        # small_prefix[i] >= y iff prefix[i] >= ceil(y den / num)
        first = bisect_left(prefix, -(-(before - bound + up) * den // num), 0, cap + 1)
        edge = prefix[first] * num // over if first <= cap else a + 1
        # the largest passing x (Max-Min) or the least (Min-Max)
        x = (edge - 1 if edge <= a else a) if up else (edge if edge > start else start)
        if not start <= x <= a:
            yield from ({} for _ in range(j, 0, -1))
            return
        # kept_j[x] = min(small_len[x], cap): the nonempty prefixes up to
        # cap worth < (x + 1) unit
        before_small = bisect_left(prefix, -(-(x + 1) * over // num), 0, cap + 1) - 1
        before = prefix[before_small] * num // den
        yield {(x,): ((a,), before, before_small)}
        a = x
    # Row 1: the zero vector, pointing at a if its budget admits weight 0.
    yield {(0,): ((a,), 0, 0)} if (before >= bound if up else before <= bound) else {}


def _cut(row: dict[InputVector, Mark], up: bool) -> dict[InputVector, Mark]:
    """The marks of ``row`` whose vectors no other mark of it dominates from
    above (``up``, Max-Min) or from below (Min-Max), in ascending
    lexicographic order.  For each coordinate, bit i of ``masks[c][v]`` is
    set when mark i's coordinate c is >= v (``up``) or <= v: an OR over the
    row's distinct values of c from the top or the bottom.  The AND of a
    mark's masks holds its own bit and one for each mark that dominates it,
    so the mark is kept iff that AND has one bit."""
    if len(row) < 2:
        return row
    marks = sorted(row)
    masks = []
    for values in zip(*marks):
        bits: dict[int, int] = {}
        for i, x in enumerate(values):
            bits[x] = bits.get(x, 0) | 1 << i
        acc = 0
        for x in sorted(bits, reverse=up):
            acc = bits[x] = acc | bits[x]
        masks.append(bits)
    return {nu: row[nu] for nu in marks
            if reduce(and_, map(getitem, masks, nu)).bit_count() == 1}


def _prefixes(tables: Sequence[Sequence[int]], lead: Sequence[range], prefix: InputVector,
              low: int, high: int, lowest: int, highest: int
              ) -> Iterator[tuple[InputVector, int]]:
    """The prefixes over the ranges ``lead`` that a maximal candidate can
    start with, each with its weight: ``prefix`` holds the ranges' lows and
    weighs ``low``, their tops weigh ``high``, and ``lowest`` and
    ``highest`` are the limit less the lowest and the highest weight of the
    coordinates after the prefix.  A range of one value keeps it; the others
    are chosen in turn, keeping each value that passes with the later
    coordinates at their lows and, below the range's top, whose successor
    fails with them at their tops (module docstring)."""
    wide = [(i, tables[i], r) for i, r in enumerate(lead) if len(r) > 1]
    # (prefix, its weight, its weight with the wide ranges not yet chosen at
    # their tops, the number chosen); the unchosen ones sit at their lows
    stack = [(prefix, low, high, 0)]
    while stack:
        prefix, low, high, d = stack.pop()
        if d == len(wide):
            yield prefix, low
            continue
        i, t, r = wide[d]
        a, b = t[r.start], t[r.stop - 1]
        first = bisect_right(t, highest - high + b, r.start, r.stop) - 1
        stop = bisect_right(t, lowest - low + a, r.start, r.stop)
        for z in range(max(first, r.start), stop):
            w = t[z]
            stack.append(((*prefix[:i], z, *prefix[i + 1:]), low - a + w, high - b + w, d + 1))


def _frontier(tables: Sequence[Sequence[int]], limit: int, box: Sequence[range]
              ) -> Iterator[tuple[InputVector, int]]:
    """Candidates of ``box`` whose weight, the sum of their entries of
    ``tables``, is at most ``limit``, each with its weight: every such
    candidate that no other one dominates, and some dominated ones.  Every
    table never decreases, so nothing passes when the lowest corner fails,
    and the top corner is the one such candidate when it passes.  Otherwise,
    for each prefix of the leading coordinates that ``_prefixes`` keeps, the
    last two coordinates are walked as a staircase (module docstring)."""
    if not all(box):
        return
    lows = tuple([r.start for r in box])
    if sum(map(getitem, tables, lows)) > limit:
        return
    tops = tuple([r.stop - 1 for r in box])
    weight = sum(map(getitem, tables, tops))
    if weight <= limit:
        yield tops, weight
        return
    *lead, ys, xs = box
    *lead_tables, ty, tx = tables
    y_low, y_stop, x_low, x_stop = ys.start, ys.stop, xs.start, xs.stop
    corner, top = ty[y_low] + tx[x_low], ty[y_stop - 1] + tx[x_stop - 1]
    prefix = lows[:-2]
    low = sum(map(getitem, lead_tables, prefix))
    prefixes: Iterable[tuple[InputVector, int]] = ((prefix, low),)
    if tops[:-2] != prefix:
        prefixes = _prefixes(lead_tables, lead, prefix, low, weight - top,
                             limit - corner, limit - top)
    for prefix, low in prefixes:
        # x is the largest passing x for y, and it passes up to y's corner
        rest = limit - low
        y, x = y_low, bisect_right(tx, rest - ty[y_low], x_low, x_stop) - 1
        while True:
            y = bisect_right(ty, rest - tx[x], y, y_stop) - 1
            yield (*prefix, y, x), low + ty[y] + tx[x]
            y += 1
            if y == y_stop:
                break
            x = bisect_right(tx, rest - ty[y], x_low, x) - 1
            if x < x_low:
                break


def _mark_rows(ws: _Workspace | _AllSmallWorkspace) -> Iterator[dict[InputVector, Mark]]:
    """Yield rows n..1 over the active coordinates.  Row j maps each kept
    mark nu to (pointer, weight, small length): its first (lexicographically
    smallest) marking predecessor, and the weight and small-prefix length of
    R(nu, j-1), which is what nu needs as a predecessor for row j-1.

    A row on nu_0 alone is one mark in either mode, which ``_run_rows``
    finds without walking a candidate.  Every other row is a dict, carried
    to the next as one sorted list of (nu, budget, small length), the
    budget being weight - bound, and ``row_windows`` gives each
    predecessor's box from bounds it reads once per row.  A candidate's
    remainder weight is a sum of table entries: the small prefix its nu_0
    keeps, cut at the row's ``small_cap``, plus the prefix weight of each
    big coordinate (module docstring).  A Min-Max box walks every candidate.  A Max-Min box yields
    only its frontier, the staircase ``_frontier`` walks.  Each vector
    points at the first predecessor that yields it, and the row is then cut
    by ``_cut`` to its maximal (Max-Min) or minimal (Min-Max) vectors: the
    cut row is the one yielded and the one whose marks are the next row's
    predecessors.  It is the full table's row cut the same way (module
    docstring).  In Max-Min every maximal vector of the row the whole boxes
    would mark is on the frontier of its first marking predecessor, so the
    pointers and carried weights are those of the box scan cut the same
    way; in Min-Max they are the full table's.  Row 1 is not enumerated: it
    is the zero vector, pointing at the first predecessor whose budget
    admits weight 0, or empty (module docstring).
    """
    bound = ws.denom + (-BUNDLE_MARGIN if ws.up else BUNDLE_MARGIN) * ws.unit
    up = ws.up
    if ws.active == (0,):
        yield from _run_rows(ws, bound)
        return
    small_len, small_prefix, small_weight = ws.small_len, ws.small_prefix, ws.small_weight
    # Row n+1: the instance's vector; it reconstructs to every item.
    preds = [(ws.nu_active, sum(ws.weight) - bound, ws.small_count)]
    for j in range(len(ws.order), 1, -1):
        cap = ws.small_cap(j - 1)
        # min(small_len[x], cap) and small_prefix of it: small_len does not
        # decrease, so the row keeps a prefix of each list and pads.
        cut = bisect_right(small_len, cap)
        kept = small_len[:cut] + [cap] * (len(small_len) - cut)
        small_table = small_weight[:cut] + [small_prefix[cap]] * (len(small_len) - cut)
        tables = [small_table, *ws.prefix_weight[1:]]
        # Built by name, so that a test can count the membership tests.  The
        # bundle R(nu_prev, j) - R(nu, j-1) is worth before_total - after, and
        # limit is before_total - bound.
        row: dict[InputVector, Mark] = dict()
        if up:
            for nu_prev, limit, start, big in ws.row_windows(j, preds):
                for nu, after in _frontier(tables, limit, (range(start, nu_prev[0] + 1), *big)):
                    if nu not in row:
                        row[nu] = (nu_prev, after, kept[nu[0]])
        else:
            for nu_prev, limit, start, big in ws.row_windows(j, preds):
                # The unmarked candidates, in lexicographic order.
                for nu in filterfalse(row.__contains__,
                                      product(range(start, nu_prev[0] + 1), *big)):
                    after = sum(map(getitem, tables, nu))
                    if after >= limit:
                        row[nu] = (nu_prev, after, kept[nu[0]])
        row = _cut(row, up)
        yield row
        preds = sorted([(nu, after - bound, length) for nu, (_, after, length) in row.items()])
    # Row 1: the zero vector, whose remainder R(0, 0) is empty and weighs 0.
    first = next((nu_prev for nu_prev, limit, _ in preds if (limit >= 0 if up else limit <= 0)), None)
    yield {} if first is None else {(0,) * len(ws.active): (first, 0, 0)}


def forward(rounded: RoundedInstance) -> DPTable:
    """Fill the table; row j's back-pointers record the first (lexicographically
    smallest) kept predecessor vector in row j+1 that marks the entry.
    """
    ws = _workspace(rounded)
    return DPTable(ws.nu_in, tuple(_mark_rows(ws))[::-1], ws)  # rows 1..n


def backward(table: DPTable, rounded: RoundedInstance) -> Assignment:
    """Walk the pointers from row 1's zero vector and emit the partition.

    Raises LookupError when the forward phase recorded no success.
    """
    if not table.succeeded:
        raise LookupError("dynamic program recorded no feasible assignment")
    ws = table._ws
    # chain[j] is the vector marked at row j + 1 (chain[0] = zero in row 1),
    # chain[n] the instance's vector; a mark of row j points into row j+1.
    # small[j] is the small length of R(chain[j], j), which the mark of
    # chain[j] carries, and every small item for chain[n].
    chain, small = [(0,) * len(ws.active)], []
    for row in table.marks:
        mark = row[chain[-1]]
        chain.append(mark[0])
        small.append(mark[2])
    small.append(ws.small_count)
    # R(chain[j-1], j-1) is a per-coordinate prefix of R(chain[j], j) (module
    # docstring, (ii)), so bundle j is the slice of each coordinate's
    # positions between the two prefix lengths.
    instance = rounded.instance
    if len(ws.active) == 1:
        # Every item small: coordinate 0 holds positions 1..m, so each
        # bundle is one slice of the item ids.
        item_ids = instance.item_ids
        named = {i: item_ids[a:b] for i, a, b in zip(ws.order, small, small[1:])}
        return Assignment(instance.mode, tuple([(a.id, named[i])
                                                for i, a in enumerate(instance.agents)]))
    small_positions = ws.small_positions
    bundles = {i: small_positions[a:b] for i, a, b in zip(ws.order, small, small[1:])}
    for t, c in enumerate(ws.active[1:], start=1):
        ps = ws.positions[c]
        for i, before, after in zip(ws.order, chain, chain[1:]):
            bundles[i] += ps[before[t]:after[t]]
    return assignment_from_positions(instance, bundles)


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
        for nu, ptr in sorted(table.row(j).items()):
            out.append(f"row={j} nu={','.join(map(str, nu))} ptr={','.join(map(str, ptr))}")
    return out
