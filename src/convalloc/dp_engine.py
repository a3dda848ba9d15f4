"""The configuration-vector dynamic program for both objectives.

The forward phase fills one row per agent, last lexicographic rank first.
Each row maps configuration vectors to a back-pointer: a vector is marked in
row j when some marked vector of row j+1 dominates it and the item-set
difference of the two reconstructed remainder graphs is a feasible bundle for
the j-th agent.  The backward phase walks the pointers from row 1's all-zero
vector and re-materializes the bundles.

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
vector.  Every window contains all vectors that can pass, and each
enumerated candidate still goes through the same reconstruction,
containment, interval and value checks in the same order, so the marking
and the back-pointers are exactly those of the dense double loop.
Reconstruction is O(C), from per-category prefix masks and weights.  Value
sums and comparisons run on integers after normalizing every rounded value
by a common denominator divisible by k.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import lcm
from typing import Iterable, Optional

from .instance_model import (Agent, Assignment, Subgraph,
                             assignment_from_positions, lexicographic_order)
from .rounding import Direction, InputVector, RoundedInstance, RoundingScheme, input_vector


@dataclass(frozen=True)
class DPTable:
    """Sparse forward-phase result: rows[j][nu] = back-pointer into row j+1.

    Only marked entries are stored; row n entries point at the full
    instance's vector.
    """
    nu_in: InputVector
    rows: tuple[dict[InputVector, InputVector], ...]  # index j-1 holds row j

    def row(self, j: int) -> dict[InputVector, InputVector]:
        return self.rows[j - 1]

    @property
    def succeeded(self) -> bool:
        zero = tuple(0 for _ in self.nu_in)
        return zero in self.rows[0]


class _Workspace:
    """Integer-normalized view of a rounded instance for the DP hot path.

    Coordinate 0 stands for the small items and coordinate c >= 1 for big
    category c; ``positions[c]`` lists the coordinate's item positions left to
    right, and ``prefix_mask[c][i]`` / ``prefix_weight[c][i]`` describe its
    leftmost i items.  ``reach[j-1][c]`` counts the coordinate's items at
    positions <= r_j and ``left_of[j-1][c]`` those at positions < l_j, for the
    j-th agent in lexicographic order.
    """

    def __init__(self, rounded: RoundedInstance):
        inst = rounded.instance
        sch = rounded.scheme
        self.rounded = rounded
        self.inst = inst
        self.sch = sch
        self.m = inst.m
        order = lexicographic_order(inst)
        self.order = order
        self.lows = [inst.agents[i].lo for i in order]
        self.highs = [inst.agents[i].hi for i in order]
        self.up = sch.direction is Direction.UP

        denom = lcm(sch.k, *[inst.value_at(p).denominator for p in range(1, inst.m + 1)])
        self.denom = denom
        self.unit = denom // sch.k
        self.weight = [0] + [int(inst.value_at(p) * denom) for p in range(1, inst.m + 1)]
        self.total = sum(self.weight)

        self.positions: list[list[int]] = [[] for _ in range(sch.C + 1)]
        for p in range(1, inst.m + 1):
            self.positions[0 if rounded.small[p - 1] else rounded.category[p - 1]].append(p)
        self.prefix_mask: list[list[int]] = []
        self.prefix_weight: list[list[int]] = []
        for positions in self.positions:
            masks, weights = [0], [0]
            for p in positions:
                masks.append(masks[-1] | 1 << (p - 1))
                weights.append(weights[-1] + self.weight[p])
            self.prefix_mask.append(masks)
            self.prefix_weight.append(weights)
        self.small_positions = self.positions[0]
        self.small_prefix = self.prefix_weight[0]
        self.reach = [tuple(bisect_right(ps, hi) for ps in self.positions) for hi in self.highs]
        self.left_of = [tuple(bisect_left(ps, lo) for ps in self.positions) for lo in self.lows]

        self.nu_in = input_vector(Subgraph(inst, frozenset(range(1, inst.m + 1)), inst.n), sch)
        self.zero = sch.zero_vector()
        self.full_mask = (1 << inst.m) - 1  # bit p-1 represents position p
        self.window_mask = [self._range_mask(lo, hi) for lo, hi in zip(self.lows, self.highs)]
        self._retrieve_cache: dict[tuple[InputVector, int], Optional[tuple[int, int]]] = {}

    @staticmethod
    def _range_mask(lo: int, hi: int) -> int:
        return ((1 << (hi - lo + 1)) - 1) << (lo - 1)

    def small_prefix_len(self, nu0: int, high: int) -> int:
        """Length of the small-item prefix the sweep selects for nu_0.

        The sweep walks the small items left to right, never past position
        ``high`` (the last agent of the prefix cannot reach further, and a
        right-aligned assignment never leaves small mass beyond it), and
        keeps the total strictly below (nu_0 + 1)/k.  This reconstructs a
        superset of the matching true remainder's small items in both modes.
        Both limits are monotone in the prefix length, so each is a bisection.
        """
        return min(bisect_right(self.small_positions, high),
                   bisect_left(self.small_prefix, (nu0 + 1) * self.unit) - 1)

    def retrieve_mask(self, nu: InputVector, j: int) -> Optional[tuple[int, int]]:
        """(item bitmask, total weight) of retrieve(nu, j), or None."""
        key = (nu, j)
        if key in self._retrieve_cache:
            return self._retrieve_cache[key]
        result = self._retrieve(nu, j)
        self._retrieve_cache[key] = result
        return result

    def _retrieve(self, nu: InputVector, j: int) -> Optional[tuple[int, int]]:
        if j == 0:
            # With no agents left, any reconstructed item would be stranded:
            # only the all-zero vector is valid and yields the empty graph.
            return (0, 0) if not any(nu) else None
        reach = self.reach[j - 1]
        mask = 0
        total = 0
        for cat in range(1, len(nu)):
            count = nu[cat]
            if count > reach[cat]:
                return None  # stranded (or nonexistent) big item
            mask |= self.prefix_mask[cat][count]
            total += self.prefix_weight[cat][count]
        length = self.small_prefix_len(nu[0], self.highs[j - 1])
        return mask | self.prefix_mask[0][length], total + self.small_prefix[length]

    def candidates(self, nu_prev: InputVector, before_small: int,
                   j: int) -> Iterable[InputVector]:
        """The vectors nu <= nu_prev that can leave agent j a bundle inside
        [l_j, r_j], in lexicographic ascending order.

        ``before_small`` is the number of small items in the remainder
        before agent j.  Every vector left out either reconstructs no
        remainder for agents 1..j-1 or hands agent j an item outside its
        interval, so the caller's checks would reject it anyway.
        """
        if j == 1:
            return (self.zero,)  # the only vector retrieve(., 0) accepts
        reach = self.reach[j - 2]
        left_of = self.left_of[j - 1]
        # Small items: the remainder's prefix length grows monotonically with
        # nu_0 and must reach min(before_small, #small < l_j); the least such
        # nu_0 has (nu_0 + 1) * unit > small_prefix[target].
        target = min(before_small, left_of[0])
        if target > reach[0]:
            return ()
        ranges = [range(self.small_prefix[target] // self.unit, nu_prev[0] + 1)]
        # Big category c: the bundle takes items nu_c..a-1 of the category,
        # which must lie at or after l_j, while the remainder's first nu_c
        # items must lie at or before r_{j-1}.
        for c in range(1, len(nu_prev)):
            a = nu_prev[c]
            ranges.append(range(min(a, left_of[c]), min(a, reach[c]) + 1))
        return product(*ranges)


# The workspaces of the last few rounded instances, so that forward, backward
# and retrieve on one instance share a workspace and its retrieve cache.
# Looked up by identity: hashing a RoundedInstance hashes every item value and
# grid point, which cost more than forward itself on small instances.
_recent: deque[_Workspace] = deque(maxlen=8)


def _workspace(rounded: RoundedInstance) -> _Workspace:
    for ws in tuple(_recent):
        if ws.rounded is rounded:
            return ws
    ws = _Workspace(rounded)
    _recent.append(ws)
    return ws


def retrieve(rounded: RoundedInstance, nu: InputVector, j: int) -> Optional[Subgraph]:
    """Reconstruct the remainder graph for vector nu and agent prefix p_1..p_j.

    Returns None when a reconstructed big item would be stranded (the small
    sweep instead stops at the prefix's reachable positions).  Raises when nu
    is not dominated by the full instance's vector.
    """
    ws = _workspace(rounded)
    if len(nu) != len(ws.nu_in) or any(a > b for a, b in zip(nu, ws.nu_in)):
        raise ValueError(f"vector {nu} is not <= the instance vector {ws.nu_in}")
    if not 0 <= j <= rounded.instance.n:
        raise ValueError(f"agent count {j} out of range")
    if j == rounded.instance.n and nu == ws.nu_in:
        # Identity: the full rounded instance reconstructs to itself.
        return Subgraph(rounded.instance, frozenset(range(1, ws.m + 1)), j)
    hit = ws.retrieve_mask(nu, j)
    if hit is None:
        return None
    mask, _ = hit
    items = frozenset(p for p in range(1, ws.m + 1) if mask >> (p - 1) & 1)
    return Subgraph(rounded.instance, items, j)


def feasible(subgraph_before: Optional[Subgraph], bundle: frozenset[int],
             agent: Agent, sch: RoundingScheme) -> bool:
    """Is the bundle a valid step for the agent out of the given remainder?

    True iff the remainder is not None, the bundle sits inside the agent's
    interval, and its rounded value clears 1 - 3/k (Max-Min) or stays within
    1 + 3/k (Min-Max).
    """
    if subgraph_before is None:
        return False
    if any(not agent.covers(p) for p in bundle):
        return False
    value = sum((subgraph_before.instance.value_at(p) for p in bundle), Fraction(0))
    margin = Fraction(3, sch.k)
    if sch.direction is Direction.UP:
        return value >= 1 - margin
    return value <= 1 + margin


def forward(rounded: RoundedInstance) -> DPTable:
    """Fill the table; row j's back-pointers record the first (lexicographically
    smallest) marked predecessor vector in row j+1.
    """
    ws = _workspace(rounded)
    n = rounded.instance.n
    if ws.up:
        lo_bound = ws.denom - 3 * ws.unit

        def bundle_ok(value: int) -> bool:
            return value >= lo_bound
    else:
        hi_bound = ws.denom + 3 * ws.unit

        def bundle_ok(value: int) -> bool:
            return value <= hi_bound

    rows: list[dict[InputVector, InputVector]] = [dict() for _ in range(n)]

    row_n = rows[n - 1]
    window = ws.window_mask[n - 1]
    for nu in ws.candidates(ws.nu_in, len(ws.small_positions), n):
        hit = ws.retrieve_mask(nu, n - 1)
        if hit is None:
            continue
        mask, total = hit
        bundle_mask = ws.full_mask & ~mask
        if bundle_mask & ~window:
            continue
        if bundle_ok(ws.total - total):
            row_n[nu] = ws.nu_in

    for j in range(n - 1, 0, -1):
        row = rows[j - 1]
        window = ws.window_mask[j - 1]
        for nu_prev in sorted(rows[j]):
            before = ws.retrieve_mask(nu_prev, j)
            assert before is not None  # marked vectors always reconstruct
            before_mask, before_total = before
            before_small = ws.small_prefix_len(nu_prev[0], ws.highs[j - 1])
            for nu in ws.candidates(nu_prev, before_small, j):
                if nu in row:
                    continue
                after = ws.retrieve_mask(nu, j - 1)
                if after is None:
                    continue
                after_mask, after_total = after
                bundle_mask = before_mask & ~after_mask
                if after_mask & ~before_mask or bundle_mask & ~window:
                    continue
                if bundle_ok(before_total - after_total):
                    row[nu] = nu_prev

    return DPTable(ws.nu_in, tuple(rows))


def backward(table: DPTable, rounded: RoundedInstance) -> Assignment:
    """Walk the pointers from row 1's zero vector and emit the partition.

    Raises LookupError when the forward phase recorded no success.
    """
    ws = _workspace(rounded)
    n = rounded.instance.n
    zero = rounded.scheme.zero_vector()
    if zero not in table.row(1):
        raise LookupError("dynamic program recorded no feasible assignment")
    chain = [zero]
    for j in range(1, n + 1):
        chain.append(table.row(j)[chain[-1]])
    # chain[j] is the vector marked at row j (chain[0] = zero for "row 0"),
    # chain[n] = nu_in.  Bundle j = items(retrieve(chain[j], j)) minus
    # items(retrieve(chain[j-1], j-1)), with retrieve(nu_in, n) the identity.
    masks = []
    for j in range(0, n + 1):
        if j == n:
            masks.append(ws.full_mask)
        else:
            hit = ws.retrieve_mask(chain[j], j)
            assert hit is not None
            masks.append(hit[0])
    bundles: dict[int, list[int]] = {}
    for j in range(1, n + 1):
        diff = masks[j] & ~masks[j - 1]
        agent_idx = ws.order[j - 1]
        bundles[agent_idx] = [p for p in range(1, ws.m + 1) if diff >> (p - 1) & 1]
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
