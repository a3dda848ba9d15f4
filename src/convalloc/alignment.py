"""Right-aligned, non-wasteful assignments and the constructive alignment.

``align`` transforms a feasible 1-assignment of a rounded instance into a
right-aligned, non-wasteful assignment with the very same assignment vector
and only a 1/k per-agent value loss (Max-Min; the Min-Max twin packs
maximally and stays below 1 + 1/k).

Peeling agents from the last lexicographic rank down, the output's big-item
structure is forced: within each category, the surviving big items of every
remainder must be the leftmost ones (the sweep's prefix rule), so lex agent j
gets the items of a category between the input's counts in H^(j-1) and H^j (an
exchange argument shows the blocks always fit their agents' intervals).  The
small items per agent form a suffix of the surviving small items inside the
agent's interval; suffix lengths are found by backtracking under two exact
constraints per step: the surviving small mass must stay in the same 1/k
bracket as the input's remainder, and the agent's bundle must clear the value
bound.  Items that only the current agent can still reach are always part of
the suffix, which is what keeps every remainder free of stranded items.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Sequence

from .instance_model import (Assignment, Mode, assignment_from_positions,
                             lexicographic_order, partition_violations,
                             stranded_items)
from .rounding import InputVector, RoundedInstance, input_vector, small_units


class AlignmentError(Exception):
    """The input is not a feasible 1-assignment, or no aligned form exists."""


def _lex_bundles(rounded: RoundedInstance, assignment: Assignment) -> list[list[int]]:
    """Bundles as position lists indexed by lex rank (0-based)."""
    inst = rounded.instance
    by_agent = assignment.positions(inst)
    order = lexicographic_order(inst)
    return [sorted(by_agent.get(agent_idx, ())) for agent_idx in order]


def _bundle_value(rounded: RoundedInstance, positions: Sequence[int]) -> Fraction:
    return sum((rounded.value_at(p) for p in positions), Fraction(0))


def assignment_vector(rounded: RoundedInstance,
                      assignment: Assignment) -> tuple[InputVector, ...]:
    """Input vectors of the remainder graphs H^1..H^n induced by peeling."""
    inst = rounded.instance
    bundles = _lex_bundles(rounded, assignment)
    n = inst.n
    survivors = set(range(1, inst.m + 1))
    vectors: list[InputVector] = [()] * n
    for j in range(n, 0, -1):
        vectors[j - 1] = input_vector(rounded, survivors)
        survivors -= set(bundles[j - 1])
    return tuple(vectors)


def is_right_aligned(rounded: RoundedInstance, assignment: Assignment) -> bool:
    """Peeling from the last lex rank down, does every agent hold the
    rightmost available items of each class inside her interval?
    """
    inst = rounded.instance
    bundles = _lex_bundles(rounded, assignment)
    order = lexicographic_order(inst)
    survivors = set(range(1, inst.m + 1))
    for j in range(inst.n, 0, -1):
        agent = inst.agents[order[j - 1]]
        bundle = set(bundles[j - 1])
        classes: dict[int, list[int]] = {}
        for p in sorted(survivors):
            if agent.covers(p):
                classes.setdefault(rounded.category[p - 1], []).append(p)
        for cat, avail in classes.items():
            held = [p for p in avail if p in bundle]
            if held != avail[len(avail) - len(held):]:
                return False
        if any(p not in survivors or not agent.covers(p) for p in bundle):
            return False
        survivors -= bundle
    return True


def is_non_wasteful(rounded: RoundedInstance, assignment: Assignment) -> bool:
    """No intermediate remainder graph H^j (j = n-1 .. 1) strands an item."""
    inst = rounded.instance
    bundles = _lex_bundles(rounded, assignment)
    survivors = set(range(1, inst.m + 1))
    for j in range(inst.n, 1, -1):
        survivors -= set(bundles[j - 1])
        if stranded_items(inst, survivors, j - 1):
            return False
    return True


def _require_one_assignment(rounded: RoundedInstance, assignment: Assignment) -> None:
    inst = rounded.instance
    problems = partition_violations(inst, assignment)
    if problems:
        raise AlignmentError(f"not a feasible partition: {problems[0]}")
    for aid, ids in assignment.bundles:
        value = sum((inst.value_at(inst.item_index(x)) for x in ids), Fraction(0))
        if inst.mode is Mode.MAXMIN and value < 1:
            raise AlignmentError(f"bundle of {aid!r} has rounded value {value} < 1")
        if inst.mode is Mode.MINMAX and value > 1:
            raise AlignmentError(f"bundle of {aid!r} has rounded load {value} > 1")


def align(rounded: RoundedInstance, one_assignment: Assignment) -> Assignment:
    """Right-align a feasible 1-assignment, preserving its assignment vector.

    Max-Min output bundles keep rounded value > 1 - 1/k (minimal small
    suffixes); Min-Max bundles stay < 1 + 1/k (maximal small suffixes).
    Raises AlignmentError when the input is not a 1-assignment.
    """
    inst = rounded.instance
    maxmin = inst.mode is Mode.MAXMIN
    _require_one_assignment(rounded, one_assignment)

    order, lows, highs = inst.lex
    n = inst.n
    bundles_in = _lex_bundles(rounded, one_assignment)
    if sorted(p for bundle in bundles_in for p in bundle) != list(range(1, inst.m + 1)):
        raise AlignmentError("input bundles do not partition the items")
    sch = rounded.scheme
    by_coordinate = rounded.positions()
    # vectors[j] is the input's H^j, H^0 empty.  Forced big structure: lex
    # agent j gets each category's items from H^(j-1)'s count to H^j's, the
    # leftmost-prefix rule of the sweep.
    vectors = (sch.zero_vector(),) + assignment_vector(rounded, one_assignment)
    big_out: list[list[int]] = [[] for _ in range(n)]
    for cat in range(1, sch.C + 1):
        for j in range(n):
            block = by_coordinate[cat][vectors[j][cat]:vectors[j + 1][cat]]
            for p in block:
                if not (lows[j] <= p <= highs[j]):
                    raise AlignmentError(
                        f"category {cat} block escapes the interval of lex agent {j + 1}; "
                        "input cannot be a feasible assignment of this instance")
            big_out[j].extend(block)
    big_value = [_bundle_value(rounded, big_out[j]) for j in range(n)]

    one_over_k = Fraction(1, sch.k)
    bound = 1 - one_over_k if maxmin else 1 + one_over_k

    def value_ok(j: int, taken: Fraction) -> bool:
        v = big_value[j] + taken
        return v > bound if maxmin else v < bound

    small_out: list[Optional[list[int]]] = [None] * n

    def search(j: int, survivors: list[Fraction], positions: list[int]) -> bool:
        """Assign small suffixes for lex agents j..0 (0-based, descending)."""
        avail_idx = [i for i, p in enumerate(positions) if lows[j] <= p <= highs[j]]
        prev_high = highs[j - 1] if j > 0 else 0
        if j == 0:
            if any(p > highs[0] or p < lows[0] for p in positions):
                return False
            taken = sum(survivors, Fraction(0))
            if not value_ok(0, taken):
                return False
            small_out[0] = list(positions)
            return True
        forced_idx = [i for i in avail_idx if positions[i] > prev_high]
        if any(p > highs[j] for p in positions):
            return False  # already-stranded item; unreachable from valid states
        optional_idx = [i for i in avail_idx if positions[i] <= prev_high]
        forced_val = sum((survivors[i] for i in forced_idx), Fraction(0))
        remainder_total = sum(survivors, Fraction(0)) - forced_val
        # Extension sizes: suffix of the optional positions, tried smallest
        # first for Max-Min (minimal bundles) and largest first for Min-Max.
        sizes = range(len(optional_idx) + 1)
        if not maxmin:
            sizes = reversed(sizes)
        for extra in sizes:
            ext_idx = optional_idx[len(optional_idx) - extra:]
            taken = forced_val + sum((survivors[i] for i in ext_idx), Fraction(0))
            if not value_ok(j, taken):
                continue
            new_total = remainder_total - (taken - forced_val)
            # H^j's small bracket
            if small_units(*new_total.as_integer_ratio(), sch) != vectors[j][0]:
                continue
            chosen = set(forced_idx) | set(ext_idx)
            rest_vals = [v for i, v in enumerate(survivors) if i not in chosen]
            rest_pos = [p for i, p in enumerate(positions) if i not in chosen]
            if search(j - 1, rest_vals, rest_pos):
                small_out[j] = [positions[i] for i in sorted(chosen)]
                return True
        return False

    values = [rounded.value_at(p) for p in by_coordinate[0]]
    if not search(n - 1, values, by_coordinate[0]):
        raise AlignmentError("no right-aligned assignment preserves the assignment "
                             "vector at the required value bound")

    return assignment_from_positions(
        inst, {order[j]: big_out[j] + (small_out[j] or []) for j in range(n)})
