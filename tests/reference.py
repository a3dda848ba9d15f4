"""Slow, obviously-correct references that the tests check the package against.

``check_hall_bruteforce`` enumerates subsets for the generalized Hall
condition, and ``coverage_ranges`` lists each item's covering agents by
lexicographic rank; the interval sweeps of ``convalloc.hall`` must agree with
both on small instances.  ``first_aligned_cuts`` enumerates every sequence of
small-item cuts that ``convalloc.align`` could take; ``align`` must take the
first one that passes.
"""

from fractions import Fraction
from functools import cache
from itertools import combinations, product
from math import ceil, floor
from typing import Optional

from convalloc import Assignment, ConvexInstance, Mode, assignment_vector
from convalloc.rounding import RoundedInstance

BRUTE_FORCE_LIMIT = 20


def coverage_ranges(instance: ConvexInstance) -> tuple[tuple[int, int], ...]:
    """For each item position, the (first, last) lex-rank of covering agents.

    On a validated instance the covering agents of any item form a contiguous
    range of lex ranks (1-based); (0, -1) marks an uncovered item.
    """
    order = instance.lex[0]
    out = []
    for pos in range(1, instance.m + 1):
        ranks = [r + 1 for r, i in enumerate(order) if instance.agents[i].covers(pos)]
        if not ranks:
            out.append((0, -1))
        elif ranks == list(range(ranks[0], ranks[-1] + 1)):
            out.append((ranks[0], ranks[-1]))
        else:
            raise ValueError(f"covering agents of item position {pos} are not contiguous "
                             "in the lexicographic order (instance is not inclusion-free)")
    return tuple(out)


def check_hall_bruteforce(instance: ConvexInstance) -> Optional[tuple[str, ...]]:
    """Subset-enumeration oracle for the interval checks.

    Max-Min: enumerates agent subsets, smallest first, and returns the ids of
    the first subset whose neighbourhood value falls short of its demand.
    Min-Max: enumerates job subsets against the allowable loads of their
    machine neighbourhood.  Returns None when the condition holds everywhere.
    """
    if instance.mode is Mode.MAXMIN:
        if instance.n > BRUTE_FORCE_LIMIT:
            raise ValueError(f"brute-force Hall check limited to {BRUTE_FORCE_LIMIT} agents")
        for size in range(1, instance.n + 1):
            for subset in combinations(range(instance.n), size):
                covered: set[int] = set()
                for i in subset:
                    covered.update(range(instance.agents[i].lo, instance.agents[i].hi + 1))
                value = sum((instance.value_at(p) for p in covered), Fraction(0))
                demand = sum((instance.agents[i].demand for i in subset), Fraction(0))
                if value < demand:
                    return tuple(instance.agents[i].id for i in subset)
        return None

    if instance.m > BRUTE_FORCE_LIMIT:
        raise ValueError(f"brute-force Hall check limited to {BRUTE_FORCE_LIMIT} jobs")
    ranges = coverage_ranges(instance)
    loads_by_rank = [instance.agents[i].demand for i in instance.lex[0]]
    for size in range(1, instance.m + 1):
        for subset in combinations(range(1, instance.m + 1), size):
            machines: set[int] = set()
            for pos in subset:
                first, last = ranges[pos - 1]
                machines.update(range(first, last + 1))
            work = sum((instance.value_at(p) for p in subset), Fraction(0))
            allowed = sum((loads_by_rank[r - 1] for r in machines), Fraction(0))
            if work > allowed:
                return tuple(instance.items[p - 1].id for p in subset)
    return None


def first_aligned_cuts(rounded: RoundedInstance,
                       assignment: Assignment) -> Optional[list[list[int]]]:
    """The small bundles, by lex rank (0-based), of the first cut sequence
    that passes, or None when none does.

    Big items are dealt by the prefix rule off the input's assignment
    vector; None if a block leaves its agent's interval.  The small
    positions are dealt from the last lex rank down: each agent takes a
    suffix of the small positions still left.  Every sequence of cuts is
    enumerated, each agent's cut tried shortest suffix first for Max-Min and
    longest first for Min-Max.  A sequence passes when, for every agent, the
    bundle lies in its interval, the agents below it cover every small
    position left, and two tests hold: the bundle's rounded value is above
    1 - 1/k (Max-Min) or below 1 + 1/k (Min-Max), and the small mass left is
    in the 1/k bracket of the input's remainder.
    """
    inst, sch = rounded.instance, rounded.scheme
    maxmin = inst.mode is Mode.MAXMIN
    agents = [inst.agents[i] for i in inst.lex[0]]
    n, k = inst.n, sch.k
    vectors = (sch.zero_vector(),) + assignment_vector(rounded, assignment)
    by_coordinate = rounded.positions()
    big = [[p for c in range(1, sch.C + 1)
            for p in by_coordinate[c][vectors[j][c]:vectors[j + 1][c]]] for j in range(n)]
    if any(not agents[j].covers(p) for j in range(n) for p in big[j]):
        return None
    small = by_coordinate[0]

    @cache
    def passes(j: int, cut: int, end: int) -> bool:
        bundle, left = small[cut:end], small[:cut]
        if not all(agents[j].covers(p) for p in bundle):
            return False
        if not all(any(a.covers(p) for a in agents[:j]) for p in left):
            return False
        value = sum((rounded.value_at(p) for p in bundle + big[j]), Fraction(0))
        mass = k * sum((rounded.value_at(p) for p in left), Fraction(0))
        if maxmin:
            return value > 1 - Fraction(1, k) and ceil(mass) == vectors[j][0]
        return value < 1 + Fraction(1, k) and floor(mass) == vectors[j][0]

    cuts = range(len(small), -1, -1) if maxmin else range(len(small) + 1)
    for sequence in product(cuts, repeat=n):  # lex ranks n..1
        ends = (len(small),) + sequence
        if all(cut <= end and passes(n - 1 - i, cut, end)
               for i, (cut, end) in enumerate(zip(sequence, ends))):
            return [small[sequence[n - 1 - j]:ends[n - 1 - j]] for j in range(n)]
    return None
