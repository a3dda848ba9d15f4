"""Slow, obviously-correct references that the tests check the package against.

``check_hall_bruteforce`` enumerates subsets for the generalized Hall
condition, and ``coverage_ranges`` lists each item's covering agents by
lexicographic rank; the interval sweeps of ``convalloc.hall`` must agree with
both on small instances.
"""

from fractions import Fraction
from itertools import combinations
from typing import Optional

from convalloc import ConvexInstance, Mode

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
