"""Right-aligned, non-wasteful assignments and the constructive alignment.

``align`` transforms a feasible 1-assignment of a rounded instance into a
right-aligned, non-wasteful assignment with the very same assignment vector
and only a 1/k per-agent value loss (Max-Min; the Min-Max twin packs
maximally and stays below 1 + 1/k).

Peeling agents from the last lexicographic rank down, the output's big-item
structure is forced: within each category, the surviving big items of every
remainder must be the leftmost ones (the sweep's prefix rule), so lex agent j
gets the items of a category between the input's counts in H^(j-1) and H^j (an
exchange argument shows the blocks always fit their agents' intervals).

The small items follow from the alignment lemma, in one pass.  Index agents
by lex rank j = n..1 and let ``small`` list the small positions in ascending
order.  Peeling leaves agents 1..j a prefix ``small[:K]``, and agent j takes
``small[C:K]`` for a cut C such that:
- min(K, L_j) <= C <= min(K, T_j), with L_j = #small < l_j, T_j = #small <=
  r_(j-1) and T_1 = 0: agent j takes every item only it can still reach, so
  no remainder strands an item;
- the bundle's integer weight w over the rounded view's denominator D clears
  the bound: k w > (k-1) D for Max-Min, k w < (k+1) D for Min-Max;
- small_units(P[C], D), P[C] the weight of ``small[:C]``, is the nu_0 of the
  input's H^(j-1): the surviving small mass keeps the input's 1/k bracket.

Lemma: the first passing cut always completes if any cut sequence does, so
``align`` takes it and never backtracks.  It is the largest C (the shortest
suffix) for Max-Min and the smallest C for Min-Max.
- Max-Min: let C0 be the first (largest) passing cut at j, and C* <= C0 a
  cut whose completing sequence goes on with C' at j-1.  C' also passes
  after C0, leaving the same prefix: agent j-1's bundle grows from
  small[C':C*] to small[C':C0], and min(C0, L_(j-1)) <= C' <= min(C0,
  T_(j-1)), as L_(j-1) <= L_j <= C* unless C* = C0 = K.
- Min-Max: by induction on j, cuts that complete from K at j complete from
  any K' in the same 1/k bracket with min(K, L_j) <= K' <= K: keep a cut
  C <= K' (the bundle shrinks), else cut at K' (the big items alone; then
  K' >= L_j >= L_(j-1), since lows never fall as j falls).  The first
  (smallest) passing C0 is such a K' at j-1 for any completing C* >= C0.
The lemma needs highs that never fall in lexicographic order, as on every
inclusion-free instance: only then is r_(j-1) the rightmost end of the
agents below j, which makes the bracket exact.  ``align`` refuses a nested one.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from fractions import Fraction
from itertools import accumulate

from .instance_model import (Assignment, Mode, _partition_pass, assignment_from_positions,
                             partition_violations, stranded_items)
from .rounding import InputVector, RoundedInstance, input_vector, small_units


class AlignmentError(Exception):
    """The input is not a feasible 1-assignment, or no aligned form exists."""


def _peel(rounded: RoundedInstance,
          assignment: Assignment) -> list[tuple[list[int], frozenset[int]]]:
    """Peeling from the last lex rank down: entry j-1 holds lex agent j's
    bundle as sorted positions and the survivors H^j that peeling ranks
    n..j+1 leaves.  Raises AlignmentError on an unknown agent or item id,
    naming the first as ``align`` does."""
    inst = rounded.instance
    try:
        by_agent = assignment.positions(inst)
    except KeyError:
        unknown = next(v for v in partition_violations(inst, assignment)
                       if v.startswith("unknown "))
        raise AlignmentError(f"not a feasible partition: {unknown}") from None
    order = inst.lex[0]
    survivors = frozenset(range(1, inst.m + 1))
    peel: list[tuple[list[int], frozenset[int]]] = []
    for agent_idx in reversed(order):
        bundle = sorted(by_agent.get(agent_idx, ()))
        peel.append((bundle, survivors))
        survivors = survivors.difference(bundle)
    peel.reverse()
    return peel


def assignment_vector(rounded: RoundedInstance,
                      assignment: Assignment) -> tuple[InputVector, ...]:
    """Input vectors of the remainder graphs H^1..H^n induced by peeling."""
    return tuple(input_vector(rounded, survivors)
                 for _, survivors in _peel(rounded, assignment))


def is_right_aligned(rounded: RoundedInstance, assignment: Assignment) -> bool:
    """Peeling from the last lex rank down, does every agent hold the
    rightmost available items of each class inside her interval?
    """
    inst = rounded.instance
    order = inst.lex[0]
    for agent_idx, (bundle_list, survivors) in zip(order, _peel(rounded, assignment)):
        agent = inst.agents[agent_idx]
        bundle = set(bundle_list)
        classes: dict[int, list[int]] = {}
        for p in sorted(survivors):
            if agent.covers(p):
                classes.setdefault(rounded.category[p - 1], []).append(p)
        for avail in classes.values():
            held = [p for p in avail if p in bundle]
            if held != avail[len(avail) - len(held):]:
                return False
        if any(p not in survivors or not agent.covers(p) for p in bundle):
            return False
    return True


def is_non_wasteful(rounded: RoundedInstance, assignment: Assignment) -> bool:
    """No intermediate remainder graph H^j (j = n-1 .. 1) strands an item."""
    peel = _peel(rounded, assignment)
    return not any(stranded_items(rounded.instance, survivors, j)
                   for j, (_, survivors) in enumerate(peel[:-1], start=1))


def _require_one_assignment(rounded: RoundedInstance, assignment: Assignment) -> None:
    inst = rounded.instance
    # the pass sums each bundle's weight on the integer view as it checks it
    problems, totals, _ = _partition_pass(inst, assignment, True)
    if problems:
        raise AlignmentError(f"not a feasible partition: {problems[0]}")
    denom = inst.integers[1]
    for (aid, _), weight in zip(assignment.bundles, totals):
        if inst.mode is Mode.MAXMIN and weight < denom:
            raise AlignmentError(
                f"bundle of {aid!r} has rounded value {Fraction(weight, denom)} < 1")
        if inst.mode is Mode.MINMAX and weight > denom:
            raise AlignmentError(
                f"bundle of {aid!r} has rounded load {Fraction(weight, denom)} > 1")


def _clears(maxmin: bool, k: int, weight: int, denom: int) -> bool:
    """Does the bundle value ``weight / denom`` clear the bound: above
    1 - 1/k for Max-Min, below 1 + 1/k for Min-Max?"""
    return k * weight > (k - 1) * denom if maxmin else k * weight < (k + 1) * denom


def align(rounded: RoundedInstance, one_assignment: Assignment) -> Assignment:
    """Right-align a feasible 1-assignment, preserving its assignment vector.

    Max-Min output bundles keep rounded value > 1 - 1/k (minimal small
    suffixes); Min-Max bundles stay < 1 + 1/k (maximal small suffixes).
    Each agent, from the last lex rank down, takes the first small cut that
    passes; by the alignment lemma (module docstring) that never needs a
    second try.  Raises AlignmentError when the instance is nested (the
    lemma needs highs that never fall in lexicographic order), when the
    input is not a 1-assignment, and when no aligned form exists.
    """
    inst = rounded.instance
    maxmin = inst.mode is Mode.MAXMIN
    order, lows, highs = inst.lex
    if inst.nested:
        raise AlignmentError("alignment needs an inclusion-free instance: "
                             "some agent's interval is nested inside another's")
    _require_one_assignment(rounded, one_assignment)

    n = inst.n
    peel = _peel(rounded, one_assignment)
    if sorted(p for bundle, _ in peel for p in bundle) != list(range(1, inst.m + 1)):
        raise AlignmentError("input bundles do not partition the items")
    sch = rounded.scheme
    by_coordinate = rounded.positions()
    # vectors[j] is the input's H^j, H^0 empty.  Forced big structure: lex
    # agent j gets each category's items from H^(j-1)'s count to H^j's, the
    # leftmost-prefix rule of the sweep.
    vectors = [sch.zero_vector()] + [input_vector(rounded, survivors) for _, survivors in peel]
    bundles: list[list[int]] = [[] for _ in range(n)]
    for cat in range(1, sch.C + 1):
        for j in range(n):
            block = by_coordinate[cat][vectors[j][cat]:vectors[j + 1][cat]]
            for p in block:
                if not (lows[j] <= p <= highs[j]):
                    raise AlignmentError(
                        f"category {cat} block escapes the interval of lex agent {j + 1}; "
                        "input cannot be a feasible assignment of this instance")
            bundles[j].extend(block)

    # The small suffixes, lex agent j+1 (0-based j) from the last down:
    # small[:left] survives, and the agent takes small[cut:left].
    weights, denom = inst.integers
    big = [sum(weights[p - 1] for p in bundle) for bundle in bundles]
    small = by_coordinate[0]
    prefix = [0, *accumulate(weights[p - 1] for p in small)]
    left = len(small)
    for j in range(n - 1, -1, -1):
        low = min(left, bisect_left(small, lows[j]))
        high = min(left, bisect_right(small, highs[j - 1])) if j else 0
        cuts = range(high, low - 1, -1) if maxmin else range(low, high + 1)
        cut = next((c for c in cuts
                    if _clears(maxmin, sch.k, big[j] + prefix[left] - prefix[c], denom)
                    and small_units(prefix[c], denom, sch) == vectors[j][0]), None)
        if cut is None:
            raise AlignmentError("no right-aligned assignment preserves the assignment "
                                 "vector at the required value bound")
        bundles[j].extend(small[cut:left])
        left = cut

    return assignment_from_positions(inst, dict(zip(order, bundles)))
