"""``align`` against the exhaustive cut enumeration of ``reference.py``.

The alignment lemma says the first passing cut always completes, so the
one-pass loop must find exactly the first passing cut sequence, and must
refuse exactly when no sequence passes.
"""

import random
from fractions import Fraction
from itertools import product

import pytest

from convalloc import (Agent, AlignmentError, ConvexInstance, Item, Mode, align,
                       gen_inclusion_free, opt_maxmin, opt_minmax, round_instance,
                       scale, scheme)
from convalloc.instance_model import assignment_from_positions

from reference import first_aligned_cuts


def one_assignments(rd):
    """Every in-interval partition whose rounded bundles are all >= 1
    (Max-Min) or all <= 1 (Min-Max), as {agent index: positions}."""
    inst = rd.instance
    covers = [[i for i, a in enumerate(inst.agents) if a.covers(p)]
              for p in range(1, inst.m + 1)]
    for choice in product(*covers):
        by_agent = {i: [] for i in range(inst.n)}
        for p, i in enumerate(choice, start=1):
            by_agent[i].append(p)
        values = [sum((rd.value_at(p) for p in poss), Fraction(0)) for poss in by_agent.values()]
        if all(v >= 1 for v in values) if inst.mode is Mode.MAXMIN else all(v <= 1 for v in values):
            yield by_agent


VALUES = [Fraction(1, 24), Fraction(1, 12), Fraction(1, 6), Fraction(1, 2), Fraction(1)]


def drawn_instances(mode, count):
    """``count`` seeded inclusion-free instances with n <= 4 and m <= 7.

    Values far apart leave several small items, and so several cuts, in one
    1/k bracket.
    """
    for seed in range(count):
        rng = random.Random(seed)
        n = rng.randint(1, 4)
        m = rng.randint(n, 7)
        values = [rng.choice(VALUES) for _ in range(m)]
        agents = gen_inclusion_free(seed, n, m, mode=mode).agents
        yield ConvexInstance(mode, tuple(Item(f"x{i}", v) for i, v in enumerate(values, 1)),
                             agents)


@pytest.mark.parametrize("k", [4, 6, 8])
@pytest.mark.parametrize("mode", [Mode.MAXMIN, Mode.MINMAX])
def test_align_takes_the_first_passing_cut_sequence(mode, k):
    checked = 0
    for inst in drawn_instances(mode, 250):
        opt, _ = (opt_maxmin if mode is Mode.MAXMIN else opt_minmax)(inst)
        if not opt:
            continue
        # guesses at and past OPT leave the most 1-assignments to align
        for slack in (Fraction(0), Fraction(1, 8), Fraction(1, 4)):
            t = opt * (1 - slack if mode is Mode.MAXMIN else 1 + slack)
            rd = round_instance(scale(inst, t), scheme(k, mode))
            for by_agent in one_assignments(rd):
                given_assignment = assignment_from_positions(inst, by_agent)
                expected = first_aligned_cuts(rd, given_assignment)
                checked += 1
                if expected is None:
                    with pytest.raises(AlignmentError):
                        align(rd, given_assignment)
                    continue
                out = align(rd, given_assignment).positions(rd.instance)
                assert [[p for p in out[i] if rd.category[p - 1] == 0]
                        for i in inst.lex[0]] == expected
    assert checked > 0


def test_align_refuses_a_nested_instance():
    # p2's interval [2, 3] lies strictly inside p1's [1, 4]
    inst = ConvexInstance(Mode.MAXMIN, tuple(Item(f"x{i}", Fraction(1)) for i in range(1, 5)),
                          (Agent("p1", 1, 4), Agent("p2", 2, 3)))
    rd = round_instance(inst, scheme(4, Mode.MAXMIN))
    given_assignment = assignment_from_positions(inst, {0: [1, 4], 1: [2, 3]})
    with pytest.raises(AlignmentError, match="inclusion-free"):
        align(rd, given_assignment)
