"""Right-alignment predicates and the vector-preserving transformation."""

from fractions import Fraction

import pytest

from convalloc import (Agent, AlignmentError, Assignment, ConvexInstance, Item,
                       Mode, align, assignment_vector, is_non_wasteful,
                       is_right_aligned, opt_maxmin, opt_minmax, round_instance,
                       scale, scheme)
from convalloc.generator import gen_planted
from convalloc.rounding import input_vector


def rounded(instance, k):
    return round_instance(instance, scheme(k, instance.mode))


def bundle_values(rd, assignment):
    return {aid: sum((rd.value_at(rd.instance.item_index(x)) for x in ids), Fraction(0))
            for aid, ids in assignment.bundles}


def test_assignment_vector_e1(e1, e1_assignment_1, e1_assignment_2):
    rd = rounded(e1, 10)
    vectors = assignment_vector(rd, e1_assignment_1)
    assert vectors[0][0] == 5 and sum(vectors[0][1:]) == 2
    assert vectors[2] == input_vector(rd, range(1, 22))
    # the hoarding assignment leaves a remainder with the same vector
    other = assignment_vector(rd, e1_assignment_2)
    assert other[0] == vectors[0]


def test_assignment_vector_trivial(t0):
    rd = rounded(t0, 4)
    vectors = assignment_vector(rd, Assignment(Mode.MAXMIN, (("p1", ("x1",)),)))
    assert vectors == (input_vector(rd, (1,)),)


def test_is_right_aligned(e1, e1_assignment_1, e1_assignment_2, t0, t1):
    rd = rounded(e1, 10)
    assert is_right_aligned(rd, e1_assignment_1)
    assert is_right_aligned(rd, e1_assignment_2)
    rd0 = rounded(t0, 4)
    assert is_right_aligned(rd0, Assignment(Mode.MAXMIN, (("p1", ("x1",)),)))
    rd1 = rounded(t1, 10)
    skewed = Assignment(Mode.MAXMIN, (("p1", ("x1", "x3")), ("p2", ("x2", "x4"))))
    # peeling p2 first, its 1/2-class item x2 is not the rightmost available
    assert not is_right_aligned(rd1, skewed)


def test_is_non_wasteful(e1, e1_assignment_1, e1_assignment_2, t0):
    rd = rounded(e1, 10)
    assert is_non_wasteful(rd, e1_assignment_1)
    # the hoarding assignment strands the five rightmost circles for p1
    assert not is_non_wasteful(rd, e1_assignment_2)
    rd0 = rounded(t0, 4)
    assert is_non_wasteful(rd0, Assignment(Mode.MAXMIN, (("p1", ("x1",)),)))


def test_align_fixed_point(e1, e1_assignment_1):
    rd = rounded(e1, 10)
    assert align(rd, e1_assignment_1) == e1_assignment_1


def test_align_t1_blocks(t1):
    rd = rounded(t1, 4)
    given = Assignment(Mode.MAXMIN, (("p1", ("x1", "x2")), ("p2", ("x3", "x4"))))
    out = align(rd, given)
    assert out == given
    assert is_right_aligned(rd, out) and is_non_wasteful(rd, out)


def test_align_minmax_swaps_jobs(m1):
    rd = round_instance(scale(m1, Fraction(11, 10)), scheme(10, Mode.MINMAX))
    given = Assignment(Mode.MINMAX, (("M1", ("j1", "j3")), ("M2", ("j2", "j4"))))
    out = align(rd, given)
    assert out.bundle_map() == {"M1": ("j1", "j2"), "M2": ("j3", "j4")}
    values = bundle_values(rd, out)
    assert all(v < 1 + Fraction(1, 10) for v in values.values())
    assert assignment_vector(rd, out) == assignment_vector(rd, given)


def test_align_rejects_non_one_assignments(e1, e1_assignment_2):
    rd = rounded(e1, 10)
    with pytest.raises(AlignmentError):
        align(rd, e1_assignment_2)   # p1's half-unit bundle is short of 1
    not_partition = Assignment(Mode.MAXMIN, (("p1", ("s1",)), ("p2", ()), ("p3", ())))
    with pytest.raises(AlignmentError):
        align(rd, not_partition)
    # two agents share an id, so the id has two bundles
    twins = ConvexInstance(Mode.MAXMIN, tuple(Item(f"x{i}", Fraction(1, 2)) for i in range(1, 5)),
                           (Agent("p", 1, 4), Agent("p", 1, 4)))
    with pytest.raises(AlignmentError, match="agent 'p' has more than one bundle"):
        align(rounded(twins, 4), Assignment(Mode.MAXMIN, (("p", ("x1", "x2")),
                                                          ("p", ("x3", "x4")))))
    # two items share an id, so the bundles name only one of them
    twin_items = ConvexInstance(Mode.MAXMIN, (Item("x1", Fraction(1)), Item("x1", Fraction(1)),
                                              Item("x2", Fraction(1))),
                                (Agent("p1", 1, 2), Agent("p2", 2, 3)))
    with pytest.raises(AlignmentError, match="do not partition"):
        align(rounded(twin_items, 4), Assignment(Mode.MAXMIN, (("p1", ("x1",)),
                                                               ("p2", ("x2",)))))


@pytest.mark.parametrize("mode,k", [(Mode.MAXMIN, 4), (Mode.MAXMIN, 8),
                                    (Mode.MINMAX, 4), (Mode.MINMAX, 8)])
def test_align_properties_on_planted_witnesses(mode, k):
    solve = opt_maxmin if mode is Mode.MAXMIN else opt_minmax
    for seed in range(12):
        n = 2 + seed % 4
        m = n + 2 + (seed * 5) % 7
        inst, _ = gen_planted(seed, n, m, Fraction(1), mode)
        opt, witness = solve(inst)
        rd = round_instance(scale(inst, Fraction(1)),
                            scheme(k, mode))
        out = align(rd, witness)
        assert is_right_aligned(rd, out)
        assert is_non_wasteful(rd, out)
        assert assignment_vector(rd, out) == assignment_vector(rd, witness)
        for value in bundle_values(rd, out).values():
            if mode is Mode.MAXMIN:
                assert value > 1 - Fraction(1, k)
            else:
                assert value < 1 + Fraction(1, k)
        # per-category counts are untouched by the transformation
        for (aid, before), (aid2, after) in zip(witness.bundles, out.bundles):
            assert aid == aid2
            cats_before = sorted(rd.category[rd.instance.item_index(x) - 1]
                                 for x in before
                                 if rd.category[rd.instance.item_index(x) - 1] != 0)
            cats_after = sorted(rd.category[rd.instance.item_index(x) - 1]
                                for x in after
                                if rd.category[rd.instance.item_index(x) - 1] != 0)
            assert cats_before == cats_after
