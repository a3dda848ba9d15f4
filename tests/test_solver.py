"""Scaling, single-guess decisions, binary search, and verification."""

import gc
import weakref
from fractions import Fraction

import pytest

from convalloc import (Agent, Assignment, ConvexInstance, Item, Mode, decide,
                       gen_inclusion_free, opt_maxmin, opt_minmax, scale,
                       solve_maxmin, solve_minmax, verify)
from convalloc.solver import SolveError


def test_scale_examples(t0, t1, m1):
    assert scale(t0, Fraction(1)).value_at(1) == 1
    scaled = scale(t1, Fraction(11, 10))
    assert [scaled.value_at(p) for p in range(1, 5)] == \
        [Fraction(6, 11), Fraction(5, 11), Fraction(5, 11), Fraction(6, 11)]
    assert scale(m1, Fraction(1, 2)) is None        # j1 = 3/5 exceeds the guess
    big = scale(t0, Fraction(1, 2))
    assert big.value_at(1) == 1                     # clamped before dividing
    with pytest.raises(ValueError):
        scale(t0, Fraction(0))


def test_decide_examples(e1, t0):
    got = decide(e1, Fraction(1), 10)
    assert got is not None
    report = verify(e1, got)
    assert report.feasible and report.objective >= Fraction(7, 11)
    got = decide(t0, Fraction(1), 4)
    assert got.bundle_map() == {"p1": ("x1",)}


def test_decide_above_optimum_keeps_its_promise(t1):
    # 6/5 exceeds the optimum 11/10, so failure is allowed; success must
    # still certify the factor
    got = decide(t1, Fraction(6, 5), 8)
    if got is not None:
        assert verify(t1, got).objective >= (1 - Fraction(4, 9)) * Fraction(6, 5)


def test_decide_succeeds_at_or_below_optimum(t1, m1):
    for t in (Fraction(11, 10), Fraction(1), Fraction(1, 2)):
        assert decide(t1, t, 8) is not None
    for t in (Fraction(11, 10), Fraction(3, 2), Fraction(11, 5)):
        assert decide(m1, t, 8) is not None


def test_solve_maxmin_t0(t0):
    res = solve_maxmin(t0, 4)
    assert res.objective == 1
    assert res.t_star >= 1 - res.delta
    assert not res.failed


def test_solve_maxmin_e1(e1):
    res = solve_maxmin(e1, 10, Fraction(1, 40))
    assert res.objective >= Fraction(7, 11) * Fraction(39, 40)
    report = verify(e1, res.assignment)
    assert report.feasible and report.objective == res.objective


def test_solve_maxmin_t1(t1):
    res = solve_maxmin(t1, 8, Fraction(1, 32))
    assert res.objective >= Fraction(5, 9) * Fraction(31, 32) * Fraction(11, 10)
    assert res.objective >= (1 - Fraction(4, 9)) * res.t_star


def test_solve_minmax_m1(m1):
    res = solve_minmax(m1, 8, Fraction(1, 32))
    bound = (1 + Fraction(4, 8) + Fraction(3, 64)) * Fraction(33, 32) * Fraction(11, 10)
    assert res.objective <= bound
    assert verify(m1, res.assignment).objective == res.objective


def test_solve_minmax_single_machine(m1):
    inst = ConvexInstance(Mode.MINMAX, m1.items, (Agent("M1", 1, 4),))
    res = solve_minmax(inst, 8)
    total = sum((it.value for it in m1.items), Fraction(0))
    assert res.t_star == total and res.objective == total


def test_solve_minmax_identical_machines(m1):
    inst = ConvexInstance(Mode.MINMAX, m1.items,
                          (Agent("M1", 1, 4), Agent("M2", 1, 4)))
    opt, _ = opt_minmax(inst)
    assert opt == Fraction(11, 10)
    res = solve_minmax(inst, 8)
    assert res.objective <= (1 + Fraction(4, 8) + Fraction(3, 64)) * (1 + res.delta) * opt


def test_verify_examples(e1, e1_assignment_1, e1_assignment_2):
    report = verify(e1, e1_assignment_1)
    assert report.feasible and report.objective == 1 and not report.unassigned
    report = verify(e1, e1_assignment_2)
    assert report.feasible and report.objective == Fraction(1, 2)
    assert set(report.unassigned) == {"c11", "c12", "c13", "c14", "c15"}
    stray = Assignment(Mode.MAXMIN, (("p1", ("c6",)), ("p2", ()), ("p3", ())))
    report = verify(e1, stray)
    assert not report.feasible
    assert any("outside interval" in v and "c6" in v for v in report.violations)


def test_verify_skips_unknown_items(e1):
    stray = Assignment(Mode.MAXMIN, (("p1", ("s1", "zz")), ("p2", ()), ("p3", ())))
    report = verify(e1, stray)
    assert not report.feasible
    assert any("unknown item 'zz'" in v for v in report.violations)
    assert report.agent_values[0] == ("p1", Fraction(1, 4))


def test_verify_minmax_requires_cover(m1):
    partial = Assignment(Mode.MINMAX, (("M1", ("j1", "j2", "j3")), ("M2", ())))
    report = verify(m1, partial)
    assert not report.feasible
    assert any("unassigned" in v for v in report.violations)


def test_solve_rejects_invalid(t1):
    broken = ConvexInstance(Mode.MAXMIN, t1.items,
                            (Agent("p1", 1, 4), Agent("p2", 2, 3)))
    with pytest.raises(SolveError):
        solve_maxmin(broken, 8)
    with pytest.raises(SolveError):
        solve_minmax(t1, 8)   # wrong mode


def test_solve_maxmin_optimum_zero_falls_back():
    # one item, two competing agents: someone always gets nothing
    inst = ConvexInstance(Mode.MAXMIN, (Item("x1", Fraction(1)),),
                          (Agent("p1", 1, 1), Agent("p2", 1, 1)))
    opt, _ = opt_maxmin(inst)
    assert opt == 0
    res = solve_maxmin(inst, 4)
    assert res.failed and res.t_star == 0 and res.objective == 0
    assert verify(inst, res.assignment).feasible


def test_certified_factor_exact(e1):
    res = solve_maxmin(e1, 8)
    assert res.objective >= (1 - Fraction(4, 9)) * res.t_star
    res = solve_maxmin(e1, 4, Fraction(1, 16))
    assert res.objective >= (1 - Fraction(4, 5)) * res.t_star


def test_guarantee_certifies_against_oracle(t1, m1):
    opt, _ = opt_maxmin(t1)
    res = solve_maxmin(t1, 8)
    assert res.objective >= res.guarantee * opt
    opt, _ = opt_minmax(m1)
    res = solve_minmax(m1, 8)
    assert res.objective <= res.guarantee * opt


def test_maxmin_k8_n5_m30_headline_case():
    # The enumeration of every dominated vector took 47 s and 2 GB here.
    inst = gen_inclusion_free(1, 5, 30, mode=Mode.MAXMIN)
    res = solve_maxmin(inst, 8)
    assert verify(inst, res.assignment).feasible
    assert res.t_star == Fraction(254783, 147840)


@pytest.mark.parametrize("mode", [Mode.MAXMIN, Mode.MINMAX])
def test_solved_instance_can_be_collected(mode):
    inst = gen_inclusion_free(3, 4, 12, mode=mode)
    solve = solve_maxmin if mode is Mode.MAXMIN else solve_minmax
    solve(inst, 6)
    ref = weakref.ref(inst)
    del inst
    gc.collect()
    assert ref() is None
