"""Scaling, single-guess decisions, binary search, and verification."""

import gc
import weakref
from fractions import Fraction
from functools import partial

import pytest

from convalloc import (Agent, Assignment, ConvexInstance, Item, Mode, decide,
                       gen_inclusion_free, opt_maxmin, opt_minmax, rounding,
                       scale, solve_maxmin, solve_minmax, solver, verify)
from convalloc.hall import maxmin_upper_bound
from convalloc.instance_model import partition_violations
from convalloc.solver import SolveError, VerifyReport


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


@pytest.mark.parametrize("mode", [Mode.MAXMIN, Mode.MINMAX])
def test_scale_at_and_one_step_past_the_guess(mode):
    inst = ConvexInstance(mode, (Item("x1", Fraction(600, 1000)), Item("x2", Fraction(1, 7))),
                          (Agent("p1", 1, 2),))
    at = scale(inst, Fraction(600, 1000))             # v == t
    assert at is not None
    assert at.value_at(1) == 1 and at.value_at(2) == Fraction(5, 21)
    below = Fraction(599, 1000)                       # v one step above t
    past = scale(inst, below)
    if mode is Mode.MINMAX:
        assert past is None
    else:
        assert past.value_at(1) == 1 and past.value_at(2) == Fraction(1, 7) / below


@pytest.mark.parametrize("mode", [Mode.MAXMIN, Mode.MINMAX])
def test_scale_divides_exactly(mode):
    for seed in range(8):
        inst = gen_inclusion_free(seed, 3, 10, mode=mode)
        top = max(it.value for it in inst.items)
        for t in (top, top * Fraction(7, 5), inst.total_value() / 3, top * Fraction(2, 3)):
            scaled = scale(inst, t)
            if mode is Mode.MINMAX and top > t:
                assert scaled is None
                continue
            assert [scaled.value_at(p) for p in range(1, inst.m + 1)] == \
                [min(v, t) / t for v in (it.value for it in inst.items)]


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


def fraction_verify(instance, assignment):
    """The reference report: the same checks, with every sum in Fractions."""
    require_cover = instance.mode is Mode.MINMAX
    violations = tuple(partition_violations(instance, assignment, require_cover))
    value_of = {}
    for it in instance.items:
        value_of.setdefault(it.id, it.value)  # the first item with an id wins
    values = tuple((aid, sum((value_of.get(x, Fraction(0)) for x in ids), Fraction(0)))
                   for aid, ids in assignment.bundles)
    assigned = {x for _, ids in assignment.bundles for x in ids}
    totals = [v for _, v in values]
    pick = min if instance.mode is Mode.MAXMIN else max
    return VerifyReport(not violations, violations, values,
                        pick(totals) if totals else Fraction(0),
                        tuple(it.id for it in instance.items if it.id not in assigned))


@pytest.mark.parametrize("mode", [Mode.MAXMIN, Mode.MINMAX])
def test_verify_sums_integers_as_the_fraction_reference(mode):
    big = 10 ** 1999
    values = [Fraction(1, big + 7), Fraction(2, big + 9), Fraction(big, 3 ** 4190),
              Fraction(5, 6), Fraction(1, big + 7) + Fraction(1, 3)]
    # x2 appears twice: its first value counts, as in item_index
    ids = ["x1", "x2", "x3", "x2", "x5"]
    inst = ConvexInstance(mode, tuple(Item(x, v) for x, v in zip(ids, values)),
                          (Agent("p1", 1, 3), Agent("p2", 2, 5), Agent("p3", 4, 5)))
    assignments = [
        (("p1", ("x1", "x2", "zz")), ("p2", ("x3", "x5")), ("p3", ())),
        (("p1", ("x1",)), ("p2", ("x2", "x3")), ("p3", ("x5", "x2"))),
        (("p1", ("x1", "x2", "x3")), ("p2", ()), ("p3", ("x5",))),
        (),
    ]
    for bundles in assignments:
        assignment = Assignment(mode, bundles)
        report = verify(inst, assignment)
        assert report == fraction_verify(inst, assignment)
        assert all(type(v) is Fraction for _, v in report.agent_values)
        assert type(report.objective) is Fraction
    report = verify(inst, Assignment(mode, assignments[0]))
    assert not report.feasible and report.unassigned == ()
    assert any("unknown item 'zz'" in v for v in report.violations)
    assert report.agent_values[0] == ("p1", values[0] + values[1])


def three_unit_items(mode):
    return ConvexInstance(mode, tuple(Item(f"x{i}", Fraction(1)) for i in range(1, 4)),
                          (Agent("p1", 1, 3), Agent("p2", 2, 3)))


def test_verify_rejects_an_omitted_agent():
    # p2 gets nothing, so the objective 3 would ignore it (OPT is 1)
    report = verify(three_unit_items(Mode.MAXMIN),
                    Assignment(Mode.MAXMIN, (("p1", ("x1", "x2", "x3")),)))
    assert not report.feasible
    assert report.violations == ("agent 'p2' has no bundle",)


def test_verify_rejects_a_repeated_agent():
    # p1's two bundles run 3 together, while each alone looks like makespan 2
    report = verify(three_unit_items(Mode.MINMAX),
                    Assignment(Mode.MINMAX, (("p1", ("x1",)), ("p1", ("x2", "x3")),
                                             ("p2", ()))))
    assert not report.feasible
    assert report.violations == ("agent 'p1' has more than one bundle",)


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


@pytest.mark.parametrize("solve, mode", [(solve_maxmin, Mode.MAXMIN),
                                         (solve_minmax, Mode.MINMAX)])
def test_solve_rejects_an_instance_with_no_agents(solve, mode):
    with pytest.raises(SolveError, match="^instance has no agents$"):
        solve(ConvexInstance(mode, (), ()), 8)


def decide_headers(solve, instance, k):
    trace = []
    solve(instance, k, trace=trace)
    return [line for line in trace if line.startswith("# decide ")]


def test_guess_sequence_is_pinned():
    # Max-Min: U = 4/9 is tried first and succeeds.
    assert decide_headers(solve_maxmin, gen_inclusion_free(3, 4, 8, mode=Mode.MAXMIN), 8) == [
        "# decide t=4/9 k=8 success",
    ]
    # Max-Min: U = 47/132 fails, then bisection on [1/6, U], with
    # 1/6 = max(v_min, U - v_max).
    assert decide_headers(solve_maxmin, gen_inclusion_free(0, 4, 8, mode=Mode.MAXMIN), 8) == [
        "# decide t=47/132 k=8 failure",
        "# decide t=23/88 k=8 success",
        "# decide t=163/528 k=8 failure",
        "# decide t=301/1056 k=8 success",
        "# decide t=19/64 k=8 failure",
        "# decide t=1229/4224 k=8 failure",
    ]
    # Min-Max: L = 2/3 is tried first and succeeds.
    assert decide_headers(solve_minmax, gen_inclusion_free(1, 4, 8, mode=Mode.MINMAX), 8) == [
        "# decide t=2/3 k=8 success",
    ]
    # Min-Max: L fails, then bisection on [L, min(total, L + p_max)].
    assert decide_headers(solve_minmax, gen_inclusion_free(160, 4, 8, mode=Mode.MINMAX), 8) == [
        "# decide t=2069/2520 k=8 failure",
        "# decide t=2909/2520 k=8 success",
        "# decide t=2489/2520 k=8 success",
        "# decide t=2279/2520 k=8 success",
        "# decide t=1087/1260 k=8 success",
        "# decide t=4243/5040 k=8 failure",
    ]
    # OPT = 0: no matching covers both agents, so no guess is decided.
    starved = ConvexInstance(Mode.MAXMIN, (Item("x1", Fraction(1)),),
                             (Agent("p1", 1, 1), Agent("p2", 1, 1)))
    assert decide_headers(solve_maxmin, starved, 4) == []


def test_search_decides_the_untried_bound_when_every_guess_fails():
    # Max-Min: U = 11/2, OPT = v_min = 1; every guess in (1, U] fails, so
    # the lower end 1 is decided last.
    inst = ConvexInstance(Mode.MAXMIN, (Item("x1", Fraction(1)), Item("x2", Fraction(10))),
                          (Agent("p1", 1, 2), Agent("p2", 1, 2)))
    headers = decide_headers(partial(solve_maxmin, delta=Fraction(1, 2)), inst, 40)
    assert headers[0] == "# decide t=11/2 k=40 failure"
    assert headers[-1] == "# decide t=1 k=40 success"
    assert all(h.endswith(" failure") for h in headers[:-1])
    res = solve_maxmin(inst, 40, Fraction(1, 2))
    assert res.t_star == 1 and res.objective == 1
    # Min-Max: three unit jobs on two machines, L = 3/2 fails and the upper
    # end min(total, L + p_max) = 5/2 is decided.
    inst = ConvexInstance(Mode.MINMAX, tuple(Item(f"j{q}", Fraction(1)) for q in (1, 2, 3)),
                          (Agent("M1", 1, 3), Agent("M2", 1, 3)))
    headers = decide_headers(partial(solve_minmax, delta=Fraction(9, 10)), inst, 40)
    assert headers == ["# decide t=3/2 k=40 failure", "# decide t=5/2 k=40 success"]
    res = solve_minmax(inst, 40, Fraction(9, 10))
    assert res.t_star == Fraction(5, 2) and res.objective == 2


@pytest.mark.parametrize("mode, seed, count", [(Mode.MAXMIN, 41, 3), (Mode.MINMAX, 160, 4)])
def test_search_keeps_the_best_verified_objective(monkeypatch, mode, seed, count):
    # Every success after the first returns a worse feasible assignment:
    # the empty one (Max-Min, objective 0) or the fallback (Min-Max, 26/21
    # against 49/40).
    inst = gen_inclusion_free(seed, 4, 8, mode=mode)
    if mode is Mode.MAXMIN:
        worse = Assignment(mode, tuple((a.id, ()) for a in inst.agents))
    else:
        worse = solver._fallback_partition(inst)
    successes = []

    def first_success_only(instance, t, k, trace=None):
        found = decide(instance, t, k, trace)
        if found is not None:
            successes.append((t, found))
            if len(successes) > 1:
                return worse
        return found

    monkeypatch.setattr(solver, "decide", first_success_only)
    res = (solve_maxmin if mode is Mode.MAXMIN else solve_minmax)(inst, 8)
    assert len(successes) == count
    assert res.t_star == successes[-1][0]
    assert res.assignment == successes[0][1]
    assert res.objective == verify(inst, successes[0][1]).objective != verify(inst, worse).objective


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
    # The first guess, U = 1, succeeds with objective 1: proved optimal.
    inst = gen_inclusion_free(1, 5, 30, mode=Mode.MAXMIN)
    res = solve_maxmin(inst, 8)
    assert verify(inst, res.assignment).feasible
    assert maxmin_upper_bound(inst) == (1, True)
    assert res.t_star == 1 and res.objective == 1


@pytest.mark.parametrize("mode", [Mode.MAXMIN, Mode.MINMAX])
def test_solved_instance_can_be_collected(mode):
    inst = gen_inclusion_free(3, 4, 12, mode=mode)
    solve = solve_maxmin if mode is Mode.MAXMIN else solve_minmax
    solve(inst, 6)
    ref = weakref.ref(inst)
    del inst
    gc.collect()
    assert ref() is None


def test_caches_stay_bounded_across_many_solves():
    maxsize = rounding.scheme.cache_info().maxsize
    for i in range(72):
        mode = Mode.MAXMIN if i % 2 == 0 else Mode.MINMAX
        solve = solve_maxmin if mode is Mode.MAXMIN else solve_minmax
        # k runs over 4..39 in both modes: 72 distinct schemes
        solve(gen_inclusion_free(i, 3, 6, mode=mode), 4 + i // 2)
        assert rounding.scheme.cache_info().currsize <= maxsize
    assert rounding.scheme.cache_info().currsize == maxsize
