"""Interval Hall checks against the subset-enumeration oracle, and the
interval Hall bounds against the exact optimum."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convalloc import (Agent, ConvexInstance, Item, Mode, hall_violations,
                       lexicographic_order, opt_maxmin, opt_minmax, scale, validate)
from convalloc.hall import HallWitness, hall_bound
from convalloc.generator import gen_inclusion_free
from conftest import with_demands
from reference import check_hall_bruteforce, coverage_ranges


def first_violation(instance):
    return next(hall_violations(instance), None)


def test_e1_unit_demands_ok(e1):
    assert first_violation(e1) is None
    assert check_hall_bruteforce(e1) is None


def test_t0_demand_two_violated(t0):
    inst = ConvexInstance(t0.mode, t0.items, (Agent("p1", 1, 1, Fraction(2)),))
    witness = first_violation(inst)
    assert (witness.lo, witness.hi) == (1, 1)
    assert witness.lhs == Fraction(1) and witness.rhs == Fraction(2)
    assert check_hall_bruteforce(inst) == ("p1",)


def test_t1_unit_demands_ok(t1):
    assert first_violation(t1) is None
    assert check_hall_bruteforce(t1) is None


def test_m1_loads(m1):
    assert first_violation(with_demands(m1, [Fraction(11, 10)] * 2)) is None
    witness = first_violation(with_demands(m1, [Fraction(1)] * 2))
    # [1,1] holds only j1 (3/5 <= 1); the first violated interval is [1,2]
    assert (witness.lo, witness.hi) == (1, 2)
    assert witness.lhs == Fraction(11, 5) and witness.rhs == Fraction(2)


def test_a_run_confining_no_job_has_no_work():
    # M2 alone confines no job: every job it can take, M1 or M3 can take too
    # (hi_M1 = 3 > lo_M3 - 1 = 2).  Only a negative allowed load shows it.
    items = tuple(Item(f"j{i}", Fraction(1)) for i in range(1, 6))
    inst = ConvexInstance(Mode.MINMAX, items, (Agent("M1", 1, 3, Fraction(5)),
                                               Agent("M2", 2, 4, Fraction(-1)),
                                               Agent("M3", 3, 5, Fraction(5))))
    assert tuple(hall_violations(inst)) == (
        HallWitness(2, 2, Fraction(0), Fraction(-1)),)


def test_single_machine_equality_ok():
    inst = ConvexInstance(Mode.MINMAX, (Item("j1", Fraction(1)),),
                          (Agent("M1", 1, 1, Fraction(1)),))
    assert first_violation(inst) is None


@pytest.mark.parametrize("mode", [Mode.MAXMIN, Mode.MINMAX])
def test_non_interval_machine_sets_rejected(mode):
    items = tuple(Item(f"j{i}", Fraction(1)) for i in range(1, 6))
    inst = ConvexInstance(mode, items,
                          (Agent("M1", 1, 5), Agent("M2", 2, 3), Agent("M3", 4, 5)))
    # M2 nests strictly inside M1, so the instance is not inclusion-free: in
    # lexicographic order the highs go 5, 3, 5, and job 4 is covered by lex
    # ranks 1 and 3 but not 2
    with pytest.raises(ValueError, match="not inclusion-free"):
        first_violation(inst)


def random_demands(rng, n):
    return [Fraction(rng.randint(1, 24), rng.randint(1, 12)) for _ in range(n)]


@pytest.mark.parametrize("mode", [Mode.MAXMIN, Mode.MINMAX])
def test_interval_and_subset_checks_agree(mode):
    rng = random.Random(7 if mode is Mode.MAXMIN else 8)
    for trial in range(120):
        n = rng.randint(1, 5)
        m = rng.randint(n, 10)
        inst = gen_inclusion_free(rng.randint(0, 10**6), n, m, mode=mode)
        inst = with_demands(inst, random_demands(rng, inst.n))
        subset = check_hall_bruteforce(inst)
        flagged = tuple(hall_violations(inst))
        assert (not flagged) == (subset is None)
        if subset is not None:
            assert contained_in_some_flagged(inst, mode, subset, flagged)


def contained_in_some_flagged(inst, mode, subset, flagged):
    if mode is Mode.MAXMIN:
        agents = {a.id: a for a in inst.agents}
        for w in flagged:
            if all(w.lo <= agents[x].lo and agents[x].hi <= w.hi for x in subset):
                return True
        return False
    ranges = {inst.items[p - 1].id: coverage_ranges(inst)[p - 1]
              for p in range(1, inst.m + 1)}
    for w in flagged:
        if all(w.lo <= ranges[x][0] and ranges[x][1] <= w.hi for x in subset):
            return True
    return False


def test_hall_is_necessary_for_feasibility():
    # whenever the exact optimum reaches t, the t-scaled instance passes
    for seed in range(20):
        inst = gen_inclusion_free(seed, 2 + seed % 3, 5 + seed % 6)
        opt, _ = opt_maxmin(inst)
        if opt == 0:
            continue
        scaled = scale(inst, opt)
        assert first_violation(scaled) is None


def test_hall_is_not_sufficient():
    # search the generator's output for an instance that passes the check at
    # unit demands yet has optimum below 1
    found = False
    for seed in range(400):
        inst = gen_inclusion_free(seed, 3, 4 + seed % 6)
        if not validate(inst).ok or first_violation(inst) is not None:
            continue
        opt, _ = opt_maxmin(inst)
        if opt < 1:
            found = True
            break
    assert found, "no generated instance separates the check from feasibility"


def swept_upper_bound(inst):
    """min over item intervals holding an agent of val / #agents inside."""
    ratios = []
    for lo in range(1, inst.m + 1):
        for hi in range(lo, inst.m + 1):
            inside = sum(1 for a in inst.agents if lo <= a.lo and a.hi <= hi)
            if inside:
                value = sum((inst.value_at(p) for p in range(lo, hi + 1)), Fraction(0))
                ratios.append(value / inside)
    return min(ratios)


def all_interval_violations(inst):
    """Every violated interval as (lo, hi, lhs, rhs), in (lo, hi) order: each
    item interval against the demands of the agents inside it (Max-Min), each
    machine rank interval against its loads and confined jobs (Min-Max)."""
    out = []
    if inst.mode is Mode.MAXMIN:
        for lo in range(1, inst.m + 1):
            for hi in range(lo, inst.m + 1):
                value = sum((inst.value_at(p) for p in range(lo, hi + 1)), Fraction(0))
                demand = sum((a.demand for a in inst.agents
                              if lo <= a.lo and a.hi <= hi), Fraction(0))
                if value < demand:
                    out.append((lo, hi, value, demand))
        return out
    ranges = coverage_ranges(inst)
    order = lexicographic_order(inst)
    for lo in range(1, inst.n + 1):
        for hi in range(lo, inst.n + 1):
            work = sum((inst.value_at(p) for p in range(1, inst.m + 1)
                        if lo <= ranges[p - 1][0] and ranges[p - 1][1] <= hi), Fraction(0))
            allowed = sum((inst.agents[order[r - 1]].demand for r in range(lo, hi + 1)),
                          Fraction(0))
            if work > allowed:
                out.append((lo, hi, work, allowed))
    return out


def swept_lower_bound(inst):
    """max(p_max, max over machine rank intervals of confined work / #machines)."""
    ranges = coverage_ranges(inst)
    ratios = [max(it.value for it in inst.items)]
    for lo in range(1, inst.n + 1):
        for hi in range(lo, inst.n + 1):
            work = sum((inst.value_at(p) for p in range(1, inst.m + 1)
                        if lo <= ranges[p - 1][0] and ranges[p - 1][1] <= hi), Fraction(0))
            ratios.append(work / (hi - lo + 1))
    return max(ratios)


def unit_instance(inst):
    return ConvexInstance(inst.mode, tuple(Item(it.id, Fraction(1)) for it in inst.items),
                          tuple(Agent(a.id, a.lo, a.hi) for a in inst.agents))


def check_bounds(inst):
    values = [it.value for it in inst.items]
    bound, opt_positive = hall_bound(inst)
    if inst.mode is Mode.MAXMIN:
        opt, _ = opt_maxmin(inst)
        assert bound - max(values) <= opt <= bound
        assert opt_positive == (opt > 0) == (first_violation(unit_instance(inst)) is None)
        assert bound == swept_upper_bound(inst)
    else:
        opt, _ = opt_minmax(inst)
        assert opt_positive
        assert bound <= opt <= min(inst.total_value(), bound + max(values))
        assert bound == swept_lower_bound(inst)


def test_bounds_on_the_examples(t0, t1, e1, m1):
    assert hall_bound(t0) == (1, True)
    assert hall_bound(t1) == (Fraction(11, 10), True)
    assert hall_bound(m1) == (Fraction(11, 10), True)
    starved = ConvexInstance(Mode.MAXMIN, (Item("x1", Fraction(1)),),
                             (Agent("p1", 1, 1), Agent("p2", 1, 1)))
    assert hall_bound(starved) == (Fraction(1, 2), False)
    for inst in (t0, t1, e1, m1, starved):
        check_bounds(inst)


def test_bound_rejects_no_agents():
    with pytest.raises(ValueError, match="no agents"):
        hall_bound(ConvexInstance(Mode.MINMAX, (Item("j1", Fraction(1)),), ()))


@pytest.mark.parametrize("mode, spans", [
    (Mode.MAXMIN, [(1, 5)]),            # past m = 3
    (Mode.MAXMIN, [(0, 2), (2, 3)]),    # before item 1
    (Mode.MAXMIN, [(3, 1)]),            # lo > hi
    (Mode.MINMAX, [(1, 5), (2, 5)]),
    (Mode.MINMAX, [(0, 2), (2, 3)]),
    (Mode.MINMAX, [(3, 1)]),
])
def test_sweeps_reject_intervals_outside_the_items(mode, spans):
    inst = ConvexInstance(mode, tuple(Item(f"x{i}", Fraction(1)) for i in range(1, 4)),
                          tuple(Agent(f"p{i}", lo, hi) for i, (lo, hi) in enumerate(spans, 1)))
    for run in (lambda: first_violation(inst), lambda: hall_bound(inst)):
        with pytest.raises(ValueError, match=r"an agent interval is empty or not within \[1,3\]"):
            run()


# Derandomized: every run draws the same examples and stores none.
@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(seed=st.integers(0, 2 ** 16), mode=st.sampled_from(Mode),
       shape=st.integers(1, 5).flatmap(lambda n: st.tuples(st.just(n), st.integers(n, 3 * n + 2))))
def test_bounds_bracket_the_optimum_on_drawn_instances(seed, mode, shape):
    check_bounds(gen_inclusion_free(seed, *shape, mode=mode))


# Derandomized: every run draws the same examples and stores none.
@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(seed=st.integers(0, 2 ** 16), mode=st.sampled_from(Mode),
       shape=st.integers(1, 5).flatmap(lambda n: st.tuples(st.just(n), st.integers(n, 3 * n + 2))),
       data=st.data())
def test_checks_match_the_all_interval_reference(seed, mode, shape, data):
    # Agents in drawn input order, so that lexicographic ranks and agent
    # indices differ; demands drawn, or the agents' own (all 1).
    drawn = gen_inclusion_free(seed, *shape, mode=mode)
    order = data.draw(st.permutations(range(drawn.n)))
    inst = ConvexInstance(mode, drawn.items, tuple(drawn.agents[i] for i in order))
    weights = data.draw(st.none() | st.lists(
        st.builds(Fraction, st.integers(1, 24), st.integers(1, 12)),
        min_size=inst.n, max_size=inst.n))
    if weights is not None:
        inst = with_demands(inst, weights)
    reference = all_interval_violations(inst)
    violated = bool(reference)
    if mode is Mode.MAXMIN:
        # the tight intervals are those whose ends are agent endpoints
        reference = [v for v in reference if v[0] in {a.lo for a in inst.agents}
                     and v[1] in {a.hi for a in inst.agents}]
    verdict = first_violation(inst)
    flagged = tuple(hall_violations(inst))
    assert (verdict is not None) == violated
    assert [(w.lo, w.hi, w.lhs, w.rhs) for w in flagged] == reference
    assert verdict == (flagged[0] if flagged else None)
