"""Exact oracle against a straight product-enumeration brute force."""

from fractions import Fraction
from itertools import product

import pytest

from convalloc import (Agent, ConvexInstance, Item, Mode, OracleSizeError,
                       opt_maxmin, opt_minmax, validate, verify)
from convalloc.generator import gen_inclusion_free, gen_planted


def covering_agents(instance, pos):
    """Indices (into ``agents``) of all agents whose interval covers pos."""
    return tuple(i for i, a in enumerate(instance.agents) if a.covers(pos))


def brute_force(instance):
    """Enumerate every adjacency-respecting placement of items to agents."""
    choices = [covering_agents(instance, pos) for pos in range(1, instance.m + 1)]
    best = None
    for placement in product(*choices):
        loads = [Fraction(0)] * instance.n
        for pos, agent_idx in enumerate(placement, start=1):
            loads[agent_idx] += instance.value_at(pos)
        score = min(loads) if instance.mode is Mode.MAXMIN else max(loads)
        if best is None or (score > best if instance.mode is Mode.MAXMIN else score < best):
            best = score
    return best


def test_t0(t0):
    opt, witness = opt_maxmin(t0)
    assert opt == 1
    assert witness.bundle_map() == {"p1": ("x1",)}


def test_t1_matches_brute_force(t1):
    opt, witness = opt_maxmin(t1)
    assert opt == Fraction(11, 10) == brute_force(t1)
    report = verify(t1, witness)
    assert report.feasible and report.objective == opt


def test_e1(e1):
    opt, witness = opt_maxmin(e1)
    # total value 3 over three agents caps the optimum at 1
    assert opt == 1
    report = verify(e1, witness)
    assert report.feasible and report.objective == 1


def test_m1_matches_brute_force(m1):
    opt, witness = opt_minmax(m1)
    assert opt == Fraction(11, 10) == brute_force(m1)
    report = verify(m1, witness)
    assert report.feasible and report.objective == opt


def test_single_machine_runs_everything(m1):
    inst = ConvexInstance(Mode.MINMAX, m1.items, (Agent("M1", 1, 4),))
    opt, witness = opt_minmax(inst)
    assert opt == sum((it.value for it in m1.items), Fraction(0))
    assert witness.bundle_map()["M1"] == ("j1", "j2", "j3", "j4")


def test_m1_widened_job_keeps_optimum(m1):
    # letting the last job run anywhere does not help below 11/10
    widened = ConvexInstance(Mode.MINMAX, m1.items,
                             (Agent("M1", 1, 3), Agent("M2", 1, 4)))
    opt, _ = opt_minmax(widened)
    assert opt == Fraction(11, 10) == brute_force(widened)


@pytest.mark.parametrize("mode", [Mode.MAXMIN, Mode.MINMAX])
def test_matches_brute_force_on_random_instances(mode):
    for seed in range(25):
        inst = gen_inclusion_free(seed, 2 + seed % 3, 4 + seed % 4, mode=mode)
        solve = opt_maxmin if mode is Mode.MAXMIN else opt_minmax
        opt, witness = solve(inst)
        assert opt == brute_force(inst)
        report = verify(inst, witness)
        assert report.feasible and report.objective == opt


def test_planted_bounds_hold():
    for seed in range(15):
        inst, planted = gen_planted(seed, 3, 9, Fraction(1))
        opt, _ = opt_maxmin(inst)
        assert opt >= 1
        assert verify(inst, planted).objective >= 1
        inst, planted = gen_planted(seed, 3, 9, Fraction(1), Mode.MINMAX)
        opt, _ = opt_minmax(inst)
        assert opt <= 1
        assert verify(inst, planted).objective <= 1


def test_size_guard():
    items = tuple(Item(f"x{i}", Fraction(1)) for i in range(1, 9))
    agents = tuple(Agent(f"p{j}", 1, 8) for j in range(1, 8))
    inst = ConvexInstance(Mode.MAXMIN, items, agents)
    with pytest.raises(OracleSizeError):
        opt_maxmin(inst)
    wide = ConvexInstance(Mode.MAXMIN, tuple(Item(f"x{i}", Fraction(1)) for i in range(1, 66)),
                          (Agent("p1", 1, 65),))
    with pytest.raises(OracleSizeError, match="at most 64 items supported, got 65"):
        opt_maxmin(wide)
    with pytest.raises(OracleSizeError, match="work cap exceeded"):
        opt_maxmin(ConvexInstance(Mode.MAXMIN, items, agents[:2]), work_cap=1)


def test_rejects_invalid_instances(t1, m1):
    inst = ConvexInstance(Mode.MAXMIN, (Item("x1", Fraction(1)),) * 2,
                          (Agent("p1", 1, 1),))
    assert not validate(inst).ok
    with pytest.raises(ValueError):
        opt_maxmin(inst)
    with pytest.raises(ValueError, match="opt_maxmin expects a Max-Min instance"):
        opt_maxmin(m1)
    with pytest.raises(ValueError, match="opt_minmax expects a Min-Max instance"):
        opt_minmax(t1)
