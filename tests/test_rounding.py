"""Rounding schemes, value classification, and configuration vectors."""

import math
import random
from bisect import bisect_left, bisect_right
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convalloc import (Mode, gen_inclusion_free, input_vector, retrieve,
                       round_instance, round_value, scale, scheme)


def test_scheme_category_counts():
    assert scheme(4, Mode.MAXMIN).C == 7
    assert scheme(10, Mode.MAXMIN).C == 25
    s = scheme(4, Mode.MAXMIN)
    assert s.grid[6] == Fraction(1, 4) * Fraction(5, 4) ** 7


def test_scheme_rejects_small_k():
    with pytest.raises(ValueError):
        scheme(3, Mode.MAXMIN)


def test_category_count_matches_log_formula():
    for k in range(4, 65):
        s = scheme(k, Mode.MINMAX)
        # independent derivation, with exact verification at the boundary
        approx = math.ceil(math.log(k) / math.log(1 + 1 / k))
        assert abs(s.C - approx) <= 1
        ratio = Fraction(k + 1, k)
        assert ratio ** s.C >= k > ratio ** (s.C - 1)


def test_grid_strictly_increasing_above_threshold():
    for k in (4, 8, 10):
        s = scheme(k, Mode.MAXMIN)
        assert s.grid[0] > Fraction(1, k)
        assert all(a < b for a, b in zip(s.grid, s.grid[1:]))


def test_round_value_examples():
    up = scheme(4, Mode.MAXMIN)
    down = scheme(4, Mode.MINMAX)
    assert round_value(Fraction(1, 10), up) == (Fraction(1, 10), 0)
    assert round_value(Fraction(3, 10), up) == (Fraction(5, 16), 1)
    # 3/10 lies in [1/4, 5/16): rounds down to exactly 1/4 and behaves as a
    # small job from then on
    assert round_value(Fraction(3, 10), down) == (Fraction(1, 4), 0)
    assert round_value(Fraction(1, 3), down) == (Fraction(5, 16), 1)


def test_round_value_domain():
    s = scheme(4, Mode.MAXMIN)
    with pytest.raises(ValueError):
        round_value(Fraction(0), s)
    with pytest.raises(ValueError):
        round_value(Fraction(3, 2), s)


@pytest.mark.parametrize("k", [4, 5, 8, 16, 64])
def test_rounding_ratio_bounds(k):
    rng = random.Random(k)
    up = scheme(k, Mode.MAXMIN)
    down = scheme(k, Mode.MINMAX)
    values = [Fraction(rng.randint(1, 420), 420) for _ in range(300)]
    values += [Fraction(1), Fraction(1, k), up.grid[0], up.grid[-1] / (k + 1) * k]
    for v in values:
        rv, _ = round_value(v, up)
        assert 1 <= rv / v < 1 + Fraction(1, k)
        rv, _ = round_value(v, down)
        assert Fraction(k, k + 1) < rv / v <= 1


def test_input_vector_e1(e1):
    s = scheme(10, Mode.MAXMIN)
    rd = round_instance(e1, s)
    nu = input_vector(rd, range(1, 22))
    assert nu[0] == 15          # fifteen circles of 1/10 make 15 units
    assert nu[10] == 6          # 1/4 rounds up to (1/10)(11/10)^10
    assert sum(nu[1:]) == 6


def test_input_vector_empty(e1):
    s = scheme(10, Mode.MAXMIN)
    rd = round_instance(e1, s)
    assert input_vector(rd, ()) == s.zero_vector()


@pytest.mark.parametrize("pos", [0, -1, 22])
def test_input_vector_rejects_positions_outside_1_to_m(e1, pos):
    rd = round_instance(e1, scheme(10, Mode.MAXMIN))
    with pytest.raises(ValueError, match=f"item position {pos} outside 1..21"):
        input_vector(rd, [1, pos])


def test_input_vector_of_peeled_remainder(e1, e1_assignment_1):
    s = scheme(10, Mode.MAXMIN)
    rd = round_instance(e1, s)
    survivors = set(range(1, 22))
    for aid, circles, squares in (("p3", 10, 4), ("p2", 5, 2)):
        survivors -= {e1.item_index(x) for x in e1_assignment_1.bundle_map()[aid]}
        nu = input_vector(rd, survivors)
        # circles of 1/10 are one unit each; squares share one category
        assert nu[0] == circles and nu[10] == squares == sum(nu[1:])


def test_input_vector_monotone(e1):
    s = scheme(10, Mode.MAXMIN)
    rd = round_instance(e1, s)
    rng = random.Random(1)
    for _ in range(30):
        a = set(rng.sample(range(1, 22), rng.randint(0, 21)))
        b = a | set(rng.sample(range(1, 22), rng.randint(0, 21)))
        nu_a = input_vector(rd, a)
        nu_b = input_vector(rd, b)
        assert all(a <= b for a, b in zip(nu_a, nu_b))


def test_distinct_big_values_and_vector_count_bounds(e1):
    s = scheme(10, Mode.MAXMIN)
    rd = round_instance(e1, s)
    distinct_big = {rd.value_at(p) for p in range(1, 22) if rd.category[p - 1]}
    assert len(distinct_big) <= s.C
    nu = input_vector(rd, range(1, 22))
    assert all(c <= e1.m for c in nu)
    closure = 1
    for c in nu:
        closure *= c + 1
    assert closure <= (e1.m + 1) ** (s.C + 1)


def test_minmax_scaling_then_rounding(m1):
    scaled = scale(m1, Fraction(11, 10))
    rd = round_instance(scaled, scheme(8, Mode.MINMAX))
    for p in range(1, 5):
        assert rd.value_at(p) <= scaled.value_at(p)
        assert rd.value_at(p) / scaled.value_at(p) > Fraction(8, 9)


def reference_round_value(value, sch):
    """The rounding rule on Fractions: bisect the value into the grid."""
    if not 0 < value <= 1:
        raise ValueError(f"value {value} outside (0, 1]")
    if value <= Fraction(1, sch.k):
        return value, 0
    if sch.mode is Mode.MAXMIN:
        idx = bisect_left(sch.grid, value)
        return sch.grid[idx], idx + 1
    idx = bisect_right(sch.grid, value) - 1
    if idx < 0:
        return Fraction(1, sch.k), 0
    return sch.grid[idx], idx + 1


def boundary_guesses(instance, sch):
    """Guesses that put the largest value exactly on 1/k, exactly on grid
    points, and strictly between 1/k and q_1, plus two ordinary ones."""
    top = max(it.value for it in instance.items)
    below_q1 = (Fraction(1, sch.k) + sch.grid[0]) / 2
    guesses = [top * sch.k, top / below_q1, instance.total_value() / instance.n,
               min(it.value for it in instance.items)]
    guesses += [top / sch.grid[tau] for tau in {0, 1, sch.C // 2, sch.C - 1}]
    return guesses


@pytest.mark.parametrize("mode", [Mode.MAXMIN, Mode.MINMAX])
@pytest.mark.parametrize("k", [4, 6, 8, 12])
def test_integer_rounding_matches_fraction_reference(mode, k):
    sch = scheme(k, mode)
    hits = {"1/k": 0, "grid": 0, "below q_1": 0}
    for seed in range(6):
        inst = gen_inclusion_free(seed, 4, 12, mode=mode)
        for t in boundary_guesses(inst, sch):
            scaled = scale(inst, t)
            if scaled is None:
                continue
            rd = round_instance(scaled, sch)
            for pos, it in enumerate(scaled.items, start=1):
                v = it.value
                expected = reference_round_value(v, sch)
                got = (rd.value_at(pos), rd.category[pos - 1])
                assert got == expected, (seed, t, v)
                assert round_value(v, sch) == expected
                if expected[1] == 0 and expected[0] == v:
                    assert rd.instance.items[pos - 1] is it  # kept as it is
                hits["1/k"] += v == Fraction(1, k)
                hits["grid"] += v in sch.grid
                hits["below q_1"] += Fraction(1, k) < v < sch.grid[0]
    assert all(hits.values()), hits


def reference_input_vector(rd, items):
    """The configuration vector by value: bisect each rounded value into the
    grid and round the small mass with ``math.ceil``/``math.floor``."""
    sch = rd.scheme
    counts = [0] * (sch.C + 1)
    small_total = Fraction(0)
    for pos in items:
        v = rd.value_at(pos)
        if v <= sch.small_threshold:
            small_total += v
            continue
        idx = bisect_left(sch.grid, v)
        assert idx < sch.C and sch.grid[idx] == v  # big values sit on the grid
        counts[idx + 1] += 1
    rounding = math.ceil if sch.mode is Mode.MAXMIN else math.floor
    counts[0] = rounding(small_total * sch.k)
    return tuple(counts)


# Derandomized: every run draws the same examples and stores none.
@settings(derandomize=True, database=None, deadline=None)
@given(seed=st.integers(0, 2 ** 16), mode=st.sampled_from(Mode), k=st.sampled_from([4, 6, 8]),
       shape=st.integers(1, 5).flatmap(lambda n: st.tuples(st.just(n), st.integers(n, 4 * n + 3))),
       factor=st.sampled_from([Fraction(1, 2), Fraction(3, 4), Fraction(1), Fraction(5, 4)]),
       data=st.data())
def test_input_vector_reads_the_rounding_classification(seed, mode, k, shape, factor, data):
    n, m = shape
    inst = gen_inclusion_free(seed, n, m, mode=mode)
    base = inst.total_value() / n
    if mode is Mode.MINMAX:
        base = max(base, max(it.value for it in inst.items))
    scaled = scale(inst, base * factor)
    rd = round_instance(scaled if scaled is not None else scale(inst, base),  # Min-Max: p_j > t
                        scheme(k, mode))
    everything = range(1, m + 1)
    positions = st.sets(st.sampled_from(everything))
    smaller = data.draw(positions)
    larger = smaller | data.draw(positions)
    for items in (smaller, larger, everything):
        assert input_vector(rd, items) == reference_input_vector(rd, items)
    assert all(a <= b for a, b in zip(input_vector(rd, smaller), input_vector(rd, larger)))
    assert retrieve(rd, input_vector(rd, everything), n) == frozenset(everything)
