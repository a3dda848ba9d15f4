"""Rounding schemes, value classification, and configuration vectors."""

import json
import math
import os
import random
import subprocess
import sys
from bisect import bisect_left, bisect_right
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import convalloc
from convalloc import (ConvexInstance, Item, Mode, RoundedInstance, gen_inclusion_free,
                       input_vector, retrieve, round_instance, scale, scheme, solve_maxmin)
from convalloc.dp_engine import _Workspace, solve_rounded
from convalloc.hall import hall_bound
from convalloc.instance_model import integer_values
from convalloc.rounding import _categories
from conftest import round_one


def test_scheme_category_counts():
    assert scheme(4, Mode.MAXMIN).C == 7
    assert scheme(10, Mode.MAXMIN).C == 25
    s = scheme(4, Mode.MAXMIN)
    assert s.grid[6] == Fraction(1, 4) * Fraction(5, 4) ** 7


def test_scheme_rejects_small_k():
    with pytest.raises(ValueError):
        scheme(3, Mode.MAXMIN)


# Run in a fresh interpreter whose address space is capped at 1 GiB, so that
# a table built by mistake fails there: at k = 10**6 it would take terabytes.
LARGE_K = """
import json, resource
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from convalloc import Mode, gen_inclusion_free, solve_maxmin, solve_minmax
from convalloc.rounding import MAX_K, scheme
errors = []
for mode in Mode:
    for k in (MAX_K + 1, 10 ** 6, 2 ** 64):
        try:
            scheme(k, mode)
        except ValueError as exc:
            errors.append(str(exc))
for solve, mode in ((solve_maxmin, Mode.MAXMIN), (solve_minmax, Mode.MINMAX)):
    try:
        solve(gen_inclusion_free(1, 3, 6, mode=mode), 2 ** 64)
    except ValueError as exc:
        errors.append(str(exc))
print(json.dumps([MAX_K, errors]))
"""


def test_a_k_past_max_k_is_refused_before_any_table_is_built():
    env = dict(os.environ)
    src = str(Path(convalloc.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", LARGE_K], capture_output=True, text=True,
                          env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    max_k, errors = json.loads(done.stdout)
    assert max_k == 1024
    refused = [max_k + 1, 10 ** 6, 2 ** 64]
    assert errors == [f"error parameter k must be <= 1024, got {k}" for k in refused] * 2 \
        + [f"error parameter k must be <= 1024, got {2 ** 64}"] * 2


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


@pytest.mark.parametrize("mode", [Mode.MAXMIN, Mode.MINMAX])
def test_grid_table_holds_q_tau_and_thresholds_round_it(mode):
    for k in range(4, 65):
        sch = scheme(k, mode)
        c = sch.C
        assert len(sch.ratios) == c + 1
        # C is the least tau with (k+1)^tau >= k^(tau+1)
        assert (k + 1) ** c >= k ** (c + 1) and (k + 1) ** (c - 1) < k ** c
        grid, q = [], Fraction(1, k)
        for tau, (a, b) in enumerate(sch.ratios):
            assert (a, b) == (q.numerator, q.denominator), (k, tau)
            grid.append(q)
            q *= Fraction(k + 1, k)
        assert sch.grid == tuple(grid[1:])
        # k + 1 and 10**6 + 1 are not multiples of k; at k^(C+1) every
        # D q_tau is an integer
        for denom in (k + 1, 10 ** 6 + 1, k ** (c + 1)):
            exact = [denom * q for q in sch.grid]
            want = [math.floor(x) if mode is Mode.MAXMIN else math.ceil(x) for x in exact]
            assert sch.thresholds(denom) == want, (k, denom)
        # a value exactly on a grid point q_1 .. q_{C-1} is its own category,
        # on any D (q_C > 1, since (k+1)^C and k^(C+1) are coprime)
        denom = k ** (c + 1)
        on_grid = [denom * a // b for a, b in sch.ratios[1:c]]
        assert _categories(on_grid, denom, sch) == list(range(1, c))
        for tau in {1, c // 2, c - 1}:
            assert round_one(sch.grid[tau - 1], sch) == (sch.grid[tau - 1], tau)


# The schemes of 64 distinct k, built one after another; the memory still
# held after them, against the one scheme of the largest k.  At k = 100..163
# a scheme holds under 1 MB; every one kept would hold over 40 times that.
MANY_SCHEMES = """
import json, tracemalloc
from convalloc import Mode
from convalloc.rounding import scheme
KS = range(100, 164)
tracemalloc.start()
start = tracemalloc.get_traced_memory()[0]
scheme(KS[-1], Mode.MAXMIN)
single = tracemalloc.get_traced_memory()[0] - start
scheme.cache_clear()
start = tracemalloc.get_traced_memory()[0]
for k in KS:
    scheme(k, Mode.MAXMIN)
held = tracemalloc.get_traced_memory()[0] - start
print(json.dumps([single, held, scheme.cache_info().currsize]))
"""


def test_the_scheme_cache_holds_a_few_tables_across_many_k():
    env = dict(os.environ)
    src = str(Path(convalloc.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", MANY_SCHEMES], capture_output=True,
                          text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    single, held, cached = json.loads(done.stdout)
    assert cached == 8
    assert held < 9 * single, (held, single)


@pytest.mark.parametrize("k", [8.0, Fraction(8)], ids=["float", "Fraction"])
def test_scheme_refuses_a_k_that_is_not_an_int(k, t1):
    for mode in Mode:
        scheme(8, mode)  # an equal int k already cached
        with pytest.raises((TypeError, ValueError)):
            scheme(k, mode)
    trace = []
    with pytest.raises((TypeError, ValueError)):
        solve_maxmin(t1, k, Fraction(1, 32), trace)
    assert trace == []  # no decide ran


def test_round_value_examples():
    up = scheme(4, Mode.MAXMIN)
    down = scheme(4, Mode.MINMAX)
    assert round_one(Fraction(1, 10), up) == (Fraction(1, 10), 0)
    assert round_one(Fraction(3, 10), up) == (Fraction(5, 16), 1)
    # 3/10 lies in [1/4, 5/16): rounds down to exactly 1/4 and behaves as a
    # small job from then on
    assert round_one(Fraction(3, 10), down) == (Fraction(1, 4), 0)
    assert round_one(Fraction(1, 3), down) == (Fraction(5, 16), 1)


def test_round_value_domain():
    s = scheme(4, Mode.MAXMIN)
    with pytest.raises(ValueError):
        round_one(Fraction(0), s)
    with pytest.raises(ValueError):
        round_one(Fraction(3, 2), s)


@pytest.mark.parametrize("k", [4, 5, 8, 16, 64])
def test_rounding_ratio_bounds(k):
    rng = random.Random(k)
    up = scheme(k, Mode.MAXMIN)
    down = scheme(k, Mode.MINMAX)
    values = [Fraction(rng.randint(1, 420), 420) for _ in range(300)]
    values += [Fraction(1), Fraction(1, k), up.grid[0], up.grid[-1] / (k + 1) * k]
    for v in values:
        rv, _ = round_one(v, up)
        assert 1 <= rv / v < 1 + Fraction(1, k)
        rv, _ = round_one(v, down)
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


@pytest.mark.parametrize("t", [Fraction(11, 10), Fraction(10)], ids=["big-items", "all-small"])
def test_rounded_instance_refuses_a_scheme_of_the_other_mode(t1, m1, t):
    # The rows follow the instance's mode and the rounding the scheme's:
    # mixed, a Max-Min instance would have its values rounded down.
    for inst, other in ((t1, Mode.MINMAX), (m1, Mode.MAXMIN)):
        message = f"a {other.value} scheme cannot round a {inst.mode.value} instance"
        scaled = scale(inst, t)
        with pytest.raises(ValueError, match=message):
            round_instance(scaled, scheme(8, other))
        rd = round_instance(scaled, scheme(8, inst.mode))
        with pytest.raises(ValueError, match=message):
            RoundedInstance(rd.instance, scheme(8, other), rd.category)


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
    # "D not least": the view that ``scale`` hands over, D t_num, is a
    # common denominator of the scaled values larger than their lcm
    hits = {"1/k": 0, "grid": 0, "below q_1": 0, "D not least": 0}
    for seed in range(6):
        inst = gen_inclusion_free(seed, 4, 12, mode=mode)
        for t in boundary_guesses(inst, sch):
            scaled = scale(inst, t)
            if scaled is None:
                continue
            rd = round_instance(scaled, sch)
            least = integer_values([it.value for it in scaled.items])[1]
            hits["D not least"] += scaled.integers[1] != least
            for pos, it in enumerate(scaled.items, start=1):
                v = it.value
                expected = reference_round_value(v, sch)
                got = (rd.value_at(pos), rd.category[pos - 1])
                assert got == expected, (seed, t, v)
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
        if v <= Fraction(1, sch.k):
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


def reference_scale(instance, t):
    """Scaling on Fractions, built eagerly: one ``Item`` per value v / t,
    clamped to 1 (Max-Min), or None when some v > t (Min-Max)."""
    items = []
    for it in instance.items:
        v = it.value / t
        if v > 1:
            if instance.mode is Mode.MINMAX:
                return None
            v = Fraction(1)
        items.append(Item(it.id, v))
    return ConvexInstance(instance.mode, tuple(items), instance.agents)


def reference_round_instance(instance, sch):
    """Rounding on Fractions, built eagerly: ``reference_round_value`` of
    every item."""
    pairs = [reference_round_value(it.value, sch) for it in instance.items]
    items = tuple(Item(it.id, v) for it, (v, _) in zip(instance.items, pairs))
    return RoundedInstance(ConvexInstance(instance.mode, items, instance.agents), sch,
                           tuple(c for _, c in pairs))


def search_bracket(instance):
    """The binary search's bracket (``solver._search``), or the whole
    range of values when no matching covers every Max-Min agent."""
    values = [it.value for it in instance.items]
    bound, opt_positive = hall_bound(instance)
    if not opt_positive:
        return min(values), sum(values)
    if instance.mode is Mode.MAXMIN:
        return max(min(values), bound - max(values)), bound
    return bound, min(sum(values), bound + max(values))


def assert_is_reference(got, want, source):
    """``got`` equals ``want`` as an instance and carries ``source``'s views."""
    assert got.lex is source.lex and got.ids is source.ids
    assert got.nested is source.nested
    assert got == want and hash(got) == hash(want) and repr(got) == repr(want)
    assert [it.value for it in got.items] == [it.value for it in want.items]
    weights, denom = got.integers
    assert [Fraction(w, denom) for w in weights] == [it.value for it in want.items]


# Derandomized: every run draws the same examples and stores none.
@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(seed=st.integers(0, 2 ** 16), mode=st.sampled_from(Mode),
       k=st.sampled_from([4, 6, 8, 12]),
       shape=st.integers(1, 5).flatmap(lambda n: st.tuples(st.just(n), st.integers(n, 4 * n + 3))),
       where=st.sampled_from([Fraction(-1, 2), Fraction(0), Fraction(1, 3), Fraction(1, 2),
                              Fraction(7, 8), Fraction(1), Fraction(3, 2)]))
def test_integer_views_equal_the_eager_references(seed, mode, k, shape, where):
    # ``where`` places the guess in the bracket [lo, hi], 0 at lo and 1 at
    # hi, and just outside it, where Max-Min clamps and Min-Max may fail.
    inst = gen_inclusion_free(seed, *shape, mode=mode)
    lo, hi = search_bracket(inst)
    t = max(lo + where * (hi - lo), lo / 2)
    sch = scheme(k, mode)
    scaled, want_scaled = scale(inst, t), reference_scale(inst, t)
    if want_scaled is None:
        assert scaled is None
        return
    rd, want = round_instance(scaled, sch), reference_round_instance(want_scaled, sch)
    assert "items" not in vars(scaled) and "items" not in vars(rd.instance)
    assert_is_reference(rd.instance, want.instance, inst)
    assert rd.category == want.category
    # The workspace reads the rounded view as it is: over the least common
    # denominator that k divides, which is the reference's.
    ws, ref = _Workspace(rd), _Workspace(want)
    factor, rest = divmod(ws.denom, ref.denom)
    assert rest == 0 and ws.unit == factor * ref.unit
    assert ws.prefix_weight == [[factor * w for w in ws_c] for ws_c in ref.prefix_weight]
    assert ws.nu_in == ref.nu_in and factor == 1
    assert_is_reference(scaled, want_scaled, inst)


@pytest.mark.parametrize("mode", [Mode.MAXMIN, Mode.MINMAX])
def test_a_decide_builds_no_items_of_its_derived_instances(mode):
    for seed in range(4):
        inst = gen_inclusion_free(seed, 4, 12, mode=mode)
        t = search_bracket(inst)[1]
        sch = scheme(8, mode)
        scaled = scale(inst, t)
        rd = round_instance(scaled, sch)
        solve_rounded(rd)
        assert "items" not in vars(scaled) and "items" not in vars(rd.instance)
        want = reference_round_instance(reference_scale(inst, t), sch)
        assert rd.instance.items == want.instance.items
        assert scaled.items == reference_scale(inst, t).items
        assert rd.instance.items is rd.instance.items  # built once, then kept
        with pytest.raises(AttributeError, match="no attribute 'weights'"):
            rd.instance.weights
