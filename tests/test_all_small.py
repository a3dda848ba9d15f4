"""Guesses at which every value is small, decided with no pass over the items.

At such a guess ``solver.scale`` and ``rounding.round_instance`` return
views ``scaled_by`` the loaded instance, whose weight tuples are built only
when read, and the DP, in either mode, runs on a state that holds no table
and bisects the loaded instance's prefix sums.  Each must read back what the
materialized path builds: ``reference_integer_scale`` then
``reference_round_instance``, the eager ``_Workspace`` and the box scans of
``tests/reference.py``.
"""

import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convalloc import (Agent, ConvexInstance, Item, Mode, dp_engine, gen_inclusion_free, hall,
                       round_instance, scale, scheme, solver)
from convalloc.dp_engine import (BUNDLE_MARGIN, _run_rows, _Workspace, backward, forward,
                                 retrieve, trace_lines)
from convalloc.hall import hall_bound
from convalloc.instance_model import with_integers
from reference import (reference_integer_scale, reference_maxmin_rows, reference_minimal,
                       reference_minmax_rows, reference_round_instance)

# What the state of an all-small DP does not hold, the eager workspace's
# tables and endpoints and the methods that read them, and the fields it
# holds.
TABLES = ("weight", "positions", "prefix_weight", "small_positions", "small_prefix",
          "small_len", "small_weight", "lows", "highs")
METHODS = ("remainder", "windows", "small_kept")
BUILT = ("order", "up", "width", "denom", "unit", "active", "small_count", "reach", "left_of",
         "nu_active", "nu_in")


def all_small(inst, t, k):
    """Whether every value of ``inst`` is at most t/k: k w_max t_den <= D t_num."""
    weights, denom = inst.integers
    return k * max(weights) * t.denominator <= denom * t.numerator


def reference_rows(ws):
    """Rows n..1 of the box scan, each Min-Max row cut to its minimal marks."""
    if ws.up:
        return list(reference_maxmin_rows(ws))
    return [reference_minimal(row) for row in reference_minmax_rows(ws)]


def with_value(inst, pos, value):
    """``inst`` with the item at 1-based ``pos`` worth ``value``."""
    items = list(inst.items)
    items[pos - 1] = Item(items[pos - 1].id, value)
    return ConvexInstance(inst.mode, tuple(items), inst.agents)


# Derandomized: every run draws the same examples and stores none.
@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(seed=st.integers(0, 2 ** 16), mode=st.sampled_from(Mode),
       k=st.sampled_from([4, 6, 8, 12]), n=st.integers(1, 5), per=st.integers(2, 6),
       factor=st.sampled_from([Fraction(2, 3), Fraction(9, 10), Fraction(1), Fraction(11, 10),
                               Fraction(3, 2)]),
       nudge=st.integers(0, 2 ** 16))
def test_all_small_views_read_back_the_materialized_path(seed, mode, k, n, per, factor, nudge):
    # per * k items for each agent, so that most guesses at the Hall bound,
    # and past it, are all-small; at 2/3 of it some Min-Max decides fail.  In
    # a third of the Min-Max draws one value is set to t (2k + 1) / (2k^2),
    # in (1/k, q_1) once scaled: it rounds down to 1/k, a category-0 value
    # that is not small, and the guess takes the materialized path.
    inst = gen_inclusion_free(seed, n, n * per * k, mode=mode)
    t = hall_bound(inst)[0] * factor
    nudged = mode is Mode.MINMAX and nudge % 3 == 0
    if nudged:
        pos = 1 + nudge % inst.m
        inst = with_value(inst, pos, t * (2 * k + 1) / (2 * k * k))
    sch = scheme(k, mode)
    small = all_small(inst, t, k)
    scaled, want_scaled = scale(inst, t), reference_integer_scale(inst, t)
    if want_scaled is None:
        assert scaled is None
        return
    rd, want = round_instance(scaled, sch), reference_round_instance(want_scaled, sch)
    assert (rd.instance.scaling is not None) is small
    if nudged:
        assert not small and rd.category[pos - 1] == 0
    if small:
        # scaling and rounding build no weight tuple
        assert scaled.scaling.source is inst and rd.instance.scaling.source is inst
        assert "integers" not in vars(scaled) and "integers" not in vars(rd.instance)
    table, want_table = forward(rd), forward(want)
    # nor does the DP, in either mode, whose state holds no table and reads
    # the loaded prefix sums
    ws = table._ws
    assert all(hasattr(ws, name) is not small for name in TABLES + METHODS)
    assert ws.folded[0] is (inst.prefix if small else ws.small_prefix)
    if small:
        assert "integers" not in vars(rd.instance)

    # the DP: marks, pointers, carried weights and small lengths
    assert table.nu_in == want_table.nu_in
    assert table.marks == want_table.marks
    assert list(table.marks) == reference_rows(_Workspace(want))[::-1]
    assert trace_lines(table) == trace_lines(want_table)
    assert table.succeeded is want_table.succeeded
    if table.succeeded:
        assert backward(table, rd) == backward(want_table, want)

    # the views read back the materialized weights and categories
    assert scaled.integers == want_scaled.integers
    assert rd.instance.integers == want.instance.integers
    assert rd.category == want.category
    assert scaled.spread == want_scaled.spread
    assert rd.instance.spread == want.instance.spread
    # the state's fields are the eager workspace's, and so are the tables of
    # one that holds them
    eager = _Workspace(want)
    for name in BUILT + (() if small else TABLES):
        assert getattr(ws, name) == getattr(eager, name), name
    # a view's tables, built by the eager workspace that ``retrieve`` reads,
    # reconstruct the materialized rounding's remainders
    for j, row in enumerate((*table.rows, {table.nu_in: None}), start=1):
        for nu in row:
            assert retrieve(rd, nu, j - 1) == retrieve(want, nu, j - 1)
    assert retrieve(rd, table.nu_in, inst.n) == frozenset(range(1, inst.m + 1))


# Derandomized: every run draws the same examples and stores none.
@pytest.mark.parametrize("mode", Mode)
@settings(derandomize=True, database=None, deadline=None, max_examples=120)
@given(seed=st.integers(0, 2 ** 16), k=st.sampled_from([4, 6, 8, 12]), n=st.integers(1, 5),
       top=st.integers(1, 3), shift=st.integers(0, 3),
       factor=st.sampled_from([Fraction(1), Fraction(11, 10), Fraction(3, 2)]))
def test_run_rows_read_folded_through_the_sums_it_stands_for(mode, seed, k, n, top, shift,
                                                             factor):
    # Integer values up to top: consecutive multiples of the sums' gcd g are
    # nearly all prefix sums, so a bisection whose threshold is carried over
    # to (sums // g, g, 1) with the wrong rounding meets one.  Agent j covers
    # 1 + (j-1) shift .. m - (n-j) shift, so each row's window starts near
    # item 1 and the budget, not the window, sets its mark: the least
    # passing nu_0 in Min-Max, the largest in Max-Min.
    m = 4 * k * n
    rng = random.Random(seed)
    items = tuple(Item(f"x{i}", Fraction(rng.randint(1, top))) for i in range(1, m + 1))
    agents = tuple(Agent(f"p{j}", 1 + (j - 1) * shift, m - (n - j) * shift)
                   for j in range(1, n + 1))
    inst = ConvexInstance(mode, items, agents)
    t = hall_bound(inst)[0] * factor
    assert all_small(inst, t, k)
    ws = _Workspace(round_instance(scale(inst, t), scheme(k, mode)))
    bound = ws.denom + (-BUNDLE_MARGIN if ws.up else BUNDLE_MARGIN) * ws.unit
    rows = list(_run_rows(ws, bound))
    assert rows == reference_rows(ws)
    sums = ws.small_prefix
    common = gcd(*sums)
    for folded in ((tuple(s // common for s in sums), common, 1),
                   (tuple(3 * s for s in sums), 1, 3)):
        ws.folded = folded
        assert list(_run_rows(ws, bound)) == rows


def test_an_all_small_decide_builds_no_weight_tuple(monkeypatch):
    made = {}

    def kept(module, name):
        inner = getattr(module, name)

        def wrapper(*args):
            made[name] = inner(*args)
            return made[name]
        monkeypatch.setattr(module, name, wrapper)

    kept(solver, "scale")
    kept(solver, "round_instance")
    kept(dp_engine, "forward")
    # the golden wide case: every value is small at the Hall bound L
    inst = gen_inclusion_free(3, 12, 120, mode=Mode.MINMAX)
    bound, _ = hall_bound(inst)
    assert all_small(inst, bound, 8)
    assert solver.decide(inst, bound, 8) is not None
    scaled, rounded, table = made["scale"], made["round_instance"].instance, made["forward"]
    for derived in (scaled, rounded):
        assert derived.scaling.source is inst
        assert not vars(derived).keys() & {"integers", "prefix", "items"}
    assert not any(hasattr(table._ws, name) for name in TABLES + METHODS)
    # the Hall sweep and the workspace read one prefix view
    assert table._ws.folded[0] is inst.prefix is hall._lex_profile(inst)[4]

    # A Max-Min all-small decide runs on the same state.
    inst = gen_inclusion_free(7, 4, 400, mode=Mode.MAXMIN)
    bound, _ = hall_bound(inst)
    assert all_small(inst, bound, 8)
    assert solver.decide(inst, bound, 8) is not None
    scaled, rounded, table = made["scale"], made["round_instance"].instance, made["forward"]
    for derived in (scaled, rounded):
        assert derived.scaling.source is inst and "integers" not in vars(derived)
    assert not any(hasattr(table._ws, name) for name in TABLES + METHODS)
    assert table._ws.folded[0] is inst.prefix

    # A dense Max-Min guess holds big items.  Nothing clamps at the Hall
    # bound, so the scaled instance is a view of the loaded one, whose
    # weights the rounding builds when it reads them; the rounded instance
    # and the workspace build their tuples as before.
    dense = gen_inclusion_free(5, 5, 20, (Fraction(1, 2), Fraction(1)), Mode.MAXMIN)
    bound, _ = hall_bound(dense)
    solver.decide(dense, bound, 6)
    scaled, rounded, table = made["scale"], made["round_instance"].instance, made["forward"]
    assert scaled.scaling.source is dense and "integers" in vars(scaled)
    assert scaled.integers == reference_integer_scale(dense, bound).integers
    assert rounded.scaling is None and "integers" in vars(rounded)
    assert all(name in vars(table._ws) for name in TABLES)
    # Below v_max a Max-Min guess clamps, and scaling builds its tuple.
    t = Fraction(dense.spread[1], dense.integers[1]) * Fraction(3, 4)
    solver.decide(dense, t, 6)
    scaled, rounded = made["scale"], made["round_instance"].instance
    assert scaled.scaling is None and "integers" in vars(scaled)
    assert scaled.integers == reference_integer_scale(dense, t).integers
    assert rounded.scaling is None and "integers" in vars(rounded)


@pytest.mark.parametrize("bad", [Fraction(0), Fraction(-1, 20)])
def test_rounding_a_view_with_a_nonpositive_value_raises(bad):
    inst = ConvexInstance(Mode.MINMAX, (Item("x1", bad), Item("x2", Fraction(1, 10))),
                          (Agent("p1", 1, 2),))
    scaled = scale(inst, Fraction(1))
    assert scaled.scaling is not None  # no value exceeds t
    message = rf"value {bad} outside \(0, 1\]; scale the instance first"
    with pytest.raises(ValueError, match=message):
        round_instance(scaled, scheme(8, Mode.MINMAX))
    # the same error as the materialized path's
    with pytest.raises(ValueError, match=message):
        round_instance(with_integers(scaled, scaled.integers), scheme(8, Mode.MINMAX))
