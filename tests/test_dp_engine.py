"""Reconstruction, feasibility, and the forward/backward dynamic program."""

import itertools
import math
import operator
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convalloc import (Agent, ConvexInstance, Item, Mode, SolveError, backward,
                       decide, dp_engine, forward, gen_inclusion_free, retrieve,
                       round_instance, scale, scheme, solve_maxmin,
                       solve_minmax, solve_rounded, verify)
from convalloc.dp_engine import (BUNDLE_MARGIN, DPTable, _AllSmallWorkspace, _cut, _mark_rows,
                                 _Workspace, trace_lines)
from convalloc.hall import hall_bound
from convalloc.instance_model import lexicographic_order
from convalloc.rounding import input_vector
from reference import (reference_maximal, reference_maxmin_rows, reference_minimal,
                       reference_minmax_rows)


def rounded(instance, k):
    return round_instance(instance, scheme(k, instance.mode))


def all_items(rd):
    return range(1, rd.instance.m + 1)


def feasible(rd, before, bundle, agent):
    """The bundle rule in ``Fraction``s, the reference for the integer rule
    ``forward`` runs.

    True iff the remainder ``before`` is not None, the bundle sits inside
    the agent's interval, and its rounded value clears 1 - 3/k (Max-Min) or
    stays within 1 + 3/k (Min-Max).
    """
    if before is None:
        return False
    if any(not agent.covers(p) for p in bundle):
        return False
    value = sum((rd.value_at(p) for p in bundle), Fraction(0))
    margin = Fraction(BUNDLE_MARGIN, rd.scheme.k)
    if rd.scheme.mode is Mode.MAXMIN:
        return value >= 1 - margin
    return value <= 1 + margin


def vec(sch, nu0, **cats):
    out = [0] * (sch.C + 1)
    out[0] = nu0
    for cat, count in cats.items():
        out[int(cat)] = count
    return tuple(out)


def test_retrieve_example_remainder(e1):
    rd = rounded(e1, 10)
    sub = retrieve(rd, vec(rd.scheme, 5, **{"10": 2}), 1)
    assert sub is not None
    assert sorted(sub) == [1, 2, 3, 4, 5, 6, 7]   # s1 s2 c1..c5


def test_retrieve_identity(e1):
    rd = rounded(e1, 10)
    assert retrieve(rd, input_vector(rd, all_items(rd)), 3) == frozenset(range(1, 22))


def test_retrieve_stranded_big_items(e1):
    rd = rounded(e1, 10)
    # four squares force s3 and s4, which lie beyond p1's interval
    assert retrieve(rd, vec(rd.scheme, 5, **{"10": 4}), 1) is None


def test_retrieve_zero_agents(e1):
    rd = rounded(e1, 10)
    assert retrieve(rd, vec(rd.scheme, 0), 0) == frozenset()
    assert retrieve(rd, vec(rd.scheme, 1), 0) is None


def test_retrieve_rejects_oversized_vectors(e1):
    rd = rounded(e1, 10)
    with pytest.raises(ValueError):
        retrieve(rd, vec(rd.scheme, 99), 1)
    with pytest.raises(ValueError, match="agent count 4 out of range"):
        retrieve(rd, vec(rd.scheme, 0), rd.instance.n + 1)
    nu_in = input_vector(rd, all_items(rd))
    # one past every count, plus an item of the empty category 9
    probes = 0
    for a0, a9, a10 in itertools.product(range(nu_in[0] + 2), range(2), range(nu_in[10] + 2)):
        if a0 <= nu_in[0] and a9 == 0 and a10 <= nu_in[10]:
            continue
        for j in range(rd.instance.n + 1):
            with pytest.raises(ValueError):
                retrieve(rd, vec(rd.scheme, a0, **{"9": a9, "10": a10}), j)
            probes += 1
    assert nu_in[9] == 0 and probes > 0
    # a negative count: category 18 holds positions 4 and 5, and -1 of it
    # must not read as its prefix [:-1]; nor may nu_0 = -1 index from the end
    rd = rounded(scale(gen_inclusion_free(3, 3, 9, mode=Mode.MAXMIN), Fraction(1)), 8)
    assert rd.positions()[18] == [4, 5]
    for nu in (vec(rd.scheme, 0, **{"18": -1}), vec(rd.scheme, -1)):
        for j in range(rd.instance.n + 1):
            with pytest.raises(ValueError, match="not between 0 and the instance vector"):
                retrieve(rd, nu, j)


def test_feasible(e1, e1_assignment_1):
    rd = rounded(e1, 10)
    sub = retrieve(rd, input_vector(rd, all_items(rd)), 3)
    bundle = frozenset(e1.item_index(x) for x in e1_assignment_1.bundle_map()["p1"])
    assert feasible(rd, sub, bundle, e1.agents[0])
    assert not feasible(rd, sub, frozenset({8}), e1.agents[0])  # c6 is outside
    assert not feasible(rd, None, bundle, e1.agents[0])
    assert not feasible(rd, sub, frozenset({3}), e1.agents[0])  # one circle is short


def test_forward_marks_success(e1, t0):
    rd = rounded(e1, 10)
    table = forward(rd)
    assert table.succeeded
    rd0 = rounded(t0, 4)
    table0 = forward(rd0)
    assert table0.succeeded
    assignment = backward(table0, rd0)
    assert assignment.bundle_map() == {"p1": ("x1",)}


def test_forward_failure_when_infeasible():
    # one item of value 1/10 demanded by two agents: nobody reaches 1 - 3/k
    inst = ConvexInstance(Mode.MAXMIN, (Item("x1", Fraction(1, 10)),),
                          (Agent("p1", 1, 1), Agent("p2", 1, 1)))
    rd = rounded(inst, 4)
    table = forward(rd)
    assert not table.succeeded
    assert not table.row(1)
    out, _ = solve_rounded(rd)
    assert out is None
    with pytest.raises(LookupError, match="no feasible assignment"):
        backward(table, rd)


def test_backward_e1_bundle_values(e1):
    rd = rounded(e1, 10)
    assignment, _ = solve_rounded(rd)
    assert assignment is not None
    for aid, ids in assignment.bundles:
        value = sum((rd.value_at(rd.instance.item_index(x)) for x in ids), Fraction(0))
        assert value >= Fraction(7, 10)
    assert verify(e1, assignment).feasible


def test_backward_t1_scaled(t1):
    rd = rounded(scale(t1, Fraction(11, 10)), 8)
    assignment, _ = solve_rounded(rd)
    assert assignment is not None
    for aid, ids in assignment.bundles:
        value = sum((rd.value_at(rd.instance.item_index(x)) for x in ids), Fraction(0))
        assert value >= 1 - Fraction(3, 8)


def test_backward_minmax_scaled(m1):
    rd = rounded(scale(m1, Fraction(11, 10)), 8)
    assignment, _ = solve_rounded(rd)
    assert assignment is not None
    for aid, ids in assignment.bundles:
        value = sum((rd.value_at(rd.instance.item_index(x)) for x in ids), Fraction(0))
        assert value <= 1 + Fraction(3, 8)


def test_solve_rounded_accepts_weak_single_bundle():
    # value 1/2 rounds up past the 1 - 3/4 bar, so the single bundle passes
    inst = ConvexInstance(Mode.MAXMIN, (Item("x1", Fraction(1, 2)),),
                          (Agent("p1", 1, 1),))
    out, _ = solve_rounded(rounded(inst, 4))
    assert out is not None and out.bundle_map() == {"p1": ("x1",)}


def test_retrieved_graphs_nest(e1):
    rd = rounded(e1, 10)
    nu_in = input_vector(rd, all_items(rd))
    vectors = [v for v in itertools.product(range(nu_in[0] + 1), range(nu_in[10] + 1))]
    for (a0, a1) in vectors:
        for (b0, b1) in vectors:
            nu_a = vec(rd.scheme, a0, **{"10": a1})
            nu_b = vec(rd.scheme, b0, **{"10": b1})
            if not all(a <= b for a, b in zip(nu_a, nu_b)):
                continue
            for j in (1, 2, 3):
                sub_a = retrieve(rd, nu_a, j)
                sub_b = retrieve(rd, nu_b, j)
                if sub_a is not None and sub_b is not None:
                    assert sub_a <= sub_b


def test_forward_is_deterministic(e1):
    rd = rounded(e1, 10)
    t1, t2 = forward(rd), forward(rd)
    assert t1.rows == t2.rows
    assert trace_lines(t1) == trace_lines(t2)
    assert trace_lines(t1)[0].startswith("row=3 nu=")


def test_every_emitted_bundle_passes_feasible(e1):
    rd = rounded(e1, 10)
    table = forward(rd)
    assignment = backward(table, rd)
    order = lexicographic_order(rd.instance)
    positions = assignment.positions(rd.instance)
    survivors = set(range(1, rd.instance.m + 1))
    chain = [rd.scheme.zero_vector()]
    for j in range(1, rd.instance.n + 1):
        chain.append(table.row(j)[chain[-1]])
    for j in range(rd.instance.n, 0, -1):
        agent = rd.instance.agents[order[j - 1]]
        before = retrieve(rd, chain[j], j) if j < rd.instance.n else frozenset(all_items(rd))
        assert feasible(rd, before, frozenset(positions[order[j - 1]]), agent)
        survivors -= set(positions[order[j - 1]])
    assert not survivors


@pytest.mark.parametrize("mode, values, ok", [
    # exactly 1 - 3/8, then one step of 1/80 below it
    (Mode.MAXMIN, [Fraction(1, 8)] * 5, True),
    (Mode.MAXMIN, [Fraction(1, 8)] * 4 + [Fraction(9, 80)], False),
    # exactly 1 + 3/8, then one step of 1/80 above it
    (Mode.MINMAX, [Fraction(1, 8)] * 11, True),
    (Mode.MINMAX, [Fraction(1, 8)] * 11 + [Fraction(1, 80)], False),
])
def test_bundle_margin_is_one_rule(mode, values, ok):
    # One agent takes every item, so forward succeeds iff its integer rule
    # accepts the whole instance as a bundle; feasible must agree.
    inst = ConvexInstance(mode, make_items(values), (Agent("p1", 1, len(values)),))
    rd = rounded(inst, 8)
    assert rd.instance == inst  # small values stay exact
    everything = frozenset(range(1, len(values) + 1))
    assert feasible(rd, everything, everything, inst.agents[0]) is ok
    assert forward(rd).succeeded is ok


@pytest.mark.parametrize("mode, per_agent", [(Mode.MAXMIN, 5), (Mode.MINMAX, 11)])
def test_one_coordinate_run_keeps_a_bundle_on_the_bound(mode, per_agent):
    # Two agents on disjoint intervals of items worth 1/8 at k = 8: each
    # bundle must be worth exactly 1 - 3/8 (Max-Min) or 1 + 3/8 (Min-Max),
    # so row 2 marks a candidate whose bundle sits on the bound: the top of
    # its box's passing part (Max-Min) or the bottom, found by bisection
    # (Min-Max).
    m = 2 * per_agent
    inst = ConvexInstance(mode, make_items([Fraction(1, 8)] * m), (
        Agent("p1", 1, per_agent), Agent("p2", per_agent + 1, m)))
    rd = rounded(inst, 8)
    assert _Workspace(rd).active == (0,)
    table, _ = check_forward(rd)
    assert table.succeeded


# ---------------------------------------------------------------------------
# Window-pruned transitions against the dense enumeration
# ---------------------------------------------------------------------------

def linear_small_prefix_len(ws, nu0, high):
    """The reference left-to-right walk of the small-item sweep."""
    bound = (nu0 + 1) * ws.unit
    length = 0
    while (length < len(ws.small_positions)
           and ws.small_positions[length] <= high
           and ws.small_prefix[length + 1] < bound):
        length += 1
    return length


def linear_retrieve(ws, nu, j):
    """The reference reconstruction: walk every reconstructed item."""
    if j == 0:
        return (0, 0) if not any(nu) else None
    mask = total = 0
    high = ws.highs[j - 1]
    for cat in range(1, len(nu)):
        positions = ws.positions[cat]
        if nu[cat] > len(positions):
            return None
        for p in positions[:nu[cat]]:
            if p > high:
                return None
            mask |= 1 << (p - 1)
            total += ws.weight[p]
    for p in ws.small_positions[:linear_small_prefix_len(ws, nu[0], high)]:
        mask |= 1 << (p - 1)
        total += ws.weight[p]
    return mask, total


def linear_mask(ws, nu, j):
    """The item bitmask of the reference reconstruction, or None."""
    hit = linear_retrieve(ws, nu, j)
    return None if hit is None else hit[0]


def mask_items(mask):
    """The item positions of a bitmask (bit p-1 stands for p), or None."""
    if mask is None:
        return None
    return frozenset(p for p in range(1, mask.bit_length() + 1) if mask >> (p - 1) & 1)


def remainder_items(ws, nu, j):
    """``_Workspace.remainder`` as a set of positions, or None."""
    items = ws.remainder(nu, j)
    return None if items is None else frozenset(items)


def interval_masks(ws):
    """Entry j-1 has bit p-1 set iff position p lies in agent j's interval."""
    return [((1 << (hi - lo + 1)) - 1) << (lo - 1) for lo, hi in zip(ws.lows, ws.highs)]


def everything(ws):
    """(item bitmask, total weight) of the whole instance."""
    return (1 << (len(ws.weight) - 1)) - 1, sum(ws.weight)  # weight[0] is a pad


def structure_ok(before_mask, after, window):
    """The reconstruction, containment and interval tests: the remainder
    after the agent reconstructs, lies inside the remainder before it, and
    leaves the agent a bundle inside its interval."""
    if after is None:
        return False
    after_mask = after[0]
    return not (after_mask & ~before_mask or before_mask & ~after_mask & ~window)


def cut(row, up):
    """The entries of ``row`` whose vectors no other vector of it dominates
    from above (``up``) or from below."""
    def dominates(other, nu):
        return other != nu and all(a <= b if up else a >= b for a, b in zip(nu, other))
    return {nu: mark for nu, mark in row.items()
            if not any(dominates(other, nu) for other in row)}


def is_antichain(row):
    """No vector of ``row`` dominates another."""
    return not any(a != b and all(map(operator.le, a, b)) for a in row for b in row)


def dense_forward(rd, prune=False):
    """Every vector dominated by a marked predecessor, with the reference
    reconstruction and every test.  The table keeps them over ``ws.active``,
    as ``forward``'s does, each mark as (pointer, weight, small length) of
    the reference R(nu, j-1).  With ``prune``, each row keeps only its
    ``cut`` before the next row reads it, its maximal (Max-Min) or minimal
    (Min-Max) entries, so a mark points at the first kept predecessor that
    marks it."""
    ws = _Workspace(rd)
    n = rd.instance.n
    lo_bound, hi_bound = ws.denom - 3 * ws.unit, ws.denom + 3 * ws.unit
    windows = interval_masks(ws)

    def bundle_ok(value):
        return value >= lo_bound if ws.up else value <= hi_bound

    def dominated(nu):
        return itertools.product(*(range(c + 1) for c in nu))

    # rows[n] is row n+1: the instance's vector, which holds every item.
    rows = [dict() for _ in range(n)] + [{ws.nu_in: None}]
    for j in range(n, 0, -1):
        row = rows[j - 1]
        for nu_prev in sorted(rows[j]):
            before_mask, before_total = everything(ws) if j == n else linear_retrieve(ws, nu_prev, j)
            for nu in dominated(nu_prev):
                if nu in row:
                    continue
                after = linear_retrieve(ws, nu, j - 1)
                if (structure_ok(before_mask, after, windows[j - 1])
                        and bundle_ok(before_total - after[1])):
                    small = linear_small_prefix_len(ws, nu[0], ws.highs[j - 2]) if j > 1 else 0
                    row[nu] = (nu_prev, after[1], small)
        if prune:
            rows[j - 1] = cut(row, ws.up)

    def active(nu):
        return tuple(nu[c] for c in ws.active)

    marks = tuple({active(nu): (active(ptr), weight, small)
                   for nu, (ptr, weight, small) in row.items()} for row in rows[:n])
    return DPTable(ws.nu_in, marks, ws)


def check_forward(rd):
    """``forward``'s table against the dense enumeration; returns the table
    and the reference its pointers must match.

    Each row holds the cut of the dense row, its maximal (Max-Min) or
    minimal (Min-Max) vectors, and is an antichain.  Each mark points at the
    first kept predecessor that marks it and carries the reference
    reconstruction's weight and small length, and the success bit is the
    dense table's.  In Min-Max each kept mark also has the dense table's
    pointer, and ``backward`` reads the dense table's assignment."""
    up = rd.scheme.mode is Mode.MAXMIN
    table, dense = forward(rd), dense_forward(rd)
    kept = dense_forward(rd, prune=True)
    assert table.marks == kept.marks
    assert table.rows == kept.rows
    for row, dense_row in zip(table.rows, dense.rows):
        assert row.keys() == cut(dense_row, up).keys()
        assert is_antichain(row)
        if not up:
            assert row == {nu: dense_row[nu] for nu in row}
    assert table.succeeded == dense.succeeded
    if table.succeeded and not up:
        assert backward(table, rd) == backward(dense, rd)
    return table, kept


def guess_instances(mode, k):
    """Seeded rounded instances at a few guesses around total/n."""
    out = []
    for seed in range(10):
        n = 1 + seed % 5
        inst = gen_inclusion_free(seed, n, 4 * n + seed % 4, mode=mode)
        base = inst.total_value() / n
        if mode is Mode.MINMAX:
            base = max(base, max(it.value for it in inst.items))
        for factor in (Fraction(1, 2), Fraction(1), Fraction(5, 4)):
            scaled = scale(inst, base * factor)
            if scaled is not None:
                out.append(rounded(scaled, k))
    if mode is Mode.MINMAX:
        # Every item small: the DP runs on coordinate 0 alone.
        values = [Fraction(1, 8 + i % 5) for i in range(16)]
        out.append(rounded(ConvexInstance(mode, make_items(values), (
            Agent("p1", 1, 6), Agent("p2", 5, 11), Agent("p3", 10, 16))), k))
    elif k == 4:
        # Every big category occupied: q_1 .. q_6 exactly, and 1 rounds up
        # to q_7.
        sch = scheme(4, mode)
        g = sch.grid
        values = [g[0], Fraction(1, 5), g[1], g[2], Fraction(1, 6),
                  g[3], g[4], g[5], Fraction(1, 7), Fraction(1)]
        out.append(rounded(ConvexInstance(mode, make_items(values), (
            Agent("p1", 1, 4), Agent("p2", 3, 7), Agent("p3", 6, 10))), k))
    return out


def make_items(values):
    return tuple(Item(f"x{i}", v) for i, v in enumerate(values, start=1))


@pytest.mark.parametrize("k", [4, 8])
@pytest.mark.parametrize("mode", [Mode.MAXMIN, Mode.MINMAX])
def test_forward_matches_dense_enumeration(mode, k):
    cases = guess_instances(mode, k)
    assert any(rd.instance.n == 1 for rd in cases)
    widths = {len(_Workspace(rd).active) for rd in cases}
    if mode is Mode.MINMAX:
        assert 1 in widths
    elif k == 4:
        assert scheme(k, mode).C + 1 in widths
    marked = 0
    succeeded = []
    for rd in cases:
        assert _Workspace(rd).nu_in == input_vector(rd, all_items(rd))
        pruned, dense = check_forward(rd)
        assert trace_lines(pruned) == trace_lines(dense)
        if pruned.succeeded:
            # the reference table's pointers give the same bundles
            assert backward(dense, rd) == backward(pruned, rd)
        marked += sum(len(row) for row in pruned.rows)
        succeeded.append(pruned.succeeded)
    assert marked > 0
    assert any(succeeded) and not all(succeeded)


def test_forward_matches_dense_with_an_empty_window():
    # Position 3 lies in neither interval, so agent 2's window for its big
    # category is empty: the remainder cannot keep the item (it would be
    # stranded) and the bundle cannot take it.  Validation rejects such an
    # instance, but the windows still leave out only vectors the checks
    # reject.
    inst = ConvexInstance(Mode.MAXMIN,
                          tuple(Item(f"x{i}", v) for i, v in enumerate(
                              [Fraction(1, 2), Fraction(1, 2), Fraction(1, 2),
                               Fraction(1, 2), Fraction(1, 2)], start=1)),
                          (Agent("p1", 1, 2), Agent("p2", 4, 5)))
    rd = rounded(inst, 4)
    ws = _Workspace(rd)
    assert list(itertools.product(*ws.windows(ws.nu_active, len(ws.small_positions), 2))) == []
    assert forward(rd).rows == dense_forward(rd).rows


@pytest.mark.parametrize("k", [4, 8])
@pytest.mark.parametrize("mode", [Mode.MAXMIN, Mode.MINMAX])
def test_windows_imply_the_structural_tests(mode, k):
    # forward tests its candidates against the value bound alone; every
    # candidate of every marked predecessor passes the other three tests
    # (the module docstring's (i) to (iii)).
    candidates = 0
    for rd in guess_instances(mode, k):
        ws = _Workspace(rd)
        n = rd.instance.n
        windows = interval_masks(ws)
        # marked[j] holds row j+1; row n+1 is the instance's vector.
        marked = list(forward(rd).rows) + [{ws.nu_in: None}]
        for j in range(n, 0, -1):
            for nu_prev in marked[j]:
                before = everything(ws) if j == n else linear_retrieve(ws, nu_prev, j)
                assert before is not None
                active = tuple(nu_prev[c] for c in ws.active)
                before_small = linear_small_prefix_len(ws, active[0], ws.highs[j - 1])
                for nu in itertools.product(*ws.windows(active, before_small, j)):
                    after = linear_retrieve(ws, ws.expand(nu), j - 1)
                    assert structure_ok(before[0], after, windows[j - 1])
                    candidates += 1
    assert candidates > 0


@pytest.mark.parametrize("mode", [Mode.MAXMIN, Mode.MINMAX])
@pytest.mark.parametrize("agents, m", [
    ((Agent("p1", 1, 1), Agent("p2", 2, 2)), 3),  # item 3 lies in no interval
    ((Agent("p1", 1, 4), Agent("p2", 2, 3)), 4),  # [2,3] lies inside [1,4]
    ((Agent("p1", 2, 2), Agent("p2", 3, 3)), 3),  # item 1 lies in no interval
])
def test_dp_rejects_instances_the_windows_do_not_cover(mode, agents, m):
    inst = ConvexInstance(mode, make_items([Fraction(1, 2)] * m), agents)
    rd = rounded(scale(inst, Fraction(1)), 4)
    for run in (lambda: forward(rd),
                lambda: retrieve(rd, rd.scheme.zero_vector(), 0),
                lambda: decide(inst, Fraction(1), 4)):
        with pytest.raises(ValueError, match="inclusion-free"):
            run()
    with pytest.raises(SolveError):
        (solve_maxmin if mode is Mode.MAXMIN else solve_minmax)(inst, 4)


def drawn_rounded(seed, mode, k, shape, factor):
    n, m = shape
    inst = gen_inclusion_free(seed, n, m, mode=mode)
    base = inst.total_value() / n
    if mode is Mode.MINMAX:
        base = max(base, max(it.value for it in inst.items))
    scaled = scale(inst, base * factor)
    return rounded(scaled if scaled is not None else scale(inst, base), k)  # Min-Max: p_j > t


def drawn(test):
    """Derandomized: every run draws the same examples and stores none."""
    return settings(derandomize=True, database=None, deadline=None)(given(
        seed=st.integers(0, 2 ** 16), mode=st.sampled_from(Mode), k=st.sampled_from([4, 6, 8]),
        shape=st.integers(1, 5).flatmap(lambda n: st.tuples(st.just(n), st.integers(n, 4 * n + 3))),
        factor=st.sampled_from([Fraction(1, 2), Fraction(3, 4), Fraction(1), Fraction(5, 4)]),
    )(test))


@drawn
def test_forward_matches_dense_on_drawn_instances(seed, mode, k, shape, factor):
    check_forward(drawn_rounded(seed, mode, k, shape, factor))


def check_carried_weights(rd):
    """Every mark's carried (weight, small length) and ``remainder`` are
    those of its reference reconstruction, ``remainder`` matches the
    reference on every nu <= nu_in at every j when there are at most 10,000
    such pairs, and the small_len table cut at small_cap is the sweep's
    prefix length; returns the number of marks checked."""
    ws = _Workspace(rd)
    n = rd.instance.n
    for j in range(n + 1):
        for nu0 in range(ws.nu_in[0] + 1):
            expected = linear_small_prefix_len(ws, nu0, ws.highs[j - 1]) if j else 0
            assert min(ws.small_len[nu0], ws.small_cap(j)) == expected
    if math.prod(c + 1 for c in ws.nu_in) * (n + 1) <= 10_000:
        for nu in itertools.product(*(range(c + 1) for c in ws.nu_in)):
            for j in range(n + 1):
                assert remainder_items(ws, nu, j) == mask_items(linear_mask(ws, nu, j))
    marks_seen = 0
    for j, row in zip(range(n, 0, -1), _mark_rows(ws)):
        for nu, (_, weight, length) in row.items():
            full = ws.expand(nu)
            assert weight == linear_retrieve(ws, full, j - 1)[1]
            assert (remainder_items(ws, full, j - 1)
                    == mask_items(linear_mask(ws, full, j - 1)))
            assert length == (linear_small_prefix_len(ws, nu[0], ws.highs[j - 2]) if j > 1 else 0)
        marks_seen += len(row)
    return marks_seen


@pytest.mark.parametrize("k", [4, 8])
@pytest.mark.parametrize("mode", [Mode.MAXMIN, Mode.MINMAX])
def test_carried_weights_are_the_reconstructions(mode, k):
    assert sum(check_carried_weights(rd) for rd in guess_instances(mode, k)) > 0


@drawn
def test_carried_weights_on_drawn_instances(seed, mode, k, shape, factor):
    check_carried_weights(drawn_rounded(seed, mode, k, shape, factor))


@drawn
def test_all_small_marks_on_drawn_instances(seed, mode, k, shape, factor):
    # A guess of at least k * v_max leaves every item small: the DP runs on
    # nu_0 alone and builds no big range.  Marks and pointers are the dense
    # enumeration's, cut: each row keeps one nu_0, its largest (Max-Min) or
    # its least (Min-Max).  Carried weights are the reference
    # reconstruction's.
    n, m = shape
    inst = gen_inclusion_free(seed, n, m, mode=mode)
    t = max(k * max(it.value for it in inst.items), inst.total_value() / n * factor)
    rd = rounded(scale(inst, t), k)
    assert _Workspace(rd).active == (0,)
    table, _ = check_forward(rd)
    assert all(len(row) <= 1 for row in table.marks)
    check_carried_weights(rd)


@pytest.mark.parametrize("mode", [Mode.MAXMIN, Mode.MINMAX])
def test_row_one_points_at_the_first_predecessor_that_admits_zero(mode):
    # Row 1 is marked in closed form: the zero vector, pointing at the first
    # sorted row-2 mark whose budget admits a remainder of weight 0.  On
    # some cases that is past the first row-2 mark; there too the pointer
    # is the dense enumeration's (in Max-Min, that of the enumeration that
    # keeps each row's maximal vectors).
    cases = [drawn_rounded(seed, mode, k, (2 + seed % 4, 2 * (2 + seed % 4) + seed % 5), factor)
             for seed in range(24) for k in (4, 6, 8)
             for factor in (Fraction(1, 2), Fraction(3, 4), Fraction(1), Fraction(5, 4))]
    if mode is Mode.MAXMIN:
        # Over the sweep a Max-Min row 2, cut to its maximal vectors, has
        # no late case, so this one is built.  At k = 8 the values round
        # up to about 0.361, 0.578 and 0.200, and the bar is 5/8.  Row 2
        # keeps two remainders, the 0.578 item (agent 2 takes the rest) and
        # the two 0.361 items (agent 2 takes 0.778), in that order.  Only
        # the second leaves agent 1 enough.
        cases.append(rounded(ConvexInstance(mode, make_items(
            [Fraction(7, 20), Fraction(7, 20), Fraction(11, 20), Fraction(1, 5)]),
            (Agent("p1", 1, 3), Agent("p2", 1, 4))), 8))
    late = 0
    for rd in cases:
        ws = _Workspace(rd)
        rows = list(_mark_rows(ws))
        check_forward(rd)
        bound = ws.denom + (-BUNDLE_MARGIN if ws.up else BUNDLE_MARGIN) * ws.unit
        admits = [nu for nu, (_, weight, _) in sorted(rows[-2].items())
                  if (weight >= bound if ws.up else weight <= bound)]
        if not admits:
            assert rows[-1] == {}
            continue
        assert rows[-1] == {(0,) * len(ws.active): (admits[0], 0, 0)}
        late += admits[0] != min(rows[-2])
    assert late > 0


def counting_candidates(monkeypatch):
    """Count the candidates ``_mark_rows`` walks, each tested once for
    membership in its row: in Min-Max the product of each box's ranges, and
    in Max-Min each box's frontier.  Returns the tally and, for each row
    built from boxes (rows n..2 in order), the vectors tested."""
    tally, tested = [0], []

    class Row(dict):
        def __init__(self):
            super().__init__()
            tested.append([])

        def __contains__(self, nu):
            tally[0] += 1
            tested[-1].append(nu)
            return super().__contains__(nu)
    monkeypatch.setattr(dp_engine, "dict", Row, raising=False)
    return tally, tested


def check_tested_candidates_pass(ws, rows, tested):
    """Every vector a Max-Min row n..2 tested lies in the box of some
    predecessor (a kept mark of the row above) and passes that
    predecessor's value test, its reference remainder weighing at most the
    predecessor's budget.  Returns the number of vectors checked."""
    bound = ws.denom - BUNDLE_MARGIN * ws.unit
    above = {ws.nu_active: (None, sum(ws.weight), len(ws.small_positions))}
    checked = 0
    for j, row, vectors in zip(range(len(ws.order), 1, -1), rows, tested):
        boxes = [(set(itertools.product(*ws.windows(nu_prev, before_small, j))), before - bound)
                 for nu_prev, (_, before, before_small) in above.items()]
        for nu in vectors:
            weight = linear_retrieve(ws, ws.expand(nu), j - 1)[1]
            assert any(nu in box and weight <= limit for box, limit in boxes)
        checked += len(vectors)
        above = row
    return checked


def full_boxes(ws, rows):
    """The candidates of every predecessor's whole box, summed over rows
    n..2, and the distinct candidates of each row, summed the same way.
    Row 1 enumerates nothing: its one candidate, the zero vector, is marked
    in closed form."""
    total = distinct = 0
    above = {ws.nu_active: (None, sum(ws.weight), len(ws.small_positions))}
    for j, row in zip(range(len(ws.order), 1, -1), rows):
        boxes = [list(itertools.product(*ws.windows(nu_prev, before_small, j)))
                 for nu_prev, (_, _, before_small) in above.items()]
        total += sum(map(len, boxes))
        distinct += len(set().union(*boxes))
        above = row
    return total, distinct


def equal_big_pairs(ws, rows):
    """Consecutive sorted predecessors with equal big coordinates, over rows
    n..1 given as ``_mark_rows`` yields them: each as (the row j they mark
    into, the earlier one and its carried (weight, small length), the later
    one and its, the small cap of row j+1)."""
    pairs = []
    above = {ws.nu_active: (None, sum(ws.weight), len(ws.small_positions))}
    for j, row in zip(range(len(ws.order), 0, -1), rows):
        ordered = sorted(above)
        for a, b in zip(ordered, ordered[1:]):
            if a[1:] == b[1:]:
                pairs.append((j, (a, *above[a][1:]), (b, *above[b][1:]), ws.small_cap(j)))
        above = row
    return pairs


def marked_by(ws, j, nu_prev, before, before_small):
    """The candidates of row j that the predecessor nu_prev marks, given the
    weight and small length of its remainder: its box, by the reference
    reconstruction and the value test."""
    bound = ws.denom + (-BUNDLE_MARGIN if ws.up else BUNDLE_MARGIN) * ws.unit
    out = set()
    for nu in itertools.product(*ws.windows(nu_prev, before_small, j)):
        taken = before - linear_retrieve(ws, ws.expand(nu), j - 1)[1]
        if (taken >= bound) if ws.up else (taken <= bound):
            out.add(nu)
    return out


@pytest.mark.parametrize("case, earlier_settles", [
    # Two dense marks u < v with equal big coordinates have u <= v.  In
    # Min-Max, u marks min(x, u) for every x that v marks (the dual lemma):
    # the earlier one settles the later one's box.
    ("minmax-all-small-k4", True),
    ("minmax-all-small-k8", True),
    ("minmax-seven-coordinates", True),
    # In Max-Min, v marks every x that u marks (the dominance lemma): with
    # budgets that shrink as nu_0 grows, and with a tie where the small
    # length saturates at the cap.
    ("maxmin-growing-budgets", False),
    ("maxmin-tie", False),
])
def test_skipped_candidates_were_settled(case, earlier_settles, monkeypatch):
    # The cut skips every mark that another one dominates, and the
    # dominating or dominated mark settles what it would mark: marks,
    # pointers, carried weights and small lengths are those of the dense
    # enumeration cut the same way and of the reference reconstruction.  A
    # cut row holds no two predecessors with equal big coordinates, so no
    # box repeats a part of the one sorted before it.  A Max-Min box yields
    # its frontier alone, fewer candidates than the boxes hold; a Min-Max
    # box walks each of its candidates once, or none on nu_0 alone.
    rd = {
        "minmax-all-small-k4": lambda: guess_instances(Mode.MINMAX, 4)[-1],
        "minmax-all-small-k8": lambda: guess_instances(Mode.MINMAX, 8)[-1],
        "minmax-seven-coordinates": lambda: drawn_rounded(3, Mode.MINMAX, 6, (5, 8), 1),
        "maxmin-growing-budgets": lambda: drawn_rounded(55, Mode.MAXMIN, 6, (5, 22), Fraction(5, 4)),
        "maxmin-tie": lambda: drawn_rounded(1, Mode.MAXMIN, 4, (3, 4), 1),
    }[case]()
    ws = _Workspace(rd)
    assert earlier_settles is not ws.up
    tally, tested = counting_candidates(monkeypatch)
    rows = list(_mark_rows(ws))
    total, distinct = full_boxes(ws, rows)
    if ws.up:
        assert tally[0] < total
        assert check_tested_candidates_pass(ws, rows, tested) == tally[0] > 0
    elif len(ws.active) == 1:
        # On nu_0 alone a Min-Max row is one mark, found by bisection: the
        # rows walk no candidate at all.
        assert tally[0] == 0 < sum(map(len, rows[:-1])) <= distinct
    else:
        assert tally[0] == total > 0
    n = rd.instance.n
    _, reference = check_forward(rd)
    for j, row in zip(range(n, 0, -1), rows):
        assert ({ws.expand(nu): ws.expand(mark[0]) for nu, mark in row.items()}
                == reference.rows[j - 1])
    assert check_carried_weights(rd) > 0
    assert equal_big_pairs(ws, rows) == []
    pairs = equal_big_pairs(ws, dense_forward(rd).marks[::-1])
    assert pairs
    for j, (u, *carried_u), (v, *carried_v), _ in pairs:
        by_u, by_v = marked_by(ws, j, u, *carried_u), marked_by(ws, j, v, *carried_v)
        if earlier_settles:
            assert {tuple(map(min, x, u)) for x in by_v} <= by_u
        else:
            assert by_u <= by_v
    if case == "maxmin-growing-budgets":
        assert all(wu < wv for _, (_, wu, _), (_, wv, _), _ in pairs)
    if case == "maxmin-tie":
        assert any(wu == wv and lu == lv == cap for _, (_, wu, lu), (_, wv, lv), cap in pairs)


def test_maxmin_one_coordinate_runs_match_dense(monkeypatch):
    # Every value at most t/k: the DP runs on nu_0 alone.  A Max-Min row
    # keeps its largest nu_0 alone, the one maximal vector of the dense row,
    # so each row has one predecessor, and ``_run_rows`` writes down its
    # largest passing nu_0 by bisection: the rows walk no candidate, also
    # where a box holds more than one.  Marks, pointers and carried weights
    # are the dense enumeration's and the reference reconstruction's.
    tally, _ = counting_candidates(monkeypatch)
    wide = cases = cut = 0
    for seed in range(40):
        n = 2 + seed % 4
        inst = gen_inclusion_free(seed, n, 3 * n + seed % 7, mode=Mode.MAXMIN)
        for k in (4, 6, 8):
            base = max(k * max(it.value for it in inst.items), inst.total_value() / n)
            for factor in (1, Fraction(9, 8), Fraction(5, 4)):
                rd = rounded(scale(inst, base * factor), k)
                ws = _Workspace(rd)
                assert ws.active == (0,)
                rows = list(_mark_rows(ws))
                assert tally[0] == 0
                wide += full_boxes(ws, rows)[0] > n - 1
                assert all(len(row) <= 1 for row in rows)
                check_forward(rd)
                cut += any(len(row) > 1 for row in dense_forward(rd).rows)
                check_carried_weights(rd)
                cases += 1
    assert cases == 360 and wide > 0 and cut > 0


def minmax_all_small_cases():
    """A seeded Min-Max sweep at guesses of k * v_max and above, so every
    item is small and the DP runs on nu_0 alone: n = 1 to 5, some rows
    ending below the row above, some decides failing after row n marked,
    and one instance with an uncovered small item between two agents."""
    cases = []
    for seed in range(40):
        n = 1 + seed % 5
        inst = gen_inclusion_free(seed, n, 6 * n + seed % 7, (Fraction(1, 2), Fraction(1)),
                                  mode=Mode.MINMAX)
        v_max = max(it.value for it in inst.items)
        for k in (4, 6, 8):
            for factor in (1, Fraction(9, 8), Fraction(5, 4)):
                cases.append(rounded(scale(inst, k * v_max * factor), k))
    # Item 4 lies in no interval (validation rejects the instance; the DP
    # takes it): no bundle can hold it, so row 2 is empty, though agent 2's
    # bundle would pass the weight test.
    values = [Fraction(1, 9 + i % 4) for i in range(12)]
    cases.append(rounded(ConvexInstance(Mode.MINMAX, make_items(values), (
        Agent("p1", 1, 3), Agent("p2", 5, 8), Agent("p3", 7, 12))), 8))
    return cases


def test_minmax_one_coordinate_rows_match_dense():
    # Each row n..2 is written down as one mark from the one of the row
    # above it, by one bisection, with no candidate walked.  Marks,
    # pointers, carried weights and small lengths are the dense
    # enumeration's cut to its minimal vectors, and the reference
    # reconstruction's, also where a row empties partway and past an
    # uncovered item.  The pointers are the uncut dense table's too, and so
    # is the assignment.
    cases = minmax_all_small_cases()
    seen = {"n = 1": 0, "row empties partway": 0, "the cut drops a mark": 0, "succeeded": 0}
    for rd in cases:
        ws = _Workspace(rd)
        assert ws.active == (0,) and not ws.up
        table, kept = check_forward(rd)
        assert all(len(row) <= 1 for row in table.marks)
        assert trace_lines(table) == trace_lines(kept)
        check_carried_weights(rd)
        seen["n = 1"] += rd.instance.n == 1
        seen["row empties partway"] += bool(table.marks[-1]) and not table.succeeded
        seen["the cut drops a mark"] += any(len(row) > 1 for row in dense_forward(rd).marks)
        seen["succeeded"] += table.succeeded
    assert all(seen.values()), seen
    # the uncovered item: row 3 marks, row 2 is empty, and the weight test
    # alone would pass agent 2's bundle from row 3's lowest mark
    ws, table = _Workspace(cases[-1]), forward(cases[-1])
    assert table.marks[1] == {} and len(table.marks[2]) > 0
    a = min(table.marks[2])[0]
    taken = (min(ws.small_weight[a], ws.small_prefix[ws.small_cap(2)])
             - min(ws.small_weight[a], ws.small_prefix[ws.small_cap(1)]))
    assert taken <= ws.denom + BUNDLE_MARGIN * ws.unit


def test_minmax_one_coordinate_rows_are_intervals_in_the_dense_table():
    # On the dense enumeration's own table, each Min-Max row on nu_0 alone
    # is one contiguous run of nu_0, and each mark x points at max(x, a), a
    # being the lowest nu_0 of the row above (the instance's nu_0 for row
    # n).  So the cut keeps the run's lowest mark, which points at a: the
    # one mark ``_run_rows`` writes down.
    intervals = 0
    for rd in minmax_all_small_cases():
        dense = dense_forward(rd)
        above = [dense.nu_in[0]]
        for row in reversed(dense.marks):
            xs = sorted(x for x, in row)
            if xs:
                assert above and xs == list(range(xs[0], xs[-1] + 1))
                assert all(mark[0] == (max(x, above[0]),) for (x,), mark in row.items())
                intervals += len(xs) > 1
            above = xs
    assert intervals > 0


def test_golden_wide_decide_enumerates_few_repeats(monkeypatch):
    # The first decide of the golden Min-Max n=12, m=120 case, at t = L:
    # every item is small, and without the cut the rows enumerate 14.7
    # candidates per mark.  Each row n..2 is one mark, found by bisection:
    # the rows walk no candidate.  Each row is the minimal mark of the uncut
    # reference row, with its pointer, weight and small length, and
    # ``backward`` reads the same assignment off both tables.
    inst = gen_inclusion_free(3, 12, 120, mode=Mode.MINMAX)
    rd = rounded(scale(inst, hall_bound(inst)[0]), 8)
    ws = _Workspace(rd)
    assert len(ws.active) == 1
    tally, _ = counting_candidates(monkeypatch)
    assignment, table = solve_rounded(rd)
    assert assignment is not None and tally[0] == 0
    assert all(len(row) == 1 for row in table.marks)
    uncut = tuple(reference_minmax_rows(ws))[::-1]
    assert sum(map(len, uncut[1:])) > 10 * len(uncut[1:])
    assert list(table.marks) == [reference_minimal(row) for row in uncut]
    assert backward(DPTable(ws.nu_in, uncut, ws), rd) == assignment


def test_solve_rounded_builds_no_full_rows(monkeypatch):
    # Full vectors are built only when a caller reads the rows: an untraced
    # solve expands nothing but the workspace's own nu_in, and the first
    # read expands each distinct mark and pointer once.  Both states count:
    # this all-small solve runs on an _AllSmallWorkspace, as one of either
    # mode does.
    expanded = [0]
    expand = _Workspace.expand

    def counting_expand(self, nu):
        expanded[0] += 1
        return expand(self, nu)
    for state in (_Workspace, _AllSmallWorkspace):
        monkeypatch.setattr(state, "expand", counting_expand)
    inst = gen_inclusion_free(3, 12, 120, mode=Mode.MINMAX)
    rd = rounded(scale(inst, hall_bound(inst)[0]), 8)
    assignment, table = solve_rounded(rd)
    assert assignment is not None
    assert expanded[0] == 1
    assert "rows" not in vars(table)
    assert rd.scheme.zero_vector() in table.row(1)  # the first read builds them
    vectors = {v for row in table.marks for nu, mark in row.items() for v in (nu, mark[0])}
    assert "rows" in vars(table) and expanded[0] == 1 + len(vectors) > 1


@drawn
def test_backward_bundles_are_reference_differences(seed, mode, k, shape, factor):
    # Agent j's bundle is the reference R(chain[j], j) minus R(chain[j-1], j-1)
    # along the pointer chain, and the bundles partition the items.
    rd = drawn_rounded(seed, mode, k, shape, factor)
    assignment, table = solve_rounded(rd)
    if assignment is None:
        return
    ws = _Workspace(rd)
    chain = [rd.scheme.zero_vector()]
    for j in range(1, rd.instance.n + 1):
        chain.append(table.row(j)[chain[-1]])
    position = {it.id: p for p, it in enumerate(rd.instance.items, start=1)}
    bundles = {aid: [position[i] for i in ids] for aid, ids in assignment.bundles}
    for j in range(1, rd.instance.n + 1):
        expected = (mask_items(linear_mask(ws, chain[j], j))
                    - mask_items(linear_mask(ws, chain[j - 1], j - 1)))
        assert set(bundles[rd.instance.agents[ws.order[j - 1]].id]) == expected
    assert sorted(p for bundle in bundles.values() for p in bundle) == list(all_items(rd))


def test_small_prefix_len_matches_linear_walk(e1):
    rd = rounded(e1, 10)
    ws = _Workspace(rd)
    for nu0 in range(ws.nu_in[0] + 1):
        for j in range(rd.instance.n + 1):
            expected = linear_small_prefix_len(ws, nu0, ws.highs[j - 1]) if j else 0
            assert min(ws.small_len[nu0], ws.small_cap(j)) == expected


def test_retrieve_matches_linear_reconstruction(e1):
    rd = rounded(e1, 10)
    ws = _Workspace(rd)
    # vectors outside nu <= nu_in: test_retrieve_rejects_oversized_vectors
    for a0, a10 in itertools.product(range(ws.nu_in[0] + 1), range(ws.nu_in[10] + 1)):
        nu = vec(rd.scheme, a0, **{"10": a10})
        for j in range(rd.instance.n + 1):
            assert remainder_items(ws, nu, j) == mask_items(linear_mask(ws, nu, j))


def depth_instance(mode, width, depth, values):
    """Fixed-width intervals of overlap depth ``depth``: agent j covers
    [1 + width (j - 1), min(m, width (j - 1) + width depth)], with m =
    width n for the n = len(values) // width agents."""
    n = len(values) // width
    m = width * n
    agents = tuple(Agent(f"p{j}", 1 + width * (j - 1), min(m, width * (j - 1 + depth)))
                   for j in range(1, n + 1))
    return ConvexInstance(mode, make_items(values[:m]), agents)


@settings(derandomize=True, database=None, deadline=None)
@given(mode=st.sampled_from(Mode), k=st.sampled_from([4, 6, 8]),
       width=st.integers(2, 3), depth=st.integers(2, 3), n=st.integers(2, 5),
       data=st.data(), factor=st.sampled_from([Fraction(3, 4), Fraction(1), Fraction(5, 4)]))
def test_forward_matches_dense_at_overlap_depth(mode, k, width, depth, n, data, factor):
    # Overlapping intervals give the dense rows many marks, most of them
    # dominated in Max-Min.  Values in (0, 1] with denominators up to 12.
    values = data.draw(st.lists(
        st.integers(1, 12).flatmap(lambda q: st.integers(1, q).map(lambda p: Fraction(p, q))),
        min_size=width * n, max_size=width * n))
    inst = depth_instance(mode, width, depth, values)
    base = inst.total_value() / n
    if mode is Mode.MINMAX:
        base = max(base, max(values))
    rd = rounded(scale(inst, base * factor) or scale(inst, base), k)
    table, reference = check_forward(rd)
    if table.succeeded:
        assert backward(table, rd) == backward(reference, rd)


@settings(derandomize=True, database=None, deadline=None)
@given(k=st.sampled_from([4, 6, 8]), width=st.integers(2, 3), depth=st.integers(2, 4),
       n=st.integers(2, 5), data=st.data(), small=st.booleans(),
       factor=st.sampled_from([Fraction(3, 4), Fraction(1), Fraction(5, 4)]))
def test_frontier_rows_match_the_box_scan(k, width, depth, n, data, small, factor):
    # Each Max-Min box yields its frontier alone; the rows, cut to their
    # maximal vectors, are the box scan's: marks, pointers, carried weights
    # and small lengths, in order.  On overlapping intervals the boxes are
    # wide.  A guess of at least k * v_max leaves the DP on nu_0 alone,
    # where ``_run_rows`` finds each row's one mark by bisection instead.
    values = data.draw(st.lists(
        st.integers(1, 12).flatmap(lambda q: st.integers(1, q).map(lambda p: Fraction(p, q))),
        min_size=width * n, max_size=width * n))
    inst = depth_instance(Mode.MAXMIN, width, depth, values)
    base = inst.total_value() / n * factor
    if small:
        base = max(base, k * max(values))
    ws = _Workspace(rounded(scale(inst, base), k))
    if small:
        assert ws.active == (0,)
    assert ([list(row.items()) for row in _mark_rows(ws)]
            == [list(row.items()) for row in reference_maxmin_rows(ws)])


@settings(derandomize=True, database=None, deadline=None)
@given(width=st.integers(1, 5), top=st.integers(0, 6), data=st.data())
def test_cut_matches_the_pairwise_reference(width, top, data):
    # The bitset cut keeps the marks the pairwise walk keeps, in the same
    # ascending lexicographic order, in both directions: on drawn rows, and
    # on rows of no mark and of one, which are their own cut.
    vectors = data.draw(st.lists(st.tuples(*[st.integers(0, top)] * width),
                                 max_size=60, unique=True))
    row = {nu: (nu[::-1], i, i) for i, nu in enumerate(vectors)}
    for up, reference in ((True, reference_maximal), (False, reference_minimal)):
        assert list(_cut(dict(row), up).items()) == list(reference(row).items())
        assert _cut({}, up) == {}
        for nu, mark in row.items():
            assert _cut({nu: mark}, up) == {nu: mark}


@settings(derandomize=True, database=None, deadline=None)
@given(k=st.sampled_from([4, 6, 8]), width=st.integers(2, 3), depth=st.integers(2, 4),
       n=st.integers(2, 5), data=st.data(), small=st.booleans(),
       factor=st.sampled_from([Fraction(3, 4), Fraction(1), Fraction(5, 4)]))
def test_minmax_rows_are_antichains_at_overlap_depth(k, width, depth, n, data, small, factor):
    # On overlapping intervals the uncut Min-Max rows hold many comparable
    # marks.  Each row the DP keeps is an antichain: the minimal marks of
    # the uncut reference row, with their pointers, carried weights and
    # small lengths.  ``backward`` reads the same assignment off both
    # tables.  A guess of at least k * v_max leaves the DP on nu_0 alone.
    values = data.draw(st.lists(
        st.integers(1, 12).flatmap(lambda q: st.integers(1, q).map(lambda p: Fraction(p, q))),
        min_size=width * n, max_size=width * n))
    inst = depth_instance(Mode.MINMAX, width, depth, values)
    base = max(inst.total_value() / n, max(values))
    if small:
        base = max(base, k * max(values))
    rd = rounded(scale(inst, base * factor) or scale(inst, base), k)
    ws = _Workspace(rd)
    table = forward(rd)
    assert all(map(is_antichain, table.marks))
    uncut = tuple(reference_minmax_rows(ws))[::-1]
    assert list(table.marks) == [reference_minimal(row) for row in uncut]
    full = DPTable(ws.nu_in, uncut, ws)
    assert table.succeeded == full.succeeded
    if table.succeeded:
        assert backward(table, rd) == backward(full, rd)
