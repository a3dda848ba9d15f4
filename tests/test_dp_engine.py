"""Reconstruction, feasibility, and the forward/backward dynamic program."""

import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convalloc import (Agent, ConvexInstance, Item, Mode, SolveError, backward,
                       decide, dp_engine, forward, gen_inclusion_free, retrieve,
                       round_instance, scale, scheme, solve_maxmin,
                       solve_minmax, solve_rounded, verify)
from convalloc.dp_engine import (BUNDLE_MARGIN, DPTable, _mark_rows, _Workspace,
                                 trace_lines)
from convalloc.hall import minmax_lower_bound
from convalloc.instance_model import lexicographic_order
from convalloc.rounding import input_vector


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


def dense_forward(rd):
    """Every vector dominated by a marked predecessor, with the reference
    reconstruction and every test; the new forward must mark the same rows."""
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
                    row[nu] = nu_prev
    return DPTable(ws.nu_in, tuple(rows[:n]))


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
        pruned, dense = forward(rd), dense_forward(rd)
        assert pruned.rows == dense.rows
        assert trace_lines(pruned) == trace_lines(dense)
        if pruned.succeeded:
            # a table of full rows, built without forward, gives the same bundles
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
    rd = drawn_rounded(seed, mode, k, shape, factor)
    assert forward(rd).rows == dense_forward(rd).rows


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


def counting_product(monkeypatch):
    """Count the candidates ``_mark_rows`` enumerates; returns the tally."""
    tally = [0]

    def product(*ranges):
        for nu in itertools.product(*ranges):
            tally[0] += 1
            yield nu
    monkeypatch.setattr(dp_engine, "product", product)
    return tally


def full_boxes(ws, rows):
    """The candidates of every predecessor's whole box, summed over the
    rows, and the distinct candidates of each row, summed the same way."""
    total = distinct = 0
    above = {ws.nu_active: (None, sum(ws.weight), len(ws.small_positions))}
    for j, row in zip(range(len(ws.order), 0, -1), rows):
        boxes = [list(itertools.product(*ws.windows(nu_prev, before_small, j)))
                 for nu_prev, (_, _, before_small) in above.items()]
        total += sum(map(len, boxes))
        distinct += len(set().union(*boxes))
        above = row
    return total, distinct


@pytest.mark.parametrize("case, skips", [
    # Min-Max budgets grow with nu_0: the skip holds for every pair of
    # predecessors with equal big coordinates.
    ("minmax-all-small-k4", True),
    ("minmax-all-small-k8", True),
    ("minmax-seven-coordinates", True),
    # Max-Min budgets shrink as nu_0 grows; none of these tie.
    ("maxmin-growing-budgets", False),
    # The small length saturates at the cap, so two predecessors tie.
    ("maxmin-tie", True),
])
def test_skipped_candidates_were_settled(case, skips, monkeypatch):
    # Cutting a box's coordinate-0 range below the previous predecessor's
    # nu_0 leaves marks, pointers, carried weights and small lengths as the
    # dense enumeration and the reference reconstruction give them.
    rd = {
        "minmax-all-small-k4": lambda: guess_instances(Mode.MINMAX, 4)[-1],
        "minmax-all-small-k8": lambda: guess_instances(Mode.MINMAX, 8)[-1],
        "minmax-seven-coordinates": lambda: drawn_rounded(3, Mode.MINMAX, 6, (5, 8), 1),
        "maxmin-growing-budgets": lambda: drawn_rounded(55, Mode.MAXMIN, 6, (5, 22), Fraction(5, 4)),
        "maxmin-tie": lambda: drawn_rounded(1, Mode.MAXMIN, 4, (3, 4), 1),
    }[case]()
    ws = _Workspace(rd)
    tally = counting_product(monkeypatch)
    rows = list(_mark_rows(ws))
    total, distinct = full_boxes(ws, rows)
    assert (tally[0] < total) is skips
    if len(ws.active) == 1 and not ws.up:
        # On nu_0 alone every Min-Max box starts past the previous one.
        assert tally[0] == distinct
    n = rd.instance.n
    dense = dense_forward(rd).rows
    for j, row in zip(range(n, 0, -1), rows):
        assert {ws.expand(nu): ws.expand(mark[0]) for nu, mark in row.items()} == dense[j - 1]
    assert check_carried_weights(rd) > 0
    # The pairs the skip compares: consecutive sorted predecessors with equal
    # big coordinates, and how their carried weights and small lengths relate.
    pairs = []
    above = {ws.nu_active: (None, sum(ws.weight), len(ws.small_positions))}
    for j, row in zip(range(n, 0, -1), rows):
        ordered = sorted(above)
        for a, b in zip(ordered, ordered[1:]):
            if a[1:] == b[1:]:
                pairs.append((above[a][1:], above[b][1:], ws.small_cap(j)))
        above = row
    assert pairs
    if case == "maxmin-growing-budgets":
        assert all(wa < wb for (wa, _), (wb, _), _ in pairs)
    if case == "maxmin-tie":
        assert any(wa == wb and la == lb == cap for (wa, la), (wb, lb), cap in pairs)


def test_golden_wide_decide_enumerates_few_repeats(monkeypatch):
    # The first decide of the golden Min-Max n=12, m=120 case, at t = L:
    # every item is small, and without the skip the rows enumerate 14.7
    # candidates per mark.
    inst = gen_inclusion_free(3, 12, 120, mode=Mode.MINMAX)
    rd = rounded(scale(inst, minmax_lower_bound(inst)), 8)
    assert len(_Workspace(rd).active) == 1
    tally = counting_product(monkeypatch)
    table = forward(rd)
    marks = sum(map(len, table.marks))
    assert table.succeeded and 0 < tally[0] <= 2 * marks


def test_solve_rounded_builds_no_full_rows(monkeypatch):
    # Full vectors are built only when a caller reads the rows: an untraced
    # solve expands nothing but the workspace's own nu_in.
    expanded = [0]
    expand = _Workspace.expand

    def counting_expand(self, nu):
        expanded[0] += 1
        return expand(self, nu)
    monkeypatch.setattr(_Workspace, "expand", counting_expand)
    inst = gen_inclusion_free(3, 12, 120, mode=Mode.MINMAX)
    rd = rounded(scale(inst, minmax_lower_bound(inst)), 8)
    assignment, table = solve_rounded(rd)
    assert assignment is not None
    assert expanded[0] <= rd.instance.n + 1
    assert "rows" not in vars(table)
    assert rd.scheme.zero_vector() in table.row(1)  # the first read builds them
    assert "rows" in vars(table) and expanded[0] > rd.instance.n + 1


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
