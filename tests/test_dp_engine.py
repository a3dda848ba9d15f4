"""Reconstruction, feasibility, and the forward/backward dynamic program."""

import itertools
from fractions import Fraction

import pytest

from convalloc import (Agent, ConvexInstance, Item, Mode, backward,
                       feasible, forward, gen_inclusion_free, retrieve,
                       round_instance, scale, scheme, solve_rounded,
                       vector_leq, verify)
from convalloc.dp_engine import DPTable, _Workspace, trace_lines
from convalloc.instance_model import full_subgraph, lexicographic_order
from convalloc.rounding import direction_for, input_vector


def rounded(instance, k):
    return round_instance(instance, scheme(k, direction_for(instance.mode)))


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
    assert sorted(sub.items) == [1, 2, 3, 4, 5, 6, 7]   # s1 s2 c1..c5


def test_retrieve_identity(e1):
    rd = rounded(e1, 10)
    nu_in = input_vector(full_subgraph(rd.instance), rd.scheme)
    sub = retrieve(rd, nu_in, 3)
    assert sub.items == frozenset(range(1, 22))


def test_retrieve_stranded_big_items(e1):
    rd = rounded(e1, 10)
    # four squares force s3 and s4, which lie beyond p1's interval
    assert retrieve(rd, vec(rd.scheme, 5, **{"10": 4}), 1) is None


def test_retrieve_zero_agents(e1):
    rd = rounded(e1, 10)
    assert retrieve(rd, vec(rd.scheme, 0), 0).items == frozenset()
    assert retrieve(rd, vec(rd.scheme, 1), 0) is None


def test_retrieve_rejects_oversized_vectors(e1):
    rd = rounded(e1, 10)
    with pytest.raises(ValueError):
        retrieve(rd, vec(rd.scheme, 99), 1)


def test_feasible(e1, e1_assignment_1):
    rd = rounded(e1, 10)
    sub = retrieve(rd, input_vector(full_subgraph(rd.instance), rd.scheme), 3)
    bundle = frozenset(e1.item_index(x) for x in e1_assignment_1.bundle_map()["p1"])
    assert feasible(sub, bundle, e1.agents[0], rd.scheme)
    assert not feasible(sub, frozenset({8}), e1.agents[0], rd.scheme)  # c6 is outside
    assert not feasible(None, bundle, e1.agents[0], rd.scheme)
    assert not feasible(sub, frozenset({3}), e1.agents[0], rd.scheme)  # one circle is short


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
    nu_in = input_vector(full_subgraph(rd.instance), rd.scheme)
    vectors = [v for v in itertools.product(range(nu_in[0] + 1), range(nu_in[10] + 1))]
    for (a0, a1) in vectors:
        for (b0, b1) in vectors:
            nu_a = vec(rd.scheme, a0, **{"10": a1})
            nu_b = vec(rd.scheme, b0, **{"10": b1})
            if not vector_leq(nu_a, nu_b):
                continue
            for j in (1, 2, 3):
                sub_a = retrieve(rd, nu_a, j)
                sub_b = retrieve(rd, nu_b, j)
                if sub_a is not None and sub_b is not None:
                    assert sub_a.items <= sub_b.items


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
        before = (retrieve(rd, chain[j], j) if j < rd.instance.n
                  else full_subgraph(rd.instance))
        assert feasible(before, frozenset(positions[order[j - 1]]), agent, rd.scheme)
        survivors -= set(positions[order[j - 1]])
    assert not survivors


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


def dense_forward(rd):
    """Every vector dominated by a marked predecessor, with the reference
    reconstruction; the new forward must mark the same rows."""
    ws = _Workspace(rd)
    n = rd.instance.n
    lo_bound, hi_bound = ws.denom - 3 * ws.unit, ws.denom + 3 * ws.unit

    def bundle_ok(value):
        return value >= lo_bound if ws.up else value <= hi_bound

    def dominated(nu):
        return itertools.product(*(range(c + 1) for c in nu))

    rows = [dict() for _ in range(n)]
    for nu in dominated(ws.nu_in):
        hit = linear_retrieve(ws, nu, n - 1)
        if hit is None:
            continue
        mask, total = hit
        if ws.full_mask & ~mask & ~ws.window_mask[n - 1]:
            continue
        if bundle_ok(ws.total - total):
            rows[n - 1][nu] = ws.nu_in
    for j in range(n - 1, 0, -1):
        row = rows[j - 1]
        for nu_prev in sorted(rows[j]):
            before_mask, before_total = linear_retrieve(ws, nu_prev, j)
            for nu in dominated(nu_prev):
                if nu in row:
                    continue
                after = linear_retrieve(ws, nu, j - 1)
                if after is None:
                    continue
                after_mask, after_total = after
                if after_mask & ~before_mask or before_mask & ~after_mask & ~ws.window_mask[j - 1]:
                    continue
                if bundle_ok(before_total - after_total):
                    row[nu] = nu_prev
    return DPTable(ws.nu_in, tuple(rows))


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
    return out


@pytest.mark.parametrize("k", [4, 8])
@pytest.mark.parametrize("mode", [Mode.MAXMIN, Mode.MINMAX])
def test_forward_matches_dense_enumeration(mode, k):
    cases = guess_instances(mode, k)
    assert any(rd.instance.n == 1 for rd in cases)
    marked = 0
    succeeded = []
    for rd in cases:
        pruned, dense = forward(rd), dense_forward(rd)
        assert pruned.rows == dense.rows
        assert trace_lines(pruned) == trace_lines(dense)
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
    assert list(ws.candidates(ws.nu_in, len(ws.small_positions), 2)) == []
    assert forward(rd).rows == dense_forward(rd).rows


def test_small_prefix_len_matches_linear_walk(e1):
    rd = rounded(e1, 10)
    ws = _Workspace(rd)
    for nu0 in range(ws.nu_in[0] + 3):
        for high in range(rd.instance.m + 2):
            assert ws.small_prefix_len(nu0, high) == linear_small_prefix_len(ws, nu0, high)


def test_retrieve_matches_linear_reconstruction(e1):
    rd = rounded(e1, 10)
    ws = _Workspace(rd)
    # one past every count, plus an item of the empty category 9
    for a0, a9, a10 in itertools.product(range(ws.nu_in[0] + 2), range(2),
                                         range(ws.nu_in[10] + 2)):
        nu = vec(rd.scheme, a0, **{"9": a9, "10": a10})
        for j in range(rd.instance.n + 1):
            assert ws.retrieve_mask(nu, j) == linear_retrieve(ws, nu, j)
