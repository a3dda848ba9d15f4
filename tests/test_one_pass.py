"""The one-pass layers against the per-item loops they replaced.

``verify`` and ``partition_violations``, ``validate``, ``round_instance`` and
the ``_Workspace`` tables each take one pass over the items, or skip a pass
that cannot find anything.  On drawn inputs, malformed ones included, their
reports and tables must equal those of the loops kept in ``reference``.
"""

from fractions import Fraction
from math import gcd, lcm

from hypothesis import given, settings
from hypothesis import strategies as st

from convalloc import (Agent, Assignment, ConvexInstance, Item, Mode, gen_inclusion_free,
                       round_instance, scheme, validate, verify)
from convalloc.dp_engine import _Workspace
from convalloc.hall import hall_bound
from convalloc.instance_model import partition_violations, with_integers
from convalloc.solver import scale
from reference import (reference_partition_violations, reference_round_instance,
                       reference_validate, reference_verify, reference_workspace_tables)

derandomized = settings(derandomize=True, database=None, deadline=None, max_examples=300)

FAULTS = ("unknown-agent", "unknown-item", "repeated-bundle", "two-bundles", "outside",
          "unassigned", "omitted-agent", "shuffled", "repeated-id")


def faulty_assignment(inst, rng, faults):
    """A partition of ``inst`` (each item to a random covering agent), then
    each fault in ``faults`` applied once where the instance allows it."""
    agents, items = inst.agents, inst.items
    bundles = [[a.id, []] for a in agents]
    for pos in range(1, inst.m + 1):
        covering = [i for i, a in enumerate(agents) if a.covers(pos)]
        bundles[rng.choice(covering)][1].append(items[pos - 1].id)
    some = lambda: rng.choice(bundles)  # noqa: E731
    for fault in faults:
        if fault == "unknown-agent":
            # an item moved into it is in no known agent's bundle
            ids = some()[1]
            moved = [ids.pop(rng.randrange(len(ids)))] if ids else []
            bundles.insert(rng.randrange(len(bundles) + 1), ["pz", moved + ["xz"]])
        elif fault == "unknown-item":
            ids = some()[1]
            ids.insert(rng.randrange(len(ids) + 1), "xz")
        elif fault == "repeated-bundle":
            bundles.append([some()[0], [rng.choice(items).id]])
        elif fault == "two-bundles":
            bundles[rng.randrange(len(bundles))][1].append(rng.choice(items).id)
        elif fault == "outside":
            pos = rng.randrange(1, inst.m + 1)
            away = [ids for aid, ids in bundles
                    if aid in inst.ids[1] and not agents[inst.ids[1][aid]].covers(pos)]
            if away:
                rng.choice(away).append(items[pos - 1].id)
        elif fault == "unassigned":
            ids = some()[1]
            if ids:
                ids.pop(rng.randrange(len(ids)))
        elif fault == "omitted-agent" and len(bundles) > 1:
            bundles.pop(rng.randrange(len(bundles)))
        elif fault == "shuffled":
            rng.shuffle(some()[1])
    return Assignment(inst.mode, tuple((aid, tuple(ids)) for aid, ids in bundles))


def with_repeated_id(inst, rng):
    """``inst`` with one item renamed to the id of another."""
    if inst.m < 2:
        return inst
    src, dst = rng.sample(range(inst.m), 2)
    items = list(inst.items)
    items[dst] = items[dst]._replace(id=items[src].id)
    return ConvexInstance(inst.mode, tuple(items), inst.agents)


@derandomized
@given(st.integers(0, 2 ** 16), st.integers(1, 5), st.integers(0, 12),
       st.sampled_from(Mode), st.lists(st.sampled_from(FAULTS), max_size=4), st.randoms())
def test_verify_matches_the_per_item_reference(seed, n, extra, mode, faults, rng):
    inst = gen_inclusion_free(seed, n, n + extra, mode=mode)
    if "repeated-id" in faults:
        inst = with_repeated_id(inst, rng)
    assignment = faulty_assignment(inst, rng, faults)
    assert verify(inst, assignment) == reference_verify(inst, assignment)
    for cover in (False, True):
        assert (partition_violations(inst, assignment, cover)
                == reference_partition_violations(inst, assignment, cover))


def test_verify_reports_every_fault_as_the_reference():
    # One assignment with each fault at once, against the reference's texts.
    items = tuple(Item(x, Fraction(v, 4)) for x, v in
                  zip(("x1", "x2", "x3", "x2", "x5"), (1, 2, 3, 4, 1)))
    agents = (Agent("p1", 1, 3), Agent("p2", 2, 5), Agent("p3", 4, 5))
    for mode in Mode:
        inst = ConvexInstance(mode, items, agents)
        assignment = Assignment(mode, (
            ("pz", ("x1", "x5")), ("p1", ("x1", "xz", "x5")), ("p2", ("x3", "x1")),
            ("p2", ("x2",))))
        report = verify(inst, assignment)
        assert report == reference_verify(inst, assignment)
        # the lazily built values act as the tuple of the same pairs does
        values = report.agent_values
        assert len(values) == len(assignment.bundles)
        assert hash(report) == hash(reference_verify(inst, assignment))
        assert repr(values) == repr(tuple(values))
        assert values != list(values) and tuple(values) != list(values)
        assert report.violations[:4] == (
            "unknown agent 'pz'", "unknown item 'xz' in bundle of 'p1'",
            "item 'x5' (position 5) outside interval [1,3] of agent 'p1'",
            "item 'x1' assigned to both 'p1' and 'p2'")
        # x5 lies in the unknown agent's bundle: valued there, not unassigned
        assert report.agent_values[0] == ("pz", Fraction(1, 2))
        # x3 only in the unknown agent's bundle: unassigned is empty, but
        # a Min-Max cover still misses it
        assignment = Assignment(mode, (("p1", ("x1", "x2")), ("pz", ("x3",)),
                                       ("p2", ("x5",)), ("p3", ())))
        report = verify(inst, assignment)
        assert report == reference_verify(inst, assignment)
        assert report.unassigned == ()
        assert ("item 'x3' is unassigned" in report.violations) is (mode is Mode.MINMAX)


def interval(m):
    return st.tuples(st.integers(-1, m + 2), st.integers(-1, m + 2))


@derandomized
@given(st.integers(0, 8).flatmap(lambda m: st.tuples(
    st.lists(st.tuples(st.sampled_from(["x1", "x2", "x3"] + [f"y{i}" for i in range(9)]),
                       st.integers(-2, 5)), min_size=m, max_size=m),
    st.lists(st.tuples(st.sampled_from(["p1", "p2", "q1", "q2", "q3"]), interval(m),
                       st.integers(-1, 3)), max_size=5))),
    st.sampled_from(Mode))
def test_validate_matches_the_per_item_reference(shape, mode):
    # values and demands <= 0, repeated ids, intervals reversed or leaving
    # 1..m, gaps and inclusions
    items, agents = shape
    inst = ConvexInstance(mode, tuple(Item(x, Fraction(v, 3)) for x, v in items),
                          tuple(Agent(a, lo, hi, Fraction(d)) for a, (lo, hi), d in agents))
    assert validate(inst) == reference_validate(inst)


def test_validate_reports_each_gap_in_position_order():
    items = tuple(Item(f"x{i}", Fraction(1)) for i in range(1, 11))
    agents = (Agent("p3", 8, 8), Agent("p1", 0, 2), Agent("p2", 4, 5), Agent("p4", 5, 4))
    inst = ConvexInstance(Mode.MAXMIN, items, agents)
    report = validate(inst)
    assert report == reference_validate(inst)
    gaps = [v.subjects[0] for v in report.violations if v.code == "degree-zero-item"]
    assert gaps == ["x3", "x6", "x7", "x9", "x10"]


def grid_values(k, mode, rng, count):
    """Values in (0, 1] over mixed denominators: small ones, Min-Max's
    (1/k, q_1) band, grid points and values between them."""
    q1 = scheme(k, mode).grid[0]
    out = []
    for _ in range(count):
        kind = rng.randrange(4)
        d = rng.choice([1, 3, 7, k, k * k, 2 * k + 1, 97])
        if kind == 0:      # small: at most 1/k
            v = Fraction(rng.randint(1, d), d * k)
        elif kind == 1:    # strictly between 1/k and q_1
            v = Fraction(1, k) + (q1 - Fraction(1, k)) * Fraction(rng.randint(1, d), d + 1)
        elif kind == 2:    # on the grid, whose top point can pass 1
            v = rng.choice([q for q in scheme(k, mode).grid if q <= 1])
        else:
            v = Fraction(rng.randint(1, d), d)
        out.append(v)
    return out


def test_round_instance_matches_the_category_reference():
    # ``spread`` > 1 hands the values over on a common denominator that is
    # not the least one, as ``scale`` does.  The all-small branch writes each
    # value once as w lift / cut: lift and cut are coprime on every draw, and
    # some draws need both (lift > 1 and cut > 1).
    both = []

    @derandomized
    @given(st.sampled_from(Mode), st.sampled_from([4, 6, 8, 12]), st.integers(1, 12),
           st.sampled_from(["small", "band", "off-k", "mixed"]),
           st.sampled_from([1, 2, 3, 5, 6, 7, 9]),
           st.randoms())
    def check(mode, k, m, kind, spread, rng):
        values = grid_values(k, mode, rng, m)
        if kind == "small":
            values = [v / k if v > Fraction(1, k) else v for v in values]
        elif kind == "band":
            # every value small but one in (1/k, q_1): Min-Max rounds it to 1/k
            values = [v / k if v > Fraction(1, k) else v for v in values]
            q1 = scheme(k, mode).grid[0]
            values[rng.randrange(m)] = (Fraction(1, k) + q1) / 2
        elif kind == "off-k":
            # every value small, over odd multiples of k + 1: k often does
            # not divide the common denominator, so lift > 1
            values = [Fraction(rng.randint(1, d), d * (k + 1))
                      for d in rng.choices([1, 3, 7, 97], k=m)]
        inst = ConvexInstance(mode, tuple(Item(f"x{i}", v) for i, v in enumerate(values, start=1)),
                              (Agent("p1", 1, m),))
        weights, denom = inst.integers
        if spread > 1:
            weights, denom = tuple([w * spread for w in weights]), denom * spread
            inst = with_integers(inst, (weights, denom))
        sch = scheme(k, mode)
        got, want = round_instance(inst, sch), reference_round_instance(inst, sch)
        assert got == want
        assert got.instance.integers == want.instance.integers
        assert got.positions() == want_positions(want)
        if max(weights) * k <= denom:
            common = lcm(denom, k)
            lift, cut = common // denom, common // got.instance.integers[1]
            assert gcd(lift, cut) == 1
            if lift > 1 and cut > 1:
                both.append((mode, k, values, spread))

    check()
    assert both


def want_positions(rounded):
    grouped = [[] for _ in range(rounded.scheme.C + 1)]
    for p, c in enumerate(rounded.category, start=1):
        grouped[c].append(p)
    return grouped


def test_minmax_band_value_rounds_to_one_over_k():
    # All values small but one in (1/k, q_1): category 0, rounded to 1/k.
    k = 8
    values = [Fraction(1, 10), Fraction(1, 9), Fraction(1, 8) + Fraction(1, 1000)]
    inst = ConvexInstance(Mode.MINMAX, tuple(Item(f"x{i}", v) for i, v in enumerate(values)),
                          (Agent("p1", 1, 3),))
    rd = round_instance(inst, scheme(k, Mode.MINMAX))
    assert rd.category == (0, 0, 0)
    assert [rd.value_at(p) for p in (1, 2, 3)] == [Fraction(1, 10), Fraction(1, 9),
                                                   Fraction(1, 8)]
    assert rd == reference_round_instance(inst, scheme(k, Mode.MINMAX))


@derandomized
@given(st.integers(0, 2 ** 16), st.sampled_from(Mode), st.sampled_from([4, 6, 8]),
       st.integers(1, 6).flatmap(lambda n: st.tuples(st.just(n), st.integers(n, 16 * n + 3))),
       st.sampled_from([Fraction(1, 2), Fraction(3, 4), Fraction(1), Fraction(5, 4)]))
def test_workspace_tables_match_the_reference(seed, mode, k, shape, factor):
    # many items per agent make every item small at some guesses
    inst = gen_inclusion_free(seed, *shape, mode=mode)
    bound, _ = hall_bound(inst)
    scaled = scale(inst, max(bound, Fraction(1, 10 ** 6)) * factor)
    if scaled is None:
        scaled = scale(inst, max(it.value for it in inst.items))
    rd = round_instance(scaled, scheme(k, mode))
    ws = _Workspace(rd)
    for name, table in reference_workspace_tables(rd).items():
        assert getattr(ws, name) == table, name
