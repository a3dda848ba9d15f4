"""Instance validation, ordering, stranded items, and JSON round-trips."""

import json
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convalloc import (Agent, AlignmentError, Assignment, ConvexInstance, Item, Mode,
                       ValidationReport, Violation, align, assignment_from_positions,
                       dump_instance, forward, hall_violations, instance_from_dict,
                       instance_to_dict, lexicographic_order, load_instance, parse_value,
                       round_instance, scale, scheme, stranded_items, validate)
from convalloc.generator import gen_inclusion_free
from convalloc.instance_model import integer_values
from conftest import with_demands
from reference import coverage_ranges, reference_parse_value


def agents_of(*intervals):
    return tuple(Agent(f"p{i}", lo, hi) for i, (lo, hi) in enumerate(intervals, 1))


def uniform_instance(m, *intervals):
    items = tuple(Item(f"x{i}", Fraction(1)) for i in range(1, m + 1))
    return ConvexInstance(Mode.MAXMIN, items, agents_of(*intervals))


def test_validate_fixtures(t0, t1, e1, m1):
    for inst in (t0, t1, e1, m1):
        assert validate(inst).ok


def test_validate_margined_inclusion():
    inst = uniform_instance(5, (1, 5), (2, 4))
    report = validate(inst)
    assert not report.ok
    codes = {v.code for v in report.violations}
    assert codes == {"margined-inclusion"}
    assert report.violations[0].subjects == ("p1", "p2")


@pytest.mark.parametrize("mode", [Mode.MAXMIN, Mode.MINMAX])
def test_one_nesting_verdict_keeps_each_readers_error(mode):
    # p2's [2,3] lies strictly inside p1's [1,4]: lex rank 1's high falls
    inst = ConvexInstance(mode, tuple(Item(f"x{i}", Fraction(1)) for i in range(1, 5)),
                          (Agent("p1", 1, 4), Agent("p2", 2, 3)))
    assert inst.nested == (1,)
    assert [(v.code, v.message) for v in validate(inst).violations] == [
        ("margined-inclusion", "margined inclusion (p1,p2): [2,3] strictly inside [1,4]")]
    with pytest.raises(ValueError, match="^the highs decrease in lexicographic order: "
                                         "not inclusion-free$"):
        next(hall_violations(inst), None)
    rd = round_instance(scale(inst, Fraction(1)), scheme(4, mode))
    assert rd.instance.nested is inst.nested
    with pytest.raises(ValueError, match="^the dynamic program needs agents whose intervals "
                                         "start at item 1, end at item m and are "
                                         "inclusion-free$"):
        forward(rd)
    with pytest.raises(AlignmentError, match="^alignment needs an inclusion-free instance: "
                                             "some agent's interval is nested inside "
                                             "another's$"):
        align(rd, assignment_from_positions(rd.instance, {0: [1, 4], 1: [2, 3]}))


def test_nested_lists_every_falling_high():
    # lex order p1 [1,6], p2 [2,3], p3 [3,5], p4 [4,4]: highs 6, 3, 5, 4;
    # [3,5] rises above [2,3] but still lies inside [1,6]
    inst = uniform_instance(6, (2, 3), (1, 6), (4, 4), (3, 5))
    assert inst.nested == (1, 2, 3)
    assert uniform_instance(5, (1, 3), (1, 5), (2, 5)).nested == ()


def test_validate_lists_every_margined_inclusion():
    # [2,3], [4,5] and [6,7] each lie strictly inside [1,8], though only
    # the first falls below the high just before it
    inst = uniform_instance(8, (1, 8), (2, 3), (4, 5), (6, 7))
    assert inst.nested == (1, 2, 3)
    assert [(v.code, v.subjects) for v in validate(inst).violations] == [
        ("margined-inclusion", ("p1", "p2")), ("margined-inclusion", ("p1", "p3")),
        ("margined-inclusion", ("p1", "p4"))]
    # lex order [1,6], [1,8], [2,8], [3,4], [5,7]: a shared end is no
    # inclusion, and each nested interval pairs with the first agent holding
    # the highest high before it, p5 rather than p2
    inst = uniform_instance(8, (1, 6), (2, 8), (3, 4), (5, 7), (1, 8))
    assert [v.subjects for v in validate(inst).violations] == [("p5", "p3"), ("p5", "p4")]


def test_validate_left_right_inclusion_allowed():
    assert validate(uniform_instance(5, (1, 3), (1, 5))).ok
    assert validate(uniform_instance(5, (1, 5), (3, 5))).ok


def test_validate_degree_zero_item():
    inst = uniform_instance(3, (1, 1), (3, 3))
    report = validate(inst)
    assert any(v.code == "degree-zero-item" and v.subjects == ("x2",)
               for v in report.violations)


def brute_degree_zero(instance):
    """The degree-zero violations by a direct scan of every (position, agent)."""
    return [(it.id,) for pos, it in enumerate(instance.items, start=1)
            if not any(a.covers(pos) for a in instance.agents)]


# Derandomized: every run draws the same examples and stores none.  Endpoints
# reach past [1, m] on both sides, and lo > hi occurs, so bad intervals and
# uncovered items are both drawn.
@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(st.integers(0, 9).flatmap(lambda m: st.tuples(
    st.just(m), st.lists(st.tuples(st.integers(-2, m + 2), st.integers(-2, m + 2)),
                         max_size=5))))
def test_degree_zero_sweep_matches_the_direct_scan(shape):
    m, intervals = shape
    inst = uniform_instance(m, *intervals)
    found = [v for v in validate(inst).violations if v.code == "degree-zero-item"]
    assert [v.subjects for v in found] == brute_degree_zero(inst)
    for v in found:
        pos = inst.item_index(v.subjects[0])
        assert v.message == f"item {v.subjects[0]!r} (position {pos}) lies in no agent interval"


def test_degree_zero_counts_the_in_range_part_of_a_bad_interval():
    report = validate(uniform_instance(4, (0, 2), (4, 9), (-1, -3)))
    assert [v.code for v in report.violations] == ["bad-interval", "bad-interval",
                                                   "bad-interval", "degree-zero-item"]
    assert report.violations[-1].subjects == ("x3",)


@pytest.mark.parametrize("values", [
    [],
    ["3/5", "1/2", "7"],
    ["-1/3", "1/3", "0"],
    [f"1/{10 ** 1999 + 7}", f"2/{10 ** 1999 + 9}", f"{10 ** 1999}/{3 ** 4190}", "5/6"],
])
def test_total_value_equals_the_fraction_sum(values):
    items = tuple(Item(f"x{i}", Fraction(v)) for i, v in enumerate(values, 1))
    inst = ConvexInstance(Mode.MINMAX, items, ())
    total = inst.total_value()
    assert type(total) is Fraction
    assert total == sum((it.value for it in items), Fraction(0))
    # the integer view total_value sums, built once
    weights, denom = inst.integers
    assert (weights, denom) == integer_values([it.value for it in items])
    assert type(weights) is tuple and inst.integers is inst.integers
    assert [Fraction(w, denom) for w in weights] == [it.value for it in items]


def one_agent(*denominators):
    items = tuple(Item(f"x{i}", Fraction(1, d)) for i, d in enumerate(denominators, 1))
    return ConvexInstance(Mode.MINMAX, items, agents_of((1, len(items))))


def test_validate_refuses_an_unprintable_common_denominator():
    limit = sys.get_int_max_str_digits()
    # each value prints; their common denominator has over 4400 digits
    report = validate(one_agent(10 ** 2200 + 1, 10 ** 2200 + 3))
    assert [v.code for v in report.violations] == ["unprintable-denominator"]
    assert f"more than {limit} digits" in report.violations[0].message
    # the first denominator with more than ``limit`` digits is 10**limit
    assert validate(one_agent(10 ** limit - 1)).ok
    assert not validate(one_agent(10 ** limit)).ok
    sys.set_int_max_str_digits(0)  # no limit, no check
    try:
        assert validate(one_agent(10 ** 2200 + 1, 10 ** 2200 + 3)).ok
    finally:
        sys.set_int_max_str_digits(limit)


def test_validate_misc_violations():
    bad_value = ConvexInstance(Mode.MAXMIN, (Item("x1", Fraction(0)),),
                               agents_of((1, 1)))
    assert any(v.code == "nonpositive-value" for v in validate(bad_value).violations)
    bad_demand = ConvexInstance(Mode.MAXMIN, (Item("x1", Fraction(1)),),
                                (Agent("p1", 1, 1, Fraction(0)),))
    assert [(v.code, v.message) for v in validate(bad_demand).violations] == \
        [("nonpositive-demand", "agent 'p1' has demand 0 <= 0")]
    bad_interval = uniform_instance(2, (0, 2))
    assert any(v.code == "bad-interval" for v in validate(bad_interval).violations)
    dup = ConvexInstance(Mode.MAXMIN,
                         (Item("x1", Fraction(1)), Item("x1", Fraction(1))),
                         agents_of((1, 2)))
    assert any(v.code == "duplicate-id" for v in validate(dup).violations)
    # three occurrences of an id, the id view naming the first: two repeats each
    items = tuple(Item(x, Fraction(1)) for x in ("x1", "x2", "x1", "x1"))
    thrice = ConvexInstance(Mode.MAXMIN, items, (Agent("p1", 1, 4),) * 3)
    assert thrice.ids == ({"x1": 1, "x2": 2}, {"p1": 0})
    assert [(v.code, v.message) for v in validate(thrice).violations] == \
        [("duplicate-id", "duplicate item id 'x1'")] * 2 + \
        [("duplicate-id", "duplicate agent id 'p1'")] * 2


def test_lexicographic_order_sorts_by_interval(e1):
    shuffled = ConvexInstance(e1.mode, e1.items,
                              (e1.agents[2], e1.agents[0], e1.agents[1]))
    order = lexicographic_order(shuffled)
    assert [shuffled.agents[i].id for i in order] == ["p1", "p2", "p3"]


def test_lexicographic_order_ties_keep_input_order():
    inst = uniform_instance(3, (1, 3), (1, 3))
    assert lexicographic_order(inst) == (0, 1)


def test_lexicographic_order_t1(t1):
    assert [t1.agents[i].id for i in lexicographic_order(t1)] == ["p1", "p2"]


def test_stranded_items(e1, t1, e1_assignment_2):
    assert stranded_items(e1, range(1, 22), 3) == frozenset()
    survivors = set(range(1, 22))
    for aid in ("p3", "p2"):
        survivors -= {e1.item_index(x) for x in e1_assignment_2.bundle_map()[aid]}
    # c11..c15 (positions 16, 18..21) survive but lie beyond p1's reach
    assert stranded_items(e1, survivors, 1) == frozenset({16, 18, 19, 20, 21})
    assert stranded_items(t1, {1}, 1) == frozenset()
    # the prefix p_1 (lex rank 1 is p1, interval [1, 3]) cannot reach item 4
    assert stranded_items(t1, {1, 2, 3, 4}, 1) == frozenset({4})
    assert stranded_items(t1, {1, 2, 3, 4}, 2) == frozenset()
    assert stranded_items(t1, {2}, 0) == frozenset({2})
    with pytest.raises(ValueError):
        stranded_items(t1, {1}, 3)


def test_item_neighbourhoods_are_agent_intervals(e1, t1, m1):
    # every item's covering agents form a contiguous run of lex ranks
    for inst in (e1, t1, m1):
        for pos in range(1, inst.m + 1):
            first, last = coverage_ranges(inst)[pos - 1]
            assert 1 <= first <= last
    for seed in range(25):
        inst = gen_inclusion_free(seed, 2 + seed % 4, 6 + seed % 5)
        coverage_ranges(inst)  # raises if any neighbourhood is not contiguous


def pairwise_inclusion_free(instance):
    for p in instance.agents:
        for q in instance.agents:
            if p.lo < q.lo and q.hi < p.hi:
                return False
    return True


def test_inclusion_free_matches_pairwise_definition():
    cases = [uniform_instance(5, (1, 5), (2, 4)),
             uniform_instance(5, (1, 3), (1, 5)),
             uniform_instance(6, (1, 4), (2, 5), (3, 6))]
    for seed in range(40):
        cases.append(gen_inclusion_free(seed, 2 + seed % 5, 6 + seed % 6))
    for inst in cases:
        monotone = not any(v.code == "margined-inclusion"
                           for v in validate(inst).violations)
        assert monotone == pairwise_inclusion_free(inst)


def test_json_round_trip(e1, m1, tmp_path):
    for inst in (e1, m1):
        path = tmp_path / "inst.json"
        dump_instance(inst, str(path))
        assert load_instance(str(path)) == inst
        # demands survive the trip
        data = instance_to_dict(inst)
        data["agents"][0]["demand"] = "3/2"
        again = instance_from_dict(data)
        assert again.agents[0].demand == Fraction(3, 2)


# Drawn instances whose demands are not 1, so that every agent writes its
# "demand" key, come back equal through the JSON text, with the same ids.
@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(st.integers(0, 10 ** 6), st.integers(1, 6), st.integers(0, 6),
       st.sampled_from(list(Mode)), st.data())
def test_json_round_trip_property(seed, n, extra, mode, data):
    inst = gen_inclusion_free(seed, n, n + extra, mode=mode)
    demand = st.fractions(min_value=Fraction(1, 100), max_value=100).filter(lambda d: d != 1)
    inst = with_demands(inst, data.draw(st.lists(demand, min_size=n, max_size=n)))
    text = json.dumps(instance_to_dict(inst))
    assert text.count('"demand"') == n
    back = instance_from_dict(json.loads(text))
    assert back == inst
    assert back.ids == inst.ids


def test_json_numbers_load_exactly(tmp_path):
    # read through float, the value would load as 12345678901234567168 and
    # the demand as 3602879701896397/36028797018963968
    path = tmp_path / "floats.json"
    path.write_text('{"mode": "maxmin", "items": [{"id": "x1", "value": 12345678901234567890.5},'
                    ' {"id": "x2", "value": 25e-2}],'
                    ' "agents": [{"id": "p1", "l": 1, "r": 2, "demand": 0.1}]}')
    inst = load_instance(str(path))
    assert [it.value for it in inst.items] == [Fraction("12345678901234567890.5"),
                                               Fraction(1, 4)]
    assert inst.agents[0].demand == Fraction(1, 10)
    # the exponent guard still applies to a number literal
    path.write_text(path.read_text().replace("25e-2", "1e-999999"))
    with pytest.raises(ValueError, match="too many digits"):
        load_instance(str(path))


def test_json_rational_strings(tmp_path, t1):
    path = tmp_path / "t1.json"
    dump_instance(t1, str(path))
    raw = json.loads(path.read_text())
    assert raw["items"][0]["value"] == "3/5"
    assert raw["mode"] == "maxmin"
    assert raw["agents"][0] == {"id": "p1", "l": 1, "r": 3}


def parsed(parse, text):
    """(numerator, denominator) of ``parse(text)``, or its ValueError's text."""
    try:
        value = parse(text)
    except ValueError as exc:
        return "ValueError", str(exc)
    assert type(value) is Fraction
    return value.numerator, value.denominator


# ASCII digits and ASCII digits '/' ASCII digits, the texts the loader reads
# inline, and every other text, the zero denominators included, must fare
# as through ``Fraction``.
@pytest.mark.parametrize("text", [
    "0", "7", "007", "0/5", "00/05", "12/8", "3/5", "10/1", "+1", "-1/2", " 1/2", "1/2 ",
    "1 /2", "1_000", "1_000/3", "\u00b2", "\u0663/4", "4/\u0663", "\uff11", "1/0", "1/00", "0/0",
    "", "/", "/2", "1/", "1/2/3", "2.5", "2.5/2", ".5", "1e-3", "1E3", "abc", "nan", "inf",
    0, 12, -3, True, None])
def test_parse_value_matches_the_general_path(text):
    assert parsed(parse_value, text) == parsed(reference_parse_value, text)


def test_parse_value_matches_the_general_path_past_the_digit_limit():
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        pytest.skip("this Python has no limit on the digits of an integer's text")
    long = "1" * (limit + 1)
    # with both parts too long, the error counts the numerator's digits
    for text in (long, "0" + long, f"{long}/3", f"3/{long}", f"{long}/{long}0", f"{long}/0",
                 f"-{long}"):
        outcome = parsed(parse_value, text)
        assert outcome[0] == "ValueError"
        assert outcome == parsed(reference_parse_value, text)


@settings(derandomize=True, database=None, deadline=None, max_examples=500)
@given(st.one_of(st.text(st.sampled_from("0123456789/+-_. eE\u00b2\u0663"), max_size=7),
                 st.from_regex(r"\A[0-9]{1,12}(/[0-9]{1,12})?\Z"),
                 st.integers(-10 ** 6, 10 ** 6)))
def test_parse_value_matches_the_general_path_on_drawn_texts(text):
    assert parsed(parse_value, text) == parsed(reference_parse_value, text)


# One of each record with its fields, in order, and its repr.
RECORDS = [
    (Item("x1", Fraction(1, 2)), ("id", "value"),
     "Item(id='x1', value=Fraction(1, 2))"),
    (Agent("p1", 1, 2), ("id", "lo", "hi", "demand"),
     "Agent(id='p1', lo=1, hi=2, demand=Fraction(1, 1))"),
    (Violation("duplicate-id", ("x1",), "duplicate item id 'x1'"),
     ("code", "subjects", "message"),
     "Violation(code='duplicate-id', subjects=('x1',), message=\"duplicate item id 'x1'\")"),
    (ValidationReport(), ("violations",), "ValidationReport(violations=())"),
    (Assignment(Mode.MAXMIN, (("p1", ("x1",)),)), ("mode", "bundles"),
     "Assignment(mode=<Mode.MAXMIN: 'maxmin'>, bundles=(('p1', ('x1',)),))"),
]
SMALL = ConvexInstance(Mode.MINMAX, (Item("x1", Fraction(1, 2)),), (Agent("p1", 1, 1),))
SMALL_REPR = ("ConvexInstance(mode=<Mode.MINMAX: 'minmax'>, "
              "items=(Item(id='x1', value=Fraction(1, 2)),), "
              "agents=(Agent(id='p1', lo=1, hi=1, demand=Fraction(1, 1)),))")


@pytest.mark.parametrize("record, fields, text", RECORDS,
                         ids=[type(record).__name__ for record, _, _ in RECORDS])
def test_a_record_reads_and_hashes_as_its_fields(record, fields, text):
    assert repr(record) == text
    assert hash(record) == hash(tuple(getattr(record, f) for f in fields))


def test_an_instance_reads_and_hashes_as_its_three_fields():
    assert repr(SMALL) == SMALL_REPR
    assert hash(SMALL) == hash((SMALL.mode, SMALL.items, SMALL.agents))
    # equal only to an instance, not to the tuple of its fields
    assert SMALL != (SMALL.mode, SMALL.items, SMALL.agents)


@pytest.mark.parametrize("target", [record for record, _, _ in RECORDS] + [SMALL],
                         ids=lambda r: type(r).__name__)
def test_no_field_can_be_assigned_or_deleted(target):
    for name in ("id", "mode", "items", "agents", "violations", "bundles", "scaling",
                 "anything"):
        with pytest.raises(AttributeError):
            setattr(target, name, None)
        with pytest.raises(AttributeError):
            delattr(target, name)


def test_a_loaded_instance_equals_and_hashes_as_the_built_one(e1, m1):
    for inst in (e1, m1):
        built = ConvexInstance(inst.mode, inst.items, inst.agents)
        loaded = instance_from_dict(instance_to_dict(inst))
        assert "items" not in vars(loaded)
        assert hash(loaded) == hash(built)
        assert loaded == built and built == loaded
        assert repr(loaded) == repr(built)
