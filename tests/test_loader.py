"""Loading an instance file: the loaded instance holds its item ids and
integer view and builds its ``Item``s only when ``items`` is read.

``instance_from_dict`` must agree with the eager
``reference.reference_instance_from_dict`` on every input: an equal instance
with equal views, or the same error from the same record.
"""

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convalloc import (Mode, assignment_from_positions, dump_instance, instance_from_dict,
                       instance_to_dict, load_instance, solve_maxmin, solve_minmax,
                       validate, verify)
from convalloc.cli import main
from convalloc.generator import gen_inclusion_free, gen_planted
from convalloc.instance_model import _DECODER
from reference import reference_instance_from_dict
from test_cli import DEFECTS, malformed_texts
from test_golden import MINMAX_CASES


def outcome(load, text):
    """What ``load`` makes of an instance's JSON text: the instance and its
    views, or the error's type and message."""
    try:
        data = _DECODER.decode(text)
    except ValueError as exc:
        return ("undecodable", str(exc))
    try:
        inst = load(data)
    except ValueError as exc:
        return ("ValueError", str(exc))
    return (inst.integers, inst.ids, inst.lex, inst.nested, inst.m, inst.n, inst)


def assert_same(text):
    got = outcome(instance_from_dict, text)
    want = outcome(reference_instance_from_dict, text)
    assert got == want, text
    return got


def generated_texts():
    for seed in range(6):
        for mode in Mode:
            yield json.dumps(instance_to_dict(gen_inclusion_free(seed, 1 + seed % 4,
                                                                 3 + 2 * seed, mode=mode)))
            planted, _ = gen_planted(seed, 1 + seed % 4, 4 + 2 * seed, Fraction(3, 2), mode)
            yield json.dumps(instance_to_dict(planted))


@pytest.mark.parametrize("text", list(generated_texts()))
def test_generated_instances_load_as_the_eager_loader_builds_them(text):
    assert len(assert_same(text)) == 7  # an instance, not an error


# Each value in a form that format_value does not write, or written unreduced
RAW_VALUES = ['"2/4"', '"06/12"', '"10/5"', '"0/3"', '"0.5"', '"25e-2"', "3", "0",
              "0.5", "25e-2", '"-3/4"', '" 1/2 "', '"1_000/3"', '"0007"', '"00"']


@pytest.mark.parametrize("value", RAW_VALUES)
def test_values_in_any_form_load_to_their_lowest_terms(value):
    text = ('{"mode": "maxmin", "items": [{"id": "x1", "value": "1/3"}, '
            f'{{"id": "x2", "value": {value}}}, {{"id": "x3", "value": "5/6"}}], '
            '"agents": [{"id": "p1", "l": 1, "r": 3}]}')
    integers, *_, inst = assert_same(text)
    weights, denom = integers
    expected = Fraction(json.loads(value) if value.startswith('"') else value)
    assert Fraction(weights[1], denom) == expected
    assert "items" not in vars(instance_from_dict(_DECODER.decode(text)))


def test_repeated_ids_keep_the_first_position():
    text = json.dumps({"mode": "minmax",
                       "items": [{"id": x, "value": "1/2"} for x in ("a", "b", "a", "c", "b")],
                       "agents": [{"id": "M1", "l": 1, "r": 3}, {"id": "M2", "l": 3, "r": 5},
                                  {"id": "M1", "l": 1, "r": 5}]})
    _, (item_pos, agent_index), *_ = assert_same(text)
    assert item_pos == {"a": 1, "b": 2, "c": 4} and agent_index == {"M1": 0, "M2": 1}
    inst = instance_from_dict(_DECODER.decode(text))
    assert [v.code for v in validate(inst).violations].count("duplicate-id") == 3
    assert "items" not in vars(inst)


# Derandomized: every run draws the same examples and stores none.
@pytest.mark.parametrize("kind", DEFECTS)
@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(data=st.data())
def test_malformed_inputs_fail_as_the_eager_loader_fails(kind, data):
    assert_same(data.draw(malformed_texts(kind)))


# Per-record defects: the first error must come from the same record, values
# and keys checked record by record before any id is checked for type.
ITEM_DEFECTS = {
    "none": lambda d: None,
    "no id": lambda d: d.pop("id"),
    "no value": lambda d: d.pop("value"),
    "number id": lambda d: d.update(id=1),
    "list id": lambda d: d.update(id=["a"]),
    "bad value": lambda d: d.update(value="abc"),
    "zero denominator": lambda d: d.update(value="1/0"),
    "unreduced": lambda d: d.update(value="4/8"),
}


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(defects=st.lists(st.sampled_from(sorted(ITEM_DEFECTS)), min_size=1, max_size=6))
def test_the_first_error_comes_from_the_same_record(defects):
    items = [{"id": f"x{i}", "value": f"{i}/{i + 1}"} for i in range(1, len(defects) + 1)]
    for record, defect in zip(items, defects):
        ITEM_DEFECTS[defect](record)
    assert_same(json.dumps({"mode": "maxmin", "items": items,
                            "agents": [{"id": "p1", "l": 1, "r": len(items)}]}))


def pinned_case(tmp_path, name):
    """(instance file, k) of one case that a solve is pinned on."""
    path = tmp_path / f"{name}.json"
    if name == "golden-wide":
        seed, n, m, mode, k = MINMAX_CASES[-1]
        dump_instance(gen_inclusion_free(seed, n, m, mode=mode), str(path))
    elif name == "dense":
        k = 6
        dump_instance(gen_inclusion_free(1100003, 5, 20, (Fraction(1, 2), Fraction(1)),
                                         Mode.MAXMIN), str(path))
    else:  # the cli case whose search takes seven decides
        k = 12
        assert main(["gen", "--seed", "1100023", "-n", "4", "-m", "6", "--mode", "minmax",
                     "-o", str(path)]) == 0
    return path, k


@pytest.mark.parametrize("name", ["golden-wide", "dense", "cli-seven-decides"])
def test_a_loaded_instance_solves_without_building_items(tmp_path, name):
    path, k = pinned_case(tmp_path, name)
    inst = load_instance(str(path))
    assert validate(inst).ok
    trace = []
    solve = solve_maxmin if inst.mode is Mode.MAXMIN else solve_minmax
    result = solve(inst, k, trace=trace)
    assert verify(inst, result.assignment).feasible
    assert "items" not in vars(inst)
    if name == "cli-seven-decides":
        assert sum(line.startswith("# decide ") for line in trace) == 7
    # read now, the items are those the eager loader builds
    data = json.loads(path.read_text())
    assert instance_to_dict(inst) == instance_to_dict(reference_instance_from_dict(data)) == data
    assert "items" in vars(inst)


@pytest.mark.parametrize("mode", list(Mode))
def test_unassigned_items_are_named_without_building_items(tmp_path, mode):
    # Max-Min reports them; Min-Max refuses the assignment for them.
    path = tmp_path / "inst.json"
    dump_instance(gen_inclusion_free(5, 3, 9, mode=mode), str(path))
    inst = load_instance(str(path))
    partial = assignment_from_positions(inst, {0: [1], 2: [9]})
    report = verify(inst, partial)
    names = tuple(f"x{p}" for p in range(2, 9))
    if mode is Mode.MAXMIN:
        assert report.feasible and report.unassigned == names
    else:
        assert report.violations == tuple(f"item {x!r} is unassigned" for x in names)
    assert "items" not in vars(inst)
