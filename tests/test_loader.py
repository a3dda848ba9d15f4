"""Loading an instance file: the loaded instance holds its item ids and
integer view and builds its ``Item``s only when ``items`` is read.

``instance_from_dict`` must agree with the eager
``reference.reference_instance_from_dict`` on every input: an equal instance
with equal views, or the same error from the same record.  ``load_instance``
must load every file as that reference loads the text a text-mode read
gives, whatever its line ends and bytes, or fail with the same error.
"""

import json
import sys
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


def one_value_text(value, agent='{"id": "p1", "l": 1, "r": 3}', record=""):
    """An instance whose second item has the value text ``value`` and the
    extra record text ``record``, and whose one agent has the text ``agent``."""
    return ('{"mode": "maxmin", "items": [{"id": "x1", "value": "1/3"}, '
            f'{{"id": "x2", "value": {value}{record}}}, {{"id": "x3", "value": "5/6"}}], '
            f'"agents": [{agent}]}}')


# Values that the loader reads inline, and others beside them that it must
# send to parse_value: unreduced, zero, leading zeros, zero denominators,
# digits that are not ASCII and JSON integers.  "2/4" beside 1/3 and 5/6
# puts the values over 12 before the one cut to their least denominator 6.
INLINE_VALUES = ['"2/4"', '"0"', '"0/5"', '"007/010"', '"1/0"', '"0/0"', '"²"', '"٣/4"',
                 '"4/"', '"/4"', '"1/2/3"', '"+1/2"', "3", "0", "-3", "12345678901234567890"]


@pytest.mark.parametrize("value", INLINE_VALUES)
def test_inline_values_load_as_the_eager_loader_reads_them(value):
    assert_same(one_value_text(value))


def test_every_value_unreduced_is_cut_to_lowest_terms():
    text = ('{"mode": "minmax", "items": [{"id": "x1", "value": "2/4"}, '
            '{"id": "x2", "value": "6/4"}, {"id": "x3", "value": "0/8"}], '
            '"agents": [{"id": "p1", "l": 1, "r": 3}]}')
    integers, *_ = assert_same(text)
    assert integers == ((1, 3, 0), 2)


@pytest.mark.parametrize("digits", [639, 640, 700])
def test_values_at_the_digit_limit_load_as_the_eager_loader_reads_them(digits):
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        # a numerator of 700 digits is refused, as int refuses it
        for value in (f'"{"7" * digits}"', f'"{"7" * digits}/3"', f'"3/{"7" * digits}"'):
            assert_same(one_value_text(value))
    finally:
        sys.set_int_max_str_digits(limit)


@pytest.mark.parametrize("agent, record", [
    ('{"id": "p1", "l": 1, "r": 3}', ', "note": "extra"'),
    ('{"id": "p1", "l": 1, "r": 3, "demand": "3/2"}', ""),
    ('{"id": "p1", "l": 1, "r": 3, "demand": 2}', ""),
    ('{"id": "p1", "l": 1, "r": 3, "demand": "2/0"}', ""),
    ('{"id": "p1", "l": true, "r": 3}', ""),
    ('{"id": "p1", "l": 1, "r": false}', ""),
    ('{"id": "p1", "l": 1.0, "r": 3}', ""),
    ('{"id": "p1", "l": "1"}', ""),  # a bad l and a missing r: l is read first
    ('{"id": "p1", "r": "x"}', ""),  # a missing l and a bad r
    ('{"l": "1", "r": 3}', ""),  # a missing id and a bad l
    ('{"id": 1, "l": 1, "r": 3, "demand": "x"}', ""),  # the demand before the id's type
])
def test_records_load_as_the_eager_loader_reads_them(agent, record):
    assert_same(one_value_text('"1/2"', agent, record))


def text_mode_outcome(path):
    """What ``reference_instance_from_dict`` makes of a file read in text
    mode: the instance and its views, or the error's type and message."""
    try:
        with open(path, encoding="utf-8") as fh:
            inst = reference_instance_from_dict(_DECODER.decode(fh.read()))
    except ValueError as exc:
        return (type(exc), str(exc))
    return (inst.integers, inst.ids, inst.lex, inst.nested, inst.m, inst.n, inst)


def load_outcome(path):
    try:
        inst = load_instance(path)
    except ValueError as exc:
        return (type(exc), str(exc))
    return (inst.integers, inst.ids, inst.lex, inst.nested, inst.m, inst.n, inst)


# Each turns an instance file's bytes into those of another file: line ends
# written as CR LF, as lone CR, or mixed; a UTF-8 byte order mark; one byte
# that is not UTF-8, or a character cut short at the end; a raw CR inside an
# id, which JSON refuses; and a syntax error after CR LF line ends.
REWRITES = {
    "crlf": lambda b: b.replace(b"\n", b"\r\n"),
    "cr": lambda b: b.replace(b"\n", b"\r"),
    "mixed": lambda b: b.replace(b"\n", b"\r\n", 3).replace(b"\n", b"\r", 3),
    "cr-at-end": lambda b: b + b"\r",
    "bom": lambda b: b"\xef\xbb\xbf" + b,
    "invalid-byte": lambda b: b[:40] + b"\xff" + b[40:],
    "crlf-invalid-byte": lambda b: b.replace(b"\n", b"\r\n")[:60] + b"\x80"
                                   + b.replace(b"\n", b"\r\n")[60:],
    "cut-character": lambda b: b + "é".encode()[:1],
    "cr-in-id": lambda b: b.replace(b'"x1"', b'"x\r1"'),
    "crlf-syntax-error": lambda b: b.replace(b"\n", b"\r\n").replace(b'"r":', b'"r"', 1),
}


@pytest.mark.parametrize("rewrite", sorted(REWRITES))
@pytest.mark.parametrize("seed", [0, 3])
def test_a_file_loads_as_a_text_mode_read_loads_it(tmp_path, rewrite, seed):
    mode = Mode.MAXMIN if seed % 2 == 0 else Mode.MINMAX
    path = tmp_path / "inst.json"
    dump_instance(gen_inclusion_free(seed, 3, 7, mode=mode), str(path))
    path.write_bytes(REWRITES[rewrite](path.read_bytes()))
    got, want = load_outcome(str(path)), text_mode_outcome(str(path))
    assert got == want
    if rewrite in ("crlf", "cr", "mixed", "cr-at-end"):
        assert len(got) == 7  # an instance, not an error
    else:
        assert len(got) == 2


def test_a_file_past_one_read_loads_whole(tmp_path):
    # about 170 KiB with CR LF line ends: the loader reads 64 KiB at a time
    path = tmp_path / "large.json"
    dump_instance(gen_inclusion_free(7, 12, 3000, mode=Mode.MINMAX), str(path))
    path.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
    assert path.stat().st_size > 2 * 65536
    got = load_outcome(str(path))
    assert len(got) == 7 and got == text_mode_outcome(str(path))


@pytest.mark.parametrize("name", ["a-directory", "missing.json"])
def test_an_unreadable_path_fails_as_open_fails(tmp_path, name):
    path = tmp_path / name
    if name == "a-directory":
        path.mkdir()
    errors = []
    for read in (load_instance, lambda p: open(p, encoding="utf-8").read()):
        with pytest.raises(OSError) as info:
            read(str(path))
        errors.append((type(info.value), str(info.value)))
    assert errors[0] == errors[1]


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
