"""Command-line behavior: outputs, exit codes, determinism."""

import errno
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import convalloc
from convalloc import (Agent, ConvexInstance, Item, Mode, dump_instance, format_value,
                       instance_to_dict, load_instance, parse_value, validate, verify)
from convalloc.cli import build_parser, main
from convalloc.generator import gen_inclusion_free


@pytest.fixture
def paths(tmp_path, e1, t1, m1):
    out = {}
    for name, inst in (("e1", e1), ("t1", t1), ("m1", m1)):
        p = tmp_path / f"{name}.json"
        dump_instance(inst, str(p))
        out[name] = str(p)
    out["dir"] = str(tmp_path)
    return out


def test_check(paths, capsys):
    assert main(["check", "-i", paths["e1"]]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == ["inclusion-free: ok", "hall: ok"]


@pytest.mark.parametrize("json_flag", [False, True])
@pytest.mark.parametrize("instance, witness", [
    # one unit item against a demand of 2
    ({"mode": "maxmin", "items": [{"id": "x1", "value": "1"}],
      "agents": [{"id": "p1", "l": 1, "r": 1, "demand": "2"}]}, (1, 1, "1", "2")),
    # both machines together confine all four jobs, 11/5 against loads 1 + 1
    ({"mode": "minmax",
      "items": [{"id": f"j{i}", "value": v} for i, v in enumerate(["3/5", "1/2", "1/2", "3/5"], 1)],
      "agents": [{"id": "M1", "l": 1, "r": 3, "demand": "1"},
                 {"id": "M2", "l": 2, "r": 4, "demand": "1"}]}, (1, 2, "11/5", "2")),
])
def test_check_reads_demands_and_loads_from_the_file(tmp_path, capsys, instance, witness,
                                                     json_flag):
    path = tmp_path / "demands.json"
    path.write_text(json.dumps(instance))
    assert main(["check", "-i", str(path)] + ["--json"] * json_flag) == 0
    out = capsys.readouterr().out
    lo, hi, lhs, rhs = witness
    if json_flag:
        assert json.loads(out) == {"valid": True, "violations": [],
                                   "hall": {"lo": lo, "hi": hi, "lhs": lhs, "rhs": rhs}}
    else:
        assert out.splitlines() == ["inclusion-free: ok", f"hall: violated on [{lo},{hi}] "
                                    f"(value {lhs} vs demand {rhs})"]


def test_check_invalid_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "mode": "maxmin",
        "items": [{"id": "x1", "value": "1"}] * 5,
        "agents": [{"id": "p1", "l": 1, "r": 5}, {"id": "p2", "l": 2, "r": 4}],
    }))
    assert main(["check", "-i", str(bad)]) == 2
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "inclusion-free: FAILED"
    assert "margined inclusion" in out


def test_check_heading_names_inclusion_only_when_it_fails(tmp_path, capsys):
    # Only the ids are at fault: the one interval is trivially inclusion-free.
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "mode": "maxmin",
        "items": [{"id": "x1", "value": "1"}, {"id": "x1", "value": "2"}],
        "agents": [{"id": "p1", "l": 1, "r": 2}],
    }))
    assert main(["check", "-i", str(bad)]) == 2
    assert capsys.readouterr().out.splitlines() == [
        "valid: FAILED", "  duplicate item id 'x1'"]


def test_oracle_t1(paths, capsys):
    assert main(["oracle", "-i", paths["t1"]]) == 0
    assert capsys.readouterr().out.strip() == "opt: 11/10"
    assert main(["oracle", "-i", paths["t1"], "--json"]) == 0
    assert json.loads(capsys.readouterr().out) == {
        "opt": "11/10", "assignment": {"p1": ["x1", "x2"], "p2": ["x3", "x4"]}}


def test_solve_e1(paths, capsys, e1, tmp_path):
    result_path = tmp_path / "res.json"
    code = main(["solve", "-k", "10", "--delta", "1/40",
                 "-i", paths["e1"], "--json", "-o", str(result_path)])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert set(payload) == {"t_star", "objective", "guarantee", "assignment"}
    # the printed objective re-verifies exactly
    from convalloc import Assignment, Mode
    assignment = Assignment(Mode.MAXMIN, tuple(
        (aid, tuple(ids)) for aid, ids in payload["assignment"].items()))
    assert verify(e1, assignment).objective == parse_value(payload["objective"])
    assert json.loads(result_path.read_text()) == payload


def test_solve_failure_exit_code(tmp_path, capsys):
    starved = tmp_path / "starved.json"
    starved.write_text(json.dumps({
        "mode": "maxmin",
        "items": [{"id": "x1", "value": "1"}],
        "agents": [{"id": "p1", "l": 1, "r": 1}, {"id": "p2", "l": 1, "r": 1}],
    }))
    assert main(["solve", "-i", str(starved), "-k", "4"]) == 1


def test_solve_optimum_zero_traces_no_decide(tmp_path, capsys):
    # No matching covers both agents, so OPT = 0 is known before any guess.
    starved = tmp_path / "starved.json"
    starved.write_text(json.dumps({
        "mode": "maxmin",
        "items": [{"id": "x1", "value": "1"}],
        "agents": [{"id": "p1", "l": 1, "r": 1}, {"id": "p2", "l": 1, "r": 1}],
    }))
    trace = tmp_path / "starved.trace"
    assert main(["solve", "-i", str(starved), "-k", "4", "--json", "--trace", str(trace)]) == 1
    assert json.loads(capsys.readouterr().out)["t_star"] == "0"
    assert "# decide" not in trace.read_text()


def test_missing_file_exit_code(tmp_path, capsys):
    assert main(["check", "-i", "does-not-exist.json"]) == 2
    capsys.readouterr()
    # a directory with no *.json holds no instance to bench
    (tmp_path / "notes.txt").write_text("")
    assert main(["bench", "-d", str(tmp_path)]) == 2
    assert capsys.readouterr().err == f"error: no instances under {tmp_path}\n"


ONE_ITEM = [{"id": "x1", "value": "1"}]
ONE_AGENT = [{"id": "p1", "l": 1, "r": 1}]


@pytest.mark.parametrize("payload, message", [
    ({"mode": "maxmin", "items": [{"id": "x1", "value": "1/0"}], "agents": ONE_AGENT},
     "value '1/0' has a zero denominator"),
    ([{"mode": "maxmin", "items": ONE_ITEM, "agents": ONE_AGENT}],
     "an instance must be a JSON object, got list"),
    ({"mode": "maxmin", "items": {"x1": "1"}, "agents": ONE_AGENT},
     "'items' must be a list of objects"),
    ({"mode": "maxmin", "items": ONE_ITEM, "agents": "p1"},
     "'agents' must be a list of objects"),
    ({"mode": "maxmin", "items": ONE_ITEM, "agents": [{"id": "p1", "l": 1.5, "r": 1}]},
     "agent 'p1': 'l' must be an integer, got 1.5"),
])
def test_malformed_instance_exits_2(tmp_path, capsys, payload, message):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload))
    assert main(["solve", "-i", str(bad)]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and message in err


@pytest.mark.parametrize("command", ["solve", "check", "oracle"])
@pytest.mark.parametrize("value", [pytest.param(None, id="deep-nesting"),
                                   "1e-999999", "1e-9999999", "1e9_999_999"])
def test_unreadable_instance_exits_2(tmp_path, capsys, command, value):
    # 100k nested arrays used to end in a RecursionError traceback, and a
    # huge decimal exponent in a crash when the value was printed (after 14 s
    # of building 10**9999999).
    bad = tmp_path / "bad.json"
    if value is None:
        bad.write_text("[" * 100_000)
        message = "maximum recursion depth exceeded"
    else:
        bad.write_text(json.dumps({"mode": "maxmin", "items": [{"id": "x1", "value": value}],
                                   "agents": ONE_AGENT}))
        message = f"value {value!r} has too many digits to print"
    assert main([command, "-i", str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot read instance {str(bad)!r}: ")
    assert len(err.splitlines()) == 1 and message in err


def write_long_instance(path):
    # Each value prints, but their common denominator has over 4300 digits.
    big = 10 ** 2200
    path.write_text(json.dumps({
        "mode": "minmax",
        "items": [{"id": "x1", "value": f"1/{big + 1}"}, {"id": "x2", "value": f"1/{big + 3}"}],
        "agents": [{"id": "M1", "l": 1, "r": 2}]}))


def write_long_objective_instance(path):
    # A valid instance (integer values, D = 1) whose optimum does not print:
    # one machine carries 20 jobs of 4299 digits each, 4301 digits in all.
    value = str(10 ** (sys.get_int_max_str_digits() - 1) - 1)
    path.write_text(json.dumps({
        "mode": "minmax",
        "items": [{"id": f"x{i}", "value": value} for i in range(1, 21)],
        "agents": [{"id": "M1", "l": 1, "r": 20}]}))


@pytest.mark.parametrize("command", ["check", "solve"])
def test_unprintable_common_denominator_is_refused_before_solving(tmp_path, capsys, command):
    # Validation refuses the instance: ``check`` used to report it valid and
    # ``solve`` to fail only when printing the result.
    path = tmp_path / "long.json"
    write_long_instance(path)
    assert main([command, "-i", str(path)]) == 2
    captured = capsys.readouterr()
    message = f"common denominator has more than {sys.get_int_max_str_digits()} digits"
    lines = (captured.out + captured.err).splitlines()
    assert len([line for line in lines if message in line]) == 1
    if command == "solve":
        assert captured.out == "" and captured.err.startswith("error: invalid instance: ")
    assert len(lines) == (1 if command == "solve" else 2)


@pytest.mark.parametrize("command", ["solve", "oracle"])
def test_objective_too_long_to_print_exits_2(tmp_path, capsys, command):
    # Printing the optimum used to end in a traceback and exit 1.
    path = tmp_path / "long.json"
    write_long_objective_instance(path)
    assert validate(load_instance(str(path))).ok
    out = tmp_path / "out.json"
    argv = [command, "-i", str(path)] + (["-o", str(out)] if command == "solve" else [])
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    assert len(captured.err.splitlines()) == 1 and captured.err.startswith("error: ")
    assert "invalid instance" not in captured.err


@pytest.mark.parametrize("json_flag", [[], ["--json"]])
def test_check_hall_witness_too_long_to_print_exits_2(tmp_path, capsys, json_flag):
    # The witness's load (the 4301-digit total against demand 1) used to
    # end in a traceback after "inclusion-free: ok".
    path = tmp_path / "long.json"
    write_long_objective_instance(path)
    assert main(["check", "-i", str(path)] + json_flag) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1 and captured.err.startswith("error: ")


def test_bench_objective_too_long_to_print_exits_2(tmp_path, capsys):
    path = tmp_path / "long.json"
    write_long_objective_instance(path)
    assert main(["bench", "-d", str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith(f"error: {path}: ")
    assert "invalid instance" not in captured.err


@pytest.mark.parametrize("mantissa", ["1", "9.9", "12.5"])
@pytest.mark.parametrize("sign", ["-", "+"])
def test_every_accepted_exponent_prints_back(mantissa, sign):
    limit = sys.get_int_max_str_digits()
    # the largest exponent accepted: text length plus exponent stays below the limit
    largest = limit - 1 - len(f"{mantissa}e{sign}{limit}")
    value = parse_value(f"{mantissa}e{sign}{largest}")
    assert parse_value(format_value(value)) == value
    with pytest.raises(ValueError, match="too many digits"):
        parse_value(f"{mantissa}e{sign}{largest + 1}")


@pytest.mark.parametrize("delta, message", [
    ("1/0", "value '1/0' has a zero denominator"),
    ("abc", "Invalid literal for Fraction: 'abc'"),
    ("0", "delta must lie in (0,1), got 0"),
    ("1", "delta must lie in (0,1), got 1"),
    ("3/2", "delta must lie in (0,1), got 3/2"),
])
def test_solve_rejects_malformed_delta(paths, capsys, delta, message):
    assert main(["solve", "-i", paths["e1"], "--delta", delta]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("name", ["e1", "m1"])
@pytest.mark.parametrize("k", ["-3", "3"])
def test_solve_rejects_k_below_4(paths, capsys, name, k):
    assert main(["solve", "-k", k, "-i", paths[name]]) == 2
    assert f"error parameter k must be >= 4, got {k}" in capsys.readouterr().err


@pytest.mark.parametrize("payload, message", [
    ({"items": ONE_ITEM, "agents": ONE_AGENT}, "missing key 'mode'"),
    ({"mode": "maxmin", "items": ONE_ITEM + [{"id": "x2"}], "agents": ONE_AGENT},
     "item 2: missing key 'value'"),
    ({"mode": "maxmin", "items": ONE_ITEM, "agents": [{"id": "p1", "l": 1}]},
     "agent 1: missing key 'r'"),
])
def test_missing_key_names_its_place(tmp_path, capsys, payload, message):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload))
    assert main(["solve", "-i", str(bad)]) == 2
    assert capsys.readouterr().err == f"error: cannot read instance {str(bad)!r}: {message}\n"


@pytest.mark.parametrize("command", ["solve", "check", "oracle"])
@pytest.mark.parametrize("kind", ["item", "agent"])
@pytest.mark.parametrize("bad", [["a"], {"a": 1}, 1, None, True, 1.5])
def test_non_string_id_exits_2(tmp_path, capsys, command, kind, bad):
    # Such ids used to load as their str(), "['a']" or "None", and solve.  A
    # JSON number decodes to a str subclass, which is no id either.
    payload = {"mode": "maxmin",
               "items": [{"id": "x1", "value": "1"}, {"id": "x2", "value": "1"}],
               "agents": [{"id": "p1", "l": 1, "r": 1}, {"id": "p2", "l": 2, "r": 2}]}
    payload[f"{kind}s"][1]["id"] = bad
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload))
    assert main([command, "-i", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: cannot read instance {str(path)!r}: "
                            f"{kind} 2: 'id' must be a string, got {bad!r}\n")


# Where a defect goes in the instance's JSON text: the string MARK is
# replaced by a raw JSON token, so that NaN and 1e999999 can be written.
MARK = "@defect@"
NOT_STRINGS = ['["a"]', '{"a": 1}', "1", "1.5", "null", "true"]
NOT_OBJECTS = ["[]", '"x"', "1", "null"]
NOT_LISTS = ["{}", '"x"', "1", "null"]
DEFECTS = ["json", "container", "missing-key", "value", "position", "id", "mode"]


@st.composite
def malformed_texts(draw, kind):
    """A valid instance's JSON text with one drawn defect of ``kind`` in it."""
    n = draw(st.integers(1, 4))
    inst = gen_inclusion_free(draw(st.integers(0, 10 ** 6)), n, n + draw(st.integers(0, 5)),
                              mode=draw(st.sampled_from(list(Mode))))
    data = instance_to_dict(inst)
    items, agents = data["items"], data["agents"]
    if kind == "json":  # no proper prefix of an object's text is JSON
        text = json.dumps(data)
        return text[:draw(st.integers(0, len(text) - 1))]
    token = None
    if kind == "container":
        place = draw(st.sampled_from(["document", "items", "agents", "record"]))
        token = draw(st.sampled_from(NOT_OBJECTS if place in ("document", "record")
                                     else NOT_LISTS))
        if place == "document":
            return token
        if place == "record":
            records = draw(st.sampled_from([items, agents]))
            records[draw(st.integers(0, len(records) - 1))] = MARK
        else:
            data[place] = MARK
    elif kind == "missing-key":
        place = draw(st.sampled_from(["document", "item", "agent"]))
        if place == "document":
            del data[draw(st.sampled_from(["mode", "items", "agents"]))]
        elif place == "item":
            del draw(st.sampled_from(items))[draw(st.sampled_from(["id", "value"]))]
        else:
            del draw(st.sampled_from(agents))[draw(st.sampled_from(["id", "l", "r"]))]
    elif kind == "value":
        token = draw(st.sampled_from(["NaN", "Infinity", "-Infinity", '"1/0"', "1e999999"]))
        if draw(st.booleans()):
            draw(st.sampled_from(items))["value"] = MARK
        else:
            draw(st.sampled_from(agents))["demand"] = MARK
    elif kind == "position":
        token = draw(st.sampled_from(["true", "false", "1.0", "1.5"]))
        draw(st.sampled_from(agents))[draw(st.sampled_from(["l", "r"]))] = MARK
    elif kind == "id":
        token = draw(st.sampled_from(NOT_STRINGS))
        draw(st.sampled_from(items + agents))["id"] = MARK
    else:
        token = draw(st.sampled_from(NOT_STRINGS))
        data["mode"] = MARK
    text = json.dumps(data)
    return text if token is None else text.replace(json.dumps(MARK), token)


# Derandomized: every run draws the same examples and stores none.
@pytest.mark.parametrize("kind", DEFECTS)
@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(data=st.data())
def test_malformed_input_exits_2_with_one_line(tmp_path_factory, kind, data):
    text = data.draw(malformed_texts(kind))
    path = tmp_path_factory.mktemp("malformed") / "bad.json"
    path.write_text(text)
    for command in ("solve", "check", "oracle"):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main([command, "-i", str(path)])
        assert code == 2, (command, text)
        assert out.getvalue() == ""
        assert err.getvalue().startswith(f"error: cannot read instance {str(path)!r}: ")
        assert len(err.getvalue().splitlines()) == 1, err.getvalue()


@pytest.mark.parametrize("args, message", [
    (["--plant", "1/0"], "value '1/0' has a zero denominator"),
    (["--plant", "abc"], "Invalid literal for Fraction: 'abc'"),
    (["--plant", "-1"], "plant target must be positive, got -1"),
    (["-n", "0"], "need n >= 1 and m >= n, got n=0 m=8"),
])
def test_gen_rejects_bad_arguments(tmp_path, capsys, args, message):
    target = tmp_path / "gen.json"
    argv = ["gen", "--seed", "9", "-m", "8", "-o", str(target)]
    assert main(argv + (args if "-n" in args else ["-n", "3"] + args)) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not target.exists()


def test_gen_writes_instance(tmp_path, capsys):
    target = tmp_path / "gen.json"
    assert main(["gen", "--seed", "9", "-n", "3", "-m", "8", "-o", str(target)]) == 0
    data = json.loads(target.read_text())
    assert len(data["items"]) == 8 and len(data["agents"]) == 3
    # with no -o the same bytes go to stdout
    capsys.readouterr()
    assert main(["gen", "--seed", "9", "-n", "3", "-m", "8"]) == 0
    assert capsys.readouterr().out == target.read_text()


@pytest.mark.parametrize("argv", [["solve", "-i", "E1", "-o"], ["solve", "-i", "E1", "--trace"],
                                  ["gen", "--seed", "9", "-n", "3", "-m", "8", "-o"],
                                  ["solve", "-i", "E1", "--trace", "GOOD", "-o"],
                                  ["solve", "-i", "E1", "-o", "GOOD", "--trace"]],
                         ids=["solve-output", "solve-trace", "gen-output",
                              "solve-trace-bad-output", "solve-output-bad-trace"])
@pytest.mark.parametrize("target", ["missing/out.txt", "."], ids=["missing-dir", "a-dir"])
def test_unwritable_output_exits_2(paths, tmp_path, capsys, argv, target):
    # Used to end in a FileNotFoundError or IsADirectoryError traceback and
    # exit 1, the code for "no guess certified".  A run that exits 2 leaves
    # its writable output path (GOOD) unwritten too.
    path = str(tmp_path / target)
    good = tmp_path / "good.txt"
    substitute = {"E1": paths["e1"], "GOOD": str(good)}
    assert main([substitute.get(a, a) for a in argv] + [path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith(f"error: cannot write {path!r}: ")
    assert not (tmp_path / "missing").exists()
    assert list(tmp_path.glob("good.txt*")) == []  # nor a temporary file


def test_failed_second_replace_exits_2_and_leaves_no_temporary_file(paths, tmp_path, capsys,
                                                                     monkeypatch):
    # The second rename fails after the first has moved its temporary file
    # into place.  The cleanup used to remove that moved file again, so a
    # FileNotFoundError escaped main as a traceback, and the other temporary
    # file stayed on disk.
    monkeypatch.chdir(tmp_path)
    replace, targets = os.replace, []

    def second_fails(source, target):
        targets.append(target)
        if len(targets) == 2:
            raise PermissionError(errno.EACCES, os.strerror(errno.EACCES))
        replace(source, target)
    monkeypatch.setattr(os, "replace", second_fails)
    assert main(["solve", "-i", paths["e1"], "-o", "r.json", "--trace", "t.txt"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: cannot write {targets[1]!r}: {os.strerror(errno.EACCES)}\n"
    assert list(tmp_path.glob("*.tmp")) == []
    # the path replaced before the failure keeps its new text
    assert sorted(targets) == ["r.json", "t.txt"]
    assert (tmp_path / targets[0]).exists() and not (tmp_path / targets[1]).exists()


@pytest.mark.parametrize("trace", ["r.json", "sub/../r.json", "link.json"])
def test_solve_refuses_one_file_for_result_and_trace(paths, tmp_path, capsys, monkeypatch,
                                                     trace):
    # Both texts were written to the one path, the result last, so the trace
    # was lost with exit 0.  The paths are compared as they resolve, before
    # the instance is read.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sub").mkdir()
    (tmp_path / "link.json").symlink_to("r.json")
    for source in (paths["e1"], "missing.json"):
        assert main(["solve", "-i", source, "-o", "r.json", "--trace", trace]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: -o and --trace name the same file 'r.json'\n"
        assert not (tmp_path / "r.json").exists()
        assert list(tmp_path.glob("*.tmp")) == []


def test_bench_reports_ratio(paths, capsys):
    assert main(["bench", "-d", paths["dir"], "-k", "8", "--json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert {r["instance"] for r in rows} == {"e1.json", "t1.json", "m1.json"}
    t1_row = next(r for r in rows if r["instance"] == "t1.json")
    assert t1_row["opt"] == "11/10"


def test_bench_table_dashes_what_the_oracle_refuses(tmp_path, t1, capsys):
    # seven agents are past the oracle's limit: no opt and no ratio
    seven = ConvexInstance(Mode.MAXMIN, tuple(Item(f"x{i}", Fraction(1)) for i in range(1, 8)),
                           tuple(Agent(f"p{i}", i, i) for i in range(1, 8)))
    dump_instance(seven, str(tmp_path / "seven.json"))
    dump_instance(t1, str(tmp_path / "t1.json"))
    assert main(["bench", "-d", str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "instance    mode    objective  opt    ratio",
        "seven.json  maxmin  1          -      -    ",
        "t1.json     maxmin  11/10      11/10  1    ",
    ]


@pytest.mark.parametrize("mode", ["maxmin", "minmax"])
def test_instance_with_no_agents(tmp_path, capsys, mode):
    empty = tmp_path / "empty.json"
    empty.write_text(json.dumps({"mode": mode, "items": [], "agents": []}))
    assert main(["solve", "-i", str(empty)]) == 2
    assert capsys.readouterr().err == "error: instance has no agents\n"
    assert main(["check", "-i", str(empty)]) == 0
    assert capsys.readouterr().out.splitlines() == ["inclusion-free: ok", "hall: ok"]


def test_bench_rejects_k_below_4(paths, capsys):
    assert main(["bench", "-d", paths["dir"], "-k", "3"]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert "error parameter k must be >= 4, got 3" in err


def test_bench_rejects_an_invalid_instance(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "mode": "maxmin",
        "items": [{"id": "x1", "value": "1"}] * 5,
        "agents": [{"id": "p1", "l": 1, "r": 5}, {"id": "p2", "l": 2, "r": 4}],
    }))
    assert main(["bench", "-d", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert err.startswith(f"error: {bad}: invalid instance: ")
    assert "margined inclusion" in err


def test_solve_outputs_are_reproducible(paths, tmp_path, capsys):
    args = ["solve", "-k", "8", "-i", paths["m1"], "--json"]
    first_trace, second_trace = tmp_path / "a.trace", tmp_path / "b.trace"
    assert main(args + ["--trace", str(first_trace)]) == 0
    first = capsys.readouterr().out
    assert main(args + ["--trace", str(second_trace)]) == 0
    second = capsys.readouterr().out
    assert first == second
    assert first_trace.read_bytes() == second_trace.read_bytes()
    line = first_trace.read_text().splitlines()[1]
    assert line.startswith("row=") and " nu=" in line and " ptr=" in line


def test_a_value_error_in_any_command_exits_2_with_one_line(paths, capsys, monkeypatch):
    # main reports a ValueError raised anywhere in a command, not only where
    # a command expects one: nothing in check guards its Hall sweep
    def boom(instance):
        raise ValueError("boom")
    monkeypatch.setattr(convalloc.hall, "hall_violations", boom)
    assert main(["check", "-i", paths["e1"]]) == 2
    assert capsys.readouterr() == ("", "error: boom\n")


INVALID = {"mode": "maxmin", "items": [{"id": "x1", "value": "1"}] * 5,
           "agents": [{"id": "p1", "l": 1, "r": 5}, {"id": "p2", "l": 2, "r": 4}]}
INVALID_TEXT = ("duplicate item id 'x1'; " * 4
                + "margined inclusion (p1,p2): [2,4] strictly inside [1,5]")


@pytest.mark.parametrize("argv, message", [
    ("solve -i t1.json -k 0", "error parameter k must be >= 4, got 0"),
    ("solve -i t1.json -k 1025", "error parameter k must be <= 1024, got 1025"),
    ("solve -i t1.json --delta 2", "delta must lie in (0,1), got 2"),
    ("gen --seed 1 -n 5 -m 3", "need n >= 1 and m >= n, got n=5 m=3"),
    ("gen --seed 1 -n 2 -m 4 --plant 0", "plant target must be positive, got 0"),
    ("bench -d bad", f"bad/invalid.json: invalid instance: {INVALID_TEXT}"),
    ("solve -i missing.json", "cannot read instance 'missing.json': "
                              "[Errno 2] No such file or directory: 'missing.json'"),
    ("solve -i invalid.json", f"invalid instance: {INVALID_TEXT}"),
    ("oracle -i invalid.json", "oracle requires a valid instance: duplicate item id 'x1'"),
    ("oracle -i seven.json", "at most 6 agents supported, got 7"),
    ("solve -i t1.json -o missing/r.json", "cannot write 'missing/r.json': "
                                           "No such file or directory"),
    ("solve -i t1.json -o r.json --trace r.json", "-o and --trace name the same file 'r.json'"),
    ("bench -d empty", "no instances under empty"),
], ids=["k", "k-large", "delta", "gen-size", "plant", "bench-invalid", "missing", "solve-invalid",
        "oracle-invalid", "oracle-size", "unwritable", "same-file", "bench-empty"])
def test_every_refusal_is_one_error_line(tmp_path, monkeypatch, capsys, t1, argv, message):
    # One error line on stderr, nothing on stdout and exit 2, whichever
    # command refuses and wherever in it the refusal is raised.
    monkeypatch.chdir(tmp_path)
    for directory in ("bad", "empty"):
        (tmp_path / directory).mkdir()
    for path in ("invalid.json", "bad/invalid.json"):
        (tmp_path / path).write_text(json.dumps(INVALID))
    seven = ConvexInstance(Mode.MAXMIN, tuple(Item(f"x{i}", Fraction(1)) for i in range(1, 8)),
                           tuple(Agent(f"p{i}", i, i) for i in range(1, 8)))
    dump_instance(seven, "seven.json")
    dump_instance(t1, "t1.json")
    assert main(argv.split()) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_library_refusals_are_value_errors():
    assert issubclass(convalloc.SolveError, ValueError)
    assert issubclass(convalloc.OracleSizeError, ValueError)


@pytest.mark.parametrize("argv", [
    ["solve"],
    ["solve", "-i", "x.json", "-k", "nope"],
    ["bogus"],
], ids=["missing-input", "bad-k", "unknown-command"])
def test_usage_error_returns_2(capsys, argv):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: convalloc")
    assert sum(": error: " in line for line in captured.err.splitlines()) == 1


def fresh_main(argv):
    """What ``main`` does, with a newly built parser."""
    args = build_parser().parse_args(argv)
    return args.func(args)


def test_build_parser_returns_a_new_parser():
    assert build_parser() is not build_parser()


def test_shared_parser_keeps_no_trace_between_calls(paths, tmp_path, capsys):
    shared, fresh = tmp_path / "shared", tmp_path / "fresh"
    for run, directory in ((main, shared), (fresh_main, fresh)):
        directory.mkdir()
        trace = directory / "T.trace"
        solve = ["solve", "-k", "8", "-i", paths["m1"]]
        assert run(solve + ["--trace", str(trace), "-o", str(directory / "A.json")]) == 0
        trace.unlink()
        assert run(solve + ["-o", str(directory / "B.json")]) == 0
        assert sorted(p.name for p in directory.iterdir()) == ["A.json", "B.json"]
    capsys.readouterr()
    for name in ("A.json", "B.json"):
        assert (shared / name).read_bytes() == (fresh / name).read_bytes()


def test_shared_parser_runs_each_command_in_turn(tmp_path, capsys):
    outputs = []
    for run in (main, fresh_main):
        inst = tmp_path / f"{run.__name__}.json"
        codes = [run(["gen", "--seed", "5", "-n", "3", "-m", "7", "-o", str(inst)]),
                 run(["solve", "-i", str(inst), "-k", "6", "--json"]),
                 run(["check", "-i", str(inst)])]
        outputs.append((codes, capsys.readouterr(), inst.read_bytes()))
    shared, fresh = outputs
    assert shared[0] == fresh[0] == [0, 0, 0]
    assert shared[1:] == fresh[1:]
    assert shared[1].out.endswith("inclusion-free: ok\nhall: ok\n")


@pytest.mark.parametrize("argv, read", [
    (["gen", "--seed", "7", "-n", "12", "-m", "3000"], 16),
    (["check", "-i", "E1"], 0),
], ids=["while-printing", "at-the-last-flush"])
def test_closed_stdout_exits_2_with_one_line(paths, argv, read):
    # gen prints over 64 KiB of JSON, more than a pipe holds, and the reader
    # closes the pipe after a few bytes.  check's few lines wait in the
    # buffer, and the reader is gone before they are flushed.  These used to
    # end in a BrokenPipeError traceback and exit 1, the code for "no guess
    # certified", or in an "Exception ignored" line at exit and exit 120.
    env = dict(os.environ)
    env.pop("PYTHONUNBUFFERED", None)  # block-buffered, as in a shell pipe
    src = str(Path(convalloc.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    child = subprocess.Popen([sys.executable, "-m", "convalloc.cli",
                              *(paths["e1"] if a == "E1" else a for a in argv)],
                             stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert len(child.stdout.read(read)) == read
    child.stdout.close()
    _, err = child.communicate(timeout=120)
    assert child.returncode == 2
    assert len(err.splitlines()) == 1 and err.startswith(b"error: ")


# The command line in a fresh interpreter capped at 1 GiB of address space,
# so that a rounding table built by mistake fails there and not on the host.
CAPPED_CLI = ("import resource, runpy; "
              "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30)); "
              "runpy.run_module('convalloc.cli', run_name='__main__')")


def test_a_k_past_1024_exits_2_with_one_line(paths):
    # -k 100000 used to build its rounding table until the process was
    # killed, or ended in a MemoryError traceback and exit 1
    env = dict(os.environ)
    src = str(Path(convalloc.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", CAPPED_CLI, "solve", "-i", paths["e1"],
                           "-k", "100000"], capture_output=True, text=True, env=env,
                          timeout=120)
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr == "error: error parameter k must be <= 1024, got 100000\n"


def test_closed_stdout_in_process_returns_2(monkeypatch, capsys):
    class Closed(io.StringIO):  # no file descriptor to point elsewhere
        def write(self, text):
            raise BrokenPipeError(errno.EPIPE, os.strerror(errno.EPIPE))

    monkeypatch.setattr(sys, "stdout", Closed())
    assert main(["gen", "--seed", "7", "-n", "3", "-m", "9"]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
