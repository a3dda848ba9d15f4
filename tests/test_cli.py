"""Command-line behavior: outputs, exit codes, determinism."""

import json
import sys

import pytest

from convalloc import dump_instance, format_value, parse_value, verify
from convalloc.cli import build_parser, main


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


def test_check_invalid_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "mode": "maxmin",
        "items": [{"id": "x1", "value": "1"}] * 5,
        "agents": [{"id": "p1", "l": 1, "r": 5}, {"id": "p2", "l": 2, "r": 4}],
    }))
    assert main(["check", "-i", str(bad)]) == 2
    out = capsys.readouterr().out
    assert "margined inclusion" in out


def test_oracle_t1(paths, capsys):
    assert main(["oracle", "-i", paths["t1"]]) == 0
    assert capsys.readouterr().out.strip() == "opt: 11/10"


def test_solve_e1(paths, capsys, e1, tmp_path):
    result_path = tmp_path / "res.json"
    code = main(["solve", "--mode", "maxmin", "-k", "10", "--delta", "1/40",
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


def test_solve_mode_mismatch(paths, capsys):
    assert main(["solve", "--mode", "minmax", "-i", paths["e1"]]) == 2


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


def test_missing_file_exit_code(capsys):
    assert main(["check", "-i", "does-not-exist.json"]) == 2


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
    # Each value prints, but the optimum's denominator has over 4300 digits.
    big = 10 ** 2200
    path.write_text(json.dumps({
        "mode": "minmax",
        "items": [{"id": "x1", "value": f"1/{big + 1}"}, {"id": "x2", "value": f"1/{big + 3}"}],
        "agents": [{"id": "M1", "l": 1, "r": 2}]}))


@pytest.mark.parametrize("command", ["solve", "oracle"])
def test_objective_too_long_to_print_exits_2(tmp_path, capsys, command):
    # Printing the optimum used to end in a traceback and exit 1.
    path = tmp_path / "long.json"
    write_long_instance(path)
    out = tmp_path / "out.json"
    argv = [command, "-i", str(path)] + (["-o", str(out)] if command == "solve" else [])
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    assert len(captured.err.splitlines()) == 1 and captured.err.startswith("error: ")


def test_bench_objective_too_long_to_print_exits_2(tmp_path, capsys):
    path = tmp_path / "long.json"
    write_long_instance(path)
    assert main(["bench", "-d", str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith(f"error: {path}: ")


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


@pytest.mark.parametrize("argv", [["solve", "-i", "E1", "-o"], ["solve", "-i", "E1", "--trace"],
                                  ["gen", "--seed", "9", "-n", "3", "-m", "8", "-o"]],
                         ids=["solve-output", "solve-trace", "gen-output"])
@pytest.mark.parametrize("target", ["missing/out.txt", "."], ids=["missing-dir", "a-dir"])
def test_unwritable_output_exits_2(paths, tmp_path, capsys, argv, target):
    # Used to end in a FileNotFoundError or IsADirectoryError traceback and
    # exit 1, the code for "no guess certified".
    path = str(tmp_path / target)
    assert main([paths["e1"] if a == "E1" else a for a in argv] + [path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith(f"error: cannot write {path!r}: ")
    assert not (tmp_path / "missing").exists()


def test_bench_reports_ratio(paths, capsys):
    assert main(["bench", "-d", paths["dir"], "-k", "8", "--json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert {r["instance"] for r in rows} == {"e1.json", "t1.json", "m1.json"}
    t1_row = next(r for r in rows if r["instance"] == "t1.json")
    assert t1_row["opt"] == "11/10"


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
