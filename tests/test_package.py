"""The package namespace: ``import convalloc`` loads the instance model
alone, and every other exported name loads its module on first use.

Each check runs in a fresh interpreter, since the test process has long
since imported every module.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import convalloc
from convalloc import Mode, dump_instance
from convalloc.generator import gen_inclusion_free

# Every exported name, by the module that defines it; a submodule is
# exported under its own name.
EXPORTS = {
    "alignment": ("AlignmentError", "align", "assignment_vector", "is_non_wasteful",
                  "is_right_aligned"),
    "dp_engine": ("DPTable", "backward", "forward", "retrieve", "solve_rounded"),
    "generator": ("gen_inclusion_free", "gen_planted"),
    "hall": ("HallWitness", "hall_violations"),
    "instance_model": ("Agent", "Assignment", "ConvexInstance", "Item", "Mode",
                       "ValidationReport", "Violation", "assignment_from_positions",
                       "dump_instance", "format_value", "instance_from_dict",
                       "instance_to_dict", "lexicographic_order", "load_instance",
                       "parse_value", "stranded_items", "validate"),
    "oracle": ("OracleSizeError", "opt_maxmin", "opt_minmax"),
    "rounding": ("InputVector", "RoundedInstance", "RoundingScheme", "input_vector",
                 "round_instance", "scheme"),
    "solver": ("SolveError", "SolveResult", "VerifyReport", "decide", "scale",
               "solve_maxmin", "solve_minmax", "verify"),
}
NAMES = sorted([*EXPORTS, *(name for names in EXPORTS.values() for name in names)])

# The directory this process imported convalloc from, first on the path of
# every fresh interpreter.
SRC = str(Path(convalloc.__file__).resolve().parent.parent)

LOADED = "sorted(m for m in sys.modules if m.partition('.')[0] == 'convalloc')"


def fresh(script: str, *args: str):
    """Run ``script`` in a fresh interpreter; returns the JSON value of its
    last stdout line."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", script, *args], capture_output=True,
                          text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """One Max-Min and one Min-Max instance file."""
    out = tmp_path_factory.mktemp("package")
    paths = []
    for mode in (Mode.MAXMIN, Mode.MINMAX):
        path = str(out / f"{mode.value}.json")
        dump_instance(gen_inclusion_free(7, 4, 12, mode=mode), path)
        paths.append(path)
    return paths


def test_import_and_load_need_only_the_instance_model(files):
    script = ("import json, sys, convalloc\n"
              "for path in sys.argv[1:]:\n"
              "    convalloc.load_instance(path)\n"
              f"print(json.dumps({LOADED}))")
    assert fresh(script, *files) == ["convalloc", "convalloc.instance_model"]


def test_import_and_load_need_no_dataclasses(files):
    # dataclasses imports inspect, and with it ast, dis and tokenize: as
    # long again as the rest of the import
    script = ("import json, sys\n"
              "before = set(sys.modules)\n"
              "import convalloc\n"
              "for path in sys.argv[1:]:\n"
              "    convalloc.load_instance(path)\n"
              "print(json.dumps(sorted(set(sys.modules) - before)))")
    added = fresh(script, *files)
    assert "convalloc.instance_model" in added
    assert not {"dataclasses", "inspect"} & set(added)


def test_all_names_the_exports():
    assert len(NAMES) == 56
    assert fresh("import json, convalloc; print(json.dumps(sorted(convalloc.__all__)))") \
        == NAMES


def test_every_name_is_its_defining_modules_object():
    script = ("import importlib, json, sys, convalloc\n"
              "exports = json.loads(sys.argv[1])\n"
              "wrong = []\n"
              "for module, names in exports.items():\n"
              "    defining = importlib.import_module('convalloc.' + module)\n"
              "    if getattr(convalloc, module) is not defining:\n"
              "        wrong.append(module)\n"
              "    wrong += [n for n in names if getattr(convalloc, n) is not getattr(defining, n)]\n"
              "print(json.dumps(wrong))")
    assert fresh(script, json.dumps(EXPORTS)) == []


def test_first_use_loads_the_names_module():
    script = ("import json, sys, convalloc\n"
              "convalloc.verify\n"
              "solver = convalloc.__dict__['verify'] is convalloc.solver.verify\n"
              f"print(json.dumps([solver, {LOADED}]))")
    solver, loaded = fresh(script)
    assert solver  # bound in the package, not looked up again
    assert {"convalloc.solver", "convalloc.dp_engine", "convalloc.hall",
            "convalloc.rounding"} <= set(loaded)
    assert not {"convalloc.oracle", "convalloc.generator", "convalloc.alignment"} & set(loaded)


def test_star_import_binds_every_name():
    script = ("import json\n"
              "namespace = {}\n"
              "exec('from convalloc import *', namespace)\n"
              "print(json.dumps(sorted(set(namespace) - {'__builtins__'})))")
    assert fresh(script) == NAMES


def test_dir_lists_every_name_before_first_use():
    script = ("import json, convalloc\n"
              "print(json.dumps(sorted(set(convalloc.__all__) - set(dir(convalloc)))))")
    assert fresh(script) == []


def test_an_unknown_name_raises_attribute_error():
    script = ("import json, convalloc\n"
              "try:\n"
              "    convalloc.no_such_name\n"
              "except AttributeError as exc:\n"
              "    print(json.dumps(str(exc)))")
    assert "'no_such_name'" in fresh(script)


def test_the_cli_loads_no_oracle_generator_or_alignment():
    loaded = fresh(f"import json, sys, convalloc.cli; print(json.dumps({LOADED}))")
    assert "convalloc.solver" in loaded
    assert not {"convalloc.oracle", "convalloc.generator", "convalloc.alignment"} & set(loaded)


def test_a_solve_after_importing_the_cli_imports_nothing(files, tmp_path):
    # As the benchmark does: import the CLI, then time solves, which must
    # not import a module on their first call.
    script = ("import io, json, sys\n"
              "from contextlib import redirect_stdout\n"
              "import convalloc, convalloc.cli as cli\n"
              "out, paths = sys.argv[1], sys.argv[2:]\n"
              "instances = [convalloc.load_instance(path) for path in paths]\n"
              "before = set(sys.modules)\n"
              "for inst in instances:\n"
              "    solve = cli.solve_maxmin if inst.mode is convalloc.Mode.MAXMIN else cli.solve_minmax\n"
              "    solve(inst, 8, None, [])\n"
              "library = sorted(set(sys.modules) - before)\n"
              "for path in paths:\n"
              "    with redirect_stdout(io.StringIO()):\n"
              "        cli.main(['solve', '-i', path, '-k', '8', '-o', out + '-r.json',\n"
              "                  '--trace', out + '-t.txt', '--json'])\n"
              "package = [m for m in set(sys.modules) - before if m.startswith('convalloc')]\n"
              f"print(json.dumps([library, package]))")
    library, package = fresh(script, str(tmp_path / "out"), *files)
    assert library == []
    assert package == []
