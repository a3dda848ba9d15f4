"""Smoke test of the benchmark itself.

Usage (from the repository root): python3 perfbench/smoke.py

Runs every workload for a moment, untraced and traced, and checks that each
metric BENCHMARK.json names is printed with its unit, that the last line is
the result object with every answer correct, and that failed_frac is 0.  It
also checks that the benchmark refuses to run, printing no result, in a copy
that holds only BENCHMARK.json and the benchmark's own files.  Exits 1 on the
first problem found.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=180)


def check_run(workload: str, trace: int, spec: dict) -> list[str]:
    done = run(ROOT, "--workload", workload, "--seed", "0", "--seconds", "0.01",
               "--trace", str(trace))
    where = f"{workload} --trace {trace}"
    if done.returncode != 0:
        return [f"{where}: exit code {done.returncode}: {done.stderr.strip()[-500:]}"]
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    found = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        found.append(f"{where}: result keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        found.append(f"{where}: correct={result['correct']} failed={result['failed']} "
                     f"attempted={result['attempted']}")
    wanted = spec["per_layer" if trace else "end_to_end"]
    if set(result["metrics"]) != {m["name"] for m in wanted}:
        found.append(f"{where}: metrics {sorted(result['metrics'])}")
    report = lines[:-1]
    for metric in wanted:
        pattern = re.compile(rf"^{re.escape(metric['name'])}\s+\S+\s+{re.escape(metric['unit'])}\b")
        if not any(pattern.match(line) for line in report):
            found.append(f"{where}: {metric['name']} not printed with unit {metric['unit']}")
        if result["metrics"].get(metric["name"], {}).get("unit") != metric["unit"]:
            found.append(f"{where}: {metric['name']} has the wrong unit in the result")
    if not any(re.match(r"^failed_frac\s+0\s+ratio\b", line) for line in report):
        found.append(f"{where}: failed_frac is not printed as 0")
    return found


def check_refuses_without_sources() -> list[str]:
    (HERE / "work").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=HERE / "work") as bare:
        bare_root = Path(bare)
        shutil.copy(ROOT / "BENCHMARK.json", bare_root)
        shutil.copytree(HERE, bare_root / "perfbench",
                        ignore=shutil.ignore_patterns("work", "__pycache__"))
        done = run(bare_root, "--workload", "cli-mixed-small", "--seed", "0",
                   "--seconds", "1", "--trace", "0")
    if done.returncode == 0 or '"metrics"' in done.stdout:
        return ["the benchmark ran without the convalloc sources"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    found = check_refuses_without_sources()
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            found += check_run(workload, trace, spec)
    for line in found:
        print(f"FAIL {line}")
    print("smoke: ok" if not found else f"smoke: {len(found)} problems")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
