"""Tiny-size smoke check of the benchmark harness.

Usage:
    python3 perfbench/smoke.py

Runs every workload of BENCHMARK.json with tiny inputs, untraced and
traced, and checks that the result line has the documented schema, that
every named metric is present with its unit and a finite value, and that
every output check passed. It also checks that the harness refuses to
run where the program's source is missing. It makes no assertion about
wall-clock time.
"""

import json
import math
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def require(ok, detail=""):
    if not ok:
        raise SystemExit(f"smoke check failed: {detail}")


def check_benchmark_json(spec):
    require(set(spec) == {"command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"}, sorted(spec))
    require(1 <= spec["run_seconds"] <= 60)
    require(2 <= len(spec["workloads"]) <= 8)
    names = []
    for workload in spec["workloads"]:
        require(set(workload) == {"name", "why"}, workload)
        require(len(workload["why"]) <= 200 and "\n" not in workload["why"])
        names.append(workload["name"])
    for metric in spec["end_to_end"]:
        require(set(metric) == {"name", "unit", "better", "bound"}, metric)
        require(0 < metric["bound"] <= 0.25, metric)
        names.append(metric["name"])
    for metric in spec["per_layer"]:
        require(set(metric) == {"name", "unit", "better"}, metric)
        names.append(metric["name"])
    for metric in spec["end_to_end"] + spec["per_layer"]:
        require(UNIT.match(metric["unit"]), metric)
        require(metric["better"] in ("higher", "lower"), metric)
    require(all(NAME.match(n) for n in names), names)
    require(len(names) == len(set(names)), "duplicate names")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    require(setup and setup[0]["unit"] == "s" and
            setup[0]["better"] == "lower", "setup_s")


def run(cwd, workload, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", "7", "--seconds", "1", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=170, check=False)


def check_result(spec, workload, trace):
    done = run(ROOT, workload, trace)
    require(done.returncode == 0, done.stderr[-3000:])
    result = json.loads(done.stdout.strip().splitlines()[-1])
    require(set(result) == {"correct", "attempted", "failed", "metrics"},
            result)
    require(result["correct"] is True and result["failed"] == 0, result)
    require(isinstance(result["attempted"], int) and
            result["attempted"] >= 1, result)
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    names = {m["name"] for m in wanted}
    require(set(result["metrics"]) == names, set(result["metrics"]) ^ names)
    for metric in wanted:
        got = result["metrics"][metric["name"]]
        require(got["unit"] == metric["unit"], (metric, got))
        require(isinstance(got["value"], (int, float)) and
                math.isfinite(got["value"]), (metric, got))
    if not trace:
        require(all(result["metrics"][name]["value"] > 0 for name in names),
                result["metrics"])
    return result


def check_refuses_without_source(spec):
    with tempfile.TemporaryDirectory(dir=ROOT / ".perfbench_work") as tmp:
        bare = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        for path in spec["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        done = run(bare, spec["workloads"][0]["name"], 0)
        require(done.returncode != 0, done.stdout)
        require('"metrics"' not in done.stdout, done.stdout)


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    check_benchmark_json(spec)
    (ROOT / ".perfbench_work").mkdir(exist_ok=True)
    check_refuses_without_source(spec)
    for workload in spec["workloads"]:
        for trace in (0, 1):
            result = check_result(spec, workload["name"], trace)
            print(f"ok {workload['name']} trace {trace}: "
                  f"{result['attempted']} pairs checked")
    print("smoke check passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
