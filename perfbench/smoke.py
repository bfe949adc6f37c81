"""Smoke run of the benchmark's own code; not part of the test suite.

    python3 perfbench/smoke.py               # every workload, 0.5 s a mode
    python3 perfbench/smoke.py --seconds 25  # the full end-to-end table

Runs every workload untraced and traced, prints each metric, and fails if
an output check fails, if the metric names drift from BENCHMARK.json, if
the traced fine-call and sweep counts miss their closed forms, or if the
benchmark prints a result in a directory without the pitkit sources.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys

import run
from workloads import WORKLOADS


def check_bare_directory() -> list[str]:
    bare = run.OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    shutil.copytree(run.HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "heat-N6", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=120)
    shutil.rmtree(bare)
    if done.returncode == 0 or done.stdout.strip():
        return ["a directory without src/pitkit produced a result"]
    return []


def check_workload(name: str, seconds: float, spec: dict) -> list[str]:
    workload = WORKLOADS[name]
    problems = []
    for trace in (False, True):
        record = run.measure(workload, 1, seconds, trace)
        print("\n".join(run.report_lines(record)), flush=True)
        if not record["correct"]:
            problems.append(f"{name}: {record['failed']} of {record['attempted']} runs failed")
        expected = spec["per_layer" if trace else "end_to_end"]
        got = [(metric, entry["unit"]) for metric, entry in record["metrics"].items()]
        if got != [(m["name"], m["unit"]) for m in expected]:
            problems.append(f"{name}: metrics differ from BENCHMARK.json")
        if trace:
            metrics = {metric: entry["value"] for metric, entry in record["metrics"].items()}
            n, k = workload.n_slices, workload.iterations
            if metrics["parareal.fine_calls"] != n * (k + 1) or metrics["parareal.sweeps"] != k:
                problems.append(f"{name}: traced fine calls or sweeps miss N(K+1) and K")
    return problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seconds", type=float, default=0.5)
    args = parser.parse_args()
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    problems = []
    if [(w["name"], w["why"]) for w in spec["workloads"]] != [(w.name, w.why) for w in WORKLOADS.values()]:
        problems.append("workloads differ from BENCHMARK.json")
    run.import_pitkit()
    for name in WORKLOADS:
        problems += check_workload(name, args.seconds, spec)
    problems += check_bare_directory()
    for problem in problems:
        print(f"SMOKE FAILED: {problem}")
    print("smoke ok" if not problems else f"smoke: {len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
