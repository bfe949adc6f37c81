"""Benchmark of ``pitkit run``, end to end and per layer.

    python3 perfbench/run.py --workload heat-N48 --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; pitkit is imported from ``src/``.
The seed draws the workload's INI inputs (see ``workloads.py``), which go
through ``pitkit.cli.main(["run", "--config", ini, "--out", csv])`` in this
process, as a closed loop with one run in flight.  Every run's CSV is
checked: complete (K+1) x (N+1) rows, finite values, slice n exactly locked
(error 0.0) once k >= n, and byte-identical whenever an input repeats.

--trace 0 reports the end-to-end metrics, with tracing off.  --trace 1
alternates untraced runs with runs traced by ``spans.py`` and reports the
per-layer metrics plus the tracing overhead.  Human-readable lines come
first; the last line of standard output is one JSON object.  Details
(environment, tail percentile, trace hashes, spans) go to
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

sys.path.insert(0, str(HERE))
from workloads import WORKLOADS, Workload  # noqa: E402

NPROC = len(os.sched_getaffinity(0))  # before measure() pins the process to one CPU
SETUP_REPEATS = 9
TAIL_SAMPLES = 10

END_TO_END = {
    "run_ms_p50": "ms",
    "run_ms_tail": "ms",
    "runs_per_s": "1/s",
    "success_rate": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "parareal.reference_ms": "ms",
    "parareal.guess_ms": "ms",
    "parareal.sweep_ms": "ms",
    "parareal.fine_phase_ms": "ms",
    "parareal.fine_parallelism": "ratio",
    "parareal.coarse_phase_ms": "ms",
    "parareal.coarse_calls": "count",
    "parareal.fine_calls": "count",
    "parareal.sweeps": "count",
    "parareal.run_self_ms": "ms",
    "parareal.cost_ratio": "ratio",
    "parareal.predicted_speedup": "ratio",
    "core.norm_calls": "count",
    "core.norm_us": "us",
    "heat.fine_slice_us": "us",
    "heat.coarse_slice_us": "us",
    "heat.substep_us": "us",
    "hyperbolic.fine_slice_us": "us",
    "hyperbolic.substep_us": "us",
    "spectral.fine_slice_us": "us",
    "spectral.coarse_slice_us": "us",
    "spectral.source_integral_calls": "count",
    "spectral.source_integral_us": "us",
    "presets.build_ms": "ms",
    "cli.render_ms": "ms",
    "trace_overhead_pct": "%",
}

# A fresh interpreter imports the CLI and builds the run from the config,
# which every `pitkit run` pays before its first sweep.
SETUP_CHILD = (
    "import sys; sys.path.insert(0, sys.argv[1]); import pitkit.cli; "
    "from pitkit.presets import build_parareal, load_config; "
    "build_parareal(load_config(sys.argv[2]))"
)

TRACE_COLUMNS = "k,n,error_l2,bound,wall_time_ms"


def check_trace(csv: bytes, workload: Workload) -> str | None:
    """The first problem found in one run's CSV, or None."""
    body = [line for line in csv.decode("utf-8").splitlines() if not line.startswith("#")]
    if not body or body[0] != TRACE_COLUMNS:
        return "missing column header"
    rows = body[1:]
    width = workload.n_slices + 1
    expected = (workload.iterations + 1) * width
    if len(rows) != expected:
        return f"{len(rows)} rows, expected {expected}"
    for index, row in enumerate(rows):
        fields = row.split(",")
        if len(fields) != 5:
            return f"row {index}: {len(fields)} fields"
        k, n = int(fields[0]), int(fields[1])
        if (k, n) != divmod(index, width):
            return f"row {index}: (k, n) = ({k}, {n}) out of order"
        error = float(fields[2])
        numbers = [error, float(fields[4])] + ([float(fields[3])] if fields[3] else [])
        if not all(math.isfinite(x) for x in numbers):
            return f"row {index}: non-finite value"
        if n <= k and error != 0.0:
            return f"k={k} n={n}: error {error!r}, slice should be locked"
    return None


class Runner:
    """Runs one workload's inputs through the CLI and checks every output."""

    def __init__(self, workload: Workload, seed: int, workdir: Path):
        import pitkit.cli

        self.main = pitkit.cli.main
        self.workload = workload
        workdir.mkdir(parents=True, exist_ok=True)
        self.inis = []
        for slot, text in enumerate(workload.inputs(seed)):
            path = workdir / f"input{slot}.ini"
            path.write_text(text, encoding="utf-8")
            self.inis.append(path)
        self.csv = workdir / "trace.csv"
        self.first_output: dict[str, bytes] = {}
        self.attempted = 0
        self.failures: list[str] = []
        self.teardown_s: list[float] = []

    def run(self, i: int) -> tuple[float, bool]:
        """Run input i mod pool size; return (seconds, output correct)."""
        ini = self.inis[i % len(self.inis)]
        self.csv.unlink(missing_ok=True)
        argv = ["run", "--config", str(ini), "--out", str(self.csv)]
        start = time.perf_counter()
        try:
            code = self.main(argv)
        except Exception as exc:  # a traceback is a failed run, not a benchmark crash
            code = f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start
        self.join_pool_threads()
        self.attempted += 1
        problem = None if code == 0 else f"exit {code}"
        if problem is None:
            csv = self.csv.read_bytes()
            problem = check_trace(csv, self.workload)
            first = self.first_output.setdefault(ini.name, csv)
            if problem is None and csv != first:
                problem = "output differs from an earlier run of the same input"
        if problem is not None:
            self.failures.append(f"{ini.name}: {problem}")
        return seconds, problem is None

    def join_pool_threads(self) -> None:
        """Wait, untimed, for the worker threads the run's executor left
        behind, as a CLI process does at exit; the next run would otherwise
        share the interpreter lock with the last run's teardown."""
        start = time.perf_counter()
        for thread in threading.enumerate():
            if thread is not threading.current_thread():
                thread.join(timeout=60)
        self.teardown_s.append(time.perf_counter() - start)

    def trace_hashes(self) -> dict[str, str]:
        return {name: hashlib.sha256(csv).hexdigest() for name, csv in sorted(self.first_output.items())}


def setup_seconds(inis: list[Path]) -> list[float]:
    times = []
    for i in range(SETUP_REPEATS):
        start = time.perf_counter()
        # no timeout: with one, Popen.wait polls in sleeps of up to 50 ms,
        # which would round every reading up to that grid
        subprocess.run([sys.executable, "-c", SETUP_CHILD, str(SRC), str(inis[i % len(inis)])],
                       check=True, stdin=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
    return times


def tail(times: list[float]) -> tuple[float, float]:
    """(percentile, value) of the highest percentile with TAIL_SAMPLES beyond it."""
    ordered = sorted(times)
    if len(ordered) <= TAIL_SAMPLES:  # too few runs: report the slowest
        return 100.0, ordered[-1]
    index = len(ordered) - TAIL_SAMPLES - 1
    return 100.0 * (index + 1) / len(ordered), ordered[index]


def reference_loop_ms() -> float:
    """Best of five runs of a fixed pure-Python loop: the host's speed at
    the moment, recorded so that drift between benchmark runs shows."""
    best = math.inf
    for _ in range(5):
        start = time.perf_counter()
        total = 0
        for i in range(200_000):
            total += i * i
        best = min(best, time.perf_counter() - start)
    return best * 1e3


def closed_loop(seconds: float, run_one) -> float:
    """Call run_one(i) for i = 0, 1, ... until `seconds` have passed, at
    least twice; return the elapsed time."""
    gc.collect()
    start = time.perf_counter()
    i = 0
    while i < 2 or time.perf_counter() - start < seconds:
        run_one(i)
        i += 1
    return time.perf_counter() - start


def measure_end_to_end(runner: Runner, seconds: float) -> tuple[dict, dict]:
    setup = setup_seconds(runner.inis)
    times, correct = [], 0

    def run_one(i):
        nonlocal correct
        elapsed, ok = runner.run(i)
        times.append(elapsed)
        correct += ok

    elapsed = closed_loop(seconds, run_one)
    percentile, tail_s = tail(times)
    metrics = {
        "run_ms_p50": statistics.median(times) * 1e3,
        "run_ms_tail": tail_s * 1e3,
        "runs_per_s": correct / elapsed,
        "success_rate": 1.0 - len(runner.failures) / runner.attempted,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    details = {
        "timed_runs": len(times),
        "tail_percentile": percentile,
        "tail_samples_beyond": TAIL_SAMPLES if len(times) > TAIL_SAMPLES else 0,
        "setup_runs_s": setup,
        "error_rate": 1.0 - metrics["success_rate"],
    }
    return metrics, details


def measure_layers(runner: Runner, seconds: float, spans_path: Path) -> tuple[dict, dict]:
    from spans import Tracer, layer_metrics, per_run, tracing

    tracer = Tracer()
    plain, traced = [], []

    def run_one(i):
        if i % 2 == 0:
            plain.append(runner.run(i // 2)[0])
        else:
            tracer.run_id = i
            with tracing(tracer):
                traced.append(runner.run(i // 2)[0])

    closed_loop(seconds, run_one)
    w = runner.workload
    per_run_metrics = [layer_metrics(spans, w.n_slices, w.fine_steps)
                       for spans in per_run(tracer.spans).values()]
    # a layer the workload does not run reports 0
    metrics = {name: float(statistics.median(m.get(name, 0.0) for m in per_run_metrics))
               for name in PER_LAYER if name != "trace_overhead_pct"}
    metrics["trace_overhead_pct"] = 100.0 * (statistics.median(traced) / statistics.median(plain) - 1.0)
    tracer.write_jsonl(spans_path)
    details = {"traced_runs": len(traced), "untraced_runs": len(plain),
               "spans": len(tracer.spans), "spans_file": str(spans_path.relative_to(ROOT))}
    return metrics, details


def environment() -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": NPROC,
        "cpus_used": sorted(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "commit": git_commit(),
        "platform": platform.platform(),
    }


def git_commit() -> str:
    """HEAD of the checkout, read from .git without leaving the checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def measure(workload: Workload, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run; returns the result record."""
    # One CPU: on a shared two-vCPU host, handing the interpreter lock
    # between pool threads on different vCPUs made run_ms_p50 of heat-N48
    # swing by 2x between runs.  The pool's threads are still all started,
    # scheduled and contended; only their placement is fixed.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    tag = f"{workload.name}-s{seed}-t{int(trace)}"
    runner = Runner(workload, seed, OUT / tag)
    for i in range(len(runner.inis)):  # warm-up; also the reference output of each input
        runner.run(i)
    loop_before = reference_loop_ms()
    if trace:
        metrics, details = measure_layers(runner, seconds, OUT / f"spans-{tag}.jsonl")
        units = PER_LAYER
    else:
        metrics, details = measure_end_to_end(runner, seconds)
        units = END_TO_END
    details["reference_loop_ms"] = [loop_before, reference_loop_ms()]
    details["pool_teardown_ms_p50"] = statistics.median(runner.teardown_s) * 1e3
    return {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "correct": not runner.failures,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "failures": runner.failures[:20],
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
        "details": details,
        "trace_sha256": runner.trace_hashes(),
        "environment": environment(),
    }


def report_lines(record: dict) -> list[str]:
    name = record["workload"]
    details = record["details"]
    lines = [f"{name}: {record['attempted']} runs, {record['failed']} failed"]
    for metric, entry in record["metrics"].items():
        lines.append(f"{name} {metric} = {entry['value']:.6g} {entry['unit']}")
    if not record["trace"]:
        lines.append(f"{name} error_rate = {details['error_rate']:.6g} ratio")
        lines.append(f"{name} run_ms_tail is p{details['tail_percentile']:.1f} of "
                     f"{details['timed_runs']} runs ({details['tail_samples_beyond']} beyond it)")
    before, after = details["reference_loop_ms"]
    lines.append(f"{name} reference loop {before:.1f} ms before, {after:.1f} ms after (host speed)")
    env = record["environment"]
    lines.append(f"{name} environment: python {env['python']}, numpy {env['numpy']}, "
                 f"nproc {env['nproc']} (ran on CPUs {env['cpus_used']}), commit {env['commit']}")
    for input_name, digest in record["trace_sha256"].items():
        lines.append(f"{name} {input_name} trace sha256 {digest}")
    lines.extend(f"{name} FAILED {failure}" for failure in record["failures"])
    return lines


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_pitkit() -> None:
    """Put the checkout's src/ first on the path; fail if pitkit is not there."""
    if not (SRC / "pitkit" / "cli.py").is_file():
        raise SystemExit(f"error: no pitkit sources under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import pitkit

    if Path(pitkit.__file__).resolve().parent != SRC / "pitkit":
        raise SystemExit(f"error: imported pitkit from {pitkit.__file__}, not from {SRC}")


def main(argv=None) -> int:
    args = parse_args(argv)
    import_pitkit()
    record = measure(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    OUT.mkdir(parents=True, exist_ok=True)
    result_path = OUT / f"result-{args.workload}-s{args.seed}-t{args.trace}.json"
    result_path.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print("\n".join(report_lines(record)))
    print(json.dumps({key: record[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
