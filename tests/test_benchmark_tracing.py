"""The benchmark's traced runs keep working, and its traces keep their bits.

``perfbench/spans.py`` swaps pitkit's module globals for timing wrappers
and reads their arguments, so a change to those names or to their call
shape breaks ``perfbench/run.py --trace 1`` without failing any other test.
One test runs input 0 of every workload through the CLI under
``spans.tracing`` and reads the run's layer metrics, as the benchmark does;
another pins the SHA-256 of that input's untraced CSV.
"""

import hashlib
import importlib.util
import pathlib
import sys

import pytest

from pitkit.cli import main

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # a dataclass looks its module up in sys.modules while it is built
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


spans = _load("spans")
workloads = _load("workloads")


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_traced_workload_run_reports_its_sweeps(tmp_path, name):
    workload = workloads.WORKLOADS[name]
    ini = tmp_path / "input0.ini"
    ini.write_text(workload.inputs(1)[0], encoding="utf-8")
    tracer = spans.Tracer()
    with spans.tracing(tracer):
        status = main(["run", "--config", str(ini), "--out", str(tmp_path / "trace.csv")])
    assert status == 0
    metrics = spans.layer_metrics(tracer.spans, workload.n_slices, workload.fine_steps)
    assert metrics["parareal.sweeps"] == workload.iterations


# SHA-256 of the CSV of each workload's seed-1 input 0, as
# ``perfbench/run.py --seed 1`` reports it: a change that moves a benchmark
# trace fails here instead of only in a manual benchmark run.
TRACE_SHA256 = {
    "heat-N48": "e1a47ec563f172897371f136e5ad0f421d1ffad5cabcd8d4592a8ffd54c29763",
    "heat-N6": "394577e80874775239bf553472ce256985652f9a6c80e3f05eb514c607da860e",
    "wave-N8": "959c9334199223efc08d3065783e682d07eb2f408f12ffe002a09d358a7f0d77",
    "spectral-pulsed": "b16378c9890e5fcdad4de74adeaa3334607ca987a0b7ce67fb407acad352e515",
}


def test_trace_hashes_cover_every_workload():
    assert set(TRACE_SHA256) == set(workloads.WORKLOADS)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_seed_one_input_zero_trace_hash_is_pinned(tmp_path, name):
    ini = tmp_path / "input0.ini"
    ini.write_text(workloads.WORKLOADS[name].inputs(1)[0], encoding="utf-8")
    out = tmp_path / "trace.csv"
    assert main(["run", "--config", str(ini), "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == TRACE_SHA256[name]
