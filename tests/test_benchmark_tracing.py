"""The benchmark's traced runs keep working.

``perfbench/spans.py`` swaps pitkit's module globals for timing wrappers
and reads their arguments, so a change to those names or to their call
shape breaks ``perfbench/run.py --trace 1`` without failing any other test.
This test runs input 0 of every workload through the CLI under
``spans.tracing`` and reads the run's layer metrics, as the benchmark does.
"""

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
