"""Span tracing around the public names each pitkit layer exposes.

Nothing inside pitkit is changed: ``tracing`` swaps the module attributes
the callers look up for timing wrappers and puts the originals back on
exit.  Fine propagations run on the parareal pool threads, so spans go to a
lock-protected buffer, and a span opened on a thread with no open span of
its own takes as parent the innermost open span of the thread that owns the
run (the sweep that submitted it).
"""

from __future__ import annotations

import contextlib
import importlib
import itertools
import json
import statistics
import threading
import time
from collections import defaultdict
from typing import NamedTuple, Optional

# (module, attribute) pairs, wrapped where the caller looks them up: cli
# holds its own references to run_parareal, build_parareal and render_trace.
TRACED = (
    ("pitkit.cli", "run_parareal"),
    ("pitkit.cli", "build_parareal"),
    ("pitkit.cli", "render_trace"),
    ("pitkit.parareal", "reference_fine_sequential"),
    ("pitkit.parareal", "initialize_guess"),
    ("pitkit.parareal", "parareal_iterate"),
    ("pitkit.parareal", "propagate_slice"),
    ("pitkit.parareal", "discrete_l2_norm"),
    ("pitkit.spectral", "source_mode_integral"),
)

MODEL_LAYERS = {"HeatModel": "heat", "WaveModel": "hyperbolic",
                "AdvectionModel": "hyperbolic", "SpectralModel": "spectral"}


class Span(NamedTuple):
    id: int
    parent: Optional[int]
    run: int
    name: str
    start_ns: int
    end_ns: int
    detail: Optional[str]  # "<model class>/<role>" for propagate_slice

    @property
    def ms(self) -> float:
        return (self.end_ns - self.start_ns) / 1e6

    @property
    def us(self) -> float:
        return (self.end_ns - self.start_ns) / 1e3


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.run_id = 0
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._root = self._stack()  # the thread that creates the tracer runs the workload

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                root = self._root
                parent = root[-1] if root else None
            with self._lock:
                span_id = next(self._ids)
            detail = None
            if name == "parareal.propagate_slice":
                detail = f"{type(args[0]).__name__}/{args[1].role}"
            stack.append(span_id)
            start = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                with self._lock:
                    self.spans.append(Span(span_id, parent, self.run_id, name, start, end, detail))
        return traced

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span._asdict()) + "\n")


@contextlib.contextmanager
def tracing(tracer: Tracer):
    originals = []
    try:
        for module_name, attr in TRACED:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            originals.append((module, attr, original))
            short = module_name.rsplit(".", 1)[1]
            setattr(module, attr, tracer.wrap(f"{short}.{attr}", original))
        yield tracer
    finally:
        for module, attr, original in reversed(originals):
            setattr(module, attr, original)


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def layer_metrics(spans: list[Span], n_slices: int, fine_steps: int) -> dict[str, float]:
    """Per-layer figures of one traced run (spans of one run id)."""
    by_name = defaultdict(list)
    children = defaultdict(list)
    for span in spans:
        by_name[span.name].append(span)
        children[span.parent].append(span)

    (run,) = by_name["cli.run_parareal"]
    (reference,) = by_name["parareal.reference_fine_sequential"]
    (guess,) = by_name["parareal.initialize_guess"]
    sweeps = by_name["parareal.parareal_iterate"]
    propagations = by_name["parareal.propagate_slice"]
    fine = [s for s in propagations if s.detail.endswith("/fine")]
    coarse = [s for s in propagations if s.detail.endswith("/coarse")]
    n_sweeps = len(sweeps)

    sweep_ids = {s.id for s in sweeps}
    fine_in_sweeps = [s for s in fine if s.parent in sweep_ids]
    fine_phase_ms = 0.0
    for sweep in sweeps:
        spans_of_sweep = [s for s in children[sweep.id] if s.detail and s.detail.endswith("/fine")]
        if spans_of_sweep:
            fine_phase_ms += (max(s.end_ns for s in spans_of_sweep)
                              - min(s.start_ns for s in spans_of_sweep)) / 1e6
    coarse_in_sweeps = [s for s in coarse if s.parent in sweep_ids]

    # T_F from the serial reference run, free of contention for the
    # interpreter lock; T_G from coarse spans, which always run on the
    # thread that owns the run
    reference_fine = [s for s in fine if s.parent == reference.id]
    t_fine = _median([s.us for s in reference_fine])
    t_coarse = _median([s.us for s in coarse])
    k = n_sweeps
    predicted = n_slices * t_fine / ((k + 1) * n_slices * t_coarse + k * t_fine)

    norms = by_name["parareal.discrete_l2_norm"]
    metrics = {
        "parareal.reference_ms": reference.ms,
        "parareal.guess_ms": guess.ms,
        "parareal.sweep_ms": sum(s.ms for s in sweeps) / n_sweeps,
        "parareal.fine_phase_ms": fine_phase_ms / n_sweeps,
        "parareal.fine_parallelism": sum(s.ms for s in fine_in_sweeps) / fine_phase_ms,
        "parareal.coarse_phase_ms": sum(s.ms for s in coarse_in_sweeps) / n_sweeps,
        "parareal.coarse_calls": len(coarse),
        "parareal.fine_calls": len(fine),
        "parareal.sweeps": n_sweeps,
        "parareal.run_self_ms": run.ms - sum(s.ms for s in children[run.id]),
        "parareal.cost_ratio": t_coarse / t_fine,
        "parareal.predicted_speedup": predicted,
        "core.norm_calls": len(norms),
        "core.norm_us": sum(s.us for s in norms) / len(norms),
        "presets.build_ms": sum(s.ms for s in by_name["cli.build_parareal"]),
        "cli.render_ms": sum(s.ms for s in by_name["cli.render_trace"]),
    }

    layer = MODEL_LAYERS[fine[0].detail.split("/")[0]]
    metrics[f"{layer}.fine_slice_us"] = t_fine
    if layer != "hyperbolic":
        metrics[f"{layer}.coarse_slice_us"] = t_coarse
    if fine_steps:
        metrics[f"{layer}.substep_us"] = sum(s.us for s in reference_fine) / (len(reference_fine) * fine_steps)
    if layer == "spectral":
        quadratures = by_name["spectral.source_mode_integral"]
        contended = {s.id for s in fine_in_sweeps}
        metrics["spectral.source_integral_calls"] = len(quadratures)
        metrics["spectral.source_integral_us"] = _median(
            [s.us for s in quadratures if s.parent not in contended])
    return metrics


def per_run(spans: list[Span]) -> dict[int, list[Span]]:
    runs = defaultdict(list)
    for span in spans:
        runs[span.run].append(span)
    return runs
