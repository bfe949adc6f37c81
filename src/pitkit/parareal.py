"""The parareal iteration, with and without a coarse propagator.

Slice boundary values are corrected by

    U_{n+1}^{k+1} = F(U_n^{k+1 or k}) ... specifically
    U_{n+1}^{k+1} = F(U_n^k) + G(U_n^{k+1}) - G(U_n^k)

where F is the fine propagator over one slice and G a cheap coarse one.
Dropping G gives the block-Jacobi form U_{n+1}^{k+1} = F(U_n^k), which
converges in exactly N iterations (slice n is exact after n of them) but
contracts only as fast as the underlying dynamics forget their past.

The update is evaluated as fine + (g_new - g_old) on purpose: once an
input stops changing the two coarse values cancel bitwise and the slice
value locks to the sequential fine solution exactly, not merely to
within roundoff.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .core import (
    ConfigError,
    IterationTrace,
    NumericalError,
    PropagatorSpec,
    StateVector,
    TimePartition,
    TraceEntry,
    discrete_l2_norm,
    propagate_slice,
    zeros_like,
)
from .factors import iteration_error_bound
from .spectral import SpectralModel

GUESS_KINDS = ("default", "zero", "replicate_u0", "coarse_sweep", "random")


@dataclass(frozen=True)
class PararealConfig:
    partition: TimePartition
    u0: StateVector
    fine: PropagatorSpec
    coarse: Optional[PropagatorSpec] = None
    max_iterations: int = 10
    initial_guess: str = "default"
    # sup-error early-stop threshold; 0 runs all max_iterations
    tolerance: float = 1e-10
    seed: int = 0

    def __post_init__(self):
        if self.max_iterations < 1:
            raise ConfigError(f"max_iterations must be >= 1, got {self.max_iterations}")
        if self.fine.role != "fine":
            raise ConfigError(f"fine propagator has role {self.fine.role!r}")
        if self.coarse is not None and self.coarse.role not in ("coarse", "none"):
            raise ConfigError(f"coarse propagator has role {self.coarse.role!r}")
        if self.initial_guess not in GUESS_KINDS:
            raise ConfigError(
                f"unknown initial_guess {self.initial_guess!r}, expected one of {GUESS_KINDS}"
            )
        if self.tolerance < 0.0:
            raise ConfigError(f"tolerance must be >= 0, got {self.tolerance}")
        if self.initial_guess == "coarse_sweep" and self.effective_coarse is None:
            raise ConfigError("initial_guess 'coarse_sweep' requires a coarse propagator")
        fine_model = self.fine.model
        coarse = self.effective_coarse
        if coarse is not None and isinstance(fine_model, SpectralModel):
            if coarse.mode_count >= self.fine.mode_count:
                raise ConfigError(
                    "coarse propagator must resolve fewer modes than the fine one, "
                    f"got {coarse.mode_count} >= {self.fine.mode_count}"
                )

    @property
    def effective_coarse(self) -> Optional[PropagatorSpec]:
        """The coarse spec, or None when the configured one contributes nothing
        (role 'none', or a spectral propagator keeping zero modes)."""
        c = self.coarse
        if c is None or c.role != "coarse":
            return None
        if isinstance(c.model, SpectralModel) and c.mode_count == 0:
            return None
        return c

    @property
    def resolved_guess(self) -> str:
        if self.initial_guess != "default":
            return self.initial_guess
        return "coarse_sweep" if self.effective_coarse is not None else "replicate_u0"


@dataclass(frozen=True)
class PararealState:
    """Boundary values U^k_0..U^k_N for one iteration."""

    values: tuple[StateVector, ...]
    k: int = 0


def _propagate(config: PararealConfig, spec: PropagatorSpec, state: StateVector,
               n: int) -> StateVector:
    """Advance ``state`` across slice n with the given propagator."""
    t0, t1 = config.partition.slice_bounds(n)
    return propagate_slice(spec.model, spec, state, t0, t1)


def reference_fine_sequential(config: PararealConfig) -> tuple[StateVector, ...]:
    """Slice boundary values of the plain sequential fine run."""
    values = [config.u0]
    for n in range(config.partition.n_slices):
        values.append(_propagate(config, config.fine, values[n], n))
    return tuple(values)


def initialize_guess(config: PararealConfig) -> PararealState:
    n_slices = config.partition.n_slices
    kind = config.resolved_guess
    if kind == "zero":
        values = [config.u0] + [zeros_like(config.u0) for _ in range(n_slices)]
    elif kind == "replicate_u0":
        values = [config.u0] * (n_slices + 1)
    elif kind == "coarse_sweep":
        values = [config.u0]
        for n in range(n_slices):
            values.append(_propagate(config, config.effective_coarse, values[n], n))
    elif kind == "random":
        rng = np.random.default_rng(config.seed)
        values = [config.u0]
        for _ in range(n_slices):
            values.append(config.u0.with_values(rng.standard_normal(config.u0.layout.size)))
    else:
        raise ConfigError(f"unknown initial_guess {kind!r}")
    return PararealState(tuple(values), k=0)


def parareal_iterate(state: PararealState, config: PararealConfig,
                     executor: Optional[ThreadPoolExecutor] = None) -> PararealState:
    """One sweep: parallel fine solves from the old values, then the serial
    coarse correction (or a plain copy-forward without a coarse propagator)."""
    n_slices = config.partition.n_slices
    old = state.values

    def fine(n: int) -> StateVector:
        return _propagate(config, config.fine, old[n], n)

    if executor is None:
        fine_values = [fine(n) for n in range(n_slices)]
    else:
        fine_values = list(executor.map(fine, range(n_slices)))

    new = [config.u0]
    coarse = config.effective_coarse
    if coarse is None:
        new.extend(fine_values)
    else:
        for n in range(n_slices):
            g_new = _propagate(config, coarse, new[n], n)
            g_old = _propagate(config, coarse, old[n], n)
            new.append(fine_values[n] + (g_new - g_old))
    return PararealState(tuple(new), k=state.k + 1)


def run(config: PararealConfig, *, fine_parallel: bool = True,
        on_iteration: Optional[Callable[[int, tuple[StateVector, ...]], None]] = None,
        ) -> IterationTrace:
    """Run the iteration against the sequential fine reference.

    Returns a trace with one entry per (iteration, slice boundary) holding the
    error in the discrete L2 norm of the fine model.  For spectral models the
    entries also carry the analytic bound exp(-rate*k*dT) * sup-error(0),
    where rate is the decay of the slowest mode the coarse propagator does
    not resolve.  Stops early once the sup error over boundaries falls below
    config.tolerance.
    """
    reference = reference_fine_sequential(config)
    state = initialize_guess(config)

    fine_model = config.fine.model
    bound_rate = None
    if isinstance(fine_model, SpectralModel):
        coarse = config.effective_coarse
        covered = coarse.mode_count if coarse is not None else 0
        bound_rate = fine_model.slowest_uncovered_rate(covered)

    entries: list[TraceEntry] = []
    sups: list[float] = []
    delta_t = config.partition.delta_t

    def record(k: int, values: tuple[StateVector, ...], wall_ms: float) -> None:
        errors = [discrete_l2_norm(v - r) for v, r in zip(values, reference)]
        sups.append(max(errors))
        if not np.isfinite(sups[-1]):
            raise NumericalError(f"iteration {k} produced a non-finite error {sups[-1]}")
        bound = None
        if bound_rate is not None:
            bound = iteration_error_bound(k, delta_t, bound_rate, sups[0])
        for n, err in enumerate(errors):
            entries.append(TraceEntry(k, n, err, bound=bound, wall_time_ms=wall_ms))

    start = time.perf_counter()
    record(0, state.values, (time.perf_counter() - start) * 1e3)
    executor = None
    try:
        if fine_parallel and config.partition.n_slices > 1:
            executor = ThreadPoolExecutor(max_workers=config.partition.n_slices)
        for _ in range(config.max_iterations):
            if config.tolerance > 0.0 and sups[-1] <= config.tolerance:
                break
            start = time.perf_counter()
            state = parareal_iterate(state, config, executor)
            record(state.k, state.values, (time.perf_counter() - start) * 1e3)
            if on_iteration is not None:
                on_iteration(state.k, state.values)
    finally:
        if executor is not None:
            executor.shutdown(wait=False)

    metadata = {
        "n_slices": config.partition.n_slices,
        "delta_t": delta_t,
        "t_start": config.partition.t_start,
        "t_end": config.partition.t_end,
        "model": type(fine_model).__name__,
        "coarse": "none" if config.effective_coarse is None else "yes",
        "initial_guess": config.resolved_guess,
        "tolerance": config.tolerance,
        "norm": "discrete_l2",
    }
    return IterationTrace(tuple(entries), metadata)
