"""The parareal iteration, with and without a coarse propagator.

Slice boundary values are corrected by

    U_{n+1}^{k+1} = F(U_n^k) + G(U_n^{k+1}) - G(U_n^k)

where F is the fine propagator over one slice and G a cheap coarse one.
Dropping G gives the block-Jacobi form U_{n+1}^{k+1} = F(U_n^k), which
converges in exactly N iterations (slice n is exact after n of them) but
contracts only as fast as the underlying dynamics forget their past.

The update is evaluated as fine + (g_new - g_old) on purpose: once an
input stops changing the two coarse values cancel bitwise and the slice
value locks to the sequential fine solution exactly, not merely to
within roundoff.  Locked inputs are not recomputed: an input bitwise equal
to the reference's takes the reference's next value as its fine value, and
an input unchanged since the last sweep keeps its coarse value.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .core import (
    MAX_RUN_VALUES,
    ConfigError,
    IterationTrace,
    NumericalError,
    PropagatorSpec,
    StateVector,
    TimePartition,
    discrete_l2_norm,
    propagate_slice,
)
from .factors import iteration_error_bound

GUESS_KINDS = ("default", "zero", "replicate_u0", "coarse_sweep", "random")


def check_boundary_size(n_slices: int, size: int) -> None:
    """Reject a run whose (N+1, size) boundary array would exceed
    MAX_RUN_VALUES, before any state of that size is allocated."""
    if (n_slices + 1) * size > MAX_RUN_VALUES:
        raise ConfigError(f"{n_slices + 1} slice boundaries of {size} values each exceed "
                          f"the limit of {MAX_RUN_VALUES} values a run may hold")


@dataclass(frozen=True)
class PararealConfig:
    """One parareal run.  Each spec's model answers for its own states:
    ``model.check_spec(spec, layout)`` raises ValueError when states of
    ``layout`` cannot go through ``spec``.  ``coarse`` is None when there is
    no coarse propagator."""

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
        check_boundary_size(self.partition.n_slices, self.u0.layout.size)
        if (self.max_iterations + 1) * (self.partition.n_slices + 1) > MAX_RUN_VALUES:
            raise ConfigError(f"max_iterations {self.max_iterations}: a trace of "
                              f"{self.max_iterations + 1} x {self.partition.n_slices + 1} errors "
                              f"exceeds the limit of {MAX_RUN_VALUES} values a run may hold")
        if self.fine.role != "fine":
            raise ConfigError(f"fine propagator has role {self.fine.role!r}")
        # propagators see raw value stacks, not layouts, so the layout the
        # run's rows share is checked here, once, against both specs
        self.fine.model.check_spec(self.fine, self.u0.layout)
        coarse = self.coarse
        if coarse is not None:
            if coarse.role != "coarse":
                raise ConfigError(f"coarse propagator has role {coarse.role!r}")
            coarse.model.check_spec(coarse, self.u0.layout)
        if self.initial_guess not in GUESS_KINDS:
            raise ConfigError(
                f"unknown initial_guess {self.initial_guess!r}, expected one of {GUESS_KINDS}"
            )
        if self.tolerance < 0.0:
            raise ConfigError(f"tolerance must be >= 0, got {self.tolerance}")
        if self.initial_guess == "coarse_sweep" and coarse is None:
            raise ConfigError("initial_guess 'coarse_sweep' requires a coarse propagator")

    @property
    def resolved_guess(self) -> str:
        if self.initial_guess != "default":
            return self.initial_guess
        return "coarse_sweep" if self.coarse is not None else "replicate_u0"


def _propagate(config: PararealConfig, spec: PropagatorSpec,
               values: np.ndarray, slices: Sequence[int]) -> np.ndarray:
    """Advance the boundary value ``values[n]`` across slice n with the
    given propagator for each n in ``slices``; row i of the result is the
    end value of slice ``slices[i]``.  Slices of bitwise the same length
    share a substep length, and so one stacked ``propagate_slice`` call; a
    length that differs in any bit gets a stack of its own."""
    stacks: dict[float, list[tuple[int, int, float, float]]] = {}
    for i, n in enumerate(slices):
        t0, t1 = config.partition.slice_bounds(n)
        stacks.setdefault(t1 - t0, []).append((i, n, t0, t1))
    out = np.empty((len(slices), values.shape[1]))
    for group in stacks.values():
        index, inputs, t_from, t_to = zip(*group)
        out[list(index)] = propagate_slice(spec.model, spec, values[list(inputs)], t_from, t_to)
    return out


def _read_only(values: np.ndarray) -> np.ndarray:
    values.flags.writeable = False
    return values


def _boundaries(config: PararealConfig) -> np.ndarray:
    """A fresh (N+1, size) array whose row 0 is u0."""
    values = np.zeros((config.partition.n_slices + 1, config.u0.layout.size))
    values[0] = config.u0.values
    return values


def _sequential(config: PararealConfig, spec: PropagatorSpec) -> np.ndarray:
    """Slice boundary values of a plain sequential run of one propagator."""
    values = _boundaries(config)
    for n in range(config.partition.n_slices):
        values[n + 1] = _propagate(config, spec, values, [n])[0]
    return _read_only(values)


def reference_fine_sequential(config: PararealConfig) -> np.ndarray:
    """Slice boundary values of the plain sequential fine run."""
    return _sequential(config, config.fine)


def initialize_guess(config: PararealConfig) -> np.ndarray:
    """Boundary values U^0_0..U^0_N of the resolved initial guess."""
    kind = config.resolved_guess
    if kind == "coarse_sweep":
        return _sequential(config, config.coarse)
    values = _boundaries(config)
    if kind == "replicate_u0":
        values[1:] = values[0]
    elif kind == "random":
        rng = np.random.default_rng(config.seed)
        for row in values[1:]:
            row[:] = rng.standard_normal(len(row))
    return _read_only(values)


def _same(a: np.ndarray, b: np.ndarray) -> bool:
    """Bitwise equality of two rows; unlike ==, it tells -0.0 from +0.0."""
    return a.tobytes() == b.tobytes()


def parareal_iterate(old: np.ndarray, config: PararealConfig, reference: np.ndarray,
                     g_old: Optional[np.ndarray] = None,
                     ) -> tuple[np.ndarray, Optional[np.ndarray]]:
    """One sweep from boundary values U^k to U^{k+1}, each an (N+1, size)
    array: the fine solves from the old values, each depending only on its
    own slice and input, so they run as one stacked call per slice length;
    then the in-order coarse correction (or a plain copy-forward without a
    coarse propagator).

    Returns a fresh read-only U^{k+1} and the coarse values G(U^{k+1}_n) of
    slices 0..N-1, which the next sweep takes as ``g_old``; the coarse
    values are None without a coarse propagator.  ``reference`` holds the
    sequential fine values; where U^k_n is bitwise the reference's, F(U^k_n)
    is its next value.  ``g_old`` holds G(U^k_n); when it is None the sweep
    computes it.  Where U^{k+1}_n is bitwise U^k_n, G(U^{k+1}_n) is
    ``g_old[n]``.  The propagators are deterministic, so every carried value
    is bitwise the one a recompute would give.
    """
    n_slices = config.partition.n_slices
    unlocked = [n for n in range(n_slices) if not _same(old[n], reference[n])]
    # a locked input's fine value is the reference's next value
    new = np.array(reference)
    new[[n + 1 for n in unlocked]] = _propagate(config, config.fine, old, unlocked)

    coarse = config.coarse
    if coarse is None:
        return _read_only(new), None
    if g_old is None:
        g_old = _propagate(config, coarse, old, range(n_slices))
    g_new = np.empty(g_old.shape)
    for n in range(n_slices):
        g_new[n] = g_old[n] if _same(new[n], old[n]) else _propagate(config, coarse, new, [n])[0]
        # new[n + 1] holds F(U^k_n): fine + (g_new - g_old)
        new[n + 1] += g_new[n] - g_old[n]
    return _read_only(new), _read_only(g_new)


def run(config: PararealConfig, *,
        on_iteration: Optional[Callable[[int, np.ndarray], None]] = None,
        ) -> IterationTrace:
    """Run the iteration against the sequential fine reference.

    Returns a trace whose ``errors[k, n]`` is the error at slice boundary n
    after k sweeps, in the discrete L2 norm of the fine model.  Where the
    fine model gives a rate, ``fine.model.uncovered_rate(coarse)``, the trace
    also carries the analytic bound exp(-rate*k*dT) * sup-error(0) per
    sweep.  Stops early once the sup error over boundaries falls below
    config.tolerance.  ``on_iteration(k, values)`` receives each sweep's
    read-only (N+1, size) boundary values.
    """
    reference = reference_fine_sequential(config)
    # a value bitwise equal to a finite reference value has error exactly
    # +0.0, so its norm is not taken; a non-finite one still gives NaN
    finite = np.isfinite(reference).all(axis=1).tolist()
    errors: list[np.ndarray] = []
    wall_time_ms: list[float] = []

    def record(k: int, values: np.ndarray, start: float) -> None:
        wall_time_ms.append((time.perf_counter() - start) * 1e3)
        row = np.array([0.0 if finite[n] and _same(v, r)
                        else discrete_l2_norm(StateVector(config.u0.layout, v - r))
                        for n, (v, r) in enumerate(zip(values, reference))])
        if not np.isfinite(row.max()):
            raise NumericalError(f"iteration {k} produced a non-finite error {row.max()}")
        errors.append(row)

    start = time.perf_counter()
    values = initialize_guess(config)
    record(0, values, start)
    # the coarse sweep guess is U^0_{n+1} = G(U^0_n), so it already holds
    # the coarse values the first sweep needs
    g_values = values[1:] if config.resolved_guess == "coarse_sweep" else None
    for k in range(1, config.max_iterations + 1):
        if config.tolerance > 0.0 and errors[-1].max() <= config.tolerance:
            break
        start = time.perf_counter()
        values, g_values = parareal_iterate(values, config, reference, g_values)
        record(k, values, start)
        if on_iteration is not None:
            on_iteration(k, values)

    bounds = [None] * len(errors)
    rate = config.fine.model.uncovered_rate(config.coarse)
    if rate is not None:
        sup0 = float(errors[0].max())
        bounds = [iteration_error_bound(k, config.partition.delta_t, rate, sup0)
                  for k in range(len(errors))]
    return IterationTrace(errors, tuple(bounds), tuple(wall_time_ms), config.resolved_guess)
