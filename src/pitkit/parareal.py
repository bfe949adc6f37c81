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
    ConfigError,
    IterationTrace,
    NumericalError,
    PropagatorSpec,
    StateVector,
    TimePartition,
    discrete_l2_norm,
    propagate_slice,
    zeros_like,
)
from .factors import iteration_error_bound
from .heat import check_layout
from .spectral import SpectralModel, check_mode_layout

GUESS_KINDS = ("default", "zero", "replicate_u0", "coarse_sweep", "random")


@dataclass(frozen=True)
class PararealConfig:
    """One parareal run.  ``coarse`` is None when there is no coarse
    propagator; a spec that contributes nothing (role 'none', or a spectral
    propagator keeping zero modes) is stored as None."""

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
        coarse = self.coarse
        if coarse is not None and coarse.role not in ("coarse", "none"):
            raise ConfigError(f"coarse propagator has role {coarse.role!r}")
        if coarse is not None and (coarse.role == "none" or (
                isinstance(coarse.model, SpectralModel) and coarse.mode_count == 0)):
            coarse = None
            object.__setattr__(self, "coarse", None)
        # propagators see raw value stacks, not layouts, so the layout the
        # run's states share is checked here, once
        if isinstance(self.fine.model, SpectralModel):
            check_mode_layout(self.fine.model, self.u0)
        elif hasattr(self.fine.model, "layout"):
            check_layout(self.fine.model, self.u0)
        if self.initial_guess not in GUESS_KINDS:
            raise ConfigError(
                f"unknown initial_guess {self.initial_guess!r}, expected one of {GUESS_KINDS}"
            )
        if self.tolerance < 0.0:
            raise ConfigError(f"tolerance must be >= 0, got {self.tolerance}")
        if self.initial_guess == "coarse_sweep" and coarse is None:
            raise ConfigError("initial_guess 'coarse_sweep' requires a coarse propagator")
        if coarse is not None and isinstance(self.fine.model, SpectralModel):
            if coarse.mode_count >= self.fine.mode_count:
                raise ConfigError(
                    "coarse propagator must resolve fewer modes than the fine one, "
                    f"got mode_count {coarse.mode_count} >= {self.fine.mode_count}"
                )

    @property
    def resolved_guess(self) -> str:
        if self.initial_guess != "default":
            return self.initial_guess
        return "coarse_sweep" if self.coarse is not None else "replicate_u0"


def _propagate(config: PararealConfig, spec: PropagatorSpec,
               states: Sequence[StateVector], slices: Sequence[int]) -> list[StateVector]:
    """Advance ``states[i]`` across slice ``slices[i]`` with the given
    propagator.  States whose slices have bitwise the same length share a
    substep length, and so one stacked ``propagate_slice`` call; a length
    that differs in any bit gets a stack of its own."""
    stacks: dict[float, list[tuple[int, float, float]]] = {}
    for i, n in enumerate(slices):
        t0, t1 = config.partition.slice_bounds(n)
        stacks.setdefault(t1 - t0, []).append((i, t0, t1))
    out: list[StateVector] = [None] * len(slices)
    for rows in stacks.values():
        index, t_from, t_to = zip(*rows)
        stack = np.array([states[i].values for i in index])
        for i, values in zip(index, propagate_slice(spec.model, spec, stack, t_from, t_to)):
            out[i] = states[i].with_values(values)
    return out


def _sequential(config: PararealConfig, spec: PropagatorSpec) -> tuple[StateVector, ...]:
    """Slice boundary values of a plain sequential run of one propagator."""
    values = [config.u0]
    for n in range(config.partition.n_slices):
        values.append(_propagate(config, spec, [values[n]], [n])[0])
    return tuple(values)


def reference_fine_sequential(config: PararealConfig) -> tuple[StateVector, ...]:
    """Slice boundary values of the plain sequential fine run."""
    return _sequential(config, config.fine)


def initialize_guess(config: PararealConfig) -> tuple[StateVector, ...]:
    """Boundary values U^0_0..U^0_N of the resolved initial guess."""
    n_slices = config.partition.n_slices
    kind = config.resolved_guess
    if kind == "zero":
        values = [config.u0] + [zeros_like(config.u0) for _ in range(n_slices)]
    elif kind == "replicate_u0":
        values = [config.u0] * (n_slices + 1)
    elif kind == "coarse_sweep":
        return _sequential(config, config.coarse)
    else:  # random
        rng = np.random.default_rng(config.seed)
        values = [config.u0]
        for _ in range(n_slices):
            values.append(config.u0.with_values(rng.standard_normal(config.u0.layout.size)))
    return tuple(values)


def _same(a: StateVector, b: StateVector) -> bool:
    """Bitwise equality; unlike ==, it tells -0.0 from +0.0."""
    return a.values.tobytes() == b.values.tobytes()


def parareal_iterate(old: tuple[StateVector, ...], config: PararealConfig,
                     g_old: Optional[tuple[StateVector, ...]] = None,
                     reference: Optional[tuple[StateVector, ...]] = None,
                     ) -> tuple[tuple[StateVector, ...], Optional[tuple[StateVector, ...]]]:
    """One sweep from boundary values U^k to U^{k+1}: the fine solves from
    the old values, each depending only on its own slice and input, so
    they run as one stacked call per slice length; then the in-order coarse
    correction (or a plain copy-forward without a coarse propagator).

    Returns U^{k+1} and the coarse values G(U^{k+1}_n) of slices 0..N-1,
    which the next sweep takes as ``g_old``; the coarse values are None
    without a coarse propagator.  ``g_old`` holds G(U^k_n); when it is None
    the sweep computes it.  Where U^{k+1}_n is bitwise U^k_n, G(U^{k+1}_n)
    is ``g_old[n]``.  ``reference`` holds the sequential fine values; where
    U^k_n is bitwise the reference's, F(U^k_n) is its next value.  The
    propagators are deterministic, so every carried value is bitwise the
    one a recompute would give.
    """
    n_slices = config.partition.n_slices
    locked = [reference is not None and _same(old[n], reference[n]) for n in range(n_slices)]
    unlocked = [n for n in range(n_slices) if not locked[n]]
    computed = iter(_propagate(config, config.fine, [old[n] for n in unlocked], unlocked))
    fine_values = [reference[n + 1] if locked[n] else next(computed) for n in range(n_slices)]

    new = [config.u0]
    coarse = config.coarse
    if coarse is None:
        new.extend(fine_values)
        return tuple(new), None
    if g_old is None:
        g_old = tuple(_propagate(config, coarse, old[:n_slices], range(n_slices)))
    g_new = []
    for n in range(n_slices):
        g_new.append(g_old[n] if _same(new[n], old[n]) else _propagate(config, coarse, [new[n]], [n])[0])
        new.append(fine_values[n] + (g_new[n] - g_old[n]))
    return tuple(new), tuple(g_new)


def run(config: PararealConfig, *,
        on_iteration: Optional[Callable[[int, tuple[StateVector, ...]], None]] = None,
        ) -> IterationTrace:
    """Run the iteration against the sequential fine reference.

    Returns a trace whose ``errors[k, n]`` is the error at slice boundary n
    after k sweeps, in the discrete L2 norm of the fine model.  For spectral
    models the trace also carries the analytic bound exp(-rate*k*dT) *
    sup-error(0) per sweep, where rate is the decay of the slowest mode the
    coarse propagator does not resolve.  Stops early once the sup error over
    boundaries falls below config.tolerance.
    """
    reference = reference_fine_sequential(config)
    # a value bitwise equal to a finite reference value has error exactly
    # +0.0, so its norm is not taken; a non-finite one still gives NaN
    finite = [bool(np.isfinite(r.values).all()) for r in reference]
    errors: list[np.ndarray] = []
    wall_time_ms: list[float] = []

    def record(k: int, values: tuple[StateVector, ...], start: float) -> None:
        wall_time_ms.append((time.perf_counter() - start) * 1e3)
        row = np.array([0.0 if finite[n] and _same(v, r) else discrete_l2_norm(v - r)
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
        values, g_values = parareal_iterate(values, config, g_values, reference)
        record(k, values, start)
        if on_iteration is not None:
            on_iteration(k, values)

    bounds = [None] * len(errors)
    if isinstance(config.fine.model, SpectralModel):
        covered = 0 if config.coarse is None else config.coarse.mode_count
        rate = config.fine.model.slowest_uncovered_rate(covered)
        sup0 = float(errors[0].max())
        bounds = [iteration_error_bound(k, config.partition.delta_t, rate, sup0)
                  for k in range(len(errors))]
    return IterationTrace(errors, tuple(bounds), tuple(wall_time_ms), config.resolved_guess)
