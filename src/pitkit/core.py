"""Shared domain types for the parallel-in-time solvers.

Time partitions, state layouts, propagator specifications and iteration
traces.  Everything here is an immutable value object so that propagators
stay pure functions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np


class ConfigError(Exception):
    """A run configuration is inconsistent or violates a scheme precondition."""


class NumericalError(Exception):
    """A solver produced an unusable result (singular system, non-finite values)."""


class SingularSystemError(NumericalError):
    """Tridiagonal elimination hit a zero pivot."""


# Most float64 values one array of a run may hold, 32 MiB: its (N+1) x size
# boundary values, its (K+1) x (N+1) trace or one quadrature's nodes.
MAX_RUN_VALUES = 2**22


# --------------------------------------------------------------------------
# state layouts


@dataclass(frozen=True)
class GridLayout:
    """Finite-difference layout.  Only unknowns are stored: a Dirichlet grid
    keeps interior points, a Neumann grid keeps every point including the
    boundary ones.  ``components`` > 1 stacks several fields of ``n_points``
    values each (used by the first-order wave system).
    """

    n_points: int
    dx: float
    bc: str
    components: int = 1

    def __post_init__(self):
        if self.n_points < 1:
            raise ValueError(f"n_points must be positive, got {self.n_points}")
        if self.dx <= 0.0:
            raise ValueError(f"dx must be positive, got {self.dx}")
        if self.components < 1:
            raise ValueError(f"components must be positive, got {self.components}")

    @property
    def size(self) -> int:
        return self.n_points * self.components

    def norm(self, values: np.ndarray) -> float:
        """Discrete L2 norm sqrt(dx * sum(v_i^2))."""
        return float(np.sqrt(self.dx * np.dot(values, values)))


@dataclass(frozen=True)
class ModeLayout:
    """Spectral layout: coefficients of an eigenbasis on (0, length).

    ``sine`` stores modes 1..m_max, ``cosine`` stores modes 0..m_max (the
    constant mode is index 0 of the coefficient vector).
    """

    m_max: int
    basis: str
    length: float

    def __post_init__(self):
        if self.basis not in ("sine", "cosine"):
            raise ValueError(f"unknown basis {self.basis!r}")
        if self.m_max < 1:
            raise ValueError(f"m_max must be positive, got {self.m_max}")
        if self.length <= 0.0:
            raise ValueError(f"length must be positive, got {self.length}")

    @property
    def size(self) -> int:
        return self.m_max if self.basis == "sine" else self.m_max + 1

    def norm(self, values: np.ndarray) -> float:
        """L2 norm of the reconstructed function on (0, length) (Parseval),
        so grid and mode representations of the same function measure
        alike."""
        v = values
        if self.basis == "sine":
            return float(np.sqrt(0.5 * self.length * np.dot(v, v)))
        # cosine: the constant mode integrates to length, the rest to length/2
        return float(np.sqrt(self.length * v[0] ** 2 + 0.5 * self.length * np.dot(v[1:], v[1:])))


Layout = Union[GridLayout, ModeLayout]


# --------------------------------------------------------------------------
# time partition


@dataclass(frozen=True)
class TimePartition:
    """Uniform partition of [t_start, t_end] into n_slices slices.

    Boundaries are computed as t_start + n * span / n_slices, never by
    accumulating increments, so T_n is reproducible bit for bit no matter
    how the partition is traversed.
    """

    t_start: float
    t_end: float
    n_slices: int

    def __post_init__(self):
        if not self.t_end > self.t_start:
            raise ValueError(f"need t_end > t_start, got [{self.t_start}, {self.t_end}]")
        if self.n_slices < 1:
            raise ValueError(f"n_slices must be positive, got {self.n_slices}")
        # boundary n is t_start + n * span / n_slices, so n_slices * span must be finite
        if not np.isfinite(self.n_slices * (self.t_end - self.t_start)):
            raise ValueError(f"need a finite n_slices * (t_end - t_start), got "
                             f"{self.n_slices} * ({self.t_end} - {self.t_start})")

    @property
    def delta_t(self) -> float:
        return (self.t_end - self.t_start) / self.n_slices

    def boundary(self, n: int) -> float:
        if not 0 <= n <= self.n_slices:
            raise ValueError(f"boundary index {n} outside 0..{self.n_slices}")
        return self.t_start + (n * (self.t_end - self.t_start)) / self.n_slices

    @property
    def boundaries(self) -> np.ndarray:
        return np.array([self.boundary(n) for n in range(self.n_slices + 1)])

    def slice_bounds(self, n: int) -> tuple[float, float]:
        return self.boundary(n), self.boundary(n + 1)


# --------------------------------------------------------------------------
# propagator specification


@dataclass(frozen=True)
class PropagatorSpec:
    """Which model advances a state across one slice, and at what resolution.

    Grid models use ``steps_per_slice`` inner steps; spectral models keep
    ``mode_count`` modes.  A run without a coarse propagator has no coarse
    spec: its ``PararealConfig`` gets ``coarse=None``.
    """

    model: object
    role: str
    steps_per_slice: int = 0
    mode_count: int = 0

    def __post_init__(self):
        if self.role not in ("fine", "coarse"):
            raise ValueError(f"unknown role {self.role!r}")
        if self.steps_per_slice < 0:
            raise ValueError("steps_per_slice cannot be negative")
        if self.mode_count < 0:
            raise ValueError("mode_count cannot be negative")
        if self.model is None:
            raise ValueError(f"{self.role} spec needs a model")


def propagate_slice(model, spec: PropagatorSpec, states: np.ndarray,
                    t_from, t_to) -> np.ndarray:
    """Advance each row i of the stack ``states[m, size]`` from t_from[i]
    to t_to[i] with the given model; returns the new stack.

    Each model brings its own ``propagate(spec, states, t_from, t_to)``,
    for rows of any slice lengths; the driver only ever calls this entry
    point, once per phase of a sweep that propagates anything.
    """
    return model.propagate(spec, states, t_from, t_to)


# --------------------------------------------------------------------------
# norms


def discrete_l2_norm(layout: Layout, values: np.ndarray) -> float:
    """Discrete L2 norm of the values of one state of ``layout``."""
    return layout.norm(values)


# --------------------------------------------------------------------------
# iteration traces


@dataclass(frozen=True)
class IterationTrace:
    """Error record of one parareal run: ``errors[k, n]`` (read-only) is the
    discrete L2 error at slice boundary n after k sweeps, ``bounds[k]`` the
    analytic sup-error bound of sweep k (None where the model has none) and
    ``wall_time_ms[k]`` the sweep's wall time."""

    errors: np.ndarray
    bounds: tuple[float | None, ...]
    wall_time_ms: tuple[float, ...]
    initial_guess: str

    def __post_init__(self):
        errors = np.array(self.errors, dtype=float)
        if errors.ndim != 2 or not len(errors) == len(self.bounds) == len(self.wall_time_ms):
            raise ValueError(f"need one bound and one wall time per row of {errors.shape} errors")
        errors.flags.writeable = False
        object.__setattr__(self, "errors", errors)
