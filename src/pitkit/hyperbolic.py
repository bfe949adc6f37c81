"""Advection and wave models used as counterexamples to coarse-free parareal.

Transport remembers: a first-order upwind step at unit CFL is an exact
shift, the wave system below conserves a discrete energy exactly.  Both
leave nothing for a block-Jacobi iteration to contract, which is the
behavior the experiment presets demonstrate.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .core import (
    ConfigError,
    GridLayout,
    PropagatorSpec,
    StateVector,
    propagate_slice,
)
from .heat import (
    SourceTerm,
    TridiagonalSystem,
    _cached_source_profile,
    _source_profile,
    _ThomasFactor,
    check_layout,
    substep_length,
)


@dataclass(frozen=True)
class AdvectionModel:
    """du/dt + speed * du/dx = f on (0, 1), first-order upwind (speed > 0).

    bc "periodic" wraps the last cell onto the first; "inflow" holds u = 0
    at the left boundary and lets the flow leave on the right.  Unknowns are
    the n_cells values x_j = j*dx (j = 0..n-1 periodic, j = 1..n inflow).
    """

    speed: float = 1.0
    n_cells: int = 128
    bc: str = "periodic"
    source: SourceTerm = SourceTerm.zero()

    def __post_init__(self):
        if self.speed <= 0.0:
            raise ValueError(f"speed must be positive, got {self.speed}")
        if self.n_cells < 2:
            raise ValueError(f"n_cells must be at least 2, got {self.n_cells}")
        if self.bc not in ("periodic", "inflow"):
            raise ValueError(f"unknown bc {self.bc!r}")

    @property
    def dx(self) -> float:
        return 1.0 / self.n_cells

    @property
    def grid_x(self) -> np.ndarray:
        if self.bc == "periodic":
            return np.arange(0, self.n_cells) * self.dx
        return np.arange(1, self.n_cells + 1) * self.dx

    def layout(self) -> GridLayout:
        return GridLayout(self.n_cells, self.dx, self.bc)

    def zero_state(self) -> StateVector:
        return StateVector(self.layout(), np.zeros(self.n_cells))


def advection_step(model: AdvectionModel, state: StateVector, t: float, dt: float) -> StateVector:
    """One upwind step u_j <- u_j - nu*(u_j - u_{j-1}) + dt*f(x_j, t).

    nu = speed*dt/dx must not exceed 1; at nu = 1 the step is an exact
    shift by one cell.  Samples its own source profile, so it is the
    reference the hoisted ``advection_propagate`` path is checked against.
    """
    check_layout(model, state)
    return StateVector(state.layout, _upwind(model, _cfl_number(model, dt),
                                             _source_profile(model), state.values, t, dt))


def _cfl_number(model: AdvectionModel, dt: float) -> float:
    nu = model.speed * dt / model.dx
    if nu > 1.0 + 1e-12:
        raise ConfigError(f"CFL number {nu:.6g} exceeds 1; shrink dt or the speed")
    return nu


def _upwind(model: AdvectionModel, nu: float, profile, u: np.ndarray,
            t: float, dt: float) -> np.ndarray:
    """One upwind step on a raw value array; ``profile`` is the source's
    space profile on the grid, None for a zero source."""
    if model.bc == "periodic":
        upstream = np.roll(u, 1)
    else:
        upstream = np.concatenate(([0.0], u[:-1]))
    # convex form so nu = 1 reduces to upstream exactly, with no rounding
    new = (1.0 - nu) * u + nu * upstream
    if profile is not None:
        new = new + dt * (profile * model.source.time_profile(t))
    return new


@dataclass(frozen=True)
class WaveModel:
    """u_tt = u_xx on (0, 1) with u = 0 at both walls, kept as the first-order
    system (u, v) with v = u_t.  States stack the two interior fields, so the
    value array has 2*(n_cells - 1) entries: u first, then v.
    """

    n_cells: int = 128

    def __post_init__(self):
        if self.n_cells < 2:
            raise ValueError(f"n_cells must be at least 2, got {self.n_cells}")

    @property
    def dx(self) -> float:
        return 1.0 / self.n_cells

    @property
    def n_unknowns(self) -> int:
        return self.n_cells - 1

    @property
    def grid_x(self) -> np.ndarray:
        return np.arange(1, self.n_cells) * self.dx

    def layout(self) -> GridLayout:
        return GridLayout(self.n_unknowns, self.dx, "dirichlet", components=2)

    def state_from(self, u: np.ndarray, v: np.ndarray) -> StateVector:
        return StateVector(self.layout(), np.concatenate([u, v]))

    def split(self, state: StateVector) -> tuple[np.ndarray, np.ndarray]:
        n = self.n_unknowns
        return state.values[:n], state.values[n:]

    def laplacian_system(self) -> TridiagonalSystem:
        n = self.n_unknowns
        inv_dx2 = 1.0 / self.dx**2
        return TridiagonalSystem(
            np.full(n - 1, inv_dx2), np.full(n, -2.0 * inv_dx2), np.full(n - 1, inv_dx2)
        )


def wave_energy(model: WaveModel, state: StateVector) -> float:
    """Discrete energy dx*sum(v^2) + sum((u_{j+1}-u_j)^2)/dx over all edges,
    boundary values counted as zero.  Conserved exactly by wave_step."""
    u, v = model.split(state)
    d = np.diff(np.concatenate(([0.0], u, [0.0])))
    return float(model.dx * np.dot(v, v) + np.dot(d, d) / model.dx)


def _wave_factor(model: WaveModel, dt: float) -> tuple[TridiagonalSystem, _ThomasFactor]:
    lap = model.laplacian_system()
    quarter = 0.25 * dt * dt
    implicit = TridiagonalSystem(
        -quarter * lap.sub, 1.0 - quarter * lap.diag, -quarter * lap.sup
    )
    return lap, _ThomasFactor(implicit)


# the Laplacian and the factor of I - dt^2/4 L, shared by every propagation
# of the model with substep dt
_cached_wave_factor = functools.lru_cache(maxsize=64)(_wave_factor)


def wave_step(model: WaveModel, state: StateVector, t: float, dt: float) -> StateVector:
    """One trapezoidal step of the first-order system.

    For this linear system the trapezoidal rule coincides with the implicit
    midpoint rule, so the quadratic energy above is conserved to roundoff
    and stepping dt then -dt returns the initial state.  Builds its own
    factor, so it is the reference ``wave_propagate`` is checked against.
    """
    check_layout(model, state)
    lap, factor = _wave_factor(model, dt)
    return StateVector(state.layout, _wave_substep(lap, factor, state.values, dt))


def _wave_substep(lap: TridiagonalSystem, factor: _ThomasFactor, w: np.ndarray,
                  dt: float) -> np.ndarray:
    """One trapezoidal step on a raw (u, v) value array."""
    n = lap.n
    u, v = w[:n], w[n:]
    p = u + 0.5 * dt * v
    q = v + 0.5 * dt * lap.matvec(u)
    v_new = factor.solve(q + 0.5 * dt * lap.matvec(p))
    u_new = p + 0.5 * dt * v_new
    return np.concatenate([u_new, v_new])


def advection_propagate(model: AdvectionModel, spec: PropagatorSpec, state: StateVector,
                        t_from: float, t_to: float) -> StateVector:
    """Advance across one slice with spec.steps_per_slice upwind steps."""
    dt = substep_length(model, spec, state, t_from, t_to)
    nu = _cfl_number(model, dt)
    profile = _cached_source_profile(model)
    steps = spec.steps_per_slice
    span = t_to - t_from
    u = state.values
    for i in range(steps):
        t_i = t_from + (i * span) / steps
        u = _upwind(model, nu, profile, u, t_i, dt)
    return StateVector(state.layout, u)


def wave_propagate(model: WaveModel, spec: PropagatorSpec, state: StateVector,
                   t_from: float, t_to: float) -> StateVector:
    """Advance across one slice with spec.steps_per_slice trapezoidal steps."""
    dt = substep_length(model, spec, state, t_from, t_to)
    lap, factor = _cached_wave_factor(model, dt)
    w = state.values
    for _ in range(spec.steps_per_slice):
        w = _wave_substep(lap, factor, w, dt)
    return StateVector(state.layout, w)


propagate_slice.register(AdvectionModel, advection_propagate)
propagate_slice.register(WaveModel, wave_propagate)
