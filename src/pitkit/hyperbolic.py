"""Advection and wave models used as counterexamples to coarse-free parareal.

Transport remembers: a first-order upwind step at unit CFL is an exact
shift, the wave system below conserves a discrete energy exactly.  Both
leave nothing for a block-Jacobi iteration to contract, which is the
behavior the experiment presets demonstrate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import ConfigError, GridLayout
from .heat import (
    GridModel,
    HeatModel,
    SourceTerm,
    TridiagonalSystem,
    _check_cells,
    _source_profile,
    _ThomasFactor,
    identity_minus,
)


@dataclass(frozen=True)
class AdvectionModel(GridModel):
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
        _check_cells(self.n_cells)
        if self.bc not in ("periodic", "inflow"):
            raise ValueError(f"unknown bc {self.bc!r}")

    @property
    def grid_x(self) -> np.ndarray:
        if self.bc == "periodic":
            return np.arange(0, self.n_cells) * self.dx
        return np.arange(1, self.n_cells + 1) * self.dx

    def layout(self) -> GridLayout:
        return GridLayout(self.n_cells, self.dx, self.bc)

    def stepper(self, dt: float):
        """Upwind step u_j <- u_j - nu*(u_j - u_{j-1}) + dt*f(x_j, t) on a
        stack u[m, n] of value arrays whose row i starts at time t[i], with
        nu = speed*dt/dx, which must not exceed 1; at nu = 1 the step is an
        exact shift by one cell.  There is no row form: the step comes
        with None in its place."""
        nu = self.speed * dt / self.dx
        if nu > 1.0 + 1e-12:
            raise ConfigError(f"CFL number {nu:.6g} exceeds 1; shrink dt or the speed")
        periodic = self.bc == "periodic"
        source, profile = self.source, _source_profile(self)

        def step(u: np.ndarray, t: list[float]) -> np.ndarray:
            if periodic:
                upstream = np.roll(u, 1, axis=1)
            else:
                upstream = np.concatenate((np.zeros((len(u), 1)), u[:, :-1]), axis=1)
            # convex form so nu = 1 reduces to upstream exactly, with no rounding
            new = (1.0 - nu) * u + nu * upstream
            if profile is not None:
                pulses = np.array([source.time_profile(s) for s in t])
                new = new + dt * (profile * pulses[:, None])
            return new
        return step, None


@dataclass(frozen=True)
class WaveModel(GridModel):
    """u_tt = u_xx on (0, 1) with u = 0 at both walls, kept as the first-order
    system (u, v) with v = u_t.  States stack the two interior fields, so the
    value array has 2*(n_cells - 1) entries: u first, then v.
    """

    n_cells: int = 128
    # unforced: a class attribute, not a field, so that ``source.is_zero``
    # answers for every grid model
    source = SourceTerm.zero()

    def __post_init__(self):
        _check_cells(self.n_cells)

    @property
    def n_unknowns(self) -> int:
        return self.n_cells - 1

    @property
    def grid_x(self) -> np.ndarray:
        return np.arange(1, self.n_cells) * self.dx

    def layout(self) -> GridLayout:
        return GridLayout(self.n_unknowns, self.dx, "dirichlet", components=2)

    def state_from(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        return np.concatenate([u, v])

    def split(self, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        n = self.n_unknowns
        return values[:n], values[n:]

    def laplacian(self) -> TridiagonalSystem:
        return HeatModel(self.n_cells, "dirichlet").laplacian()

    def stepper(self, dt: float):
        """Trapezoidal step of the first-order system on a stack w[m, 2n]
        of (u, v) value arrays, with I - dt^2/4 L factored here once, and
        None for a row form.

        For this linear system the trapezoidal rule coincides with the
        implicit midpoint rule, so the quadratic energy below is conserved
        to roundoff and stepping dt then -dt returns the initial state.
        """
        lap = self.laplacian()
        factor = _ThomasFactor(identity_minus(lap, 0.25 * dt * dt))
        n = lap.n

        def step(w: np.ndarray, t: list[float]) -> np.ndarray:
            u, v = w[:, :n], w[:, n:]
            p = u + 0.5 * dt * v
            q = v + 0.5 * dt * lap.matvec(u)
            v_new = factor.solve(q + 0.5 * dt * lap.matvec(p))
            u_new = p + 0.5 * dt * v_new
            return np.concatenate([u_new, v_new], axis=1)
        return step, None


def wave_energy(model: WaveModel, values: np.ndarray) -> float:
    """Discrete energy dx*sum(v^2) + sum((u_{j+1}-u_j)^2)/dx over all edges,
    boundary values counted as zero.  Conserved exactly by
    ``WaveModel.stepper``."""
    u, v = model.split(values)
    d = np.diff(np.concatenate(([0.0], u, [0.0])))
    return float(model.dx * np.dot(v, v) + np.dot(d, d) / model.dx)

