"""Backward Euler heat propagators on the unit interval.

The model is du/dt = u_xx + f on (0, 1) with either homogeneous Dirichlet
or homogeneous Neumann boundaries, discretized with the centered three-point
stencil.  Only unknowns are stored: interior points for Dirichlet, all
points for Neumann.  The implicit solve is a hand-rolled Thomas elimination
so the inner loop has no dependencies beyond numpy arrays.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .core import (
    ConfigError,
    GridLayout,
    PropagatorSpec,
    SingularSystemError,
    StateVector,
)

# the pulsed source of the experiment presets: a Gaussian bump in space,
# switched on and off by a train of Gaussian pulses in time
PULSE_AMPLITUDE = 10.0
PULSE_CENTER = 0.5
SPACE_DECAY = 100.0
PULSE_TIMES = (0.1, 0.6, 1.35, 1.85)
TIME_DECAY = 100.0


@dataclass(frozen=True)
class SourceTerm:
    """Separable forcing f(x, t) = space_profile(x) * time_profile(t).

    kind "zero" is no forcing, "pulsed_gaussian" is the bump-with-pulses
    default.
    """

    kind: str = "zero"

    def __post_init__(self):
        if self.kind not in ("zero", "pulsed_gaussian"):
            raise ValueError(f"unknown source kind {self.kind!r}")

    @classmethod
    def zero(cls) -> "SourceTerm":
        return cls(kind="zero")

    @classmethod
    def pulsed(cls) -> "SourceTerm":
        return cls(kind="pulsed_gaussian")

    def space_profile(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if self.kind == "zero":
            return np.zeros_like(x)
        return PULSE_AMPLITUDE * np.exp(-SPACE_DECAY * (x - PULSE_CENTER) ** 2)

    def time_profile(self, t: float) -> float:
        if self.kind == "zero":
            return 0.0
        try:
            return float(sum(math.exp(-TIME_DECAY * (t - tj) ** 2) for tj in PULSE_TIMES))
        except OverflowError:
            # (t - tj) ** 2 overflows only for |t| above 1e154, where t - tj
            # rounds to t for every pulse time, so every pulse adds 0.0
            return 0.0

    @property
    def is_zero(self) -> bool:
        return self.kind == "zero"


class GridModel:
    """What the grid models (heat, advection, wave) share: uniform cells of
    width 1/n_cells, and states of the model's own ``layout()``."""

    @property
    def dx(self) -> float:
        return 1.0 / self.n_cells

    def zero_state(self) -> StateVector:
        layout = self.layout()
        return StateVector(layout, np.zeros(layout.size))

    def check_spec(self, spec: PropagatorSpec | None, layout) -> None:
        """Raise ValueError unless ``layout`` is the model's own."""
        if layout != self.layout():
            raise ValueError(f"state layout {layout} does not fit model {self}")

    def propagate(self, spec: PropagatorSpec, states: np.ndarray, t_from, t_to) -> np.ndarray:
        """Advance each row i of the stack states[m, size] from t_from[i]
        to t_to[i] with spec.steps_per_slice equal steps.

        The rows share one stepper, so their substep lengths must agree bit
        for bit.  Substep times are computed multiplicatively from the slice
        ends so a sweep over adjacent slices hits exactly the same instants as
        one long propagate over their union.
        """
        steps = spec.steps_per_slice
        if steps < 1:
            raise ConfigError(f"{spec.role}.steps_per_slice: must be >= 1, got {steps}")
        t_from = np.asarray(t_from, dtype=float).tolist()
        t_to = np.asarray(t_to, dtype=float).tolist()
        size = self.layout().size
        if states.shape != (len(t_from), size) or len(t_to) != len(t_from):
            raise ValueError(f"need a stack of {len(t_from)} rows of {size} values, got {states.shape}")
        spans = [b - a for a, b in zip(t_from, t_to)]
        if not all(span > 0.0 for span in spans):
            raise ValueError(f"need t_to > t_from, got [{t_from}, {t_to}]")
        dts = {span / steps for span in spans}
        if len(dts) != 1:
            raise ValueError(f"the rows of one stack need one substep length, got {sorted(dts)}")
        try:
            step = _cached_stepper(self, dts.pop())
        except ConfigError as exc:
            raise ConfigError(f"{spec.role}.steps_per_slice: {exc}") from None
        u = states
        for i in range(steps):
            u = step(u, [a + (i * span) / steps for a, span in zip(t_from, spans)])
        return u

    def uncovered_rate(self, coarse: PropagatorSpec | None) -> None:
        """Grid models give no analytic error bound."""
        return None


@dataclass(frozen=True)
class HeatModel(GridModel):
    """Heat equation on (0, 1) with n_cells uniform cells.

    bc "dirichlet" stores the n_cells - 1 interior unknowns; "neumann"
    stores all n_cells + 1 grid values and closes the boundary rows with a
    ghost-point reflection, i.e. stencil (-2, 2)/dx^2, which keeps constant
    vectors exactly in the kernel of the discrete Laplacian.
    """

    n_cells: int = 128
    bc: str = "dirichlet"
    source: SourceTerm = SourceTerm.zero()

    def __post_init__(self):
        if self.n_cells < 2:
            raise ValueError(f"n_cells must be at least 2, got {self.n_cells}")
        if self.bc not in ("dirichlet", "neumann"):
            raise ValueError(f"unknown bc {self.bc!r}")

    @property
    def n_unknowns(self) -> int:
        return self.n_cells - 1 if self.bc == "dirichlet" else self.n_cells + 1

    @property
    def grid_x(self) -> np.ndarray:
        if self.bc == "dirichlet":
            return np.arange(1, self.n_cells) * self.dx
        return np.arange(0, self.n_cells + 1) * self.dx

    def layout(self) -> GridLayout:
        return GridLayout(self.n_unknowns, self.dx, self.bc)

    def laplacian(self) -> TridiagonalSystem:
        """The discrete Laplacian acting on unknowns."""
        n = self.n_unknowns
        inv_dx2 = 1.0 / self.dx**2
        sub = np.full(n - 1, inv_dx2)
        diag = np.full(n, -2.0 * inv_dx2)
        sup = np.full(n - 1, inv_dx2)
        if self.bc == "neumann":
            # ghost reflection: u_{-1} = u_1 and u_{n+1} = u_{n-1}
            sup[0] = 2.0 * inv_dx2
            sub[-1] = 2.0 * inv_dx2
        return TridiagonalSystem(sub, diag, sup)

    def stepper(self, dt: float):
        """Backward Euler step (I - dt*L) u_new = u + dt*f(., t + dt) on a
        stack u[m, n] of value arrays whose row i starts at time t[i] (a
        list of floats), with its factor and source profile built here
        once.

        The source is sampled at the step end, which is the consistent
        choice for the implicit scheme.
        """
        factor = _ThomasFactor(implicit_system(self, dt))
        source, profile = self.source, _source_profile(self)

        def step(u: np.ndarray, t: list[float]) -> np.ndarray:
            if profile is not None:
                pulses = np.array([source.time_profile(s + dt) for s in t])
                u = u + dt * (profile * pulses[:, None])
            return factor.solve(u)
        return step


def conserved_mean(model: HeatModel, state: StateVector) -> float:
    """Trapezoidal mean of a Neumann state.

    This is the quantity the ghost-point closure conserves exactly under
    Backward Euler with zero source (the closure is the finite-volume
    scheme with half cells at the walls).
    """
    if model.bc != "neumann":
        raise ValueError("conserved_mean applies to Neumann states")
    w = np.ones(model.n_unknowns)
    w[0] = 0.5
    w[-1] = 0.5
    return float(np.dot(w, state.values) / model.n_cells)


# --------------------------------------------------------------------------
# tridiagonal systems


@dataclass(frozen=True)
class TridiagonalSystem:
    """Bands (sub, diag, sup) of sizes n-1, n, n-1."""

    sub: np.ndarray
    diag: np.ndarray
    sup: np.ndarray

    def __post_init__(self):
        # read-only copies: a system may be shared through a factor cache
        sub = np.array(self.sub, dtype=float)
        diag = np.array(self.diag, dtype=float)
        sup = np.array(self.sup, dtype=float)
        n = diag.shape[0]
        if n < 1:
            raise ValueError("empty system")
        if sub.shape != (n - 1,) or sup.shape != (n - 1,):
            raise ValueError(
                f"band sizes must be ({n - 1},), ({n},), ({n - 1},); "
                f"got {sub.shape}, {diag.shape}, {sup.shape}"
            )
        for name, band in (("sub", sub), ("diag", diag), ("sup", sup)):
            band.flags.writeable = False
            object.__setattr__(self, name, band)

    @property
    def n(self) -> int:
        return self.diag.shape[0]

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """Product with a vector x[n] or with each row of a stack x[m, n]."""
        y = self.diag * x
        y[..., :-1] += self.sup * x[..., 1:]
        y[..., 1:] += self.sub * x[..., :-1]
        return y

    def dense(self) -> np.ndarray:
        return np.diag(self.diag) + np.diag(self.sub, -1) + np.diag(self.sup, 1)


# Stacks of at least this many right-hand sides are solved by one numpy
# sweep down the unknowns for all rows at once, narrower ones row by row in
# Python floats.  Both do the same operations in the same order, so they
# give the same bits.  At n = 127 (2-vCPU host, Python 3.11, numpy 2.4,
# pinned to one CPU) a row costs about 37 us and the stacked sweep about
# 680 us whatever the width, so the two cross over at about 18 rows; an
# earlier measurement (28 and 400 us) put it at 14.
STACKED_SOLVE_MIN_ROWS = 16


class _ThomasFactor:
    """Elimination multipliers for repeated solves against one matrix."""

    def __init__(self, system: TridiagonalSystem):
        sub = system.sub.tolist()
        diag = system.diag.tolist()
        sup = system.sup.tolist()
        n = len(diag)
        lower = [0.0] * (n - 1)
        pivot = [0.0] * n
        pivot[0] = diag[0]
        if pivot[0] == 0.0:
            raise SingularSystemError("zero pivot in row 0")
        for i in range(1, n):
            lower[i - 1] = sub[i - 1] / pivot[i - 1]
            pivot[i] = diag[i] - lower[i - 1] * sup[i - 1]
            if pivot[i] == 0.0:
                raise SingularSystemError(f"zero pivot in row {i}")
        # tuples, so a factor shared through a cache cannot be changed
        self.n = n
        self.lower = tuple(lower)
        self.pivot = tuple(pivot)
        self.sup = tuple(sup)

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve for one right-hand side rhs[n] or for each row of a stack
        rhs[m, n]; the method depends on the stack's width m alone."""
        rhs = np.asarray(rhs, dtype=float)
        n = self.n
        if rhs.ndim not in (1, 2) or rhs.shape[-1] != n:
            raise ValueError(f"rhs of shape {rhs.shape} does not match system size {n}")
        if rhs.ndim == 2 and len(rhs) >= STACKED_SOLVE_MIN_ROWS:
            return self._solve_stack(rhs)
        lower = self.lower
        pivot = self.pivot
        sup = self.sup
        rows = rhs.reshape(-1, n).tolist()
        for y in rows:
            for i in range(1, n):
                y[i] -= lower[i - 1] * y[i - 1]
            y[n - 1] /= pivot[n - 1]
            for i in range(n - 2, -1, -1):
                y[i] = (y[i] - sup[i] * y[i + 1]) / pivot[i]
        return np.array(rows).reshape(rhs.shape)

    def _solve_stack(self, rows: np.ndarray) -> np.ndarray:
        # y[i] holds unknown i of every row, so each step of the row loop
        # in solve is one numpy operation across the stack
        y = rows.T.copy()
        unknowns = list(y)
        prev = unknowns[0]
        for lower, cur in zip(self.lower, unknowns[1:]):
            cur -= lower * prev
            prev = cur
        prev /= self.pivot[-1]
        for sup, pivot, cur in zip(self.sup[::-1], self.pivot[-2::-1], unknowns[-2::-1]):
            cur -= sup * prev
            cur /= pivot
            prev = cur
        return y.T


def thomas_solve(system: TridiagonalSystem, rhs: np.ndarray) -> np.ndarray:
    """Solve the tridiagonal system by Gaussian elimination without pivoting.

    Intended for diagonally dominant matrices such as I - dt*L, where the
    pivots never fall below the diagonal's dominance margin.  A zero pivot
    raises SingularSystemError.
    """
    return _ThomasFactor(system).solve(rhs)


# --------------------------------------------------------------------------
# time stepping


def identity_minus(lap: TridiagonalSystem, c: float) -> TridiagonalSystem:
    """Matrix I - c*L of an implicit step with operator L."""
    return TridiagonalSystem(-c * lap.sub, 1.0 - c * lap.diag, -c * lap.sup)


def implicit_system(model: HeatModel, dt: float) -> TridiagonalSystem:
    """Matrix I - dt*L for one Backward Euler step."""
    if dt <= 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    return identity_minus(model.laplacian(), dt)


def _source_profile(model) -> np.ndarray | None:
    """Read-only space profile of a grid model's source on its grid, None
    for a zero source."""
    if model.source.is_zero:
        return None
    profile = model.source.space_profile(model.grid_x)
    profile.flags.writeable = False
    return profile


def grid_step(model, state: StateVector, t: float, dt: float) -> StateVector:
    """One step of a grid model's scheme from t to t + dt.  Builds its own
    stepper, so it is the reference the cached ``GridModel.propagate``
    march is checked against."""
    model.check_spec(None, state.layout)
    return StateVector(state.layout, model.stepper(dt)(state.values[None], [t])[0])


@functools.lru_cache(maxsize=64)
def _cached_stepper(model, dt: float):
    """A grid model's step with substep dt, shared by every propagation of
    the model with that substep."""
    return model.stepper(dt)


def fd_decay_rate(model: HeatModel, m: int) -> float:
    """Eigenvalue mu_m = (2/dx^2) (1 - cos(m*pi*dx)) of -L for mode m.

    Dirichlet eigenvectors are sin(m*pi*x) sampled on the interior grid;
    Neumann eigenvectors are cos(m*pi*x) on the full grid (m = 0 gives the
    constant kernel vector, mu_0 = 0).
    """
    dx = model.dx
    return (2.0 / dx**2) * (1.0 - math.cos(m * math.pi * dx))
