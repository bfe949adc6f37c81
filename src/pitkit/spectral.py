"""Eigenmode solver for the heat equation on an interval.

In the sine basis on (0, L) every mode û_m obeys the scalar ODE
dû_m/dt = -(m*pi/L)^2 û_m + f̂_m(t), which this module integrates exactly:
the homogeneous part in closed form and the source convolution by composite
Gauss-Legendre quadrature.  The cosine basis (Neumann analogue) includes the
constant mode m = 0 whose decay rate is zero.

Coefficient arrays are ordered by position: entry j is mode j+1 in the sine
basis and mode j in the cosine basis.  A propagator that keeps ``mode_count``
modes keeps the first ``mode_count`` entries.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from numpy.polynomial.legendre import leggauss

from .core import (
    MAX_RUN_VALUES,
    ConfigError,
    GridLayout,
    ModeLayout,
    PropagatorSpec,
)
from .heat import PULSE_TIMES, TIME_DECAY

_GAUSS_NODES, _GAUSS_WEIGHTS = leggauss(16)


@dataclass(frozen=True)
class ModeSource:
    """Per-mode forcing f̂_m(t) = c_m * time_profile(t).

    kind "zero": no forcing.  "constant": time profile 1.  "pulsed": the
    Gaussian pulse train shared with the grid models.  Coefficients are
    (mode, value) pairs; modes not listed get zero.
    """

    kind: str = "zero"
    coefficients: tuple[tuple[int, float], ...] = ()

    def __post_init__(self):
        if self.kind not in ("zero", "constant", "pulsed"):
            raise ValueError(f"unknown mode source kind {self.kind!r}")

    @classmethod
    def zero(cls) -> "ModeSource":
        return cls(kind="zero")

    @classmethod
    def constant(cls, coefficients) -> "ModeSource":
        return cls(kind="constant", coefficients=_as_pairs(coefficients))

    @classmethod
    def pulsed(cls, coefficients) -> "ModeSource":
        return cls(kind="pulsed", coefficients=_as_pairs(coefficients))

    def coefficient(self, m: int) -> float:
        for mode, value in self.coefficients:
            if mode == m:
                return value
        return 0.0

    def time_profile(self, t: np.ndarray) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        if self.kind == "constant":
            return np.ones_like(t)
        out = np.zeros_like(t)
        if self.kind == "pulsed":
            for tj in PULSE_TIMES:
                out += np.exp(-TIME_DECAY * (t - tj) ** 2)
        return out

    def mode_function(self, m: int) -> Optional[Callable[[np.ndarray], np.ndarray]]:
        """Callable f̂_m(t), or None when the mode is unforced."""
        if self.kind == "zero":
            return None
        c = self.coefficient(m)
        if c == 0.0:
            return None
        return lambda t: c * self.time_profile(t)


def _as_pairs(coefficients) -> tuple[tuple[int, float], ...]:
    if isinstance(coefficients, dict):
        items = sorted(coefficients.items())
    else:
        items = list(coefficients)
    return tuple((int(m), float(c)) for m, c in items)


@dataclass(frozen=True)
class SpectralModel:
    """Heat equation in eigenmode form on (0, length)."""

    length: float = math.pi
    basis: str = "sine"
    source: ModeSource = ModeSource.zero()

    def __post_init__(self):
        if self.length <= 0.0:
            raise ValueError(f"length must be positive, got {self.length}")
        if self.basis not in ("sine", "cosine"):
            raise ValueError(f"unknown basis {self.basis!r}")

    def decay_rate(self, m):
        """Rate (m*pi/length)^2 of mode m, or of each entry of an array of
        modes; m = 0 (cosine constant) gives 0.

        Grouped as (m*(pi/length))^2 so the default length pi yields the
        integer m**2 exactly."""
        return (m * (math.pi / self.length)) ** 2

    def mode_index(self, position: int) -> int:
        return position + 1 if self.basis == "sine" else position

    def layout(self, m_max: int) -> ModeLayout:
        return ModeLayout(m_max, self.basis, self.length)

    def zero_state(self, m_max: int) -> np.ndarray:
        return np.zeros(self.layout(m_max).size)

    def state_from_modes(self, amplitudes: dict[int, float], m_max: int) -> np.ndarray:
        layout = self.layout(m_max)
        values = np.zeros(layout.size)
        for m, a in amplitudes.items():
            position = m - 1 if self.basis == "sine" else m
            if not 0 <= position < layout.size:
                raise ValueError(f"mode {m} outside the layout with m_max {m_max}")
            values[position] = a
        return values

    def check_spec(self, spec: PropagatorSpec, layout, partition) -> None:
        """Raise ValueError unless ``layout`` holds modes of the model's basis
        on its interval, all with finite decay rates, and ``spec`` fits it: a
        fine spec advances every value, a coarse one fewer but at least one.
        Raise ConfigError when a source integral over the longest slice of
        ``partition`` needs more quadrature nodes than a run may hold: under
        ``partition.t_end`` if it would for any mode, else under
        ``model.length``, for the fastest forced mode the spec keeps."""
        if not isinstance(layout, ModeLayout) or layout.basis != self.basis or layout.length != self.length:
            raise ValueError(f"state layout {layout} does not fit model {self}")
        top = self.mode_index(layout.size - 1)
        with np.errstate(over="ignore"):
            if not np.isfinite(self.decay_rate(np.float64(top))):
                raise ValueError(f"length {self.length} gives mode {top} a decay rate that is not finite")
        if spec.role == "fine":
            if spec.mode_count != layout.size:
                raise ValueError(f"fine mode_count {spec.mode_count} does not fit "
                                 f"the state's {layout.size} values")
        elif not 0 < spec.mode_count < layout.size:
            raise ConfigError("coarse propagator must resolve fewer modes than the fine one, and at "
                              "least one (pass coarse=None for no coarse propagator), got "
                              f"mode_count {spec.mode_count} of {layout.size}")
        forced = _forced_positions(self, spec.mode_count)
        if forced:
            t0, t1 = partition.slice_bounds(int(np.diff(partition.boundaries).argmax()))
            fastest = float(_kept_rates(self, forced[-1] + 1)[-1])
            for key, rate in (("partition.t_end", 0.0), ("model.length", fastest)):
                try:
                    _quadrature_panels(rate, t0, t1)
                except ConfigError as exc:
                    raise ConfigError(f"{key}: {exc}") from None

    def propagate(self, spec: PropagatorSpec, states: np.ndarray, t_from, t_to) -> np.ndarray:
        """Advance the first spec.mode_count modes of each row i of the stack
        states[m, size] exactly from t_from[i] to t_to[i], one row at a time;
        zero the rest."""
        kept = spec.mode_count
        if kept > states.shape[-1]:
            raise ConfigError(f"mode_count {kept} exceeds the state's {states.shape[-1]} modes")
        out = np.zeros(states.shape)
        rates = _kept_rates(self, kept)
        forced = _forced_positions(self, kept)
        for u, values, t0, t1 in zip(states, out, np.asarray(t_from, dtype=float).tolist(),
                                     np.asarray(t_to, dtype=float).tolist(), strict=True):
            if not t1 > t0:
                raise ValueError(f"need t_to > t_from, got [{t0}, {t1}]")
            values[:kept] = u[:kept] * np.exp(-rates * (t1 - t0))
            for position in forced:
                values[position] += _slice_forcing(self, position, t0, t1)
        return out

    def uncovered_rate(self, coarse: Optional[PropagatorSpec]) -> float:
        """Decay rate of the slowest mode the coarse propagator (None: no
        coarse propagator) does not resolve."""
        return self.decay_rate(self.mode_index(0 if coarse is None else coarse.mode_count))


# --------------------------------------------------------------------------
# exact per-mode integration


def source_mode_integral(rate: float, source_fn: Optional[Callable], t_from: float, t_to: float) -> float:
    """Convolution integral of one mode: int_{t_from}^{t_to} f(tau) * exp(-rate*(t_to - tau)) dtau.

    Composite 16-point Gauss-Legendre on fixed panels.  The panel width is
    at most min(0.01, span/8) so the pulse-train sources are resolved, and
    shrinks further for fast-decaying modes so rate*width stays moderate.
    Deterministic: the panel count depends only on (rate, t_from, t_to).
    More than MAX_RUN_VALUES nodes raise ConfigError before any is made.
    """
    if rate < 0.0:
        raise ValueError(f"rate must be nonnegative, got {rate}")
    if t_to < t_from:
        raise ValueError(f"need t_to >= t_from, got [{t_from}, {t_to}]")
    if source_fn is None or t_to == t_from:
        return 0.0
    span = t_to - t_from
    n_panels = math.ceil(_quadrature_panels(rate, t_from, t_to))
    edges = t_from + span * np.arange(n_panels + 1) / n_panels
    half = 0.5 * span / n_panels
    centers = 0.5 * (edges[:-1] + edges[1:])
    # nodes laid out as (panel, gauss point)
    taus = centers[:, None] + half * _GAUSS_NODES[None, :]
    integrand = source_fn(taus) * np.exp(-rate * (t_to - taus))
    return float(half * np.sum(integrand @ _GAUSS_WEIGHTS))


def _quadrature_panels(rate: float, t_from: float, t_to: float) -> float:
    """The panel count of ``source_mode_integral`` over [t_from, t_to],
    before rounding up; ConfigError when its nodes exceed MAX_RUN_VALUES."""
    span = t_to - t_from
    panels = max(8.0, span / 0.01, span * rate / 8.0)
    if 16 * panels > MAX_RUN_VALUES:
        raise ConfigError(f"a source integral over [{t_from}, {t_to}] needs {16 * panels:.3g} "
                          f"quadrature nodes, above the limit of {MAX_RUN_VALUES} a run may hold")
    return panels


def exact_mode_solution(rate: float, u0: float, source_fn: Optional[Callable],
                        t: float, t_from: float = 0.0) -> float:
    """Mode value at time t given the value u0 at t_from."""
    return u0 * math.exp(-rate * (t - t_from)) + source_mode_integral(rate, source_fn, t_from, t)


def _kept_rates(model: SpectralModel, kept: int) -> np.ndarray:
    """Decay rates of the first ``kept`` positions, computed on one array
    so that every rate has the bits of numpy's elementwise square."""
    positions = np.arange(kept)
    return model.decay_rate(positions + 1 if model.basis == "sine" else positions)


@functools.lru_cache(maxsize=64)
def _forced_positions(model: SpectralModel, kept: int) -> tuple[int, ...]:
    """The positions among the first ``kept`` whose mode the source forces."""
    return tuple(position for position in range(kept)
                 if model.source.mode_function(model.mode_index(position)) is not None)


@functools.lru_cache(maxsize=2048)
def _slice_forcing(model: SpectralModel, position: int, t0: float, t1: float) -> float:
    """The source integral of one forced position over [t0, t1].  It does not
    depend on the state, so every propagation across the slice shares it,
    fine and coarse alike.  Keyed on the model, not its source: the rate
    depends on the model's length too."""
    rate = _kept_rates(model, position + 1)[position]
    fn = model.source.mode_function(model.mode_index(position))
    return source_mode_integral(rate, fn, t0, t1)


# --------------------------------------------------------------------------
# grid <-> mode transforms (direct sums, O(n * m))


def project_to_modes(grid: GridLayout, values: np.ndarray, m_max: int) -> np.ndarray:
    """Coefficients of the values of one state of ``grid`` in the discrete
    sine or cosine basis, modes up to m_max: a state of
    ``ModeLayout(m_max, basis, n_cells * grid.dx)``.

    Dirichlet grids map to the sine basis, Neumann grids to the cosine
    basis.  m_max beyond the grid's Nyquist limit raises ValueError.
    """
    if grid.components != 1:
        raise ValueError("project_to_modes expects a scalar grid")
    if grid.bc == "dirichlet":
        n_cells = grid.n_points + 1
        if m_max > n_cells - 1:
            raise ValueError(f"m_max {m_max} beyond Nyquist limit {n_cells - 1}")
        i = np.arange(1, n_cells)
        m = np.arange(1, m_max + 1)
        basis = np.sin(np.pi * np.outer(m, i) / n_cells)
        return (2.0 / n_cells) * (basis @ values)
    if grid.bc == "neumann":
        n_cells = grid.n_points - 1
        if m_max > n_cells - 1:
            raise ValueError(f"m_max {m_max} beyond Nyquist limit {n_cells - 1}")
        i = np.arange(0, n_cells + 1)
        w = np.ones(n_cells + 1)
        w[0] = 0.5
        w[-1] = 0.5
        weighted = w * values
        m = np.arange(0, m_max + 1)
        basis = np.cos(np.pi * np.outer(m, i) / n_cells)
        coeffs = (2.0 / n_cells) * (basis @ weighted)
        coeffs[0] *= 0.5
        return coeffs
    raise ValueError(f"no mode basis for bc {grid.bc!r}")


def reconstruct(modes: ModeLayout, coeffs: np.ndarray, grid: GridLayout) -> np.ndarray:
    """Values on ``grid`` of the state of ``modes`` with coefficients
    ``coeffs`` (inverse of project_to_modes for band-limited data)."""
    if modes.basis == "sine":
        if grid.bc != "dirichlet":
            raise ValueError(f"sine modes reconstruct on a dirichlet grid, not {grid.bc!r}")
        n_cells = grid.n_points + 1
        i = np.arange(1, n_cells)
        m = np.arange(1, modes.m_max + 1)
        return np.sin(np.pi * np.outer(i, m) / n_cells) @ coeffs
    if grid.bc != "neumann":
        raise ValueError(f"cosine modes reconstruct on a neumann grid, not {grid.bc!r}")
    n_cells = grid.n_points - 1
    i = np.arange(0, n_cells + 1)
    m = np.arange(0, modes.m_max + 1)
    return np.cos(np.pi * np.outer(i, m) / n_cells) @ coeffs
