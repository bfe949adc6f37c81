"""Analytic per-mode contraction factors for the parareal iteration on
u' = -lam*u, lam > 0.

Without a coarse propagator each iteration multiplies the error of a mode
by exactly exp(-lam*dT).  With one, the factor picks up the coarse
stability function R:

    rho = |exp(-lam*dT) - R(-lam*dT)| / (1 - |R(-lam*dT)|)

which for backward Euler stays bounded near 0.3 uniformly in lam*dT.
"""

from __future__ import annotations

import math
from typing import Sequence

from .core import ConfigError
from .spectral import SpectralModel


def backward_euler(z: float) -> float:
    """Stability function R(z) = 1/(1 - z) of the backward Euler coarse step."""
    return 1.0 / (1.0 - z)


def _check_rate_and_slice(lam: float, dt_slice: float) -> None:
    if lam < 0.0:
        raise ConfigError(f"decay rate must be >= 0, got {lam}")
    if dt_slice <= 0.0:
        raise ConfigError(f"slice length must be positive, got {dt_slice}")


def rho_no_coarse(lam: float, dt_slice: float) -> float:
    """Per-iteration error factor of the coarse-free iteration: exp(-lam*dT)."""
    _check_rate_and_slice(lam, dt_slice)
    return math.exp(-lam * dt_slice)


def rho_with_coarse(lam: float, dt_slice: float) -> float:
    """Linear contraction factor of the full iteration with one backward
    Euler coarse step per slice.  Requires |R(-lam*dT)| < 1, so lam = 0 is
    rejected."""
    _check_rate_and_slice(lam, dt_slice)
    z = -lam * dt_slice
    r = backward_euler(z)
    if abs(r) >= 1.0:
        raise ConfigError(
            f"coarse step is not strictly stable at lam*dT = {lam * dt_slice}: |R| = {abs(r)}"
        )
    return abs(math.exp(z) - r) / (1.0 - abs(r))


def iteration_error_bound(k: int, dt_slice: float, uncovered_rate: float,
                          initial_sup_error: float) -> float:
    """Sup-error bound exp(-uncovered_rate * k * dT) * initial error, where
    uncovered_rate is the decay of the slowest mode the coarse propagator
    leaves untouched."""
    if k < 0:
        raise ConfigError(f"iteration index must be >= 0, got {k}")
    _check_rate_and_slice(uncovered_rate, dt_slice)
    return math.exp(-uncovered_rate * k * dt_slice) * initial_sup_error


DEFAULT_MODES = tuple(range(1, 17))
DEFAULT_SLICES = tuple(2.0**p for p in range(-6, 2))


def factor_grid(modes: Sequence[int] = DEFAULT_MODES,
                dts: Sequence[float] = DEFAULT_SLICES,
                length: float = math.pi) -> list[tuple[int, float, float, float]]:
    """Rows (m, dT, rho_nocoarse, rho_coarse) for sine modes on (0, length),
    mode-major, where mode m decays at (m*pi/length)**2.  The default
    length pi makes the rate m**2."""
    if length <= 0.0:
        raise ConfigError(f"domain length must be positive, got {length}")
    model = SpectralModel(length)
    return [(m, dt, rho_no_coarse(model.decay_rate(m), dt), rho_with_coarse(model.decay_rate(m), dt))
            for m in modes for dt in dts]
