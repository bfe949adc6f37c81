"""Parallel-in-time solvers: the parareal iteration with and without a
coarse propagator, model problems (heat, spectral, advection, wave), and
analytic contraction factors."""

from . import factors, heat, hyperbolic, parareal, presets, spectral
from .core import (
    ConfigError,
    GridLayout,
    IterationTrace,
    ModeLayout,
    NumericalError,
    PropagatorSpec,
    SingularSystemError,
    TimePartition,
    discrete_l2_norm,
    propagate_slice,
)
from .parareal import PararealConfig, run

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "GridLayout",
    "IterationTrace",
    "ModeLayout",
    "NumericalError",
    "PararealConfig",
    "PropagatorSpec",
    "SingularSystemError",
    "TimePartition",
    "discrete_l2_norm",
    "factors",
    "heat",
    "hyperbolic",
    "parareal",
    "presets",
    "propagate_slice",
    "run",
    "spectral",
    "__version__",
]
