"""Experiment configuration: INI-style config files and named presets.

A config document has sections [model], [source], [initial], [partition],
[fine], [coarse], [run]; every key has a default, and the defaults as a
whole reproduce the heat-dirichlet-N48 experiment.  Mode lists are written
as space-separated index:value pairs, e.g. "1:1.0 2:0.5".  ``read_ini`` is
the one typed INI reader, shared with the factors command; floats must be
finite.
"""

from __future__ import annotations

import configparser
import contextlib
import math
import re
from dataclasses import dataclass, replace

import numpy as np

from .core import ConfigError, PropagatorSpec, StateVector, TimePartition
from .heat import HeatModel, SourceTerm
from .hyperbolic import AdvectionModel, WaveModel
from .parareal import GUESS_KINDS, PararealConfig, check_boundary_size
from .spectral import ModeSource, SpectralModel

MODEL_KINDS = ("heat", "spectral", "advection", "wave")
SOURCE_KINDS = ("zero", "pulsed", "modes")
INITIAL_KINDS = ("zero", "gaussian_bump", "modes")

# the advection inflow condition doubles as a homogeneous Dirichlet wall
_BC_ALIASES = {"dirichlet_inflow_zero": "inflow"}


@dataclass(frozen=True)
class ExperimentConfig:
    """Flat, fully-defaulted description of one parareal experiment."""

    model_kind: str = "heat"
    bc: str = "dirichlet"
    n_cells: int = 128
    speed: float = 1.0
    length: float = math.pi
    basis: str = "sine"
    source_kind: str = "pulsed"
    source_modes: tuple[tuple[int, float], ...] = ()
    initial_kind: str = "zero"
    initial_modes: tuple[tuple[int, float], ...] = ()
    t_start: float = 0.0
    t_end: float = 3.0
    n_slices: int = 48
    fine_steps: int = 6
    fine_modes: int = 64
    coarse_role: str = "coarse"
    coarse_steps: int = 1
    coarse_modes: int = 0
    initial_guess: str = "default"
    iterations: int = 10
    tolerance: float = 0.0
    seed: int = 0
    timings: bool = False
    parallel: bool = True  # accepted and echoed; selects nothing
    preset: str = ""

    def __post_init__(self):
        if self.model_kind not in MODEL_KINDS:
            raise ConfigError(f"model.kind: unknown model {self.model_kind!r}")
        if self.source_kind not in SOURCE_KINDS:
            raise ConfigError(f"source.kind: unknown source {self.source_kind!r}")
        if self.initial_kind not in INITIAL_KINDS:
            raise ConfigError(f"initial.kind: unknown initial state {self.initial_kind!r}")
        if self.coarse_role not in ("coarse", "none"):
            raise ConfigError(f"coarse.role: must be 'coarse' or 'none', got {self.coarse_role!r}")
        if self.initial_guess not in GUESS_KINDS:
            raise ConfigError(f"run.initial_guess: unknown kind {self.initial_guess!r}")
        if self.seed < 0:
            raise ConfigError(f"run.seed: must be >= 0, got {self.seed}")

    def echo(self) -> dict[str, str]:
        """Flat section.key mapping of every field, for trace headers."""
        pairs = {key: _format_value(kind, getattr(self, field))
                 for key, (field, kind) in _SCHEMA.items()}
        pairs["preset"] = self.preset
        return pairs


# section.key -> (ExperimentConfig field, kind); drives load_config and echo
_SCHEMA = {
    "model.kind": ("model_kind", str),
    "model.bc": ("bc", str),
    "model.n_cells": ("n_cells", int),
    "model.speed": ("speed", float),
    "model.length": ("length", float),
    "model.basis": ("basis", str),
    "source.kind": ("source_kind", str),
    "source.modes": ("source_modes", "modes"),
    "initial.kind": ("initial_kind", str),
    "initial.modes": ("initial_modes", "modes"),
    "partition.t_start": ("t_start", float),
    "partition.t_end": ("t_end", float),
    "partition.n_slices": ("n_slices", int),
    "fine.steps_per_slice": ("fine_steps", int),
    "fine.mode_count": ("fine_modes", int),
    "coarse.role": ("coarse_role", str),
    "coarse.steps_per_slice": ("coarse_steps", int),
    "coarse.mode_count": ("coarse_modes", int),
    "run.initial_guess": ("initial_guess", str),
    "run.iterations": ("iterations", int),
    "run.tolerance": ("tolerance", float),
    "run.seed": ("seed", int),
    "run.timings": ("timings", bool),
    "run.parallel": ("parallel", bool),
}


def _format_value(kind, value) -> str:
    if kind == "modes":
        return " ".join(f"{m}:{c!r}" for m, c in value)
    if kind is bool:
        return repr(value).lower()
    return value if kind is str else repr(value)


def _parse_value(key: str, kind, raw: str):
    """One INI value: str, int, float, bool, "modes" (m:value pairs) or
    "floats" (a space- or comma-separated list).  Floats must be finite."""
    if kind is bool:
        lowered = raw.strip().lower()
        if lowered not in ("true", "false", "yes", "no", "1", "0"):
            raise ConfigError(f"{key}: expected a boolean, got {raw!r}")
        return lowered in ("true", "yes", "1")
    if kind == "modes":
        return tuple(_parse_mode(key, token) for token in raw.split())
    if kind == "floats":
        return tuple(_parse_value(key, float, token) for token in raw.replace(",", " ").split())
    try:
        value = kind(raw)
    except ValueError:
        raise ConfigError(f"{key}: expected {kind.__name__}, got {raw!r}") from None
    if kind is float and not math.isfinite(value):
        raise ConfigError(f"{key}: expected a finite number, got {raw!r}")
    return value


def _parse_mode(key: str, token: str) -> tuple[int, float]:
    m_text, sep, c_text = token.partition(":")
    if not sep:
        raise ConfigError(f"{key}: cannot parse mode entry {token!r}, expected m:value")
    return _parse_value(key, int, m_text), _parse_value(key, float, c_text)


def read_ini(path: str, kinds: dict) -> dict[str, object]:
    """Typed values of an INI document, keyed section.key.  Sections and keys
    missing from ``kinds`` are errors."""
    parser = configparser.ConfigParser(interpolation=None)
    try:
        with open(path, encoding="utf-8") as handle:
            parser.read_file(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse config {path}: {exc}") from exc

    sections = {key.split(".", 1)[0] for key in kinds}
    values = {}
    for section in parser.sections():
        if section not in sections:
            raise ConfigError(f"unknown config section [{section}]")
        for name, raw in parser.items(section):
            key = f"{section}.{name}"
            if key not in kinds:
                raise ConfigError(f"unknown config key {key}")
            values[key] = _parse_value(key, kinds[key], raw)
    return values


def load_config(path: str) -> ExperimentConfig:
    """Parse an INI config document; unknown sections or keys are errors."""
    values = read_ini(path, {key: kind for key, (_, kind) in _SCHEMA.items()})
    overrides = {_SCHEMA[key][0]: value for key, value in values.items()}
    if "bc" in overrides:
        overrides["bc"] = _BC_ALIASES.get(overrides["bc"], overrides["bc"])
    try:
        return ExperimentConfig(**overrides)
    except (ValueError, TypeError) as exc:
        raise ConfigError(str(exc)) from exc


# --------------------------------------------------------------------------
# turning an ExperimentConfig into runnable objects


def _build_source(config: ExperimentConfig):
    if config.model_kind == "spectral":
        if config.source_kind == "zero":
            return ModeSource.zero()
        if config.source_kind == "pulsed":
            return ModeSource.pulsed(config.source_modes)
        return ModeSource.constant(config.source_modes)
    if config.source_kind == "zero":
        return SourceTerm.zero()
    if config.model_kind == "wave":
        raise ConfigError(f"source.kind: the wave model is unforced, got {config.source_kind!r}")
    if config.source_kind == "pulsed":
        return SourceTerm.pulsed()
    raise ConfigError(f"source.kind: {config.source_kind!r} needs a spectral model")


def _gaussian_bump(x: np.ndarray) -> np.ndarray:
    return np.exp(-100.0 * (x - 0.5) ** 2)


@contextlib.contextmanager
def _config_keys(*keys: str):
    """Report a constructor's ValueError or ConfigError as a ConfigError
    that names the config key the rejected value came from: the first of
    ``keys`` whose name the message mentions (also after an underscore, so
    max_iterations names run.iterations), or all of them if it mentions
    none."""
    try:
        yield
    except (ValueError, ConfigError) as exc:
        named = [key for key in keys
                 if re.search(rf"(?<![A-Za-z0-9]){key.split('.', 1)[1]}\b", str(exc))]
        raise ConfigError(f"{named[0] if named else ' / '.join(keys)}: {exc}") from exc


def _build_model(config: ExperimentConfig):
    kind, source = config.model_kind, _build_source(config)
    with _config_keys("model.n_cells", "model.bc", "model.speed", "model.length", "model.basis"):
        if kind == "spectral":
            return SpectralModel(config.length, config.basis, source)
        if kind == "wave":
            return WaveModel(config.n_cells)
        if kind == "heat":
            return HeatModel(config.n_cells, config.bc, source)
        return AdvectionModel(config.speed, config.n_cells, config.bc, source)


def _check_distinct_modes(pairs):
    """A spectral mode list names each mode once: the initial state would
    keep a repeat's last value, the source's coefficient its first."""
    modes = [m for m, _ in pairs]
    for m in modes:
        if modes.count(m) > 1:
            raise ValueError(f"mode {m} given twice")


def build_model_and_u0(config: ExperimentConfig):
    kind, initial = config.model_kind, config.initial_kind
    model = _build_model(config)
    size_key = "fine.mode_count" if kind == "spectral" else "model.n_cells"
    with _config_keys(size_key):
        layout = model.layout(config.fine_modes) if kind == "spectral" else model.layout()
    with _config_keys(size_key, "partition.n_slices"):
        check_boundary_size(config.n_slices, layout.size)
    if kind == "spectral":
        if initial == "zero":
            u0 = model.zero_state(config.fine_modes)
        elif initial == "modes":
            with _config_keys("initial.modes"):
                _check_distinct_modes(config.initial_modes)
                u0 = model.state_from_modes(dict(config.initial_modes), config.fine_modes)
        else:
            raise ConfigError(f"initial.kind: {initial!r} needs a grid model")
        with _config_keys("source.modes"):
            _check_distinct_modes(config.source_modes)
            model.state_from_modes(dict(config.source_modes), config.fine_modes)
        return model, u0
    if kind == "wave":
        if initial not in ("zero", "modes"):
            raise ConfigError("initial.kind: the wave model takes zero or mode data")
        u = np.zeros(model.n_unknowns)
        if initial == "modes":
            for m, c in config.initial_modes:
                u += c * np.sin(m * np.pi * model.grid_x)
        return model, model.state_from(u, np.zeros(model.n_unknowns))
    if initial == "zero":
        return model, model.zero_state()
    if initial == "gaussian_bump":
        return model, StateVector(model.layout(), _gaussian_bump(model.grid_x))
    raise ConfigError(f"initial.kind: the {kind} model takes zero or gaussian_bump data")


def build_parareal(config: ExperimentConfig) -> PararealConfig:
    model, u0 = build_model_and_u0(config)
    with _config_keys("partition.t_end", "partition.t_start", "partition.n_slices"):
        partition = TimePartition(config.t_start, config.t_end, config.n_slices)
    if config.model_kind == "spectral":
        # the fine propagator advances every value of u0: fine.mode_count
        # sizes the state, which holds one more value in the cosine basis
        fine = PropagatorSpec(model, "fine", mode_count=u0.layout.size)
        with _config_keys("coarse.mode_count"):
            coarse = PropagatorSpec(model, "coarse", mode_count=config.coarse_modes)
    else:
        with _config_keys("fine.steps_per_slice"):
            fine = PropagatorSpec(model, "fine", steps_per_slice=config.fine_steps)
        with _config_keys("coarse.steps_per_slice"):
            coarse = PropagatorSpec(model, "coarse", steps_per_slice=config.coarse_steps)
    # the INI has two spellings of "no coarse propagator"; the spec is built
    # first, so a bad coarse value is rejected under either
    if config.coarse_role == "none" or (config.model_kind == "spectral" and config.coarse_modes == 0):
        coarse = None
    with _config_keys("run.iterations", "run.tolerance", "run.initial_guess", "coarse.mode_count", "model.length"):
        return PararealConfig(
            partition=partition,
            u0=u0,
            fine=fine,
            coarse=coarse,
            max_iterations=config.iterations,
            initial_guess=config.initial_guess,
            tolerance=config.tolerance,
            seed=config.seed,
        )


# --------------------------------------------------------------------------
# named presets

_HEAT_STEPS = {48: 6, 24: 12, 12: 24, 6: 48}

# all heat runs share dx = 1/128, dt = 1/96, T = 3, one backward Euler
# coarse step per slice
_EXPERIMENT_PRESETS: dict[str, ExperimentConfig] = {}

for _bc in ("dirichlet", "neumann"):
    for _n, _steps in _HEAT_STEPS.items():
        _EXPERIMENT_PRESETS[f"heat-{_bc}-N{_n}"] = ExperimentConfig(
            bc=_bc, n_slices=_n, fine_steps=_steps, preset=f"heat-{_bc}-N{_n}"
        )

# the mode just past the coarse cutoff must dominate the error by a wide
# spectral gap (its nearest active neighbor is mode 8), so the measured sup
# error tracks the slowest-mode decay to full precision
_SPECTRAL_DATA = {
    0: ((1, 1.0), (8, 0.7)),
    1: ((1, 1.0), (2, 0.8), (8, 0.5)),
    3: ((1, 1.0), (2, 0.9), (3, 0.8), (4, 0.7), (8, 0.4)),
}

# iterations stop at n_slices - 1: at k = n_slices the iterate is exact,
# so the error row would sit at 0 below the still-positive analytic bound
for _mg, _data in _SPECTRAL_DATA.items():
    _EXPERIMENT_PRESETS[f"spectral-mG{_mg}"] = ExperimentConfig(
        model_kind="spectral",
        source_kind="zero",
        initial_kind="modes",
        initial_modes=_data,
        n_slices=6,
        coarse_modes=_mg,
        initial_guess="zero",
        iterations=5,
        preset=f"spectral-mG{_mg}",
    )

_EXPERIMENT_PRESETS["advection-periodic-N12"] = ExperimentConfig(
    model_kind="advection",
    bc="periodic",
    source_kind="zero",
    initial_kind="gaussian_bump",
    n_slices=12,
    fine_steps=32,
    coarse_role="none",
    iterations=12,
    preset="advection-periodic-N12",
)

_EXPERIMENT_PRESETS["advection-inflow-N6"] = ExperimentConfig(
    model_kind="advection",
    bc="inflow",
    n_slices=6,
    fine_steps=64,
    coarse_role="none",
    iterations=6,
    preset="advection-inflow-N6",
)

_EXPERIMENT_PRESETS["wave-N8"] = ExperimentConfig(
    model_kind="wave",
    source_kind="zero",
    initial_kind="modes",
    initial_modes=((1, 1.0),),
    t_end=2.0,
    n_slices=8,
    fine_steps=64,
    coarse_role="none",
    iterations=8,
    preset="wave-N8",
)

# space-time field exports: sequential fine solves sampled at slice boundaries
_FIELD_PRESETS: dict[str, ExperimentConfig] = {
    "heat-dirichlet": ExperimentConfig(preset="heat-dirichlet"),
    "heat-neumann": ExperimentConfig(bc="neumann", preset="heat-neumann"),
    "advection-periodic": ExperimentConfig(
        model_kind="advection", bc="periodic", fine_steps=8, preset="advection-periodic"
    ),
    "advection-inflow": ExperimentConfig(
        model_kind="advection", bc="inflow", fine_steps=8, preset="advection-inflow"
    ),
}


def experiment_preset(name: str) -> ExperimentConfig:
    try:
        return _EXPERIMENT_PRESETS[name]
    except KeyError:
        raise ConfigError(f"unknown preset {name!r}; 'presets' lists the available names")


def field_preset(name: str) -> ExperimentConfig:
    try:
        return _FIELD_PRESETS[name]
    except KeyError:
        raise ConfigError(
            f"unknown solution-field preset {name!r}; 'presets' lists the available names"
        )


def experiment_preset_names() -> tuple[str, ...]:
    return tuple(_EXPERIMENT_PRESETS)


def field_preset_names() -> tuple[str, ...]:
    return tuple(_FIELD_PRESETS)


def without_coarse(config: ExperimentConfig) -> ExperimentConfig:
    return replace(config, coarse_role="none")


def with_iterations(config: ExperimentConfig, iterations: int) -> ExperimentConfig:
    if iterations < 1:
        raise ConfigError(f"run.iterations: must be >= 1, got {iterations}")
    return replace(config, iterations=iterations)
