"""What build_parareal makes of every model, source and initial kind."""

import hashlib
import itertools
import math

import pytest

from pitkit.cli import main
from pitkit.core import ConfigError, PropagatorSpec
from pitkit.heat import HeatModel, SourceTerm
from pitkit.hyperbolic import WaveModel
from pitkit.presets import (
    _SCHEMA,
    INITIAL_KINDS,
    MODEL_KINDS,
    SOURCE_KINDS,
    ExperimentConfig,
    build_parareal,
    load_config,
)
from pitkit.spectral import ModeSource, SpectralModel

_HEAT = {kind: HeatModel(8, "dirichlet", source)
         for kind, source in (("zero", SourceTerm.zero()), ("pulsed", SourceTerm.pulsed()))}
_SPECTRAL = {kind: SpectralModel(math.pi, "sine", source)
             for kind, source in (("zero", ModeSource.zero()),
                                  ("pulsed", ModeSource.pulsed(((2, 1.0),))),
                                  ("modes", ModeSource.constant(((2, 1.0),))))}

# first 16 hex digits of the SHA-256 of u0's bytes
_ZEROS_7, _ZEROS_8, _ZEROS_14 = "d4817aa5497628e7", "f5a5fd42d16a2030", "b5fdab78d8947eac"
_BUMP_7 = "2ab8167ea41697ff"
_MODES_SPECTRAL, _MODES_WAVE = "35c991852d24d2d2", "5834a7ee7da61707"

_GRID_DATA = "initial.kind: the {} model takes zero or gaussian_bump data"
_NEEDS_SPECTRAL = "source.kind: 'modes' needs a spectral model"
_NEEDS_GRID = "initial.kind: 'gaussian_bump' needs a grid model"
_UNFORCED = "source.kind: the wave model is unforced, got {!r}"
_WAVE_DATA = "initial.kind: the wave model takes zero or mode data"
# 8 cells, 4 slices of 0.75 and one coarse step: CFL number 6
_COARSE_CFL = "coarse.steps_per_slice: CFL number 6 exceeds 1; shrink dt or the speed"

# (model, source, initial) -> the ConfigError text, or (fine model, u0 digest)
_BUILT = {
    ("heat", "zero", "zero"): (_HEAT["zero"], _ZEROS_7),
    ("heat", "zero", "gaussian_bump"): (_HEAT["zero"], _BUMP_7),
    ("heat", "zero", "modes"): _GRID_DATA.format("heat"),
    ("heat", "pulsed", "zero"): (_HEAT["pulsed"], _ZEROS_7),
    ("heat", "pulsed", "gaussian_bump"): (_HEAT["pulsed"], _BUMP_7),
    ("heat", "pulsed", "modes"): _GRID_DATA.format("heat"),
    ("heat", "modes", "zero"): _NEEDS_SPECTRAL,
    ("heat", "modes", "gaussian_bump"): _NEEDS_SPECTRAL,
    ("heat", "modes", "modes"): _NEEDS_SPECTRAL,
    ("spectral", "zero", "zero"): (_SPECTRAL["zero"], _ZEROS_8),
    ("spectral", "zero", "gaussian_bump"): _NEEDS_GRID,
    ("spectral", "zero", "modes"): (_SPECTRAL["zero"], _MODES_SPECTRAL),
    ("spectral", "pulsed", "zero"): (_SPECTRAL["pulsed"], _ZEROS_8),
    ("spectral", "pulsed", "gaussian_bump"): _NEEDS_GRID,
    ("spectral", "pulsed", "modes"): (_SPECTRAL["pulsed"], _MODES_SPECTRAL),
    ("spectral", "modes", "zero"): (_SPECTRAL["modes"], _ZEROS_8),
    ("spectral", "modes", "gaussian_bump"): _NEEDS_GRID,
    ("spectral", "modes", "modes"): (_SPECTRAL["modes"], _MODES_SPECTRAL),
    ("advection", "zero", "zero"): _COARSE_CFL,
    ("advection", "zero", "gaussian_bump"): _COARSE_CFL,
    ("advection", "zero", "modes"): _GRID_DATA.format("advection"),
    ("advection", "pulsed", "zero"): _COARSE_CFL,
    ("advection", "pulsed", "gaussian_bump"): _COARSE_CFL,
    ("advection", "pulsed", "modes"): _GRID_DATA.format("advection"),
    ("advection", "modes", "zero"): _NEEDS_SPECTRAL,
    ("advection", "modes", "gaussian_bump"): _NEEDS_SPECTRAL,
    ("advection", "modes", "modes"): _NEEDS_SPECTRAL,
    ("wave", "zero", "zero"): (WaveModel(8), _ZEROS_14),
    ("wave", "zero", "gaussian_bump"): _WAVE_DATA,
    ("wave", "zero", "modes"): (WaveModel(8), _MODES_WAVE),
    ("wave", "pulsed", "zero"): _UNFORCED.format("pulsed"),
    ("wave", "pulsed", "gaussian_bump"): _UNFORCED.format("pulsed"),
    ("wave", "pulsed", "modes"): _UNFORCED.format("pulsed"),
    ("wave", "modes", "zero"): _UNFORCED.format("modes"),
    ("wave", "modes", "gaussian_bump"): _UNFORCED.format("modes"),
    ("wave", "modes", "modes"): _UNFORCED.format("modes"),
}


@pytest.mark.parametrize("kinds", list(itertools.product(MODEL_KINDS, SOURCE_KINDS, INITIAL_KINDS)),
                         ids="-".join)
def test_every_kind_combination_builds_its_model_specs_and_u0(kinds):
    """Each combination is built or rejected as pinned here: the fine and
    coarse specs and u0's bytes, or the ConfigError's full text."""
    model_kind, source_kind, initial_kind = kinds
    config = ExperimentConfig(
        model_kind=model_kind, bc="inflow" if model_kind == "advection" else "dirichlet",
        n_cells=8, source_kind=source_kind, source_modes=((2, 1.0),), initial_kind=initial_kind,
        initial_modes=((1, 1.0), (3, 0.5)), n_slices=4, fine_modes=8, coarse_modes=2)
    expected = _BUILT[kinds]
    if isinstance(expected, str):
        with pytest.raises(ConfigError) as info:
            build_parareal(config)
        assert str(info.value) == expected
        return
    model, digest = expected
    built = build_parareal(config)
    if model_kind == "spectral":
        fine, coarse = {"mode_count": 8}, {"mode_count": 2}
    else:
        fine, coarse = {"steps_per_slice": 6}, {"steps_per_slice": 1}
    assert built.fine == PropagatorSpec(model, "fine", **fine)
    assert built.coarse == PropagatorSpec(model, "coarse", **coarse)
    assert hashlib.sha256(built.u0.tobytes()).hexdigest()[:16] == digest
    assert built.layout == (model.layout(8) if model_kind == "spectral" else model.layout())


# the model settings of each run the sweeps build, as section.key pairs
_SWEPT_MODELS = {
    "heat-dirichlet": {"model.kind": "heat", "model.bc": "dirichlet"},
    "heat-neumann": {"model.kind": "heat", "model.bc": "neumann"},
    "wave": {"model.kind": "wave", "source.kind": "zero"},
    # 8 steps per slice make CFL number 1 on the default 128 cells and 48 slices
    "advection-periodic": {"model.kind": "advection", "model.bc": "periodic",
                           "fine.steps_per_slice": 8, "coarse.steps_per_slice": 8},
    "spectral": {"model.kind": "spectral"},
    "spectral-pulsed": {"model.kind": "spectral", "source.kind": "pulsed", "source.modes": "1:1.0 3:0.5"},
}
_SWEPT_VALUES = {
    int: {"0": 0, "-1": -1, "1": 1, "2": 2, "10^8": 10**8, "10^20": 10**20, "10^400": 10**400},
    float: {text: text for text in ("0.0", "-0.0", "1e-320", "1e-160", "1e154", "1e308", "-1e308")},
    bool: {repr(text): text for text in ("", "maybe", "2", "on", "-1")},
    "modes": {**{text: text for text in ("1", "1:", ":1", "0:1", "-1:1", "1:nan", "1:1e400", "a:b",
                                         "1:1 1:2", "200:1")},
              "10^399:1": "1" + "0" * 399 + ":1"},
}
# the int sweep keeps its first five models; the float, bool and modes
# sweeps add a forced spectral one
_SWEEPS = [pytest.param(int, model, id=model) for model in list(_SWEPT_MODELS)[:5]] + [
    pytest.param(kind, model, id=f"{getattr(kind, '__name__', kind)}-{model}")
    for kind in (float, bool, "modes") for model in _SWEPT_MODELS]
# the bool and modes values leave the run's work alone, so the sweeps of
# those keys also run every input that builds, on 4 slices of 1/16 (CFL
# number 1 for the swept advection model) with 2 sweeps
_SHORT_RUN = {"partition.t_end": 0.25, "partition.n_slices": 4, "run.iterations": 2}


@pytest.mark.parametrize("kind, model", _SWEEPS)
def test_every_int_key_builds_or_raises_config_error(tmp_path, kind, model):
    """Each int, float, bool or modes key of the schema, set alone to each
    of a few small, large, overflowing or malformed values, either builds
    or raises ConfigError: never another exception.  A bool or modes input
    that builds also runs through ``cli.main`` and exits 0, 2 or 3."""
    cfg = tmp_path / "exp.ini"
    failures = []
    keys = [key for key, (_, key_kind) in _SCHEMA.items() if key_kind is kind]
    values = _SWEPT_VALUES[kind]
    runs = kind in (bool, "modes")
    base = {**_SWEPT_MODELS[model], **(_SHORT_RUN if runs else {})}
    for key, label in itertools.product(keys, values):
        sections: dict[str, list[str]] = {}
        for section_key, text in {**base, key: values[label]}.items():
            section, name = section_key.split(".")
            sections.setdefault(section, []).append(f"{name} = {text}\n")
        cfg.write_text("".join(f"[{section}]\n" + "".join(lines) for section, lines in sections.items()))
        try:
            build_parareal(load_config(str(cfg)))
            if runs:
                code = main(["run", "--config", str(cfg), "--out", str(tmp_path / "trace.csv")])
                if code not in (0, 2, 3):
                    failures.append(f"{key} = {label}: exit {code}")
        except ConfigError:
            pass
        except Exception as exc:
            failures.append(f"{key} = {label}: {type(exc).__name__}: {exc}")
    assert keys and failures == []
