"""SHA-256 digests of every CSV the CLI writes for the named presets.

``trace_digests.txt`` pins the bytes of each experiment preset's default
trace, two coarse-free traces, the trace of ``spectral_pulsed.ini`` (the
only case with a forced spectral model), the four solution fields and the
default factors table.  A refactor that leaves the numerics alone must
leave every line of it unchanged.  To regenerate after an intended change
of output:

    PYTHONPATH=src python tests/test_trace_digests.py > tests/trace_digests.txt
"""

import hashlib
import pathlib
import tempfile

import pytest

from pitkit import spectral
from pitkit.cli import main
from pitkit.presets import experiment_preset_names, field_preset_names

from independent_sweeps import _clear_solver_caches

DIGESTS = pathlib.Path(__file__).with_name("trace_digests.txt")
SPECTRAL_PULSED = pathlib.Path(__file__).with_name("spectral_pulsed.ini")


def cases() -> dict[str, list[str]]:
    """Digest name -> CLI arguments (without --out)."""
    out = {f"run {name}": ["run", "--preset", name] for name in experiment_preset_names()}
    for name in ("heat-dirichlet-N6", "heat-neumann-N6"):
        out[f"run {name} --no-coarse"] = ["run", "--preset", name, "--no-coarse"]
    out["run --config spectral_pulsed.ini"] = ["run", "--config", str(SPECTRAL_PULSED)]
    for name in field_preset_names():
        out[f"solution-field {name}"] = ["solution-field", "--preset", name]
    out["factors"] = ["factors"]
    return out


def digest(argv: list[str]) -> str:
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "out.csv"
        assert main([*argv, "--out", str(path)]) == 0
        return hashlib.sha256(path.read_bytes()).hexdigest()


def pinned() -> dict[str, str]:
    pairs = {}
    for line in DIGESTS.read_text(encoding="utf-8").splitlines():
        value, name = line.split("  ", 1)
        pairs[name] = value
    return pairs


def test_digest_file_covers_every_case():
    assert sorted(pinned()) == sorted(cases())


@pytest.mark.parametrize("name", sorted(cases()))
def test_output_matches_pinned_digest(name):
    assert digest(cases()[name]) == pinned()[name]


def test_forced_spectral_trace_is_the_same_from_warm_caches():
    """The second run in one process reads every source integral from the
    forcing memo the first one filled, and writes the same bytes."""
    name = "run --config spectral_pulsed.ini"
    _clear_solver_caches()
    assert [digest(cases()[name]) for _ in range(2)] == [pinned()[name]] * 2


def test_forced_spectral_run_integrates_each_slice_source_once(monkeypatch):
    """From cold caches a run makes one quadrature per slice and forced mode
    among the fine propagator's kept modes, whatever the number of sweeps
    and whether the coarse propagator keeps that mode too."""
    calls = []
    integral = spectral.source_mode_integral

    def counting(rate, source_fn, t_from, t_to):
        calls.append((rate, t_from, t_to))
        return integral(rate, source_fn, t_from, t_to)

    monkeypatch.setattr(spectral, "source_mode_integral", counting)
    _clear_solver_caches()
    try:
        digest(cases()["run --config spectral_pulsed.ini"])
    finally:
        _clear_solver_caches()
    forced_modes = 5  # modes 1, 2, 5, 6 and 8 of the 64 fine modes
    n_slices = 6
    assert len(calls) == len(set(calls)) == n_slices * forced_modes


if __name__ == "__main__":
    for name, argv in cases().items():
        print(f"{digest(argv)}  {name}")
