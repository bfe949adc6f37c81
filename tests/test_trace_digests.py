"""SHA-256 digests of every CSV the CLI writes for the named presets.

``trace_digests.txt`` pins the bytes of each experiment preset's default
trace, two coarse-free traces, the four solution fields and the default
factors table.  A refactor that leaves the numerics alone must leave every
line of it unchanged.  To regenerate after an intended change of output:

    PYTHONPATH=src python tests/test_trace_digests.py > tests/trace_digests.txt
"""

import hashlib
import pathlib
import tempfile

import pytest

from pitkit.cli import main
from pitkit.presets import experiment_preset_names, field_preset_names

DIGESTS = pathlib.Path(__file__).with_name("trace_digests.txt")


def cases() -> dict[str, list[str]]:
    """Digest name -> CLI arguments (without --out)."""
    out = {f"run {name}": ["run", "--preset", name] for name in experiment_preset_names()}
    for name in ("heat-dirichlet-N6", "heat-neumann-N6"):
        out[f"run {name} --no-coarse"] = ["run", "--preset", name, "--no-coarse"]
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


if __name__ == "__main__":
    for name, argv in cases().items():
        print(f"{digest(argv)}  {name}")
