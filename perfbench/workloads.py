"""Seeded inputs for the benchmark workloads.

Every workload is one family of ``pitkit run --config`` experiments.  The
seed draws only values that leave the work unchanged: whatever the seed, a
run of a workload makes the same propagator calls, inner steps and
quadratures.  ``run.tolerance = 0`` makes every run do all K sweeps, so the
work does not depend on how fast the drawn inputs converge either.

One invocation draws ``POOL_SIZE`` inputs and cycles through them, so every
input repeats and the repeat can be checked for a byte-identical trace.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

POOL_SIZE = 4


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    n_slices: int
    iterations: int
    fine_steps: int  # inner steps of one fine slice; 0 for the spectral model
    draw: Callable[["Workload", random.Random], list[str]]

    def inputs(self, seed: int) -> list[str]:
        """The INI documents of one invocation, a pure function of the seed."""
        return self.draw(self, random.Random(f"{self.name}:{seed}"))


def _ini(sections: dict[str, dict[str, object]]) -> str:
    lines = []
    for section, keys in sections.items():
        lines.append(f"[{section}]")
        lines.extend(f"{key} = {value}" for key, value in keys.items())
    return "\n".join(lines) + "\n"


def _run_section(iterations: int, **extra) -> dict[str, object]:
    return {"iterations": iterations, "tolerance": 0.0, "parallel": "true", **extra}


def _heat(w: Workload, rng: random.Random) -> list[str]:
    # The pool holds as many Neumann as Dirichlet inputs: a Neumann grid
    # stores 129 unknowns against 127, so an unbalanced draw would change
    # the work with the seed.  The initial state does not change the work.
    bcs = ["dirichlet", "neumann"] * (POOL_SIZE // 2)
    rng.shuffle(bcs)
    return [
        _ini({
            "model": {"kind": "heat", "bc": bc, "n_cells": 128},
            "source": {"kind": "pulsed"},
            "initial": {"kind": rng.choice(("zero", "gaussian_bump"))},
            "partition": {"t_end": 3.0, "n_slices": w.n_slices},
            "fine": {"steps_per_slice": w.fine_steps},
            "coarse": {"role": "coarse", "steps_per_slice": 1},
            "run": _run_section(w.iterations),
        })
        for bc in bcs
    ]


def _wave(w: Workload, rng: random.Random) -> list[str]:
    return [
        _ini({
            "model": {"kind": "wave", "n_cells": 128},
            "source": {"kind": "zero"},
            "initial": {"kind": "modes",
                        "modes": " ".join(f"{m}:{rng.uniform(0.5, 1.5)!r}" for m in range(1, 5))},
            "partition": {"t_end": 2.0, "n_slices": w.n_slices},
            "fine": {"steps_per_slice": w.fine_steps},
            "coarse": {"role": "none"},
            "run": _run_section(w.iterations),
        })
        for _ in range(POOL_SIZE)
    ]


def _spectral(w: Workload, rng: random.Random) -> list[str]:
    # Slices are 0.5 long, so every mode up to 28 gets the same 50 panels in
    # source_mode_integral; the drawn modes stay within 2..8 and all have
    # nonzero coefficients, so each fine slice does exactly 5 quadratures.
    def coefficient() -> float:
        return rng.choice((-1.0, 1.0)) * rng.uniform(0.5, 2.0)

    pool = []
    for _ in range(POOL_SIZE):
        modes = [1] + sorted(rng.sample(range(2, 9), 4))
        pool.append(_ini({
            "model": {"kind": "spectral", "basis": "sine"},
            "source": {"kind": "pulsed",
                       "modes": " ".join(f"{m}:{coefficient()!r}" for m in modes)},
            "initial": {"kind": "modes", "modes": "1:1.0 8:0.7"},
            "partition": {"t_end": 3.0, "n_slices": w.n_slices},
            "fine": {"mode_count": 64},
            "coarse": {"role": "coarse", "mode_count": 1},
            "run": _run_section(w.iterations, initial_guess="zero"),
        }))
    return pool


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "heat-N48",
            "48 short heat slices: 1008 coarse calls a run and a 48-thread pool, "
            "so coarse reuse, factor caching, batching and executor removal show",
            48, 10, 6, _heat,
        ),
        Workload(
            "heat-N6",
            "the same 288 fine backward-Euler steps a sweep in 6 long slices: "
            "Thomas-solve bound, little coarse work, narrow 6-column batches",
            6, 10, 48, _heat,
        ),
        Workload(
            "wave-N8",
            "the only run of the hyperbolic layer and of the coarse-free sweep "
            "path; a coarse-side change predicts no change here",
            8, 8, 64, _wave,
        ),
        Workload(
            "spectral-pulsed",
            "the only run of spectral and source_mode_integral, with no Thomas "
            "solve; fixed per-run costs weigh most in this short run",
            6, 5, 0, _spectral,
        ),
    )
}
