"""Property tests: the invariants of the acceptance criteria, checked on
random small configurations instead of the named presets.

- slice n is bitwise exact after n sweeps (criterion 4), for every model,
  with and without a coarse propagator, under every initial guess;
- every sweep is bitwise the same with its fine solves in reversed slice
  order from cold solver caches, so each fine solve depends only on its
  own slice and input (criterion 9);
- the Neumann heat propagator conserves the trapezoidal mean with zero
  source, the wave propagator conserves the discrete energy, and upwind
  advection at CFL number 1 is an exact shift (criterion 10);
- a stacked Thomas solve gives the bits of row-by-row solves, and a sweep's
  stacked fine march the bits of one slice at a time (criterion 10).

Slice counts stay at 8 or below, except in the stacked-march property, and
grids stay small, so each example runs quickly.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pitkit.core import PropagatorSpec, StateVector, TimePartition
from pitkit.heat import (
    STACKED_SOLVE_MIN_ROWS,
    HeatModel,
    SourceTerm,
    _ThomasFactor,
    conserved_mean,
    grid_step,
    implicit_system,
)
from pitkit.hyperbolic import AdvectionModel, WaveModel, wave_energy
from pitkit.parareal import PararealConfig, parareal_iterate, reference_fine_sequential, run
from pitkit.presets import ExperimentConfig, build_parareal

from independent_sweeps import _propagate_one, assert_sweeps_match_reordered

PROPERTY = settings(max_examples=25, deadline=None)

_GUESSES_WITH_COARSE = ("default", "zero", "replicate_u0", "coarse_sweep", "random")
_GUESSES_WITHOUT_COARSE = ("default", "zero", "replicate_u0", "random")


@st.composite
def _run_shape(draw, coarse_allowed=True):
    """Fields shared by every model: partition, coarse choice, guess, seed."""
    n_slices = draw(st.integers(1, 8))
    coarse = coarse_allowed and draw(st.booleans())
    guesses = _GUESSES_WITH_COARSE if coarse else _GUESSES_WITHOUT_COARSE
    return dict(
        t_end=draw(st.floats(0.125, 2.0)),
        n_slices=n_slices,
        coarse_role="coarse" if coarse else "none",
        initial_guess=draw(st.sampled_from(guesses)),
        iterations=n_slices,
        tolerance=0.0,
        seed=draw(st.integers(0, 2**16)),
    )


@st.composite
def heat_configs(draw):
    return ExperimentConfig(
        model_kind="heat",
        bc=draw(st.sampled_from(["dirichlet", "neumann"])),
        n_cells=draw(st.integers(2, 24)),
        source_kind=draw(st.sampled_from(["zero", "pulsed"])),
        initial_kind=draw(st.sampled_from(["zero", "gaussian_bump"])),
        fine_steps=draw(st.integers(1, 6)),
        coarse_steps=draw(st.integers(1, 2)),
        **draw(_run_shape()),
    )


@st.composite
def spectral_configs(draw):
    fine_modes = draw(st.integers(2, 12))
    basis = draw(st.sampled_from(["sine", "cosine"]))
    first = 1 if basis == "sine" else 0
    # a spectral mode list names each mode at most once
    modes = st.lists(st.tuples(st.integers(first, fine_modes - 1 + first),
                               st.floats(-2.0, 2.0)), max_size=4, unique_by=lambda pair: pair[0])
    shape = draw(_run_shape())
    return ExperimentConfig(
        model_kind="spectral",
        basis=basis,
        source_kind=draw(st.sampled_from(["zero", "pulsed", "modes"])),
        source_modes=tuple(draw(modes)),
        initial_kind="modes",
        initial_modes=tuple(draw(modes)),
        fine_modes=fine_modes,
        coarse_modes=draw(st.integers(1, fine_modes - 1)),
        **shape,
    )


@st.composite
def advection_configs(draw):
    n_cells = draw(st.integers(2, 24))
    shape = draw(_run_shape(coarse_allowed=False))
    # enough upwind steps per slice to keep the CFL number at most 1
    least = math.ceil(n_cells * shape["t_end"] / shape["n_slices"]) + 1
    return ExperimentConfig(
        model_kind="advection",
        bc=draw(st.sampled_from(["periodic", "inflow"])),
        n_cells=n_cells,
        source_kind=draw(st.sampled_from(["zero", "pulsed"])),
        initial_kind=draw(st.sampled_from(["zero", "gaussian_bump"])),
        fine_steps=least + draw(st.integers(0, 3)),
        **shape,
    )


@st.composite
def wave_configs(draw):
    return ExperimentConfig(
        model_kind="wave",
        n_cells=draw(st.integers(2, 24)),
        source_kind="zero",
        initial_kind="modes",
        initial_modes=tuple(draw(st.lists(
            st.tuples(st.integers(1, 4), st.floats(-2.0, 2.0)), max_size=3))),
        fine_steps=draw(st.integers(1, 8)),
        coarse_steps=1,
        **draw(_run_shape()),
    )


any_config = st.one_of(heat_configs(), spectral_configs(), advection_configs(), wave_configs())


@PROPERTY
@given(any_config)
def test_slice_n_is_exact_after_n_sweeps(config):
    trace = run(build_parareal(config))
    assert trace.errors.shape == (config.n_slices + 1, config.n_slices + 1)
    for k in range(len(trace.errors)):
        assert not trace.errors[k, : k + 1].any(), f"a boundary <= {k} is off after {k} sweeps"
    assert not trace.errors[-1].any()


@PROPERTY
@given(any_config)
def test_parallel_and_serial_sweeps_give_equal_errors(config):
    """Every sweep's fine solves can run in any order, as parallel workers
    would run them: reversed order from cold caches gives the same bits."""
    assert_sweeps_match_reordered(build_parareal(config))


def _random_values(seed: int, size: int) -> np.ndarray:
    return np.random.default_rng(seed).uniform(-1.0, 1.0, size)


@PROPERTY
@given(n_cells=st.integers(2, 64), steps=st.integers(1, 8),
       t_from=st.floats(0.0, 2.0), span=st.floats(1e-3, 1.0), seed=st.integers(0, 2**16))
def test_neumann_heat_conserves_the_mean_without_source(n_cells, steps, t_from, span, seed):
    model = HeatModel(n_cells, "neumann", SourceTerm.zero())
    spec = PropagatorSpec(model, "fine", steps_per_slice=steps)
    state = StateVector(model.layout(), _random_values(seed, model.n_unknowns))
    out = StateVector(state.layout, _propagate_one(spec, state.values, (t_from, t_from + span)))
    # each solve may move the mean by roundoff in the scale of the system's entries
    stiffness = 1.0 + 4.0 * (span / steps) / model.dx**2
    tolerance = 8 * steps * stiffness * np.finfo(float).eps
    assert abs(conserved_mean(model, out) - conserved_mean(model, state)) <= tolerance


@PROPERTY
@given(n_cells=st.integers(2, 64), steps=st.integers(1, 16),
       t_from=st.floats(0.0, 2.0), span=st.floats(1e-3, 1.0), seed=st.integers(0, 2**16))
def test_wave_propagator_conserves_energy(n_cells, steps, t_from, span, seed):
    model = WaveModel(n_cells)
    spec = PropagatorSpec(model, "fine", steps_per_slice=steps)
    state = StateVector(model.layout(), _random_values(seed, model.layout().size))
    out = StateVector(state.layout, _propagate_one(spec, state.values, (t_from, t_from + span)))
    assert wave_energy(model, out) == pytest.approx(wave_energy(model, state), rel=1e-11)


@PROPERTY
@given(n_cells=st.integers(2, 64), speed=st.sampled_from([0.25, 0.5, 1.0, 2.0, 4.0]),
       bc=st.sampled_from(["periodic", "inflow"]), shift=st.integers(1, 70),
       seed=st.integers(0, 2**16))
def test_advection_at_unit_cfl_is_an_exact_shift(n_cells, speed, bc, shift, seed):
    model = AdvectionModel(speed, n_cells, bc, SourceTerm.zero())
    u = _random_values(seed, n_cells)
    state = StateVector(model.layout(), u)
    for i in range(shift):
        state = grid_step(model, state, i * model.dx, model.dx / speed)
    if bc == "periodic":
        want = np.roll(u, shift)
    else:
        want = np.concatenate((np.zeros(min(shift, n_cells)), u[: max(n_cells - shift, 0)]))
    assert np.array_equal(state.values, want)



@PROPERTY
@given(n_cells=st.integers(2, 40), bc=st.sampled_from(["dirichlet", "neumann"]),
       dt=st.floats(1e-4, 1.0), width=st.integers(1, 2 * STACKED_SOLVE_MIN_ROWS),
       seed=st.integers(0, 2**16))
def test_stacked_thomas_solve_equals_row_by_row(n_cells, bc, dt, width, seed):
    """Below STACKED_SOLVE_MIN_ROWS rows a stack is solved row by row, from
    there on by one sweep across the stack; either way each row gets the
    bits of its own one-row solve, signed zeros included."""
    factor = _ThomasFactor(implicit_system(HeatModel(n_cells, bc), dt))
    rng = np.random.default_rng(seed)
    rhs = rng.uniform(-1.0, 1.0, (width, factor.n))
    rhs[rng.random(rhs.shape) < 0.2] = 0.0
    rhs[rng.random(rhs.shape) < 0.2] = -0.0
    got = factor.solve(rhs)
    assert got.shape == rhs.shape
    for row, values in zip(rhs, got):
        assert values.tobytes() == factor.solve(row).tobytes()


# (n_slices, t_end) of the stacked-march property: 1/7 is no binary
# fraction, so slice lengths differ in the last bit and split into several
# stacks; n/16 gives slices of exactly 1/16, one stack on each side of the
# width threshold
_MARCH_PARTITIONS = [(7, 1.0)] + [
    (n, n / 16) for n in (STACKED_SOLVE_MIN_ROWS - 1, STACKED_SOLVE_MIN_ROWS, 2 * STACKED_SOLVE_MIN_ROWS)]


def _march_model(case, n_cells, cells_per_step):
    """The model of one stacked-march case; advection gets the grid that
    makes its CFL number 1 or about 1/2."""
    pulsed = SourceTerm.pulsed()
    if case.startswith("heat"):
        return HeatModel(n_cells, case.split("-")[1], pulsed)
    if case == "wave":
        return WaveModel(n_cells)
    _, bc, cfl = case.split("-")
    cells = cells_per_step if cfl == "nu1" else max(2, cells_per_step // 2)
    return AdvectionModel(1.0, cells, bc, pulsed)


@pytest.mark.parametrize("case", [
    "heat-dirichlet", "heat-neumann", "advection-periodic-nu1", "advection-periodic-nuhalf",
    "advection-inflow-nu1", "advection-inflow-nuhalf", "wave"])
@settings(max_examples=12, deadline=None)
@given(partition=st.sampled_from(_MARCH_PARTITIONS), steps=st.integers(1, 3),
       n_cells=st.integers(2, 16), seed=st.integers(0, 2**16))
def test_stacked_march_equals_per_slice_steps(case, partition, steps, n_cells, seed):
    """A sweep propagates all its slices in stacks, one per slice length;
    every boundary gets the bits of stepping its slice alone with
    ``grid_step``, which builds a fresh stepper for every step."""
    n_slices, t_end = partition
    model = _march_model(case, n_cells, round(steps * n_slices / t_end))
    spec = PropagatorSpec(model, "fine", steps_per_slice=steps)
    rng = np.random.default_rng(seed)
    size = model.layout().size
    old = np.array([rng.uniform(-1.0, 1.0, size) for _ in range(n_slices + 1)])
    # no row of old is the zero run's reference value, so every slice is propagated
    config = PararealConfig(TimePartition(0.0, t_end, n_slices), model.zero_state(), spec)
    new, _ = parareal_iterate(old, config, reference_fine_sequential(config))
    lengths = set()
    for n in range(n_slices):
        t_from, t_to = config.partition.slice_bounds(n)
        span = t_to - t_from
        lengths.add(span)
        want = StateVector(model.layout(), old[n])
        for i in range(steps):
            want = grid_step(model, want, t_from + (i * span) / steps, span / steps)
        assert new[n + 1].tobytes() == want.values.tobytes(), f"boundary {n + 1}"
    assert len(lengths) == (3 if n_slices == 7 else 1)
