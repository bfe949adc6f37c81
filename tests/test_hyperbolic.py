import numpy as np
import pytest

from pitkit.core import ConfigError, PropagatorSpec, StateVector
from pitkit.heat import SourceTerm, grid_step
from pitkit.hyperbolic import AdvectionModel, WaveModel, wave_energy

from independent_sweeps import _propagate_one


# ---------------------------------------------------------------- advection


def test_unit_cfl_periodic_step_is_exact_cyclic_shift():
    model = AdvectionModel(speed=1.0, n_cells=16, bc="periodic", source=SourceTerm.zero())
    rng = np.random.default_rng(5)
    u = rng.normal(size=16)
    state = StateVector(model.layout(), u)
    stepped = grid_step(model, state, 0.0, model.dx)
    assert np.array_equal(stepped.values, np.roll(u, 1))


def test_unit_cfl_inflow_flushes_domain_to_exact_zero():
    model = AdvectionModel(speed=1.0, n_cells=32, bc="inflow", source=SourceTerm.zero())
    state = StateVector(model.layout(), np.ones(32))
    for _ in range(32):
        state = grid_step(model, state, 0.0, model.dx)
    assert np.array_equal(state.values, np.zeros(32))


def test_cfl_violation_rejected():
    model = AdvectionModel(speed=1.0, n_cells=16, bc="periodic")
    state = model.zero_state()
    with pytest.raises(ConfigError):
        grid_step(model, state, 0.0, 2.0 * model.dx)


def test_zero_state_zero_source_stays_zero():
    model = AdvectionModel(speed=1.0, n_cells=16, bc="inflow", source=SourceTerm.zero())
    out = grid_step(model, model.zero_state(), 0.0, model.dx)
    assert np.array_equal(out.values, np.zeros(16))


def test_periodic_zero_source_conserves_grid_sum():
    model = AdvectionModel(speed=1.0, n_cells=64, bc="periodic", source=SourceTerm.zero())
    rng = np.random.default_rng(21)
    state = StateVector(model.layout(), rng.uniform(0.5, 2.0, 64))
    before = float(np.sum(state.values))
    # sub-unit CFL exercises the dissipative branch as well
    for nu_steps, dt in ((40, model.dx), (40, 0.5 * model.dx)):
        for _ in range(nu_steps):
            state = grid_step(model, state, 0.0, dt)
    after = float(np.sum(state.values))
    assert after == pytest.approx(before, rel=1e-12)


def test_periodic_sweep_over_full_period_returns_near_initial():
    # at unit CFL the scheme is exact transport, so one period is an identity
    model = AdvectionModel(speed=1.0, n_cells=32, bc="periodic", source=SourceTerm.zero())
    spec = PropagatorSpec(model, "fine", steps_per_slice=32)
    rng = np.random.default_rng(9)
    state = StateVector(model.layout(), rng.normal(size=32))
    swept = _propagate_one(spec, state.values, (0.0, 1.0))
    assert np.max(np.abs(swept - state.values)) < 1e-12


def test_source_injects_at_step_start():
    source = SourceTerm.pulsed()
    model = AdvectionModel(speed=1.0, n_cells=128, bc="inflow", source=source)
    state = model.zero_state()
    dt = model.dx
    stepped = grid_step(model, state, 0.1, dt)
    want = dt * (source.space_profile(model.grid_x) * source.time_profile(0.1))
    assert np.max(np.abs(stepped.values - want)) < 1e-15


def test_invalid_model_parameters():
    with pytest.raises(ValueError):
        AdvectionModel(speed=-1.0)
    with pytest.raises(ValueError):
        AdvectionModel(bc="outflow")


# --------------------------------------------------------------------- wave


def _standing_mode(model):
    u = np.sin(np.pi * model.grid_x)
    return model.state_from(u, np.zeros(model.n_unknowns))


def test_wave_zero_state_stays_zero():
    model = WaveModel(16)
    out = grid_step(model, model.state_from(np.zeros(15), np.zeros(15)), 0.0, 0.125)
    assert np.array_equal(out.values, np.zeros(30))


def test_wave_energy_conserved_per_step():
    model = WaveModel(64)
    state = _standing_mode(model)
    e0 = wave_energy(model, state)
    stepped = grid_step(model, state, 0.0, 1.0 / 128.0)
    assert wave_energy(model, stepped) == pytest.approx(e0, rel=1e-10)


def test_wave_energy_over_100_steps():
    model = WaveModel(64)
    state = _standing_mode(model)
    e0 = wave_energy(model, state)
    dt = 1.0 / 128.0
    for i in range(100):
        state = grid_step(model, state, i * dt, dt)
    assert wave_energy(model, state) == pytest.approx(e0, rel=1e-8)


def test_wave_energy_drift_over_1000_steps():
    model = WaveModel(32)
    rng = np.random.default_rng(13)
    state = model.state_from(rng.normal(size=31), rng.normal(size=31))
    e0 = wave_energy(model, state)
    dt = 1.0 / 64.0
    for i in range(1000):
        state = grid_step(model, state, i * dt, dt)
    assert wave_energy(model, state) == pytest.approx(e0, rel=1e-8)


def test_wave_time_reversal():
    model = WaveModel(48)
    state = _standing_mode(model)
    forward = grid_step(model, state, 0.0, 0.02)
    back = grid_step(model, forward, 0.02, -0.02)
    assert np.max(np.abs(back.values - state.values)) < 1e-10


def test_wave_matches_separated_solution():
    """u(x,t) = sin(pi x) cos(pi t) up to scheme accuracy."""
    model = WaveModel(128)
    state = _standing_mode(model)
    spec = PropagatorSpec(model, "fine", steps_per_slice=512)
    out = _propagate_one(spec, state.values, (0.0, 0.5))
    u, v = model.split(StateVector(state.layout, out))
    want_u = np.sin(np.pi * model.grid_x) * np.cos(np.pi * 0.5)
    # second-order scheme; tolerance reflects dt^2 and dx^2 errors
    assert np.max(np.abs(u - want_u)) < 5e-4


# ---------------------------------------------------------------- propagate


def test_propagate_single_coarse_step_is_one_upwind_step():
    model = AdvectionModel(speed=1.0, n_cells=256, bc="inflow", source=SourceTerm.zero())
    rng = np.random.default_rng(17)
    state = StateVector(model.layout(), rng.normal(size=256))
    spec = PropagatorSpec(model, "coarse", steps_per_slice=1)
    via_propagate = _propagate_one(spec, state.values, (0.0, model.dx))
    direct = grid_step(model, state, 0.0, model.dx)
    assert np.array_equal(via_propagate, direct.values)


def test_propagate_composes_across_slices():
    model = AdvectionModel(speed=1.0, n_cells=64, bc="periodic", source=SourceTerm.pulsed())
    spec = PropagatorSpec(model, "fine", steps_per_slice=16)
    rng = np.random.default_rng(23)
    state = StateVector(model.layout(), rng.normal(size=64))
    half = _propagate_one(spec, state.values, (0.0, 0.25))
    two_slices = _propagate_one(spec, half, (0.25, 0.5))
    whole = _propagate_one(PropagatorSpec(model, "fine", steps_per_slice=32), state.values, (0.0, 0.5))
    assert np.max(np.abs(two_slices - whole)) < 1e-12


def test_propagate_validates_steps():
    model = WaveModel(16)
    state = model.state_from(np.zeros(15), np.zeros(15))
    with pytest.raises(ConfigError):
        _propagate_one(PropagatorSpec(model, "fine", steps_per_slice=0), state.values, (0.0, 1.0))
