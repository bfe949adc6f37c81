import math

import numpy as np
import pytest

from pitkit.core import ConfigError, PropagatorSpec, SingularSystemError, StateVector
from pitkit.heat import (
    HeatModel,
    SourceTerm,
    TridiagonalSystem,
    backward_euler_step,
    conserved_mean,
    fd_decay_rate,
    implicit_system,
    propagate,
    sample_source,
    thomas_solve,
)


# ---------------------------------------------------------------- solver


def test_thomas_matches_dense_on_random_diagonally_dominant_systems():
    rng = np.random.default_rng(1234)
    for _ in range(100):
        n = int(rng.integers(2, 65))
        sub = rng.uniform(-1.0, 1.0, n - 1)
        sup = rng.uniform(-1.0, 1.0, n - 1)
        diag = np.abs(sub.sum()) + 2.0 + rng.uniform(1.0, 3.0, n)
        system = TridiagonalSystem(sub, diag, sup)
        rhs = rng.uniform(-5.0, 5.0, n)
        got = thomas_solve(system, rhs)
        want = np.linalg.solve(system.dense(), rhs)
        assert np.max(np.abs(got - want)) < 1e-12 * max(1.0, np.max(np.abs(want)))


def test_thomas_small_frozen_system():
    # second-difference matrix, n=3: solving (2,-1) stencil against e_1
    system = TridiagonalSystem([-1.0, -1.0], [2.0, 2.0, 2.0], [-1.0, -1.0])
    got = thomas_solve(system, np.array([1.0, 0.0, 0.0]))
    assert got == pytest.approx([0.75, 0.5, 0.25], abs=1e-15)


def test_thomas_rejects_zero_pivot():
    system = TridiagonalSystem([1.0], [0.0, 1.0], [1.0])
    with pytest.raises(SingularSystemError):
        thomas_solve(system, np.array([1.0, 1.0]))


def test_tridiagonal_matvec_agrees_with_dense():
    rng = np.random.default_rng(7)
    system = TridiagonalSystem(rng.normal(size=5), rng.normal(size=6), rng.normal(size=5))
    x = rng.normal(size=6)
    assert np.allclose(system.matvec(x), system.dense() @ x, atol=1e-14)


# ---------------------------------------------------------------- model


def test_grid_sizes_per_bc():
    model = HeatModel(128, "dirichlet")
    assert model.n_unknowns == 127
    assert model.grid_x[0] == pytest.approx(1.0 / 128.0)
    neumann = HeatModel(128, "neumann")
    assert neumann.n_unknowns == 129
    assert neumann.grid_x[0] == 0.0 and neumann.grid_x[-1] == 1.0


def test_backward_euler_damps_eigenvectors():
    """One implicit step scales sin(m pi x) by 1/(1 + dt*mu_m) with
    mu_m = (2/dx^2)(1 - cos(m pi dx))."""
    model = HeatModel(64, "dirichlet")
    dt = 1.0 / 96.0
    for m in (1, 2, 3, 5):
        vec = np.sin(m * np.pi * model.grid_x)
        state = StateVector(model.layout(), vec)
        stepped = backward_euler_step(model, state, 0.0, dt)
        factor = 1.0 / (1.0 + dt * fd_decay_rate(model, m))
        assert np.max(np.abs(stepped.values - factor * vec)) < 1e-13


def test_neumann_keeps_constants_stationary():
    model = HeatModel(32, "neumann")
    state = StateVector(model.layout(), np.full(model.n_unknowns, 4.0))
    stepped = backward_euler_step(model, state, 0.0, 0.25)
    assert np.max(np.abs(stepped.values - 4.0)) < 1e-12


def test_neumann_conserves_trapezoidal_mean_with_source():
    model = HeatModel(64, "neumann", SourceTerm.pulsed())
    state = model.zero_state()
    dt = 1.0 / 96.0
    injected = 0.0
    t = 0.0
    for _ in range(30):
        state = backward_euler_step(model, state, t, dt)
        t += dt
        f = sample_source(model.source, model.grid_x, t)
        w = np.full(model.n_unknowns, 1.0 / model.n_cells)
        w[0] *= 0.5
        w[-1] *= 0.5
        injected += dt * float(w @ f)
    assert conserved_mean(model, state) == pytest.approx(injected, abs=1e-14)


def test_propagate_is_a_semigroup():
    model = HeatModel(32, "dirichlet", SourceTerm.pulsed())
    spec = PropagatorSpec(model, "fine", steps_per_slice=8)
    half = PropagatorSpec(model, "fine", steps_per_slice=4)
    u0 = StateVector(model.layout(), np.sin(np.pi * model.grid_x))
    whole = propagate(model, spec, u0, 0.0, 0.5)
    split = propagate(model, half, propagate(model, half, u0, 0.0, 0.25), 0.25, 0.5)
    assert np.max(np.abs(whole.values - split.values)) < 1e-12


@pytest.mark.parametrize("bc", ["dirichlet", "neumann"])
@pytest.mark.parametrize("source", [SourceTerm.zero(), SourceTerm.pulsed()], ids=["zero", "pulsed"])
def test_propagate_equals_uncached_step_loop_bitwise(bc, source):
    """The cached factor and hoisted source profile of ``propagate`` give
    the bits of backward_euler_step, which builds both on every call."""
    model = HeatModel(32, bc, source)
    spec = PropagatorSpec(model, "fine", steps_per_slice=7)
    rng = np.random.default_rng(7)
    u0 = StateVector(model.layout(), rng.normal(size=model.n_unknowns))
    t_from, t_to = 0.3, 1.1
    span = t_to - t_from
    want = u0
    for i in range(7):
        want = backward_euler_step(model, want, t_from + (i * span) / 7, span / 7)
    for _ in range(2):  # a cache miss, then a hit
        got = propagate(model, spec, u0, t_from, t_to)
        assert np.array_equal(got.values, want.values)


def test_propagate_validates_inputs():
    model = HeatModel(16, "dirichlet")
    state = model.zero_state()
    with pytest.raises(ConfigError):
        propagate(model, PropagatorSpec(model, "fine", steps_per_slice=0), state, 0.0, 1.0)
    with pytest.raises(ValueError):
        propagate(model, PropagatorSpec(model, "fine", steps_per_slice=2), state, 1.0, 1.0)
    other = HeatModel(16, "neumann").zero_state()
    with pytest.raises(ValueError):
        backward_euler_step(model, other, 0.0, 0.1)


def test_implicit_system_matches_matrix_definition():
    model = HeatModel(8, "dirichlet")
    dt = 0.125
    sub, diag, sup = model.laplacian()
    dense = implicit_system(model, dt).dense()
    want = np.eye(model.n_unknowns) - dt * (
        np.diag(sub, -1) + np.diag(diag) + np.diag(sup, 1)
    )
    assert np.allclose(dense, want, atol=1e-15)


# ---------------------------------------------------------------- source


def test_pulsed_source_peaks_at_pulse_times():
    source = SourceTerm.pulsed()
    assert sample_source(source, np.array([0.5]), 0.1)[0] == pytest.approx(10.0, abs=1e-9)
    # off-pulse times are quiet; by t=3 every pulse is long gone
    assert abs(sample_source(source, np.array([0.5]), 3.0)[0]) < 1e-55


def test_source_space_profile_decays_from_center():
    source = SourceTerm.pulsed()
    x = np.array([0.5, 0.6])
    vals = sample_source(source, x, 0.6)
    assert vals[1] == pytest.approx(vals[0] * math.exp(-1.0), rel=1e-12)


def test_zero_source_is_zero():
    assert SourceTerm.zero().is_zero
    assert not SourceTerm.pulsed().is_zero
