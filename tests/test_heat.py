import math

import numpy as np
import pytest

from pitkit import heat
from pitkit.core import ConfigError, PropagatorSpec, SingularSystemError
from pitkit.heat import (
    HeatModel,
    SourceTerm,
    TridiagonalSystem,
    conserved_mean,
    fd_decay_rate,
    grid_step,
    implicit_system,
    thomas_solve,
)
from pitkit.hyperbolic import AdvectionModel, WaveModel
from pitkit.parareal import run
from pitkit.presets import ExperimentConfig, build_parareal

from independent_sweeps import _propagate_one


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
        stepped = grid_step(model, vec, 0.0, dt)
        factor = 1.0 / (1.0 + dt * fd_decay_rate(model, m))
        assert np.max(np.abs(stepped - factor * vec)) < 1e-13


def test_neumann_keeps_constants_stationary():
    model = HeatModel(32, "neumann")
    stepped = grid_step(model, np.full(model.n_unknowns, 4.0), 0.0, 0.25)
    assert np.max(np.abs(stepped - 4.0)) < 1e-12


def test_neumann_conserves_trapezoidal_mean_with_source():
    model = HeatModel(64, "neumann", SourceTerm.pulsed())
    state = model.zero_state()
    dt = 1.0 / 96.0
    injected = 0.0
    t = 0.0
    for _ in range(30):
        state = grid_step(model, state, t, dt)
        t += dt
        f = model.source.space_profile(model.grid_x) * model.source.time_profile(t)
        w = np.full(model.n_unknowns, 1.0 / model.n_cells)
        w[0] *= 0.5
        w[-1] *= 0.5
        injected += dt * float(w @ f)
    assert conserved_mean(model, state) == pytest.approx(injected, abs=1e-14)


def test_propagate_is_a_semigroup():
    model = HeatModel(32, "dirichlet", SourceTerm.pulsed())
    spec = PropagatorSpec(model, "fine", steps_per_slice=8)
    half = PropagatorSpec(model, "fine", steps_per_slice=4)
    u0 = np.sin(np.pi * model.grid_x)
    whole = _propagate_one(spec, u0, (0.0, 0.5))
    split = _propagate_one(half, _propagate_one(half, u0, (0.0, 0.25)), (0.25, 0.5))
    assert np.max(np.abs(whole - split)) < 1e-12


# (model, steps_per_slice, t_from, t_to, seed) of each cached-march check
_MARCH_CASES = {
    **{f"{name}-{bc}": (HeatModel(32, bc, source), 7, 0.3, 1.1, 7)
       for bc in ("dirichlet", "neumann")
       for name, source in (("zero", SourceTerm.zero()), ("pulsed", SourceTerm.pulsed()))},
    **{f"{name}-{bc}": (AdvectionModel(1.0, 64, bc, source), 20, 0.05, 0.3, 29)
       for bc in ("periodic", "inflow")
       for name, source in (("zero", SourceTerm.zero()), ("pulsed", SourceTerm.pulsed()))},
    "wave": (WaveModel(32), 9, 0.2, 0.65, 31),
}


@pytest.mark.parametrize("case", list(_MARCH_CASES))
def test_propagate_equals_uncached_step_loop_bitwise(case):
    """The cached stepper of ``GridModel.propagate`` gives the bits of grid_step,
    which builds the model's factor and source profile on every call; two
    slice lengths, so a cache that ignores the substep fails."""
    model, steps, t_from, t_to, seed = _MARCH_CASES[case]
    spec = PropagatorSpec(model, "fine", steps_per_slice=steps)
    rng = np.random.default_rng(seed)
    u0 = rng.normal(size=model.layout().size)
    heat._cached_stepper.cache_clear()
    for t_end in (t_to, t_from + 0.5 * (t_to - t_from)):
        span = t_end - t_from
        want = u0
        for i in range(steps):
            want = grid_step(model, want, t_from + (i * span) / steps, span / steps)
        for _ in range(2):  # a cache miss, then a hit
            got = _propagate_one(spec, u0, (t_from, t_end))
            assert np.array_equal(got, want)


# (model, group width) -> the calls of one 3-step march, as
# (solve_row, solve, _solve_stack) counts
_FORM_CASES = {
    "narrow-heat": (HeatModel(16, "dirichlet", SourceTerm.pulsed()), heat.STACKED_SOLVE_MIN_ROWS - 1,
                    (3 * (heat.STACKED_SOLVE_MIN_ROWS - 1), 0, 0)),
    "wide-heat": (HeatModel(16, "neumann", SourceTerm.pulsed()), heat.STACKED_SOLVE_MIN_ROWS, (0, 3, 3)),
    "narrow-wave": (WaveModel(16), 2, (6, 3, 0)),
    "wide-wave": (WaveModel(16), heat.STACKED_SOLVE_MIN_ROWS, (0, 3, 3)),
}


@pytest.mark.parametrize("case", list(_FORM_CASES))
def test_march_form_follows_group_width(monkeypatch, case):
    """A heat group narrower than STACKED_SOLVE_MIN_ROWS marches each row in
    Python floats and never enters the array solve; a wide heat group takes
    the stacked sweep once per substep; the wave keeps its array step, whose
    solve picks the method by width."""
    model, width, want = _FORM_CASES[case]
    calls = {"solve_row": 0, "solve": 0, "_solve_stack": 0}

    def counting(name):
        method = getattr(heat._ThomasFactor, name)

        def counted(self, *args):
            calls[name] += 1
            return method(self, *args)
        return counted

    for name in calls:
        monkeypatch.setattr(heat._ThomasFactor, name, counting(name))
    heat._cached_stepper.cache_clear()
    spec = PropagatorSpec(model, "fine", steps_per_slice=3)
    states = np.random.default_rng(5).normal(size=(width, model.layout().size))
    t_from = [0.25 * i for i in range(width)]
    model.propagate(spec, states, t_from, [t + 0.25 for t in t_from])
    assert (calls["solve_row"], calls["solve"], calls["_solve_stack"]) == want


def _count_row_solves(monkeypatch):
    """A one-item list that counts ``_ThomasFactor.solve_row`` calls from
    here on: one per row and substep of a march narrower than
    STACKED_SOLVE_MIN_ROWS."""
    count = [0]
    solve_row = heat._ThomasFactor.solve_row

    def counted(self, *args):
        count[0] += 1
        return solve_row(self, *args)

    monkeypatch.setattr(heat._ThomasFactor, "solve_row", counted)
    heat._cached_stepper.cache_clear()
    return count


def test_replicated_wave_run_marches_one_row_per_sweep(monkeypatch):
    """Started from the replicated u0, every unlocked input of a coarse-free
    wave sweep is one row, F^(k-1)(u0), which the march solves once."""
    steps, n_slices = 4, 6
    config = build_parareal(ExperimentConfig(
        model_kind="wave", n_cells=16, source_kind="zero", initial_kind="modes",
        initial_modes=((1, 1.0), (3, 0.5)), t_end=0.75, n_slices=n_slices,
        fine_steps=steps, coarse_role="none", iterations=n_slices, initial_guess="replicate_u0"))
    count = _count_row_solves(monkeypatch)
    per_sweep = []

    def on_iteration(k, values):
        per_sweep.append(count[0])
        count[0] = 0

    run(config, on_iteration=on_iteration)
    # the first count also holds the sequential reference, one row per
    # slice; sweep k has n_slices - k unlocked inputs, the last none
    assert per_sweep == [(n_slices + 1) * steps] + [steps] * (n_slices - 2) + [0]


def test_pulsed_heat_marches_every_row_of_equal_inputs(monkeypatch):
    """A pulsed step reads the time, so equal inputs on different slices of
    one length end apart and each marches."""
    model = HeatModel(16, "dirichlet", SourceTerm.pulsed())
    spec = PropagatorSpec(model, "fine", steps_per_slice=3)
    states = np.tile(np.sin(np.pi * model.grid_x), (4, 1))
    t_from = [0.0, 0.25, 0.5, 0.75]
    count = _count_row_solves(monkeypatch)
    out = model.propagate(spec, states, t_from, [t + 0.25 for t in t_from])
    assert count[0] == 4 * 3
    assert len({row.tobytes() for row in out}) == 4


@pytest.mark.parametrize("model", [HeatModel(16, "neumann"), WaveModel(16)], ids=["heat", "wave"])
def test_rows_apart_only_in_a_signed_zero_march_apart(monkeypatch, model):
    """Rows compare by their bytes: +0.0 and -0.0 are two inputs, and a
    repeat of either marches with it."""
    spec = PropagatorSpec(model, "fine", steps_per_slice=3)
    plus = np.random.default_rng(3).normal(size=model.layout().size)
    plus[0] = 0.0
    minus = plus.copy()
    minus[0] = -0.0
    states = np.array([plus, minus, plus, minus])
    count = _count_row_solves(monkeypatch)
    out = model.propagate(spec, states, [0.0, 0.5, 1.0, 0.0], [0.25, 0.75, 1.25, 0.25])
    assert count[0] == 2 * 3
    for row, values in zip(states, out):
        assert values.tobytes() == _propagate_one(spec, row, (0.0, 0.25)).tobytes()


def test_propagate_validates_inputs():
    model = HeatModel(16, "dirichlet")
    state = model.zero_state()
    with pytest.raises(ConfigError):
        _propagate_one(PropagatorSpec(model, "fine", steps_per_slice=0), state, (0.0, 1.0))
    with pytest.raises(ValueError):
        _propagate_one(PropagatorSpec(model, "fine", steps_per_slice=2), state, (1.0, 1.0))
    other = HeatModel(16, "neumann").zero_state()
    with pytest.raises(ValueError):
        grid_step(model, other, 0.0, 0.1)


def test_implicit_system_matches_matrix_definition():
    model = HeatModel(8, "dirichlet")
    dt = 0.125
    lap = model.laplacian()
    dense = implicit_system(model, dt).dense()
    want = np.eye(model.n_unknowns) - dt * (
        np.diag(lap.sub, -1) + np.diag(lap.diag) + np.diag(lap.sup, 1)
    )
    assert np.allclose(dense, want, atol=1e-15)


# ---------------------------------------------------------------- source


def test_pulsed_source_peaks_at_pulse_times():
    source = SourceTerm.pulsed()
    peak = source.space_profile(np.array([0.5]))[0]
    assert peak * source.time_profile(0.1) == pytest.approx(10.0, abs=1e-9)
    # off-pulse times are quiet; by t=3 every pulse is long gone
    assert abs(peak * source.time_profile(3.0)) < 1e-55


def test_source_space_profile_decays_from_center():
    source = SourceTerm.pulsed()
    x = np.array([0.5, 0.6])
    vals = source.space_profile(x) * source.time_profile(0.6)
    assert vals[1] == pytest.approx(vals[0] * math.exp(-1.0), rel=1e-12)


def test_zero_source_is_zero():
    assert SourceTerm.zero().is_zero
    assert not SourceTerm.pulsed().is_zero
