import dataclasses
import importlib
import math
import pathlib
import pkgutil
import threading
import time

import numpy as np
import pytest

from pitkit.core import (
    ConfigError,
    GridLayout,
    NumericalError,
    PropagatorSpec,
    StateVector,
    TimePartition,
)
import pitkit
from pitkit import heat, parareal
from pitkit.heat import HeatModel, SourceTerm, implicit_system
from pitkit.parareal import (
    PararealConfig,
    initialize_guess,
    parareal_iterate,
    reference_fine_sequential,
    run,
)
from pitkit.presets import (
    ExperimentConfig,
    build_model_and_u0,
    build_parareal,
    experiment_preset,
    load_config,
    without_coarse,
)
from pitkit.spectral import ModeSource, SpectralModel

from independent_sweeps import _clear_solver_caches, _propagate_one, assert_sweeps_match_reordered


def _heat_config(n_slices=6, guess="replicate_u0", coarse=True, **overrides):
    model = HeatModel(n_cells=32, bc="dirichlet", source=SourceTerm.pulsed())
    kwargs = dict(
        partition=TimePartition(0.0, 3.0, n_slices),
        u0=model.zero_state(),
        fine=PropagatorSpec(model, "fine", steps_per_slice=288 // n_slices),
        coarse=PropagatorSpec(model, "coarse", steps_per_slice=1) if coarse else None,
        max_iterations=n_slices,
        initial_guess=guess,
        tolerance=0.0,
    )
    kwargs.update(overrides)
    return PararealConfig(**kwargs)


def _spectral_config(m_fine=8, m_coarse=0, guess="zero", coefficients=None, **overrides):
    model = SpectralModel()
    amplitudes = coefficients or {m: 1.0 / m for m in range(1, m_fine + 1)}
    kwargs = dict(
        partition=TimePartition(0.0, 3.0, 6),
        u0=model.state_from_modes(amplitudes, m_fine),
        fine=PropagatorSpec(model, "fine", mode_count=m_fine),
        coarse=PropagatorSpec(model, "coarse", mode_count=m_coarse) if m_coarse else None,
        max_iterations=6,
        initial_guess=guess,
        tolerance=0.0,
    )
    kwargs.update(overrides)
    return PararealConfig(**kwargs)


# -------------------------------------------------------------- exactness


@pytest.mark.parametrize("guess", ["replicate_u0", "zero", "random"])
def test_slice_n_is_exact_after_n_iterations(guess):
    config = _heat_config(guess=guess, coarse=True)
    reference = reference_fine_sequential(config)
    state, g_values = initialize_guess(config), None
    for k in range(1, config.partition.n_slices + 1):
        state, g_values = parareal_iterate(state, config, reference, g_values)
        for n in range(k + 1):
            assert np.array_equal(state[n], reference[n]), (
                f"slice {n} not exact at iteration {k}"
            )


def test_finite_termination_without_coarse():
    config = _heat_config(guess="replicate_u0", coarse=False)
    reference = reference_fine_sequential(config)
    state = initialize_guess(config)
    for _ in range(config.partition.n_slices):
        state, _ = parareal_iterate(state, config, reference)
    for n, (got, want) in enumerate(zip(state, reference)):
        assert np.array_equal(got, want), f"slice {n} differs"


def test_single_slice_converges_in_one_iteration():
    config = _heat_config(n_slices=1, coarse=False, max_iterations=1)
    reference = reference_fine_sequential(config)
    state, _ = parareal_iterate(initialize_guess(config), config, reference)
    assert np.array_equal(state[1], reference[1])


# ----------------------------------------------- spectral error recurrence


def test_zero_guess_error_contracts_at_slowest_uncovered_rate():
    """Without a coarse propagator and a zero guess the sup error over slice
    boundaries drops by exactly exp(-rate_1 * dT) per iteration, where the
    sup is measured in the mode norm."""
    config = _spectral_config(m_coarse=0, guess="zero",
                              coefficients={1: 1.0, 8: 0.7})
    errors = {}

    def capture(k, values):
        errors[k] = values

    trace = run(config, on_iteration=capture)
    sups = {k: max(row) for k, row in enumerate(trace.errors)}
    a = math.exp(-config.fine.model.decay_rate(1) * config.partition.delta_t)
    for k in range(1, 6):
        assert sups[k] == pytest.approx(a**k * sups[0], rel=1e-12, abs=0.0)


@pytest.mark.parametrize("m_coarse", [1, 3])
def test_covered_modes_exact_from_first_iteration(m_coarse):
    config = _spectral_config(m_coarse=m_coarse, guess="zero",
                              coefficients={1: 1.0, 2: 0.9, 3: 0.8, 4: 0.7, 8: 0.4})
    reference = reference_fine_sequential(config)
    state, _ = parareal_iterate(initialize_guess(config), config, reference)
    for n in range(1, config.partition.n_slices + 1):
        diff = state[n] - reference[n]
        assert np.array_equal(diff[:m_coarse], np.zeros(m_coarse)), (
            f"covered modes wrong at slice {n}"
        )


def test_bound_attained_when_uncovered_modes_carry_the_error():
    """With a coarse propagator the covered modes drop out after one
    iteration, so initial data on uncovered modes only makes the analytic
    bound exact: every remaining mode contracts at its own rate and the
    slowest one wins the sup."""
    config = _spectral_config(m_coarse=1, guess="zero",
                              coefficients={2: 1.0, 8: 0.7}, max_iterations=5)
    trace = run(config)
    rate = config.fine.model.uncovered_rate(config.coarse)
    sup0 = max(trace.errors[0])
    for k, row in enumerate(trace.errors):
        want = math.exp(-rate * k * config.partition.delta_t) * sup0
        assert max(row) == pytest.approx(want, rel=1e-12, abs=0.0)


def test_error_bound_holds_for_random_guess():
    config = _spectral_config(m_coarse=1, guess="random", seed=7)
    trace = run(config)
    model = config.fine.model
    rate = model.uncovered_rate(config.coarse)
    sup0 = max(trace.errors[0])
    for k, row in enumerate(trace.errors):
        sup = max(row)
        bound = math.exp(-rate * k * config.partition.delta_t) * sup0
        assert sup <= bound + 1e-12, f"bound violated at k={k}"


def test_trace_bound_column_matches_analytic_formula():
    config = _spectral_config(m_coarse=3, guess="zero",
                              coefficients={1: 1.0, 2: 0.9, 3: 0.8, 4: 0.7, 8: 0.4})
    trace = run(config)
    rate = config.fine.model.uncovered_rate(config.coarse)
    sup0 = max(trace.errors[0])
    for k, (row, bound) in enumerate(zip(trace.errors, trace.bounds, strict=True)):
        want = math.exp(-rate * k * config.partition.delta_t) * sup0
        assert bound == pytest.approx(want, rel=1e-14, abs=0.0)
        assert max(row) <= bound + 1e-12


def test_spectral_reference_is_pure_decay_without_source():
    config = _spectral_config(m_coarse=0, coefficients={2: 1.5})
    reference = reference_fine_sequential(config)
    rate = config.fine.model.decay_rate(2)
    for n, row in enumerate(reference):
        t = config.partition.boundaries[n]
        assert row[1] == pytest.approx(1.5 * math.exp(-rate * t), rel=1e-13)


def test_cosine_fine_propagator_advances_the_top_mode(tmp_path):
    """In the cosine basis fine.mode_count = 4 sizes a state of modes 0..4,
    and the fine propagator advances all five of them."""
    ini = tmp_path / "cosine.ini"
    ini.write_text("[model]\nkind = spectral\nbasis = cosine\nlength = 1.0\n"
                   "[initial]\nkind = modes\nmodes = 0:1.0 4:1.0\n"
                   "[partition]\nt_end = 0.01\nn_slices = 2\n"
                   "[fine]\nmode_count = 4\n[coarse]\nrole = none\n")
    reference = reference_fine_sequential(build_parareal(load_config(str(ini))))
    assert reference.shape == (3, 5)
    assert reference[2, 0] == 1.0
    assert reference[2, 4] == pytest.approx(math.exp(-(4 * math.pi) ** 2 * 0.01), rel=1e-12)


# ------------------------------------------------------------ oracle check


def test_heat_iteration_matches_dense_linear_algebra():
    """Replay one full parareal iteration with dense solves and compare."""
    model = HeatModel(n_cells=16, bc="dirichlet", source=SourceTerm.pulsed())
    partition = TimePartition(0.0, 1.0, 4)
    config = PararealConfig(
        partition=partition,
        u0=model.zero_state(),
        fine=PropagatorSpec(model, "fine", steps_per_slice=8),
        coarse=PropagatorSpec(model, "coarse", steps_per_slice=1),
        max_iterations=3,
        initial_guess="replicate_u0",
        tolerance=0.0,
    )

    def dense_sweep(u, t0, t1, steps):
        dt = (t1 - t0) / steps
        a = implicit_system(model, dt).dense()
        out = np.array(u, dtype=float)
        for i in range(steps):
            t_next = t0 + (i + 1) * (t1 - t0) / steps
            f = model.source.space_profile(model.grid_x) * model.source.time_profile(t_next)
            rhs = out + dt * f
            out = np.linalg.solve(a, rhs)
        return out

    state, reference = initialize_guess(config), reference_fine_sequential(config)
    for _ in range(2):
        old = state
        state, _ = parareal_iterate(state, config, reference)
        new = [config.u0.values]
        for n in range(4):
            t0, t1 = partition.slice_bounds(n)
            fine = dense_sweep(old[n], t0, t1, 8)
            g_new = dense_sweep(new[n], t0, t1, 1)
            g_old = dense_sweep(old[n], t0, t1, 1)
            new.append(fine + g_new - g_old)
        for n in range(5):
            assert np.max(np.abs(state[n] - new[n])) < 1e-13


# ------------------------------------------------------------- determinism


def test_parallel_and_serial_fine_solves_agree_bitwise():
    """The fine solves of a sweep can run in any order, as parallel workers
    would run them: reversed order from cold caches gives the same bits."""
    assert_sweeps_match_reordered(_heat_config(guess="coarse_sweep"))


def test_wide_wave_stacks_match_reordered_sweeps(monkeypatch):
    """Wave sweeps with at least STACKED_SOLVE_MIN_ROWS unlocked slices take
    the stacked Thomas sweep and still give the bits of one-row solves in
    reversed slice order."""
    widths = []
    solve_stack = heat._ThomasFactor._solve_stack

    def counting(self, rows):
        widths.append(len(rows))
        return solve_stack(self, rows)

    monkeypatch.setattr(heat._ThomasFactor, "_solve_stack", counting)
    n_slices = heat.STACKED_SOLVE_MIN_ROWS + 2
    config = build_parareal(ExperimentConfig(
        model_kind="wave", n_cells=16, source_kind="zero", initial_kind="modes",
        initial_modes=((1, 1.0), (3, 0.5)), t_end=n_slices / 16, n_slices=n_slices,
        fine_steps=4, coarse_role="none", iterations=3))
    assert_sweeps_match_reordered(config)
    assert widths and min(widths) >= heat.STACKED_SOLVE_MIN_ROWS


def _pitkit_lru_caches():
    """Every lru_cache-wrapped callable at module or class level in pitkit."""
    caches = {}
    for info in pkgutil.iter_modules(pitkit.__path__):
        module = importlib.import_module(f"pitkit.{info.name}")
        for name, obj in vars(module).items():
            owners = [(name, obj)]
            if isinstance(obj, type) and obj.__module__ == module.__name__:
                owners += [(f"{name}.{attr}", value) for attr, value in vars(obj).items()]
            for label, value in owners:
                if hasattr(value, "cache_info") and hasattr(value, "cache_clear"):
                    caches[f"{module.__name__}.{label}"] = value
    return caches


def test_clearing_solver_caches_leaves_every_cache_cold():
    """The reordered sweep's "cold caches" must cover every cache pitkit has."""
    configs = [experiment_preset(name) for name in
               ("heat-dirichlet-N6", "wave-N8", "advection-periodic-N12", "spectral-mG3")]
    # the presets' spectral source is zero, so a forced one fills the forcing memo
    configs.append(load_config(str(pathlib.Path(__file__).with_name("spectral_pulsed.ini"))))
    for experiment in configs:
        config = build_parareal(experiment)
        parareal_iterate(initialize_guess(config), config, reference_fine_sequential(config))
    caches = _pitkit_lru_caches()
    assert caches and any(cache.cache_info().currsize for cache in caches.values())
    _clear_solver_caches()
    warm = [name for name, cache in caches.items() if cache.cache_info().currsize]
    assert not warm, f"caches left warm: {warm}"


def test_run_starts_no_thread(monkeypatch):
    def refuse(thread):
        raise AssertionError(f"run started thread {thread.name}")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    trace = run(build_parareal(experiment_preset("heat-dirichlet-N6")))
    assert trace.errors.shape == (11, 7)


def test_repeated_runs_are_identical():
    config = build_parareal(experiment_preset("heat-dirichlet-N24"))
    t1 = run(config)
    t2 = run(config)
    assert t1.errors.tolist() == t2.errors.tolist()


# ---------------------------------------------------------- initial guesses


def test_coarse_sweep_guess_is_sequential_coarse_run():
    config = _heat_config(guess="coarse_sweep")
    state = initialize_guess(config)
    t0, t1 = config.partition.slice_bounds(0)
    want = _propagate_one(config.coarse, config.u0.values, (t0, t1))
    assert np.array_equal(state[1], want)
    assert state.shape == (config.partition.n_slices + 1, config.u0.layout.size)


def test_replicate_guess_copies_u0_everywhere():
    model = HeatModel(n_cells=16, bc="neumann", source=SourceTerm.zero())
    u0 = StateVector(model.layout(), np.linspace(0.0, 1.0, 17))
    # no coarse spec: the helper's default coarse model is a Dirichlet grid,
    # which a Neumann u0 does not fit
    config = _heat_config(guess="replicate_u0", coarse=False, u0=u0,
                          fine=PropagatorSpec(model, "fine", steps_per_slice=4))
    state = initialize_guess(config)
    for row in state:
        assert np.array_equal(row, u0.values)


def test_zero_guess_keeps_initial_boundary():
    config = _spectral_config(guess="zero", coefficients={1: 2.0})
    state = initialize_guess(config)
    assert np.array_equal(state[0], config.u0.values)
    assert not state[1:].any()


def test_random_guess_depends_on_seed():
    c1 = _heat_config(guess="random", seed=1)
    c2 = _heat_config(guess="random", seed=2)
    s1, s1b = initialize_guess(c1), initialize_guess(c1)
    s2 = initialize_guess(c2)
    assert np.array_equal(s1[3], s1b[3])
    assert not np.array_equal(s1[3], s2[3])


def test_default_guess_follows_coarse_availability():
    assert _heat_config(guess="default", coarse=True).resolved_guess == "coarse_sweep"
    assert _heat_config(guess="default", coarse=False).resolved_guess == "replicate_u0"


def test_no_coarse_propagator_is_spelled_coarse_none():
    """coarse=None is the library's one spelling of "no coarse propagator";
    build_parareal maps the INI's two spellings, coarse.role = none and a
    spectral coarse.mode_count = 0, to it."""
    with pytest.raises(ValueError, match="unknown role 'none'"):
        PropagatorSpec(HeatModel(), "none", steps_per_slice=1)
    with pytest.raises(ConfigError, match="pass coarse=None"):
        _spectral_config(coarse=PropagatorSpec(SpectralModel(), "coarse", mode_count=0))
    assert _spectral_config(m_coarse=2).coarse.mode_count == 2
    assert _heat_config(coarse=True).coarse.role == "coarse"
    assert build_parareal(experiment_preset("spectral-mG0")).coarse is None
    assert build_parareal(without_coarse(experiment_preset("heat-dirichlet-N6"))).coarse is None


# ------------------------------------------------------------- validation


def test_coarse_sweep_without_coarse_rejected():
    with pytest.raises(ConfigError):
        _heat_config(guess="coarse_sweep", coarse=False)


def test_unknown_guess_rejected():
    with pytest.raises(ConfigError):
        _heat_config(guess="smooth")


def test_negative_tolerance_rejected():
    with pytest.raises(ConfigError):
        _heat_config(tolerance=-1.0)


def test_spectral_coarse_must_keep_fewer_modes():
    with pytest.raises(ConfigError):
        _spectral_config(m_fine=4, m_coarse=4)


def test_repeated_spectral_mode_rejected_in_a_config_built_in_code():
    """The check is made when the model is built, not when an INI value is
    parsed, so a config built in code meets it too."""
    base = ExperimentConfig(model_kind="spectral", n_slices=4)
    with pytest.raises(ConfigError, match="^source.modes: mode 2 given twice$"):
        build_parareal(dataclasses.replace(base, source_modes=((2, 1.0), (2, 3.0))))
    with pytest.raises(ConfigError, match="^initial.modes: mode 1 given twice$"):
        build_parareal(dataclasses.replace(base, initial_kind="modes",
                                           initial_modes=((1, 1.0), (1, 5.0))))


def test_wave_initial_modes_add_up_a_repeated_mode():
    once = ExperimentConfig(model_kind="wave", source_kind="zero", initial_kind="modes",
                            initial_modes=((1, 3.0),))
    twice = dataclasses.replace(once, initial_modes=((1, 1.0), (1, 2.0)))
    np.testing.assert_allclose(build_model_and_u0(twice)[1].values,
                               build_model_and_u0(once)[1].values, rtol=0.0, atol=1e-15)


def test_wrong_role_rejected():
    model = HeatModel(n_cells=16)
    with pytest.raises(ConfigError):
        PararealConfig(
            partition=TimePartition(0.0, 1.0, 2),
            u0=model.zero_state(),
            fine=PropagatorSpec(model, "coarse", steps_per_slice=2),
        )


def test_u0_that_does_not_fit_the_model_is_rejected():
    """Propagators see raw stacks, so the layout is checked with the config,
    against the fine and the coarse model alike: a Neumann state of 15
    unknowns does not fit a Dirichlet model of 15, nor a cosine-mode state a
    sine model, nor a 4-mode state a fine spec of 8 modes or an 8-mode state
    one of 4; the coarse model gets the same rows as the fine one, so a
    Dirichlet state of 31 unknowns fits no coarse Neumann grid of 31, no
    coarser grid and no mode model."""
    heat_model = HeatModel(n_cells=16, bc="dirichlet")
    spectral_model = SpectralModel(basis="sine")
    fine_32 = PropagatorSpec(HeatModel(n_cells=32), "fine", steps_per_slice=2)
    for u0, fine, coarse in (
        (HeatModel(n_cells=14, bc="neumann").zero_state(),
         PropagatorSpec(heat_model, "fine", steps_per_slice=2), None),
        (SpectralModel(basis="cosine").zero_state(4),
         PropagatorSpec(spectral_model, "fine", mode_count=4), None),
        (spectral_model.zero_state(4), PropagatorSpec(spectral_model, "fine", mode_count=8), None),
        (spectral_model.zero_state(8), PropagatorSpec(spectral_model, "fine", mode_count=4), None),
        (HeatModel(n_cells=32).zero_state(), fine_32,
         PropagatorSpec(HeatModel(n_cells=30, bc="neumann"), "coarse", steps_per_slice=1)),
        (HeatModel(n_cells=32).zero_state(), fine_32,
         PropagatorSpec(SpectralModel(), "coarse", mode_count=1)),
        (HeatModel(n_cells=32).zero_state(), fine_32,
         PropagatorSpec(HeatModel(n_cells=16), "coarse", steps_per_slice=1)),
    ):
        with pytest.raises(ValueError, match="does not fit"):
            run(PararealConfig(TimePartition(0.0, 1.0, 2), u0, fine, coarse))


class _NanAfterOne:
    """Identity propagator that returns NaN for slices ending after t = 1."""

    def check_spec(self, spec, layout):
        pass

    def propagate(self, spec, states, t_from, t_to):
        return states * np.where(np.asarray(t_to) > 1.0, math.nan, 1.0)[:, None]

    def uncovered_rate(self, coarse):
        return None


class _CoarseGrid:
    """A coarse model in a smaller space: it injects a HeatModel(32) state
    onto HeatModel(16)'s grid, advances it there, and interpolates it
    linearly back."""

    fine = HeatModel(32, "dirichlet", SourceTerm.pulsed())
    coarse = HeatModel(16, "dirichlet", SourceTerm.pulsed())

    def check_spec(self, spec, layout):
        return self.fine.check_spec(spec, layout)

    def propagate(self, spec, states, t_from, t_to):
        # fine unknown j sits at x = (j + 1)/32, so the odd j form the coarse grid
        inner = self.coarse.propagate(spec, states[:, 1::2], t_from, t_to)
        walls = np.zeros((len(inner), 1))
        padded = np.concatenate((walls, inner, walls), axis=1)
        out = np.empty(states.shape)
        out[:, 1::2] = inner
        out[:, 0::2] = 0.5 * (padded[:, :-1] + padded[:, 1:])
        return out

    def uncovered_rate(self, coarse):
        return None


def test_coarse_model_in_a_smaller_space_plugs_in():
    """A coarse model whose class and space differ from the fine model's
    restricts and prolongs inside its own propagate; run() asks it nothing
    else but check_spec and uncovered_rate."""
    fine = _CoarseGrid.fine
    config = PararealConfig(TimePartition(0.0, 3.0, 6), fine.zero_state(),
                            PropagatorSpec(fine, "fine", steps_per_slice=48),
                            PropagatorSpec(_CoarseGrid(), "coarse", steps_per_slice=6),
                            max_iterations=6, tolerance=0.0)
    assert config.resolved_guess == "coarse_sweep"
    reference = reference_fine_sequential(config)
    recorded = {}
    trace = run(config, on_iteration=recorded.__setitem__)
    for k, values in recorded.items():
        assert values[:k + 1].tobytes() == reference[:k + 1].tobytes(), f"sweep {k}"
        assert trace.errors[k, k + 1:].all()
    assert sorted(recorded) == list(range(1, 7))
    assert trace.errors[1].max() < 0.1 * trace.errors[0].max()
    neumann = HeatModel(32, "neumann")
    with pytest.raises(ValueError, match="does not fit"):
        PararealConfig(TimePartition(0.0, 3.0, 6), neumann.zero_state(),
                       PropagatorSpec(neumann, "fine", steps_per_slice=48),
                       PropagatorSpec(_CoarseGrid(), "coarse", steps_per_slice=6))


def test_non_finite_error_past_boundary_0_is_a_numerical_failure():
    u0 = StateVector(GridLayout(2, 0.5, "dirichlet"), [1.0, 1.0])
    config = PararealConfig(TimePartition(0.0, 2.0, 4), u0,
                            PropagatorSpec(_NanAfterOne(), "fine"), tolerance=0.0)
    with pytest.raises(NumericalError, match="iteration 0"):
        run(config)


def test_early_stop_respects_tolerance():
    config = _spectral_config(guess="zero", coefficients={1: 1.0},
                              m_coarse=0, tolerance=1e-1, max_iterations=6)
    trace = run(config)
    assert len(trace.errors) < 7  # stopped before sweep 6
    assert max(trace.errors[-1]) <= 1e-1
    assert max(trace.errors[-2]) > 1e-1


def test_zero_tolerance_disables_early_stop():
    config = _heat_config(guess="coarse_sweep", tolerance=0.0, max_iterations=6)
    trace = run(config)
    assert len(trace.errors) == 7


# ----------------------------------------------------- qualitative behavior


def test_heat_with_coarse_contracts_fast():
    config = build_parareal(experiment_preset("heat-dirichlet-N24"))
    trace = run(config)
    sups = {k: max(row) for k, row in enumerate(trace.errors)}
    for k in range(1, 10):
        assert sups[k + 1] < 0.5 * sups[k]
    assert sups[6] < 1e-3 * sups[1]


def test_heat_without_coarse_stalls():
    base = experiment_preset("heat-neumann-N24")
    config = build_parareal(dataclasses.replace(base, coarse_role="none", iterations=5))
    trace = run(config)
    sups = {k: max(row) for k, row in enumerate(trace.errors)}
    assert sups[5] >= 0.5 * sups[1]


def test_heat_without_coarse_errors_never_grow():
    base = experiment_preset("heat-dirichlet-N6")
    config = build_parareal(dataclasses.replace(base, coarse_role="none", iterations=6))
    trace = run(config)
    sups = [max(row) for row in trace.errors]
    for earlier, later in zip(sups, sups[1:]):
        assert later <= earlier * (1.0 + 1e-12)
    assert sups[-1] == 0.0


# ------------------------------------------------------------------ cost


@pytest.mark.parametrize("guess, coarse, max_iterations", [
    ("coarse_sweep", True, 4),
    ("zero", True, 4),
    ("replicate_u0", True, 4),
    ("random", True, 4),
    ("replicate_u0", False, 9),
])
def test_run_propagates_only_unlocked_inputs(monkeypatch, guess, coarse, max_iterations):
    """After k - 1 sweeps inputs 0..k-1 are locked, so sweep k propagates
    only the other max(N - k, 0): a locked input's F is the reference's
    next value and an unchanged input's G is the last sweep's.  A run makes
    N + sum_k max(N - k, 0) fine propagations, the sequential reference
    included, and as many coarse ones; sweeps with k >= N make none.  The
    slices are equally long, so each sweep stacks its fine propagations
    into one call."""
    calls = {"fine": 0, "coarse": 0}
    stacks = {"fine": 0, "coarse": 0}
    propagate = parareal.propagate_slice

    def counting(model, spec, states, t0, t1):
        calls[spec.role] += len(states)
        stacks[spec.role] += 1
        return propagate(model, spec, states, t0, t1)

    monkeypatch.setattr(parareal, "propagate_slice", counting)
    config = _heat_config(n_slices=6, guess=guess, coarse=coarse, max_iterations=max_iterations)
    after_sweep = []
    trace = run(config, on_iteration=lambda k, values: after_sweep.append(dict(calls)))
    n = config.partition.n_slices
    unlocked = [max(n - k, 0) for k in range(1, max_iterations + 1)]
    total = n + sum(unlocked)
    assert len(trace.errors) == max_iterations + 1
    assert calls == {"fine": total, "coarse": total if coarse else 0}
    assert stacks["fine"] == n + min(max_iterations, n - 1)
    for k in range(2, max_iterations + 1):
        made = {role: after_sweep[k - 1][role] - after_sweep[k - 2][role] for role in calls}
        assert made == {"fine": unlocked[k - 1], "coarse": unlocked[k - 1] if coarse else 0}, k


def test_initial_guess_is_timed_in_row_zero(monkeypatch):
    guess = parareal.initialize_guess

    def slow_guess(config):
        time.sleep(0.02)
        return guess(config)

    monkeypatch.setattr(parareal, "initialize_guess", slow_guess)
    trace = run(_spectral_config())
    assert trace.wall_time_ms[0] >= 20.0
