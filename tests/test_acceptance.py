"""Acceptance checks, one numbered criterion per test group.

Each criterion is asserted at its stated tolerance.  The conftest hook
prints one PASS/FAIL line per criterion number after the run.  After k
sweeps boundaries 0..k are exact and the error lives on boundaries k+1..N,
so a criterion that compares sup errors across sweeps compares like
windows of boundaries.  Companion tests (unnumbered) pin related behavior
next to them.
"""

import dataclasses
import filecmp
import math

import numpy as np
import pytest

from pitkit.core import PropagatorSpec, TimePartition, discrete_l2_norm
from pitkit.factors import factor_grid, rho_no_coarse, rho_with_coarse
from pitkit.heat import (
    HeatModel,
    SourceTerm,
    TridiagonalSystem,
    fd_decay_rate,
    implicit_system,
    thomas_solve,
)
from pitkit.parareal import PararealConfig, reference_fine_sequential, run
from pitkit.presets import (
    build_parareal,
    experiment_preset,
    experiment_preset_names,
)
from pitkit.spectral import SpectralModel, source_mode_integral

from independent_sweeps import assert_sweeps_match_reordered

# initial mode data for the spectral runs: the mode just past each coarse
# cutoff is active and its nearest active neighbor is mode 8, so the sup
# error is carried by the slowest uncovered mode alone to ~1e-16
MODE_DATA = {
    0: {1: 1.0, 8: 0.7},
    1: {1: 1.0, 2: 0.8, 8: 0.5},
    3: {1: 1.0, 2: 0.9, 3: 0.8, 4: 0.7, 8: 0.4},
}


def _spectral_run(m_g: int, guess: str, m_fine: int = 64, n_slices: int = 6,
                  t_end: float = 3.0, iterations: int = 5, data=None,
                  on_iteration=None):
    model = SpectralModel()
    amplitudes = MODE_DATA[m_g] if data is None else data
    config = PararealConfig(
        partition=TimePartition(0.0, t_end, n_slices),
        u0=model.state_from_modes(amplitudes, m_fine),
        layout=model.layout(m_fine),
        fine=PropagatorSpec(model, "fine", mode_count=m_fine),
        coarse=PropagatorSpec(model, "coarse", mode_count=m_g) if m_g else None,
        max_iterations=iterations,
        initial_guess=guess,
        tolerance=0.0,
    )
    return config, run(config, on_iteration=on_iteration)


def _sups(trace):
    return {k: max(row) for k, row in enumerate(trace.errors)}


def _preset_trace(name: str, coarse: bool = True, iterations=None):
    config = experiment_preset(name)
    if not coarse:
        config = dataclasses.replace(config, coarse_role="none")
    if iterations is not None:
        config = dataclasses.replace(config, iterations=iterations)
    return run(build_parareal(config))


def _preset_sups(name: str, coarse: bool = True, iterations=None):
    return _sups(_preset_trace(name, coarse, iterations))


# ---------------------------------------------------------------------------
# 1. spectral equality against the analytic per-iteration decay


@pytest.mark.criterion(1, "spectral sup error equals analytic decay, replicate guess")
@pytest.mark.parametrize("m_g", [0, 1, 3])
def test_criterion_1_replicate_guess_equality(m_g):
    config, trace = _spectral_run(m_g, guess="replicate_u0")
    model = config.fine.model
    s = m_g + 1
    rate = model.decay_rate(s)
    dt = config.partition.delta_t
    n_slices = config.partition.n_slices
    amplitude = discrete_l2_norm(model.layout(64), model.state_from_modes({s: 1.0}, 64)) * MODE_DATA[m_g][s]
    # the slowest uncovered mode's initial error at boundary j is
    # |u_s|*(1 - e^{-rate*j*dT}), which grows with j.  After k sweeps
    # boundaries n <= k are exact and boundary n > k carries k fine decays of
    # the initial error at n - k, so the sup comes from j = N - k
    full_horizon = amplitude * (1.0 - math.exp(-rate * n_slices * dt))
    sups = _sups(trace)
    for k in range(1, 6):
        decay = math.exp(-rate * k * dt)
        exact = decay * amplitude * (1.0 - math.exp(-rate * (n_slices - k) * dt))
        assert sups[k] == pytest.approx(exact, rel=1e-12, abs=0.0)
        # the paper's bound against the full-horizon initial sup error
        assert sups[k] <= decay * full_horizon * (1.0 + 1e-12)


@pytest.mark.parametrize("m_g", [0, 1, 3])
def test_spectral_equality_holds_for_zero_guess(m_g):
    """Companion: with a zero initial guess the slowest uncovered mode's
    initial error |u_s|*e^{-rate*j*dT} peaks at the first boundary and
    shrinks with j, so the sup after k sweeps comes from j = 1 and the
    paper's bound exp(-rate*k*dT) * (initial sup error) is met with
    equality."""
    config, trace = _spectral_run(m_g, guess="zero")
    model = config.fine.model
    s = m_g + 1
    rate = model.decay_rate(s)
    dt = config.partition.delta_t
    weight = discrete_l2_norm(model.layout(64), model.state_from_modes({s: 1.0}, 64))
    initial = weight * MODE_DATA[m_g][s] * math.exp(-rate * dt)
    sups = _sups(trace)
    for k in range(1, 6):
        assert sups[k] == pytest.approx(math.exp(-rate * k * dt) * initial, rel=1e-12, abs=0.0)


# ---------------------------------------------------------------------------
# 2. coarse-free convergence on the Dirichlet heat problem


@pytest.mark.criterion(2, "Dirichlet heat: coarse-free errors fall monotonically")
@pytest.mark.parametrize("n", [48, 24, 12, 6])
def test_criterion_2_monotone_decrease(n):
    sups = _preset_sups(f"heat-dirichlet-N{n}", coarse=False)
    for k in range(1, 6):
        assert sups[k + 1] < sups[k], f"no decrease at k={k} for N={n}"


@pytest.mark.criterion(2, "Dirichlet heat: coarse-free errors fall monotonically")
def test_criterion_2_coarse_free_beats_coarse_on_short_split():
    with_c = _preset_sups("heat-dirichlet-N6", coarse=True)
    without_c = _preset_sups("heat-dirichlet-N6", coarse=False)
    for k in (2, 3):
        assert without_c[k] < with_c[k]


# ---------------------------------------------------------------------------
# 3. Neumann non-contraction without the coarse propagator


@pytest.mark.criterion(3, "Neumann heat: stalls without coarse, converges with it")
@pytest.mark.parametrize("n", [48, 24, 12])
def test_criterion_3_no_contraction_without_coarse(n):
    trace = _preset_trace(f"heat-neumann-N{n}", coarse=False)
    # boundaries 9..N after 8 sweeps carry the errors of boundaries 2..N-7
    # after one sweep, so compare against that window, not all of 2..N
    window = trace.errors[1, : n - 7 + 1]
    assert max(trace.errors[8]) >= 0.9 * max(window)


@pytest.mark.criterion(3, "Neumann heat: stalls without coarse, converges with it")
@pytest.mark.parametrize("n", [48, 24, 12])
def test_criterion_3_with_coarse_converges(n):
    sups = _preset_sups(f"heat-neumann-N{n}", coarse=True)
    assert sups[8] <= 1e-6


@pytest.mark.criterion(3, "Neumann heat: stalls without coarse, converges with it")
def test_criterion_3_short_split_finishes_in_n_steps():
    sups = _preset_sups("heat-neumann-N6", coarse=False)
    assert sups[6] <= 1e-10


# ---------------------------------------------------------------------------
# 4. finite-step convergence on every preset


@pytest.mark.criterion(4, "every preset is exact after N iterations")
@pytest.mark.parametrize("name", experiment_preset_names())
def test_criterion_4_finite_step(name):
    config = experiment_preset(name)
    sups = _preset_sups(name, iterations=config.n_slices)
    assert sups[config.n_slices] <= 1e-10


# ---------------------------------------------------------------------------
# 5. analytic factor values


@pytest.mark.criterion(5, "contraction factor reference values and orderings")
def test_criterion_5_no_coarse_pin():
    assert rho_no_coarse(1.0, 0.5) == pytest.approx(0.6065306597, abs=1e-9)


@pytest.mark.criterion(5, "contraction factor reference values and orderings")
def test_criterion_5_with_coarse_pin():
    assert rho_with_coarse(1.0, 0.5) == pytest.approx(0.1804080209, abs=1e-9)


def test_with_coarse_factor_honest_value():
    """Companion: the closed form |e^{-1/2} - 2/3| / (1/3) with backward-Euler
    R(-1/2) = 2/3 evaluates to 0.18040802086209975; the criterion-5 pin is
    this value to ten digits."""
    want = abs(math.exp(-0.5) - 2.0 / 3.0) * 3.0
    assert rho_with_coarse(1.0, 0.5) == pytest.approx(want, rel=1e-15)
    assert rho_with_coarse(1.0, 0.5) == pytest.approx(0.18040802086209975, rel=1e-15)


@pytest.mark.criterion(5, "contraction factor reference values and orderings")
def test_criterion_5_grid_has_both_orderings():
    rows = factor_grid()
    assert any(nc < wc for _, _, nc, wc in rows)
    assert any(wc < nc for _, _, nc, wc in rows)


# ---------------------------------------------------------------------------
# 6. measured per-mode ratios close the loop with the analysis module


@pytest.mark.criterion(6, "per-mode error ratios match the analytic factors")
@pytest.mark.parametrize("m_g", [0, 1, 3])
def test_criterion_6_per_mode_ratios(m_g):
    captured = {}

    def capture(k, values):
        captured[k] = values

    data = {m: 1.0 / m for m in range(1, 9)}
    config, _ = _spectral_run(m_g, guess="zero", m_fine=8, data=data,
                              on_iteration=capture)
    reference = reference_fine_sequential(config)
    model = config.fine.model
    dt = config.partition.delta_t

    def mode_sup(k, m):
        return max(
            abs(captured[k][n][m - 1] - reference[n][m - 1])
            for n in range(len(reference))
        )

    for m in range(m_g + 1, 9):
        want = rho_no_coarse(model.decay_rate(m), dt)
        for k in (1, 2, 3):
            ratio = mode_sup(k + 1, m) / mode_sup(k, m)
            assert ratio == pytest.approx(want, rel=1e-12, abs=0.0), f"mode {m} at k={k}"


# ---------------------------------------------------------------------------
# 7. contraction factor depends on the slice length, not the horizon


@pytest.mark.criterion(7, "same slice length gives the same contraction factor")
def test_criterion_7_contraction_factor_scale_invariance():
    runs = {}
    for n_slices, t_end in ((8, 2.0), (32, 8.0)):
        _, trace = _spectral_run(0, guess="zero", m_fine=8, n_slices=n_slices,
                                 t_end=t_end, iterations=5)
        sups = _sups(trace)
        runs[n_slices] = [sups[k + 1] / sups[k] for k in range(5)]
    for r8, r32 in zip(runs[8], runs[32]):
        assert r8 == pytest.approx(r32, rel=1e-12, abs=0.0)


# ---------------------------------------------------------------------------
# 8. hyperbolic behavior


@pytest.mark.criterion(8, "advection: periodic stalls, inflow drains exactly")
def test_criterion_8_periodic_no_contraction():
    sups = _preset_sups("advection-periodic-N12")
    assert sups[8] >= 0.9 * sups[1]


@pytest.mark.criterion(8, "advection: periodic stalls, inflow drains exactly")
def test_criterion_8_inflow_converges_fast():
    # speed * t_end = 3 >= 2: every signal leaves the domain within two slices
    sups = _preset_sups("advection-inflow-N6")
    assert sups[4] <= 1e-8 * sups[1]


# ---------------------------------------------------------------------------
# 9. determinism


@pytest.mark.criterion(9, "byte-identical traces; fine solves independent of slice order")
@pytest.mark.parametrize("name", experiment_preset_names())
def test_criterion_9_reruns_byte_identical(tmp_path, name):
    from pitkit.cli import main

    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["run", "--preset", name, "--out", str(a)]) == 0
    assert main(["run", "--preset", name, "--out", str(b)]) == 0
    assert filecmp.cmp(a, b, shallow=False)


@pytest.mark.criterion(9, "byte-identical traces; fine solves independent of slice order")
@pytest.mark.parametrize("name", ["heat-dirichlet-N24", "heat-neumann-N48", "wave-N8"])
def test_criterion_9_parallel_equals_sequential(name):
    """Every sweep equals one whose fine solves run in reversed slice order
    from cold solver caches: each fine solve depends only on its own slice
    and input, which is what running them in parallel needs."""
    assert_sweeps_match_reordered(build_parareal(experiment_preset(name)))


# ---------------------------------------------------------------------------
# 10. oracle equivalences


@pytest.mark.criterion(10, "solver kernels agree with independent oracles")
def test_criterion_10_thomas_vs_dense():
    rng = np.random.default_rng(11)
    for _ in range(100):
        n = int(rng.integers(2, 65))
        lower = rng.uniform(-1.0, 1.0, n - 1)
        upper = rng.uniform(-1.0, 1.0, n - 1)
        diag = rng.uniform(2.5, 4.0, n)
        system = TridiagonalSystem(lower, diag, upper)
        rhs = rng.uniform(-1.0, 1.0, n)
        got = thomas_solve(system, rhs)
        want = np.linalg.solve(system.dense(), rhs)
        assert np.max(np.abs(got - want)) < 1e-12


@pytest.mark.criterion(10, "solver kernels agree with independent oracles")
def test_criterion_10_quadrature_vs_constant_source():
    for rate in (0.5, 1.0, 9.0, 64.0):
        for span in (0.25, 0.5, 1.0):
            got = source_mode_integral(rate, lambda t: np.full_like(t, 2.0), 0.0, span)
            want = 2.0 * (1.0 - math.exp(-rate * span)) / rate
            assert got == pytest.approx(want, abs=1e-13)


@pytest.mark.criterion(10, "solver kernels agree with independent oracles")
def test_criterion_10_slice_sweep_vs_monolithic_stepping():
    model = HeatModel(n_cells=128, bc="dirichlet", source=SourceTerm.pulsed())
    partition = TimePartition(0.0, 3.0, 6)
    config = PararealConfig(
        partition=partition,
        u0=model.zero_state(),
        layout=model.layout(),
        fine=PropagatorSpec(model, "fine", steps_per_slice=48),
        max_iterations=1,
        tolerance=0.0,
    )
    boundary_values = reference_fine_sequential(config)

    dt = 3.0 / 288.0
    dense = implicit_system(model, dt).dense()
    u = np.zeros(model.n_unknowns)
    for i in range(288):
        t_next = (i + 1) * dt
        f = model.source.space_profile(model.grid_x) * model.source.time_profile(t_next)
        u = np.linalg.solve(dense, u + dt * f)
        if (i + 1) % 48 == 0:
            n = (i + 1) // 48
            assert np.max(np.abs(boundary_values[n] - u)) < 1e-13


# ---------------------------------------------------------------------------
# 11. the coarse-free speedup ceiling


@pytest.mark.criterion(11, "coarse-free speedup is capped by λ_1·T")
def test_criterion_11_coarse_free_sweeps_grow_with_n():
    """Without a coarse propagator the sweep count to a relative tolerance
    is the same multiple of N for every N, so N/K, the ideal speedup on N
    workers, does not grow with N.

    After the first sweep the error contracts by the slowest mode's fine
    factor rho = (1 + dt*mu_1)^-s per sweep, and s = 288/N substeps give
    rho^N ~ exp(-lambda_1*T) whatever N is.  Reaching tol*e_0 thus takes
    K ~ N*ln(1/tol)/(lambda_1*T) sweeps, capping N/K near
    lambda_1*T/ln(1/tol) (about 2.1 and 1.3 here): the ceiling is set by how many e-foldings the
    slowest mode makes over the whole window, not by the workers.  The
    measured count is exactly ceil(ln(tol*e_0/e_1)/ln rho) + 1."""
    ratios = {1e-6: set(), 1e-10: set()}
    for n_slices in (6, 12, 24, 48):
        experiment = dataclasses.replace(experiment_preset(f"heat-dirichlet-N{n_slices}"),
                                         coarse_role="none", iterations=n_slices)
        config = build_parareal(experiment)
        sups = _sups(run(config))
        steps = config.fine.steps_per_slice
        dt = config.partition.delta_t / steps
        rho = (1.0 + dt * fd_decay_rate(config.fine.model, 1)) ** -steps
        for tol, seen in ratios.items():
            target = tol * sups[0]
            sweeps = min(k for k, sup in sups.items() if sup <= target)
            assert sweeps == math.ceil(math.log(target / sups[1]) / math.log(rho)) + 1, (n_slices, tol)
            seen.add(n_slices / sweeps)
    assert ratios == {1e-6: {2.0}, 1e-10: {1.2}}
