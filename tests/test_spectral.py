import math

import numpy as np
import pytest

from pitkit.core import ConfigError, GridLayout, ModeLayout, PropagatorSpec, discrete_l2_norm
from pitkit import spectral
from pitkit.heat import HeatModel
from pitkit.spectral import (
    ModeSource,
    SpectralModel,
    exact_mode_solution,
    project_to_modes,
    reconstruct,
    source_mode_integral,
)

from independent_sweeps import _propagate_one


def constant_one(t):
    return np.ones_like(np.asarray(t, dtype=float))


# ------------------------------------------------------------ mode solution


def test_pure_decay():
    assert exact_mode_solution(1.0, 1.0, None, 1.0) == pytest.approx(
        0.36787944117144233, rel=1e-15
    )


def test_zero_data_zero_source_stays_zero():
    assert exact_mode_solution(17.0, 0.0, None, 2.5) == 0.0


def test_constant_source_reaches_equilibrium_value():
    # closed form c(1 - e^{-lam t})/lam with c = lam = 1
    got = exact_mode_solution(1.0, 0.0, constant_one, 1.0)
    assert got == pytest.approx(0.6321205588285577, abs=1e-13)


# ------------------------------------------------------------- quadrature


def test_integral_of_nothing_is_zero():
    assert source_mode_integral(3.0, None, 0.0, 1.0) == 0.0


def test_integral_constant_source_frozen_values():
    assert source_mode_integral(1.0, constant_one, 0.0, 1.0) == pytest.approx(
        0.6321205588285577, abs=1e-13
    )
    want = (1.0 - math.exp(-2.0)) / 4.0
    assert want == pytest.approx(0.21616617919084682, rel=1e-15)
    assert source_mode_integral(4.0, constant_one, 0.0, 0.5) == pytest.approx(want, abs=1e-13)


@pytest.mark.parametrize("rate", [0.0, 1.0, 9.0, 64.0, 256.0, 1024.0, 4096.0])
def test_quadrature_matches_analytic_oracle_across_rates(rate):
    """Constant source: integral over (t0, t1) is c(1 - e^{-rate dt})/rate,
    or c*dt when the rate vanishes."""
    c = 2.5
    t0, t1 = 0.25, 0.875
    span = t1 - t0
    if rate == 0.0:
        want = c * span
    else:
        want = c * (1.0 - math.exp(-rate * span)) / rate
    got = source_mode_integral(rate, lambda t: c * constant_one(t), t0, t1)
    assert abs(got - want) < 1e-13


def test_quadrature_handles_pulsed_profile_against_brute_force():
    source = ModeSource.pulsed({1: 1.0})
    fn = source.mode_function(1)
    rate = 4.0
    t0, t1 = 0.0, 0.5
    # midpoint rule with a very fine grid as an independent check
    n = 200_000
    tau = t0 + (np.arange(n) + 0.5) * (t1 - t0) / n
    brute = float(np.sum(fn(tau) * np.exp(-rate * (t1 - tau))) * (t1 - t0) / n)
    got = source_mode_integral(rate, fn, t0, t1)
    assert got == pytest.approx(brute, abs=1e-10)


# -------------------------------------------------------------- propagate


def test_single_mode_decay_over_half_slice():
    model = SpectralModel()
    state = model.state_from_modes({1: 1.0}, 4)
    spec = PropagatorSpec(model, "fine", mode_count=4)
    out = _propagate_one(spec, state, (0.0, 0.5))
    assert out[0] == pytest.approx(0.6065306597126334, rel=1e-15)


def test_mode_count_zero_returns_zero_state():
    model = SpectralModel()
    state = model.state_from_modes({1: 1.0, 3: 2.0}, 4)
    spec = PropagatorSpec(model, "coarse", mode_count=0)
    out = _propagate_one(spec, state, (0.0, 0.5))
    assert np.array_equal(out, np.zeros(4))


def test_truncation_zeroes_tail_modes():
    model = SpectralModel()
    state = model.state_from_modes({1: 1.0, 2: 1.0, 3: 1.0}, 8)
    spec = PropagatorSpec(model, "coarse", mode_count=2)
    out = _propagate_one(spec, state, (0.0, 0.25))
    assert np.array_equal(out[2:], np.zeros(6))
    assert out[1] == pytest.approx(math.exp(-4 * 0.25), rel=1e-14)


def test_fine_propagator_matches_exact_mode_solution_with_source():
    model = SpectralModel(source=ModeSource.pulsed({1: 1.0, 3: -0.5}))
    state = model.state_from_modes({1: 2.0, 2: 1.0, 3: 0.25}, 8)
    spec = PropagatorSpec(model, "fine", mode_count=8)
    out = _propagate_one(spec, state, (0.25, 0.75))
    for position in range(8):
        m = model.mode_index(position)
        want = exact_mode_solution(
            model.decay_rate(m),
            state[position],
            model.source.mode_function(m),
            0.75,
            t_from=0.25,
        )
        assert out[position] == pytest.approx(want, abs=1e-14)


def test_mode_count_beyond_state_rejected():
    model = SpectralModel()
    state = model.zero_state(4)
    with pytest.raises(ConfigError):
        _propagate_one(PropagatorSpec(model, "fine", mode_count=5), state, (0.0, 1.0))


def test_cosine_basis_keeps_constant_mode():
    model = SpectralModel(length=1.0, basis="cosine")
    assert model.decay_rate(0) == 0.0
    state = model.state_from_modes({0: 3.0, 2: 1.0}, 4)
    spec = PropagatorSpec(model, "fine", mode_count=5)
    out = _propagate_one(spec, state, (0.0, 1.0))
    assert out[0] == 3.0  # zero mode never decays
    assert out[2] == pytest.approx(math.exp(-(2 * math.pi) ** 2), rel=1e-12)


# -------------------------------------------------------------- transforms


def test_project_picks_out_single_sine_mode():
    grid = HeatModel(64, "dirichlet").layout()
    x = np.arange(1, 64) / 64.0
    coeffs = project_to_modes(grid, np.sin(np.pi * x), 8)
    assert coeffs[0] == pytest.approx(1.0, rel=1e-12)
    assert np.max(np.abs(coeffs[1:])) < 1e-12


def test_roundtrip_on_band_limited_data():
    rng = np.random.default_rng(42)
    grid = GridLayout(63, 1.0 / 64.0, "dirichlet")
    coeffs = rng.normal(size=10)
    x = np.arange(1, 64) / 64.0
    values = sum(c * np.sin((m + 1) * np.pi * x) for m, c in enumerate(coeffs))
    back = reconstruct(ModeLayout(10, "sine", 1.0), project_to_modes(grid, values, 10), grid)
    assert np.max(np.abs(back - values)) < 1e-12


def test_roundtrip_cosine_basis():
    rng = np.random.default_rng(3)
    grid = GridLayout(65, 1.0 / 64.0, "neumann")
    x = np.arange(0, 65) / 64.0
    coeffs = rng.normal(size=6)
    values = sum(c * np.cos(m * np.pi * x) for m, c in enumerate(coeffs))
    projected = project_to_modes(grid, values, 5)
    assert np.max(np.abs(projected - coeffs)) < 1e-12
    back = reconstruct(ModeLayout(5, "cosine", 1.0), projected, grid)
    assert np.max(np.abs(back - values)) < 1e-12


def test_nyquist_limit_enforced():
    grid = GridLayout(15, 1.0 / 16.0, "dirichlet")
    with pytest.raises(ValueError):
        project_to_modes(grid, np.zeros(15), 16)


def test_parseval_linking_mode_and_grid_norms():
    rng = np.random.default_rng(11)
    grid = GridLayout(127, 1.0 / 128.0, "dirichlet")
    x = np.arange(1, 128) / 128.0
    coeffs = rng.normal(size=5)
    values = sum(c * np.sin((m + 1) * np.pi * x) for m, c in enumerate(coeffs))
    coeffs = project_to_modes(grid, values, 5)
    assert discrete_l2_norm(ModeLayout(5, "sine", 1.0), coeffs) == pytest.approx(
        discrete_l2_norm(grid, values), abs=1e-10)


def test_parseval_norm_frozen_values():
    assert discrete_l2_norm(ModeLayout(3, "sine", math.pi), np.zeros(3)) == 0.0
    one = discrete_l2_norm(ModeLayout(1, "sine", math.pi), np.array([1.0]))
    assert one == pytest.approx(1.2533141373155003, rel=1e-15)
    two = discrete_l2_norm(ModeLayout(2, "sine", math.pi), np.array([1.0, 1.0]))
    assert two == pytest.approx(1.7724538509055159, rel=1e-15)


def test_mode_decay_rate_is_exactly_m_squared_at_length_pi(monkeypatch):
    """SpectralModel.propagate and the trace bound share SpectralModel.decay_rate;
    at length pi it is the integer m**2, also for modes such as 11 where
    (m*pi)/pi would round away from it."""
    rates = {}

    def recording_integral(rate, source_fn, t_from, t_to):
        rates[len(rates) + 1] = rate
        return 0.0

    monkeypatch.setattr(spectral, "source_mode_integral", recording_integral)
    model = SpectralModel(math.pi, "sine", ModeSource.constant({m: 1.0 for m in range(1, 65)}))
    spec = PropagatorSpec(model, "fine", mode_count=64)
    # the forcing memo must neither answer from an earlier test's integrals
    # nor keep the recording's zeros for a later one
    spectral._slice_forcing.cache_clear()
    try:
        _propagate_one(spec, model.zero_state(64), (0.0, 0.5))
    finally:
        spectral._slice_forcing.cache_clear()
    assert rates[11] == 121.0
    assert all(rates[m] == float(m * m) for m in range(1, 65))
    assert model.decay_rate(11) == 121.0


# ------------------------------------------------------------ forcing memo


@pytest.mark.parametrize("lengths", [(math.pi, 1.0), (1.0, math.pi)])
def test_forcing_memo_tells_models_with_one_source_apart(lengths):
    """Two models that share a source but differ in length have different
    decay rates, so neither may read the other's memoized integrals: each
    propagation gives the uncached integrals bit for bit, in either order."""
    source = ModeSource.pulsed({1: 1.5, 3: -0.5})
    spectral._slice_forcing.cache_clear()
    for length in lengths:
        model = SpectralModel(length, "sine", source)
        spec = PropagatorSpec(model, "fine", mode_count=8)
        got = _propagate_one(spec, model.zero_state(8), (0.25, 0.75))
        rates = model.decay_rate(np.arange(1, 9))
        for position, mode in ((0, 1), (2, 3)):
            want = source_mode_integral(rates[position], source.mode_function(mode), 0.25, 0.75)
            assert got[position].tobytes() == np.float64(want).tobytes(), (length, mode)
        assert not got[[1, 3, 4, 5, 6, 7]].any()
