import math

import pytest

from pitkit.core import ConfigError
from pitkit.factors import (
    DEFAULT_MODES,
    DEFAULT_SLICES,
    backward_euler,
    factor_grid,
    iteration_error_bound,
    rho_no_coarse,
    rho_with_coarse,
)


def test_no_coarse_factor_reference_values():
    assert rho_no_coarse(1.0, 0.5) == pytest.approx(0.6065306597126334, rel=1e-15)
    assert rho_no_coarse(4.0, 0.5) == pytest.approx(math.exp(-2.0), rel=1e-15)
    assert rho_no_coarse(0.0, 0.5) == 1.0
    assert rho_no_coarse(1.0, 1e-12) == pytest.approx(1.0, abs=1e-11)


def test_with_coarse_factor_reference_values():
    # |e^{-1/2} - 2/3| / (1/3), the backward Euler step resolving z = -1/2
    want = abs(math.exp(-0.5) - 2.0 / 3.0) / (1.0 / 3.0)
    got = rho_with_coarse(1.0, 0.5)
    assert got == pytest.approx(want, rel=1e-15)
    assert got == pytest.approx(0.18040802086209975, rel=1e-15)

    want4 = abs(math.exp(-4.0) - 0.2) / 0.8
    assert rho_with_coarse(4.0, 1.0) == pytest.approx(want4, rel=1e-15)
    assert rho_with_coarse(4.0, 1.0) == pytest.approx(0.2271054513890823, rel=1e-15)


def test_with_coarse_factor_mode_three():
    want = abs(math.exp(-4.5) - 1.0 / 5.5) / (1.0 - 1.0 / 5.5)
    assert rho_with_coarse(9.0, 0.5) == pytest.approx(want, rel=1e-15)
    assert rho_with_coarse(9.0, 0.5) == pytest.approx(0.20864455978659277, rel=1e-15)


def test_with_coarse_bounded_on_wide_range():
    for p in range(-20, 12):
        z = 2.0**p
        assert rho_with_coarse(z, 1.0) < 0.31


def test_with_coarse_vanishes_for_tiny_slices():
    assert rho_with_coarse(1.0, 1e-6) < 1e-5


def test_tiny_slice_factor_is_half_z():
    # to leading order the factor is z/2 for z = lam*dT -> 0; z stays large
    # enough that the cancellation in the numerator leaves ~8 good digits
    z = 1e-4
    assert rho_with_coarse(1.0, z) == pytest.approx(0.5 * z, rel=1e-3)


def test_invalid_arguments_rejected():
    with pytest.raises(ConfigError):
        rho_no_coarse(-1.0, 0.5)
    with pytest.raises(ConfigError):
        rho_no_coarse(1.0, 0.0)
    with pytest.raises(ConfigError):
        rho_with_coarse(1.0, -0.5)
    with pytest.raises(ConfigError):
        rho_with_coarse(0.0, 0.5)


def test_no_coarse_monotone_in_rate_and_slice():
    for lam, dt in ((1.0, 0.5), (4.0, 0.25)):
        assert rho_no_coarse(lam * 2, dt) < rho_no_coarse(lam, dt)
        assert rho_no_coarse(lam, dt * 2) < rho_no_coarse(lam, dt)


def test_backward_euler_stability_value():
    assert backward_euler(-0.5) == pytest.approx(2.0 / 3.0, rel=1e-15)
    assert backward_euler(-1.0) == 0.5


def test_error_bound_values():
    assert iteration_error_bound(0, 0.5, 1.0, 0.7) == 0.7
    assert iteration_error_bound(2, 0.5, 1.0, 1.0) == pytest.approx(math.exp(-1.0), rel=1e-15)
    assert iteration_error_bound(3, 0.5, 4.0, 2.0) == pytest.approx(2.0 * math.exp(-6.0), rel=1e-15)
    with pytest.raises(ConfigError):
        iteration_error_bound(-1, 0.5, 1.0, 1.0)
    with pytest.raises(ConfigError):
        iteration_error_bound(1, 0.5, -1.0, 1.0)


def test_default_grid_shape_and_consistency():
    rows = factor_grid()
    assert DEFAULT_MODES == tuple(range(1, 17))
    assert DEFAULT_SLICES[0] == 2.0**-6 and DEFAULT_SLICES[-1] == 2.0
    # mode-major: every slice length of mode m before mode m + 1
    assert [(m, dt) for m, dt, _, _ in rows] == [(m, dt) for m in DEFAULT_MODES for dt in DEFAULT_SLICES]
    assert len(rows) == 16 * 8
    for m, dt, nc, wc in rows:
        assert nc == rho_no_coarse(float(m * m), dt)
        assert wc == rho_with_coarse(float(m * m), dt)
        assert 0.0 < nc <= 1.0
        assert 0.0 < wc < 0.31


def test_default_grid_contains_both_orderings():
    """Slow modes on short slices contract faster without the coarse term,
    fast modes on long slices faster with it."""
    rows = factor_grid()
    assert any(nc < wc for _, _, nc, wc in rows)
    assert any(wc < nc for _, _, nc, wc in rows)


def test_grid_respects_domain_length():
    [(_, _, nc, _)] = factor_grid(modes=(1,), dts=(0.5,), length=2.0 * math.pi)
    assert nc == pytest.approx(math.exp(-0.25 * 0.5), rel=1e-15)


def test_grid_rejects_bad_length():
    with pytest.raises(ConfigError):
        factor_grid(length=0.0)
