import math

import numpy as np
import pytest

from pitkit.core import (
    GridLayout,
    IterationTrace,
    ModeLayout,
    PropagatorSpec,
    TimePartition,
    discrete_l2_norm,
    propagate_slice,
)
from pitkit.heat import HeatModel
from pitkit.parareal import PararealConfig


def _config_from(u0):
    """A run of the 4 interior unknowns of a 5-cell Dirichlet heat grid."""
    model = HeatModel(n_cells=5)
    return PararealConfig(TimePartition(0.0, 1.0, 2), u0,
                          PropagatorSpec(model, "fine", steps_per_slice=1), layout=model.layout())


def test_u0_is_frozen_float64():
    config = _config_from([1, 2, 3, 4])
    assert config.u0.dtype == np.float64
    with pytest.raises(ValueError):
        config.u0[0] = 9.0


def test_u0_copies_input():
    raw = np.array([1.0, 2.0, 3.0, 4.0])
    config = _config_from(raw)
    raw[0] = -1.0
    assert config.u0[0] == 1.0


def test_wrong_length_rejected():
    with pytest.raises(ValueError):
        _config_from([1.0, 2.0])


def test_mode_layout_sizes():
    assert ModeLayout(8, "sine", math.pi).size == 8
    assert ModeLayout(8, "cosine", 1.0).size == 9  # includes the constant mode
    assert GridLayout(5, 0.2, "dirichlet", components=2).size == 10


def test_partition_boundaries_hit_endpoints_exactly():
    p = TimePartition(0.0, 3.0, 48)
    assert p.boundary(0) == 0.0
    assert p.boundary(48) == 3.0
    assert p.delta_t == pytest.approx(1.0 / 16.0)
    bounds = p.boundaries
    assert len(bounds) == 49
    # multiplicative form keeps boundaries monotone with no drift
    assert all(b1 > b0 for b0, b1 in zip(bounds, bounds[1:]))
    t0, t1 = p.slice_bounds(10)
    assert (t0, t1) == (p.boundary(10), p.boundary(11))


def test_partition_validation():
    with pytest.raises(ValueError):
        TimePartition(0.0, 0.0, 4)
    with pytest.raises(ValueError):
        TimePartition(0.0, 1.0, 0)


def test_discrete_l2_norm_grid():
    # sqrt(dx * sum u^2): 4 points of value 2 with dx = 1/4 -> sqrt(4)
    layout = GridLayout(4, 0.25, "dirichlet")
    values = np.array([2.0, 2.0, 2.0, 2.0])
    assert discrete_l2_norm(layout, values) == layout.norm(values) == pytest.approx(2.0, rel=1e-15)


def test_discrete_l2_norm_modes_matches_continuum():
    # ||sin(m x)||_L2(0,pi) = sqrt(pi/2)
    sine = ModeLayout(4, "sine", math.pi)
    assert discrete_l2_norm(sine, np.array([1.0, 0.0, 0.0, 0.0])) == pytest.approx(
        math.sqrt(math.pi / 2), rel=1e-15)
    # constant mode integrates to L, not L/2
    cosine = ModeLayout(1, "cosine", math.pi)
    assert discrete_l2_norm(cosine, np.array([1.0, 1.0])) == pytest.approx(
        math.sqrt(math.pi + math.pi / 2), rel=1e-15
    )


def test_propagator_spec_roles():
    with pytest.raises(ValueError):
        PropagatorSpec(object(), "medium")
    with pytest.raises(ValueError):
        PropagatorSpec(object(), "fine", steps_per_slice=-1)
    spec = PropagatorSpec(object(), "coarse", steps_per_slice=1)
    assert spec.mode_count == 0


def test_propagate_slice_rejects_unknown_model():
    spec = PropagatorSpec(object(), "fine", steps_per_slice=1)
    with pytest.raises(AttributeError, match="propagate"):
        propagate_slice(object(), spec, np.zeros((1, 2)), 0.0, 1.0)


def _trace():
    return IterationTrace([[0.0, 2.0], [0.0, 0.5]], (None, 3.0), (0.0, 0.0), "zero")


def test_trace_lookup():
    trace = _trace()
    assert len(trace.errors) == 2
    assert tuple(trace.errors[1]) == (0.0, 0.5)
    assert trace.bounds[1] == 3.0
    assert trace.bounds[0] is None
    assert trace.errors[0].max() == 2.0
    assert trace.errors[1].max() == 0.5
