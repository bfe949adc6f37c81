import math

import numpy as np
import pytest

from pitkit.core import (
    GridLayout,
    IterationTrace,
    ModeLayout,
    PropagatorSpec,
    StateVector,
    discrete_l2_norm,
    make_uniform_partition,
    propagate_slice,
    sup_error,
)


def test_state_vector_is_frozen_float64():
    layout = GridLayout(4, 0.25, "dirichlet")
    state = StateVector(layout, [1, 2, 3, 4])
    assert state.values.dtype == np.float64
    with pytest.raises(ValueError):
        state.values[0] = 9.0


def test_state_vector_copies_input():
    layout = GridLayout(3, 0.5, "dirichlet")
    raw = np.array([1.0, 2.0, 3.0])
    state = StateVector(layout, raw)
    raw[0] = -1.0
    assert state.values[0] == 1.0


def test_wrong_length_rejected():
    with pytest.raises(ValueError):
        StateVector(GridLayout(4, 0.25, "dirichlet"), [1.0, 2.0])


def test_mode_layout_sizes():
    assert ModeLayout(8, "sine", math.pi).size == 8
    assert ModeLayout(8, "cosine", 1.0).size == 9  # includes the constant mode
    assert GridLayout(5, 0.2, "dirichlet", components=2).size == 10


def test_partition_boundaries_hit_endpoints_exactly():
    p = make_uniform_partition(3.0, 48)
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
        make_uniform_partition(0.0, 4)
    with pytest.raises(ValueError):
        make_uniform_partition(1.0, 0)


def test_discrete_l2_norm_grid():
    # sqrt(dx * sum u^2): 4 points of value 2 with dx = 1/4 -> sqrt(4)
    state = StateVector(GridLayout(4, 0.25, "dirichlet"), [2.0, 2.0, 2.0, 2.0])
    assert discrete_l2_norm(state) == pytest.approx(2.0, rel=1e-15)


def test_discrete_l2_norm_modes_matches_continuum():
    # ||sin(m x)||_L2(0,pi) = sqrt(pi/2)
    state = StateVector(ModeLayout(4, "sine", math.pi), [1.0, 0.0, 0.0, 0.0])
    assert discrete_l2_norm(state) == pytest.approx(math.sqrt(math.pi / 2), rel=1e-15)
    # constant mode integrates to L, not L/2
    cos_state = StateVector(ModeLayout(1, "cosine", math.pi), [1.0, 1.0])
    assert discrete_l2_norm(cos_state) == pytest.approx(
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
    state = StateVector(GridLayout(2, 0.5, "dirichlet"), [0.0, 0.0])
    with pytest.raises(AttributeError, match="propagate"):
        propagate_slice(object(), spec, state, 0.0, 1.0)


def _trace():
    return IterationTrace([[0.0, 2.0], [0.0, 0.5]], (None, 3.0), (0.0, 0.0), "zero")


def test_trace_lookup():
    trace = _trace()
    assert list(trace.iterations()) == [0, 1]
    assert tuple(trace.errors_at(1)) == (0.0, 0.5)
    assert trace.bound_at(1) == 3.0
    assert trace.bound_at(0) is None
    assert sup_error(trace, 0) == 2.0
    assert sup_error(trace, 1) == 0.5
    with pytest.raises(KeyError):
        trace.errors_at(7)
