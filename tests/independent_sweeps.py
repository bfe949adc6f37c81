"""Test-side parareal sweep that checks slice independence directly.

A sweep's fine solves may run on separate workers only if each depends on
nothing but its own slice and input.  ``reordered_sweep`` recomputes a
sweep with every solver cache cleared and the fine solves one slice at a
time, as one-row stacks, in reversed slice order;
``assert_sweeps_match_reordered`` compares it bitwise with the boundary
values ``run`` records after every sweep, whose fine solves share stacks.
"""

import numpy as np

from pitkit import heat, spectral
from pitkit.core import propagate_slice
from pitkit.parareal import initialize_guess, run


def _clear_solver_caches():
    heat._cached_stepper.cache_clear()
    spectral._forced_positions.cache_clear()
    spectral._slice_forcing.cache_clear()


def _propagate_one(spec, values, bounds):
    """One row of values across one slice, as a one-row stack."""
    return propagate_slice(spec.model, spec, np.array(values)[None], [bounds[0]], [bounds[1]])[0]


def reordered_sweep(config, old):
    """U^{k+1} from the (N+1, size) array U^k = ``old``: fine solves in
    reversed slice order from cold caches, then the in-order correction
    F_n + (G(new_n) - G(old_n)), or plain F_n without a coarse propagator."""
    partition, fine, coarse = config.partition, config.fine, config.coarse
    _clear_solver_caches()
    new = np.empty_like(old)
    new[0] = config.u0.values
    for n in reversed(range(partition.n_slices)):
        new[n + 1] = _propagate_one(fine, old[n], partition.slice_bounds(n))
    if coarse is not None:
        for n in range(partition.n_slices):
            bounds = partition.slice_bounds(n)
            g_new = _propagate_one(coarse, new[n], bounds)
            g_old = _propagate_one(coarse, old[n], bounds)
            new[n + 1] = new[n + 1] + (g_new - g_old)
    return new


def assert_sweeps_match_reordered(config):
    """Run ``config`` and assert that the boundary values of every sweep are
    bitwise those of ``reordered_sweep``; returns the run's trace."""
    recorded = []
    trace = run(config, on_iteration=lambda k, values: recorded.append(values))
    assert len(recorded) == len(trace.errors) - 1
    old = initialize_guess(config)
    for k, values in enumerate(recorded, start=1):
        want = reordered_sweep(config, old)
        assert values.shape == want.shape and not values.flags.writeable
        for n, (got, expected) in enumerate(zip(values, want)):
            assert got.tobytes() == expected.tobytes(), f"boundary {n} after sweep {k}"
        old = want
    return trace
