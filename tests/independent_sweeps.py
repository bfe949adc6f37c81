"""Test-side parareal sweep that checks slice independence directly.

A sweep's fine solves may run on separate workers only if each depends on
nothing but its own slice and input.  ``reordered_sweep`` recomputes a
sweep with every solver cache cleared and the fine solves one slice at a
time, as one-row stacks, in reversed slice order;
``assert_sweeps_match_reordered`` compares it bitwise with the boundary
values ``run`` records after every sweep, whose fine solves share stacks.
"""

from pitkit import heat, spectral
from pitkit.core import propagate_slice
from pitkit.parareal import initialize_guess, run


def _clear_solver_caches():
    heat._cached_stepper.cache_clear()
    spectral._forced_positions.cache_clear()
    spectral._slice_forcing.cache_clear()


def _propagate_one(spec, state, bounds):
    """One state across one slice, as a one-row stack."""
    out = propagate_slice(spec.model, spec, state.values[None], [bounds[0]], [bounds[1]])
    return state.with_values(out[0])


def reordered_sweep(config, old):
    """U^{k+1} from U^k = ``old``: fine solves in reversed slice order from
    cold caches, then the in-order correction F_n + (G(new_n) - G(old_n)),
    or plain F_n without a coarse propagator."""
    partition, fine, coarse = config.partition, config.fine, config.coarse
    _clear_solver_caches()
    fine_values = {}
    for n in reversed(range(partition.n_slices)):
        fine_values[n] = _propagate_one(fine, old[n], partition.slice_bounds(n))
    new = [config.u0]
    for n in range(partition.n_slices):
        if coarse is None:
            new.append(fine_values[n])
            continue
        bounds = partition.slice_bounds(n)
        g_new = _propagate_one(coarse, new[n], bounds)
        g_old = _propagate_one(coarse, old[n], bounds)
        new.append(fine_values[n] + (g_new - g_old))
    return tuple(new)


def assert_sweeps_match_reordered(config):
    """Run ``config`` and assert that the boundary values of every sweep are
    bitwise those of ``reordered_sweep``; returns the run's trace."""
    recorded = []
    trace = run(config, on_iteration=lambda k, values: recorded.append(values))
    assert len(recorded) == len(trace.errors) - 1
    old = initialize_guess(config)
    for k, values in enumerate(recorded, start=1):
        want = reordered_sweep(config, old)
        assert len(values) == len(want)
        for n, (got, expected) in enumerate(zip(values, want)):
            assert got.values.tobytes() == expected.values.tobytes(), f"boundary {n} after sweep {k}"
        old = want
    return trace
