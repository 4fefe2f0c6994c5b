"""The midpoint-sphere kernel against the naive (min, +) sweep: on the table
after k sweeps of directed random graphs (self-loops and disconnected parts
included) with radius 2^k, on strict row blocks, in uint8 and uint16 with
the dtype's maximum for no path, as ``transitive_sweeps`` passes its table,
at radii up to the largest each dtype meets, and with its gathers split
into chunks of rows and of midpoints."""

import numpy as np

from gclab import learners
from gclab.env import GraphEnv
from gclab.learners import exact_transitive_sweep
from gclab.oracle import UNREACHABLE, all_pairs_distances
from env_helpers import random_graph_env, star_env
from sweep_helpers import naive_sweep

# The largest radius the sweeps pass the kernel in each dtype (see
# learners.transitive_sweeps): 64 in int8 and 2^13 in int16.
TOP_RADIUS = {np.uint8: 64, np.uint16: 2**13}


def _disconnected_env():
    """Two random digraphs side by side, with no edge between them."""
    a, b = random_graph_env(30, 2, 7), random_graph_env(25, 1, 8)
    return GraphEnv(55, 2, np.vstack([a.transition, np.repeat(b.transition + 30, 2, axis=1)]))


def _table_after(dist, radius, dtype):
    """The table after the sweep before the one of ``radius``: the distances
    of ``dist`` up to ``radius``, the dtype's maximum elsewhere."""
    known = (dist != UNREACHABLE) & (dist <= radius)
    return np.where(known, dist, np.iinfo(dtype).max).astype(dtype)


def _check_kernel(d, radius, rows=slice(None)):
    """The kernel on rows ``rows`` of ``d`` equals the naive sweep's rows in
    entries, dtype and shortened count; returns that count."""
    new, shortened = exact_transitive_sweep(d[rows], d, radius)
    ref = naive_sweep(d.astype(np.int64))[rows]
    assert new.dtype == d.dtype
    np.testing.assert_array_equal(new, ref)
    assert shortened == np.count_nonzero(ref != d[rows])
    return shortened


def _sweep_tables(env):
    """(table, radius, distances) for every sweep up to the fixed point, in
    uint8 and uint16: once at the env's own scale, and once with every
    distance times the power of two that makes the last sweep's radius the
    dtype's top radius. Scaled by a power of two, every pair the sweep of
    radius r shortens still has a midpoint exactly r away, so the kernel
    still equals the naive sweep."""
    dist = all_pairs_distances(env)
    last = 1 << (max(1, int(dist.max())) - 1).bit_length()  # the fixed point's radius
    for dtype, top in TOP_RADIUS.items():
        for scale in {1, top // last} if last <= top else ():
            scaled = np.where(dist == UNREACHABLE, UNREACHABLE, dist * scale)
            for k in range(last.bit_length()):
                radius = scale << k
                yield _table_after(scaled, radius, dtype), radius, scaled


def test_kernel_on_random_digraphs_matches_the_naive_sweep():
    """Every sweep of directed random graphs, one disconnected, at their own
    scale and scaled to each dtype's top radius: the kernel equals the naive
    sweep, and the next sweep's table, on all rows and on a strict row
    block. Rows with an empty sphere sit beside rows with one."""
    envs = [random_graph_env(n, a, seed) for n, a, seed in ((60, 2, 0), (45, 1, 3), (70, 3, 5))]
    swept = mixed = 0
    radii = {np.uint8: set(), np.uint16: set()}
    for env in envs + [_disconnected_env()]:
        for d, radius, dist in _sweep_tables(env):
            radii[d.dtype.type].add(radius)
            swept += _check_kernel(d, radius) > 0
            _check_kernel(d, radius, slice(5, 23))
            new, _ = exact_transitive_sweep(d, d, radius)
            np.testing.assert_array_equal(new, _table_after(dist, 2 * radius, d.dtype))
            open_rows = (d == radius).any(axis=1)
            mixed += open_rows.any() and not open_rows.all()
    assert swept > 10 and mixed > 10
    for dtype, top in TOP_RADIUS.items():
        assert max(radii[dtype]) == top and 1 in radii[dtype]


def test_kernel_keeps_no_path_at_the_dtype_maximum_at_the_top_radius():
    """A one-way chain of six states whose steps are half the top radius
    apart (2^12 in uint16, 32 in uint8), swept at the top radius: a pair
    more than twice the radius apart, or with no path, reads the dtype's
    maximum after the sweep, where an unclamped maximum plus the radius
    would wrap to radius - 1."""
    dist = all_pairs_distances(GraphEnv(6, 1, np.minimum(np.arange(6) + 1, 5)[:, None]))
    for dtype, top in TOP_RADIUS.items():
        step = top // 2
        d = _table_after(np.where(dist == UNREACHABLE, UNREACHABLE, dist * step), top, dtype)
        assert _check_kernel(d, top) == 5  # (0, 3), (1, 4), (2, 5), (0, 4) and (1, 5)
        new, _ = exact_transitive_sweep(d, d, top)
        no_path = np.iinfo(dtype).max
        assert new[0, 5] == no_path and new[1, 0] == no_path and new[5, 0] == no_path
        assert new[0, 4] == 4 * step and not (new == top - 1).any()


def test_kernel_splits_rows_and_midpoints_under_a_small_byte_budget(monkeypatch):
    """A star with 40 legs of two states: the hub's radius-2 sphere holds
    every leg's second state, and a leg's first state's sphere the first
    state of each of the 39 other legs, each the only way on to that leg's
    second state. Budgets of one, a few and a ragged number of midpoint
    rows split the midpoints and the rows into chunks, with ragged last
    chunks; every split gives the naive sweep's rows."""
    d = _table_after(all_pairs_distances(star_env(40, 2)), 2, np.uint16)
    assert np.count_nonzero(d == 2, axis=1).max() == 40
    digraph = _table_after(all_pairs_distances(random_graph_env(50, 2, 9)), 4, np.uint8)
    for mids in (1, 3, 7, 39, 40, 120):
        monkeypatch.setattr(learners, "_SWEEP_BYTES", mids * d.shape[1] * d.itemsize)
        assert _check_kernel(d, 2) == 40 * 39 * 3
        _check_kernel(d, 2, slice(3, 20))
        _check_kernel(digraph, 4)


def test_kernel_leaves_rows_without_midpoints_as_they_are():
    """A row whose sphere is empty, and a block of no rows, come back
    unchanged with no entry shortened."""
    d = _table_after(all_pairs_distances(_disconnected_env()), 64, np.uint16)
    new, shortened = exact_transitive_sweep(d, d, 64)
    assert shortened == 0 and new.tobytes() == d.tobytes()
    new, shortened = exact_transitive_sweep(d[:0], d, 1)
    assert shortened == 0 and new.shape == (0, d.shape[1])
