"""The midpoint-sphere kernel against the naive (min, +) sweep: on the table
after k sweeps of directed random graphs (self-loops and disconnected parts
included) with radius 2^k, on strict row blocks, in uint8 and int16, and
with its gathers split into chunks of rows and of midpoints."""

import numpy as np

from gclab import learners
from gclab.env import GraphEnv
from gclab.learners import _DIST_DTYPE, _NARROW_DTYPE, exact_transitive_sweep
from gclab.oracle import UNREACHABLE, all_pairs_distances
from env_helpers import random_graph_env, star_env
from sweep_helpers import naive_sweep


def _disconnected_env():
    """Two random digraphs side by side, with no edge between them."""
    a, b = random_graph_env(30, 2, 7), random_graph_env(25, 1, 8)
    return GraphEnv(55, 2, np.vstack([a.transition, np.repeat(b.transition + 30, 2, axis=1)]))


def _table_after(dist, k, dtype):
    """The table after k sweeps: the distances within 2^k steps, the dtype's
    no-path marker elsewhere."""
    no_path = np.iinfo(dtype).max // 2
    known = (dist != UNREACHABLE) & (dist <= 2**k)
    return np.where(known, dist, no_path).astype(dtype)


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
    """(table after k sweeps, 2^k, dtype) for every sweep up to the fixed
    point, in int16 and, while twice the largest entry is below its marker,
    in uint8."""
    dist = all_pairs_distances(env)
    k = 0
    while True:
        for dtype in (_NARROW_DTYPE, _DIST_DTYPE):
            no_path = np.iinfo(dtype).max // 2
            d = _table_after(dist, k, dtype)
            if 2 * int(d.max(where=d != no_path, initial=0)) < no_path:
                yield d, 2**k, dtype
        if 2**k >= max(1, int(dist.max())):
            return
        k += 1


def test_kernel_on_random_digraphs_matches_the_naive_sweep():
    """Every sweep of directed random graphs, one disconnected: the kernel
    equals the naive sweep, and the next sweep's table, on all rows and on a
    strict row block."""
    envs = [random_graph_env(n, a, seed) for n, a, seed in ((60, 2, 0), (45, 1, 3), (70, 3, 5))]
    swept = 0
    for env in envs + [_disconnected_env()]:
        dist = all_pairs_distances(env)
        for d, radius, dtype in _sweep_tables(env):
            swept += _check_kernel(d, radius) > 0
            _check_kernel(d, radius, slice(5, 23))
            new, _ = exact_transitive_sweep(d, d, radius)
            np.testing.assert_array_equal(new, _table_after(dist, radius.bit_length(), dtype))
    assert swept > 10


def test_kernel_splits_rows_and_midpoints_under_a_small_byte_budget(monkeypatch):
    """A star with 40 legs of two states: the hub's radius-2 sphere holds
    every leg's second state, and a leg's first state's sphere the first
    state of each of the 39 other legs, each the only way on to that leg's
    second state. Budgets of one, a few and a ragged number of midpoint
    rows split the midpoints and the rows into chunks, with ragged last
    chunks; every split gives the naive sweep's rows."""
    d = _table_after(all_pairs_distances(star_env(40, 2)), 1, _DIST_DTYPE)
    assert np.count_nonzero(d == 2, axis=1).max() == 40
    digraph = _table_after(all_pairs_distances(random_graph_env(50, 2, 9)), 2, _NARROW_DTYPE)
    for mids in (1, 3, 7, 39, 40, 120):
        monkeypatch.setattr(learners, "_SWEEP_BYTES", mids * d.shape[1] * d.itemsize)
        assert _check_kernel(d, 2) == 40 * 39 * 3
        _check_kernel(d, 2, slice(3, 20))
        _check_kernel(digraph, 4)


def test_kernel_leaves_rows_without_midpoints_as_they_are():
    """A row whose sphere is empty, and a block of no rows, come back
    unchanged with no entry shortened."""
    d = _table_after(all_pairs_distances(_disconnected_env()), 6, _DIST_DTYPE)
    new, shortened = exact_transitive_sweep(d, d, 64)
    assert shortened == 0 and new.tobytes() == d.tobytes()
    new, shortened = exact_transitive_sweep(d[:0], d, 1)
    assert shortened == 0 and new.shape == (0, d.shape[1])
