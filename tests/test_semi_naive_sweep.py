"""The tiled (min, +) sweep from tables other than the one-step table:
random tables on ragged tile sizes, perturbed fixed points and block-sparse
tables whose empty tiles are skipped, each sweep checked against the naive
untiled reference."""

import numpy as np

from gclab.learners import _DIST_DTYPE, _NO_PATH, _TILE_ROWS, _TILE_W, exact_transitive_sweep
from sweep_helpers import naive_sweep


def _sweep_to_fixed_point(d):
    """Sweep ``d`` until a sweep shortens no pair, checking every sweep and
    its shortened count against the int64 reference; returns the fixed
    point and the first sweep's count."""
    counts = []
    while True:
        new, shortened = exact_transitive_sweep(d, d)
        ref = naive_sweep(d.astype(np.int64))
        assert new.dtype == _DIST_DTYPE
        np.testing.assert_array_equal(new, ref)
        assert shortened == np.count_nonzero(ref != d)
        counts.append(shortened)
        d = new
        if shortened == 0:
            return d, counts[0]


def _random_table(rng, n, dtype=_DIST_DTYPE):
    no_path = np.iinfo(dtype).max // 2
    d = rng.integers(0, min(3 * n, no_path), size=(n, n)).astype(dtype)
    d[rng.random((n, n)) < 0.3] = no_path
    return d


def test_semi_naive_matches_dense_reference_on_perturbed_tables():
    """A few entries of a fixed point shortened: the sweeps reach them both
    as the (s, w) side and as the (w, g) side of a sum, and random tables
    have no distance structure to hide a missed sum behind a tie."""
    rng = np.random.default_rng(0)
    n = 50
    first_counts = []
    for _ in range(4):
        fixed, _ = _sweep_to_fixed_point(_random_table(rng, n))
        same, shortened = exact_transitive_sweep(fixed, fixed)
        assert shortened == 0 and same.tobytes() == fixed.tobytes()
        rows, cols = rng.integers(0, n, size=(2, 6))
        fixed[rows, cols] = np.minimum(fixed[rows, cols], rng.integers(0, n, size=6))
        first_counts.append(_sweep_to_fixed_point(fixed)[1])
    assert any(c > 0 for c in first_counts)


def test_dense_tiles_cover_ragged_edges():
    """Sizes that are no multiple of either tile side (and one smaller than
    a tile) leave ragged edge tiles. The no-path entries check that a sum
    of two of them stays exact in the sweep's dtype (the reference adds in
    int64). A strict block of rows, itself no multiple of a tile, sweeps to
    the reference's rows, in uint8 as in int16."""
    rng = np.random.default_rng(1)
    for n in (3, 2 * _TILE_W + _TILE_ROWS + 1):
        assert n % _TILE_ROWS and n % _TILE_W
        for _ in range(4):
            _sweep_to_fixed_point(_random_table(rng, n))
    block = slice(5, 5 + _TILE_ROWS + 3)
    for dtype in (np.uint8, _DIST_DTYPE):
        d = _random_table(rng, n, dtype)
        new, shortened = exact_transitive_sweep(d[block], d)
        ref = naive_sweep(d.astype(np.int64))[block]
        assert new.dtype == dtype
        np.testing.assert_array_equal(new, ref)
        assert shortened == np.count_nonzero(ref != d[block])


def test_block_sparse_tables_skip_empty_tiles():
    """Two components with no path between them, each larger than a tile:
    every tile of rows in one component and w in the other holds no path
    and is skipped, and the tiles that straddle the border are not. The
    sweeps still equal the reference, and no path appears across."""
    rng = np.random.default_rng(2)
    k = 2 * _TILE_W + _TILE_ROWS + 3
    d = np.full((2 * k, 2 * k), _NO_PATH, dtype=_DIST_DTYPE)
    for part in (slice(0, k), slice(k, 2 * k)):
        d[part, part] = _random_table(rng, k)
    fixed, first = _sweep_to_fixed_point(d)
    assert first > 0
    assert (fixed[:k, k:] == _NO_PATH).all() and (fixed[k:, :k] == _NO_PATH).all()
