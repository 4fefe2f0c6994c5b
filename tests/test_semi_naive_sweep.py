"""The semi-naive exact sweep matches a dense reference sweep byte for byte."""

import numpy as np

from gclab.env import GraphEnv, build_grid_env, random_graph_env
from gclab.learners import (
    _DENSE_FRACTION,
    _TILE_ROWS,
    _TILE_W,
    exact_transitive_sweep,
    transitive_base_table,
)


def dense_sweep(v):
    """Reference: form every product v[s, w] * v[w, g]."""
    new = np.empty_like(v)
    for s in range(v.shape[0]):
        new[s] = (v[s][:, None] * v).max(axis=0)
    np.maximum(new, v, out=new)
    return new, float(np.abs(new - v).max())


def one_way_corridor(n):
    """Directed chain 0 -> 1 -> ... -> n-1 with 'right' and 'stay' actions."""
    return GraphEnv(n, 2, np.stack([np.minimum(np.arange(n) + 1, n - 1), np.arange(n)], 1))


ENVS = {
    "one_way_corridor": one_way_corridor(40),
    "walled_grid": build_grid_env(10, 10, walls={(4, y) for y in range(1, 10)} | {(7, 3)}),
    **{f"random_{n}_{a}_{seed}": random_graph_env(n, a, seed)
       for n, a, seed in ((60, 2, 0), (60, 2, 1), (80, 3, 2), (50, 1, 3))},
}


def _check_run(env, v, prev=None):
    """Sweep from ``v`` (the result of a sweep that read ``prev``) to
    delta == 0, checking every sweep; returns the changed fractions."""
    fractions = []
    while True:
        fractions.append(float((v != (0.0 if prev is None else prev)).mean()))
        new, delta = exact_transitive_sweep(v, env, prev)
        ref, ref_delta = dense_sweep(v)
        assert new.tobytes() == ref.tobytes()
        assert delta == ref_delta
        no_prev, no_prev_delta = exact_transitive_sweep(v, env)
        assert no_prev.tobytes() == new.tobytes() and no_prev_delta == delta
        prev, v = v, new
        if delta == 0.0:
            # At the fixed point with nothing changed, no product is formed.
            same, same_delta = exact_transitive_sweep(v, env, v)
            assert same.tobytes() == v.tobytes() and same_delta == 0.0
            return fractions
        assert len(fractions) <= env.num_states + 2


def test_semi_naive_matches_dense_reference_and_reaches_both_branches():
    fractions = []
    for env in ENVS.values():
        for gamma in (0.9, 0.99):
            fractions += _check_run(env, transitive_base_table(env, gamma))
    assert any(f > _DENSE_FRACTION for f in fractions)  # dense branch
    assert any(0.0 < f <= _DENSE_FRACTION for f in fractions)  # sparse branch


def test_semi_naive_matches_dense_reference_on_perturbed_tables():
    """Random tables have no distance structure to hide a missed product
    behind a tie: a few raised entries of a fixed point change rows and
    columns that only the (w, g) side or only the (s, w) side reaches."""
    rng = np.random.default_rng(0)
    n = 50
    env = GraphEnv(n, 1, np.zeros((n, 1)))  # the sweep reads only the table
    for _ in range(4):
        fixed, delta = rng.random((n, n)) * 0.9, 1.0
        while delta > 0.0:
            fixed, delta = dense_sweep(fixed)
        prev = fixed.copy()
        rows, cols = rng.integers(0, n, size=(2, 6))
        prev[rows, cols] = np.minimum(1.0, prev[rows, cols] + 0.3)
        _check_run(env, dense_sweep(prev)[0], prev)


def test_dense_tiles_cover_ragged_edges():
    """The dense branch works tile by tile; sizes that are no multiple of
    either tile side (and one smaller than a tile) leave ragged edge tiles."""
    rng = np.random.default_rng(1)
    for n in (3, 2 * _TILE_W + _TILE_ROWS + 1):
        assert n % _TILE_ROWS and n % _TILE_W
        env = GraphEnv(n, 1, np.zeros((n, 1)))  # the sweep reads only the table
        v = rng.random((n, n)) * 0.9
        assert (v != 0.0).mean() > _DENSE_FRACTION  # prev=None: every entry changed
        new, delta = exact_transitive_sweep(v, env)
        ref, ref_delta = dense_sweep(v)
        assert new.tobytes() == ref.tobytes() and delta == ref_delta
