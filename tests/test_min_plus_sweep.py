"""The midpoint-sphere sweeps match the naive (min, +) sweep, entry for entry."""

import numpy as np

from gclab.env import GraphEnv, adjacency_matrix, build_grid_env
from gclab.learners import transitive_sweeps
from gclab.oracle import UNREACHABLE, all_pairs_distances
from env_helpers import random_graph_env, star_env
from sweep_helpers import finite_diameter, naive_sweep


def one_way_corridor(n):
    """Directed chain 0 -> 1 -> ... -> n-1 with 'right' and 'stay' actions."""
    return GraphEnv(n, 2, np.stack([np.minimum(np.arange(n) + 1, n - 1), np.arange(n)], 1))


ENVS = {
    "one_way_corridor": one_way_corridor(40),
    # Chains at the edge of the int8 range, which ends where the old uint8
    # no-path marker sat (127): a table is int8 while twice its largest
    # entry is at most 127, so diameter 63 stays int8 and from diameter 64
    # on the table is widened to int16 before sweep 7.
    **{f"one_way_chain_diameter_{n}": one_way_corridor(n + 1) for n in (63, 64, 126, 127, 128, 129)},
    "two_one_way_chains_100": GraphEnv(
        200, 2, np.vstack([one_way_corridor(100).transition, one_way_corridor(100).transition + 100])
    ),
    "one_state": build_grid_env(1, 1),
    "two_chains": GraphEnv(6, 1, np.array([[1], [2], [2], [4], [5], [5]])),
    # Every leaf's radius-2 sphere holds the other 39 leaves.
    "star_40": star_env(40),
    "walled_grid": build_grid_env(10, 10, walls={(4, y) for y in range(1, 10)} | {(7, 3)}),
    **{f"random_{n}_{a}_{seed}": random_graph_env(n, a, seed)
       for n, a, seed in ((60, 2, 0), (60, 2, 1), (80, 3, 2), (50, 1, 3))},
}


def test_sweeps_match_naive_reference_to_the_oracle():
    """Every sweep of transitive_sweeps equals the naive sweep of the
    previous reference table (inf for no path), with the same count of
    shortened pairs; the fixed point is the oracle's distance table, reached
    after ceil(log2 diam) shortening sweeps plus one that shortens none."""
    for name, env in ENVS.items():
        ref = np.full((env.num_states, env.num_states), np.inf)
        ref[adjacency_matrix(env)] = 1.0
        np.fill_diagonal(ref, 0.0)
        sweeps = 0
        for d, shortened in transitive_sweeps(env):
            new_ref = naive_sweep(ref)
            np.testing.assert_array_equal(d, np.where(np.isinf(new_ref), UNREACHABLE, new_ref))
            assert shortened == np.count_nonzero(new_ref != ref), name
            ref = new_ref
            sweeps += 1
        assert shortened == 0
        dist = all_pairs_distances(env)
        np.testing.assert_array_equal(d, dist)
        diam = finite_diameter(dist)
        assert sweeps == (int(np.ceil(np.log2(diam))) if diam > 1 else 0) + 1, name

