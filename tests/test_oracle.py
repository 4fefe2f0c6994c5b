import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gclab.env import ConfigError, GraphEnv, adjacency_matrix, build_grid_env
from gclab.oracle import (
    UNREACHABLE,
    all_pairs_distances,
    implied_distances,
    optimal_value_table,
    oracle_q_table,
)
from env_helpers import random_graph_env
from reference_helpers import all_pairs_distances_int64, implied_distances_copying


def floyd_warshall_distances(env):
    """Independent oracle: all-pairs shortest paths by Floyd-Warshall."""
    n = env.num_states
    inf = np.iinfo(np.int64).max // 4  # internal only; converted back to the sentinel
    d = np.full((n, n), inf, dtype=np.int64)
    d[adjacency_matrix(env)] = 1
    np.fill_diagonal(d, 0)
    for w in range(n):
        d = np.minimum(d, d[:, w : w + 1] + d[w : w + 1, :])
    d[d >= inf] = UNREACHABLE
    return d


def matrix_power_distances(env):
    """Independent oracle: k-step reachability via boolean matrix products.

    d[s, g] is the first k with g reachable from s in <= k steps.
    """
    n = env.num_states
    adj = adjacency_matrix(env)
    d = np.full((n, n), UNREACHABLE, dtype=np.int64)
    np.fill_diagonal(d, 0)
    reach = np.eye(n, dtype=bool)
    for k in range(1, n):
        reach = reach @ adj | reach
        newly = reach & (d == UNREACHABLE)
        d[newly] = k
        if not newly.any():
            break
    return d


def csgraph_distances(env):
    """Independent oracle: scipy's csgraph shortest paths, the oracle's
    implementation before the bit-set BFS."""
    sparse = pytest.importorskip("scipy.sparse")
    csgraph = pytest.importorskip("scipy.sparse.csgraph")
    d = csgraph.shortest_path(
        sparse.csr_matrix(adjacency_matrix(env)), method="D", unweighted=True
    )
    d[np.isinf(d)] = UNREACHABLE
    return d.astype(np.int64)


def one_way_corridor(n=3):
    """Directed chain 0 -> 1 -> ... -> n-1 with a single 'right' action."""
    transition = np.minimum(np.arange(n) + 1, n - 1).reshape(-1, 1)
    return GraphEnv(n, 1, transition)


def reference_value_table(d, gamma):
    """gamma ** d by np.power over the whole table, 0 where d is UNREACHABLE."""
    return np.power(gamma, d, out=np.zeros(d.shape), where=d != UNREACHABLE)


# Grids, chains whose levels need up to eight binary digits, one-way and
# sparse graphs with unreachable pairs, and sizes on both sides of the
# 64-state word boundary of a bit row.
ENVS = {
    "grid5": build_grid_env(5, 5),
    "grid4_walls": build_grid_env(4, 4, walls={(1, 1), (2, 2)}),
    "grid5x4_split": build_grid_env(5, 4, walls={(2, y) for y in range(4)}),
    "grid8_walled": build_grid_env(8, 8, {(3, y) for y in range(8)} | {(5, 2), (6, 5)}),
    "grid16": build_grid_env(16, 16),
    "grid24": build_grid_env(24, 24),
    "corridor64": build_grid_env(64, 1),
    "chain200": build_grid_env(200, 1),
    "one_way6": one_way_corridor(6),
    "one_way200": one_way_corridor(200),
    "single_state": one_way_corridor(1),
    "random300": random_graph_env(300, 2, 1),
    **{f"one_way{n}": one_way_corridor(n) for n in (63, 64, 65, 129)},
    **{f"random{n}_1": random_graph_env(n, 1, n) for n in (63, 64, 65, 129)},
    **{f"random30_3_{seed}": random_graph_env(30, 3, seed) for seed in range(5)},
    **{f"random40_1_{seed}": random_graph_env(40, 1, seed) for seed in range(5)},
}


def test_self_distances_are_zero():
    env = build_grid_env(4, 3, walls={(2, 1)})
    d = all_pairs_distances(env)
    assert (np.diag(d) == 0).all()


def test_5x5_corner_to_corner():
    env = build_grid_env(5, 5)
    d = all_pairs_distances(env)
    assert d[0, 24] == 8  # (0,0) -> (4,4): Manhattan distance on an empty grid


def test_one_way_corridor_unreachable():
    env = one_way_corridor(3)
    d = all_pairs_distances(env)
    assert d[0, 2] == 2
    assert d[2, 0] == UNREACHABLE


def test_bfs_matches_floyd_warshall_and_matrix_powers():
    envs = [
        build_grid_env(5, 5),
        build_grid_env(4, 4, walls={(1, 1), (2, 2)}),
        build_grid_env(5, 4, walls={(2, y) for y in range(4)}),  # two components
        one_way_corridor(6),
    ] + [random_graph_env(30, 3, seed) for seed in range(5)]
    # Sparse random directed graphs: many pairs are unreachable.
    envs += [random_graph_env(40, 1, seed) for seed in range(5)]
    envs += [random_graph_env(60, 2, seed) for seed in range(5)]
    unreachable = 0
    for env in envs:
        d = all_pairs_distances(env)
        assert d.dtype == np.int64
        np.testing.assert_array_equal(d, floyd_warshall_distances(env))
        np.testing.assert_array_equal(d, matrix_power_distances(env))
        unreachable += int((d == UNREACHABLE).sum())
    assert unreachable > 0


def test_value_table_values():
    env = build_grid_env(5, 5)
    dist = all_pairs_distances(env)
    v = optimal_value_table(dist, gamma=0.99)
    assert v.dtype == np.float64
    assert v[0, 0] == 1.0
    assert v[0, 24] == pytest.approx(0.99**8)
    assert v[0, 24] == pytest.approx(0.92274, abs=1e-5)


def test_unreachable_value_is_exactly_zero():
    env = one_way_corridor(3)
    v = optimal_value_table(all_pairs_distances(env), gamma=0.9)
    assert v[2, 0] == 0.0


@pytest.mark.parametrize("dtype", [np.int8, np.uint8, np.int16])
def test_value_table_of_a_narrow_table_holding_its_dtype_maximum(dtype):
    """int8 127, uint8 255 and int16 32767 each read the powers up to the
    table's maximum: their count is formed as a Python int, so it cannot
    wrap in the table's dtype."""
    top = int(np.iinfo(dtype).max)
    v = optimal_value_table(np.array([0, 1, top], dtype), 0.999)
    assert v.tobytes() == np.power(0.999, np.arange(top + 1))[[0, 1, top]].tobytes()


def test_gamma_validation():
    env = one_way_corridor(2)
    dist = all_pairs_distances(env)
    for bad in (0.0, 1.0, -0.5, 1.5):
        with pytest.raises(ConfigError):
            optimal_value_table(dist, bad)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10**6), gamma=st.floats(0.5, 0.999))
def test_multiplicative_triangle_inequality(seed, gamma):
    env = random_graph_env(20, 2, seed)
    dist = all_pairs_distances(env)
    v = optimal_value_table(dist, gamma)
    # v[s, g] >= v[s, w] * v[w, g] for all s, w, g (allow float round-off).
    products = v[:, :, None] * v[None, :, :]  # products[s, w, g]
    best = products.max(axis=1)
    assert (v >= best - 1e-12).all()


def test_triangle_equality_on_shortest_path():
    env = build_grid_env(6, 1)  # corridor: every midpoint lies on the shortest path
    dist = all_pairs_distances(env)
    v = optimal_value_table(dist, 0.95)
    # w = 3 is on the unique shortest path 0 -> 5.
    assert v[0, 5] == pytest.approx(v[0, 3] * v[3, 5], rel=1e-12)


def test_bfs_matches_csgraph_and_floyd_warshall():
    unreachable = 0
    for name, env in ENVS.items():
        d = all_pairs_distances(env)
        assert d.dtype == np.int64, name
        np.testing.assert_array_equal(d, csgraph_distances(env), err_msg=name)
        np.testing.assert_array_equal(d, floyd_warshall_distances(env), err_msg=name)
        unreachable += int((d == UNREACHABLE).sum())
    assert all_pairs_distances(ENVS["chain200"])[0, 199] == 199
    assert unreachable > 0


def test_value_table_equals_np_power_bit_for_bit():
    """The table read gives np.power's bits on every oracle table of ENVS
    (single_state included), on an int16 table with unreachable pairs and
    on an empty table."""
    tables = {name: all_pairs_distances(env) for name, env in ENVS.items()}
    tables["grid8_walled_int16"] = tables["grid8_walled"].astype(np.int16)
    tables["empty"] = np.zeros((0, 0), dtype=np.int64)
    assert (tables["grid8_walled_int16"] == UNREACHABLE).any()
    for name, d in tables.items():
        for gamma in (0.01, 0.5, 0.95, 0.99, 1 - 1e-9):
            v = optimal_value_table(d, gamma)
            assert v.dtype == np.float64 and v.shape == d.shape, name
            expected = reference_value_table(d, gamma)
            np.testing.assert_array_equal(v.view(np.uint64), expected.view(np.uint64), name)


@pytest.mark.parametrize("gamma", [0.5, 0.9, 0.99, 0.999])
def test_implied_distances_inverts_the_value_table(gamma):
    """Every distance whose gamma^d stays above the 1e-300 floor comes back
    from its value to within rounding: up to 690 431 steps at gamma = 0.999."""
    d = np.arange(int(np.log(1e-300) / np.log(gamma)) + 1)
    values = optimal_value_table(d, gamma)
    assert values[-1] > 1e-300
    implied = implied_distances(values, gamma)
    assert np.array_equal(np.round(implied), d)
    assert np.abs(implied - d).max() < 1e-9


def test_implied_distances_clamps_at_both_ends():
    gamma = 0.9
    floor = np.log(1e-300) / np.log(gamma)
    assert implied_distances(0.0, gamma) == floor
    assert implied_distances(np.array([0.0, 1e-320]), gamma).tolist() == [floor, floor]
    assert implied_distances(np.array([1.0, 1.5, 3.0]), gamma).tolist() == [0.0, 0.0, 0.0]


def test_bfs_matches_matrix_powers_on_larger_envs():
    for env in (build_grid_env(14, 14), random_graph_env(200, 2, 77)):
        np.testing.assert_array_equal(all_pairs_distances(env), matrix_power_distances(env))


def test_oracle_q_table_shape_and_goal_rows():
    env = build_grid_env(3, 1)
    q = oracle_q_table(env, 0.9)
    assert q.shape == (3, 4, 3)
    assert (q[np.arange(3), :, np.arange(3)] == 1.0).all()
    # From state 0 toward goal 2: moving right lands at distance 1.
    assert q[0, 3, 2] == pytest.approx(0.9 * 0.9)
    # Self-loop actions keep distance 2.
    assert q[0, 0, 2] == pytest.approx(0.9 * 0.9**2)


# The walled grid, random graphs with unreachable pairs, and a one-way chain
# whose levels run to 299, so its nine digit planes are summed in uint16.
NARROW_CASES = {
    "grid8_walled": ENVS["grid8_walled"],
    "grid24": ENVS["grid24"],
    "random129_1": ENVS["random129_1"],
    "random300": ENVS["random300"],
    **{f"random40_1_{seed}": ENVS[f"random40_1_{seed}"] for seed in range(5)},
    "one_way300": one_way_corridor(300),
}


@pytest.mark.parametrize("name", list(NARROW_CASES))
def test_narrow_digit_planes_equal_the_int64_planes(name):
    env = NARROW_CASES[name]
    d = all_pairs_distances(env)
    assert d.dtype == np.int64 and d.tobytes() == all_pairs_distances_int64(env).tobytes()
    if name == "one_way300":
        assert d.max() == 299 and (d == UNREACHABLE).any()
    if name.startswith("random"):
        assert (d == UNREACHABLE).any()


def test_distances_hold_no_full_size_int64_temporary():
    """On 24x24 the traced peak is the int64 result (8 S^2 bytes) and three
    one-byte S x S arrays: the levels, an unpacked plane and the unreached
    mask, 12.0 S^2 bytes (3.99 MB) as measured. Unpacking each plane to
    int64, as before, peaked at 18 S^2 (5.98 MB); the bound is 13 S^2."""
    env = build_grid_env(24, 24)
    all_pairs_distances(env)
    tracemalloc.start()
    try:
        all_pairs_distances(env)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 13 * env.num_states**2


def test_implied_distances_in_place_equal_the_copying_form():
    """Arrays keep their bits, also when converted into ``out`` in place; a
    scalar or a 0-d array still gives a numpy scalar, and without ``out``
    the input array is left as it was."""
    values = np.random.default_rng(4).uniform(-0.5, 1.5, 1000)
    values[:3] = (0.0, np.nan, np.inf)
    kept = values.copy()
    got = implied_distances(values, 0.97)
    assert np.array_equal(values, kept, equal_nan=True)
    assert got.tobytes() == implied_distances_copying(values, 0.97).tobytes()
    assert implied_distances(kept, 0.97, out=kept) is kept
    assert kept.tobytes() == got.tobytes()
    for x in (0.5, 0.0, 2.0, np.float64(0.25), np.array(0.75)):
        scalar, expected = implied_distances(x, 0.9), implied_distances_copying(x, 0.9)
        assert type(scalar) is type(expected) is np.float64
        assert scalar == expected
