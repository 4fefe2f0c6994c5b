import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gclab.env import (
    ConfigError,
    GraphEnv,
    adjacency_matrix,
    build_grid_env,
    load_env,
    parse_walls,
)
from env_helpers import random_graph_env, save_env

UP, DOWN, LEFT, RIGHT = 0, 1, 2, 3


def brute_force_edges(env):
    """Independent edge enumeration: iterate every (s, a) by hand."""
    pairs = set()
    for s in range(env.num_states):
        for a in range(env.num_actions):
            nxt = int(env.transition[s, a])
            if nxt != s:
                pairs.add((s, nxt))
    return pairs


def edge_list(env):
    """The adjacency matrix's edges as a sorted list of (s, s') pairs."""
    return [tuple(p) for p in np.argwhere(adjacency_matrix(env)).tolist()]


def test_single_cell_grid_is_degenerate():
    env = build_grid_env(1, 1)
    assert env.num_states == 1
    assert all(env.transition[0, a] == 0 for a in range(4))
    assert edge_list(env) == []


def test_5x5_grid_adjacency():
    env = build_grid_env(5, 5)
    assert env.num_states == 25
    corner = 0  # (0, 0) in row-major order
    assert env.transition[corner, RIGHT] == 1
    assert env.transition[corner, UP] == corner  # off-grid move is a self-loop
    center = 2 + 2 * 5  # (2, 2)
    assert env.transition[center, RIGHT] == 3 + 2 * 5


def test_corridor_transitions_and_edges():
    env = build_grid_env(3, 1)
    assert env.num_states == 3
    assert env.transition[1, LEFT] == 0
    assert edge_list(env) == [(0, 1), (1, 0), (1, 2), (2, 1)]


def test_5x5_edge_count():
    # 4-connected grid: 2 * (4*5 horizontal + 5*4 vertical) directed edges.
    env = build_grid_env(5, 5)
    assert adjacency_matrix(env).sum() == 80


def test_walls_block_and_remove_states():
    env = build_grid_env(3, 3, walls={(1, 1)})
    assert env.num_states == 8
    # (1, 0) is state 1; moving down runs into the wall.
    assert env.transition[1, DOWN] == 1


def test_all_cells_walled_is_an_error():
    with pytest.raises(ConfigError):
        build_grid_env(2, 1, walls={(0, 0), (1, 0)})


def test_wall_outside_grid_is_an_error():
    with pytest.raises(ConfigError):
        build_grid_env(2, 2, walls={(5, 5)})


@pytest.mark.parametrize("walls", [[[1, True]], [{"1": 0, "2": 0}], [["1", "2"]], ["1,2"]])
def test_wall_cell_that_is_not_a_pair_of_integers_is_an_error(walls):
    """A list cell is two JSON integers: a bool, a string or an object is refused."""
    with pytest.raises(ConfigError, match="bad wall cell"):
        parse_walls(walls)


def test_state_coords_populated_row_major():
    env = build_grid_env(3, 2)
    assert env.state_coords is not None
    np.testing.assert_array_equal(env.state_coords[0], [0, 0])
    np.testing.assert_array_equal(env.state_coords[3], [0, 1])


def test_graph_env_validation():
    with pytest.raises(ConfigError):
        GraphEnv(2, 1, np.array([[0], [5]]))
    with pytest.raises(ConfigError):
        GraphEnv(2, 0, np.zeros((2, 0), dtype=np.int64))
    # An env built in code keeps the table bound S * A * S <= 2^25 too.
    GraphEnv(5792, 1, np.zeros((5792, 1), dtype=np.int64))
    with pytest.raises(ConfigError, match=r"environment: table entries .* got 33558849"):
        GraphEnv(5793, 1, np.zeros((5793, 1), dtype=np.int64))


def test_env_file_round_trip(tmp_path):
    env = random_graph_env(num_states=17, num_actions=3, seed=5)
    path = tmp_path / "env.txt"
    save_env(env, str(path))
    loaded = load_env(str(path))
    assert loaded.num_states == env.num_states
    assert loaded.num_actions == env.num_actions
    np.testing.assert_array_equal(loaded.transition, env.transition)


def test_env_file_skips_indented_comments(tmp_path):
    path = tmp_path / "env.txt"
    path.write_text("# one-way chain\n2 1\n  # note\n1\n\t# tab\n1\n")
    env = load_env(str(path))
    assert env.transition.tolist() == [[1], [1]]


def test_env_file_rejects_bad_row(tmp_path):
    path = tmp_path / "env.txt"
    path.write_text("2 2\n0 1\n1\n")
    with pytest.raises(ConfigError):
        load_env(str(path))


@settings(max_examples=50, deadline=None)
@given(
    width=st.integers(1, 6),
    height=st.integers(1, 6),
    seed=st.integers(0, 2**31 - 1),
)
def test_grid_closure_and_edge_set_match_brute_force(width, height, seed):
    rng = np.random.default_rng(seed)
    cells = [(x, y) for x in range(width) for y in range(height)]
    n_walls = int(rng.integers(0, len(cells)))  # strict subset keeps >= 1 state
    walls = {cells[i] for i in rng.choice(len(cells), size=n_walls, replace=False)}
    env = build_grid_env(width, height, walls)

    assert env.transition.min() >= 0
    assert env.transition.max() < env.num_states
    assert set(edge_list(env)) == brute_force_edges(env)


@settings(max_examples=30, deadline=None)
@given(num_states=st.integers(1, 40), num_actions=st.integers(1, 5), seed=st.integers(0, 10**6))
def test_random_graph_edges_match_brute_force(num_states, num_actions, seed):
    env = random_graph_env(num_states, num_actions, seed)
    assert set(edge_list(env)) == brute_force_edges(env)
