import numpy as np
import pytest

from gclab.cli import main
from gclab.dataset import TrajectoryDataset, collect_dataset
from gclab.env import build_grid_env
from gclab.learners import ValueTable
from gclab.oracle import UNREACHABLE, all_pairs_distances, oracle_q_table
from gclab.policy import (
    BehaviorPolicy,
    estimate_behavior_policy,
    greedy_action_batch,
    rejection_sample_action,
)
from env_helpers import random_graph_env

RIGHT = 3


def greedy_action(q: ValueTable, s: int, g: int) -> int:
    """Scalar reference: argmax_a Q(s, a, g); lowest index wins ties."""
    return int(np.argmax(q.values_at((s, slice(None), g))))


def oracle_table(env, gamma=0.99):
    return ValueTable(oracle_q_table(env, gamma), gamma, space="value")


def test_unvisited_state_falls_back_to_uniform():
    env = build_grid_env(2, 2)
    ds = TrajectoryDataset(np.array([[0, 1]]), np.array([[RIGHT]]))
    beh = estimate_behavior_policy(ds, env)
    np.testing.assert_allclose(beh.row_probs(3), 0.25)


def test_add_one_smoothing_arithmetic():
    # State 0 visited 10 times, always action 2, out of 4 actions: p(2) = 11/14.
    counts = np.zeros((2, 4))
    counts[0, 2] = 10
    beh = BehaviorPolicy(counts)
    probs = beh.row_probs(slice(None))
    assert probs[0, 2] == pytest.approx(11 / 14)
    assert probs[0, 0] == pytest.approx(1 / 14)
    assert probs.sum(axis=1) == pytest.approx([1.0, 1.0])


def test_random_walk_frequencies_close_to_uniform():
    env = build_grid_env(5, 5)
    ds = collect_dataset(env, num_traj=400, T=64, seed=2)
    beh = estimate_behavior_policy(ds, env)
    total = ds.actions.size
    # Raw action marginal over the whole dataset is uniform by construction.
    marginal = np.bincount(ds.actions.ravel(), minlength=4) / total
    sigma = np.sqrt(0.25 * 0.75 / total)
    assert np.abs(marginal - 0.25).max() < 3 * sigma
    assert beh.row_probs(slice(None)).sum(axis=1) == pytest.approx(np.ones(env.num_states))


def test_greedy_action_on_corridor():
    env = build_grid_env(3, 1)
    q = oracle_table(env)
    assert greedy_action(q, 0, 2) == RIGHT


def test_greedy_tie_breaks_to_lowest_index():
    q = ValueTable(np.zeros((2, 4, 2)), 0.99, space="value")
    assert greedy_action(q, 0, 1) == 0
    env = build_grid_env(3, 1)
    qo = oracle_table(env)
    assert greedy_action(qo, 1, 1) == 0  # at the goal every action ties at 1


def test_greedy_batch_matches_scalar():
    env = build_grid_env(4, 4)
    q = oracle_table(env)
    rng = np.random.default_rng(0)
    states = rng.integers(0, env.num_states, size=50)
    goals = rng.integers(0, env.num_states, size=50)
    batch = greedy_action_batch(q, states, goals)
    for s, g, a in zip(states, goals, batch):
        assert a == greedy_action(q, int(s), int(g))


def test_rejection_with_one_sample_is_the_behavior_policy():
    env = build_grid_env(2, 1)
    q = oracle_table(env)
    counts = np.zeros((2, 4))
    counts[0] = [39, 19, 9, 29]  # smoothed: (0.4, 0.2, 0.1, 0.3)
    beh = BehaviorPolicy(counts)
    rng = np.random.default_rng(123)
    n = 40_000
    freq = np.bincount(
        [rejection_sample_action(q, beh, 0, 1, 1, rng) for _ in range(n)], minlength=4
    ) / n
    expected = beh.row_probs(0)
    sigma = np.sqrt(expected * (1 - expected) / n)
    assert np.all(np.abs(freq - expected) < 3.5 * sigma)


def rejection_by_choice(q, beh, s, g, N, rng):
    """Reference: the draw by ``Generator.choice`` on the smoothed row."""
    probs = beh.row_probs(s)
    draws = rng.choice(probs.size, size=N, p=probs)
    drawn = np.zeros(probs.size, dtype=bool)
    drawn[draws] = True
    return int(np.argmax(np.where(drawn, q.values_at((s, slice(None), g)), -np.inf)))


@pytest.mark.parametrize("num_actions", [1, 2, 4])
@pytest.mark.parametrize("N", [1, 2, 32])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_cdf_draw_equals_generator_choice(num_actions, N, seed):
    """A draw from a state's CDF row is ``rng.choice(A, size=N, p=...)``,
    draw for draw, and leaves the generator in the same state; all-zero
    rows are the uniform policy."""
    rng = np.random.default_rng(seed)
    counts = rng.integers(0, 30, size=(7, num_actions))
    counts[[1, 4]] = 0
    beh = BehaviorPolicy(counts)
    q = ValueTable(rng.normal(0.0, 1.0, (7, num_actions, 7)), 0.9)
    ours, theirs = np.random.default_rng([seed, 9]), np.random.default_rng([seed, 9])
    for s in np.random.default_rng(seed).integers(0, 7, size=60):
        want = theirs.choice(num_actions, size=N, p=beh.row_probs(s))
        assert beh.cdf[s].searchsorted(ours.random(N), side="right").tolist() == want.tolist()
    assert ours.bit_generator.state == theirs.bit_generator.state
    for s, g in np.random.default_rng(seed).integers(0, 7, size=(60, 2)):
        got = rejection_sample_action(q, beh, s, g, N, ours)
        assert got == rejection_by_choice(q, beh, s, g, N, theirs)
    assert ours.bit_generator.state == theirs.bit_generator.state


def test_rejection_two_samples_enumeration():
    """2 actions, uniform behavior, Q(a1) > Q(a0), N = 2: picks a1 w.p. 3/4."""
    q = ValueTable(np.zeros((1, 2, 1)), 0.99, space="value")
    q.params[0, 1, 0] = 0.5
    beh = BehaviorPolicy(np.zeros((1, 2)))
    rng = np.random.default_rng(7)
    n = 40_000
    hits = sum(rejection_sample_action(q, beh, 0, 0, 2, rng) == 1 for _ in range(n))
    sigma = np.sqrt(0.75 * 0.25 / n)
    assert abs(hits / n - 0.75) < 3.5 * sigma


def test_rejection_selection_probability_monotone_in_N():
    """Exact check for <= 3 actions: the best action is chosen iff it is drawn,
    so P(best) = 1 - (1 - p_best)^N, nondecreasing in N."""
    for probs in ([0.2, 0.8], [0.5, 0.3, 0.2], [0.1, 0.6, 0.3]):
        p_best_draw = probs[-1]  # give the last action the highest Q below
        exact = [1 - (1 - p_best_draw) ** N for N in (1, 2, 4, 8, 16)]
        assert all(b >= a for a, b in zip(exact, exact[1:]))
    # Empirical confirmation on the 3-action case.
    q = ValueTable(np.zeros((1, 3, 1)), 0.99, space="value")
    q.params[0, 2, 0] = 1.0
    counts = np.zeros((1, 3))
    counts[0] = [49, 19, 29]  # smoothed: (0.5, 0.2, 0.3)
    beh = BehaviorPolicy(counts)
    rng = np.random.default_rng(11)
    n = 20_000
    rates = []
    for N in (1, 3, 9):
        hits = sum(rejection_sample_action(q, beh, 0, 0, N, rng) == 2 for _ in range(n))
        rates.append(hits / n)
        expected = 1 - (1 - 0.3) ** N
        sigma = np.sqrt(expected * (1 - expected) / n)
        assert abs(hits / n - expected) < 3.5 * sigma
    assert rates == sorted(rates)


def test_rejection_requires_positive_N(tmp_path, capsys):
    """N is checked where the eval settings enter: `gclab eval` exits 2
    naming 'eval.rejection_n' before it reads a file."""
    argv = ["eval", "--width", "2", "--height", "1", "--table", str(tmp_path / "none.bin"),
            "--extraction", "rejection", "--rejection-n", "0", "--out", str(tmp_path / "e.csv")]
    assert main(argv) == 2
    assert "config key 'eval.rejection_n' must lie in [1, 1000000], got 0" in capsys.readouterr().err
    assert not (tmp_path / "e.csv").exists()


def test_rejection_budget_has_a_bound(tmp_path, capsys):
    """A rejection rollout keeps its whole budget, so the factor has a
    largest value: one above it exits 2 naming the key, before a file is
    read or written."""
    argv = ["eval", "--width", "2", "--height", "1", "--table", str(tmp_path / "none.bin"),
            "--extraction", "rejection", "--max-steps-factor", "1001",
            "--out", str(tmp_path / "e.csv")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "config key 'eval.max_steps_factor' must lie in [1, 1000], got 1001" in err
    assert not (tmp_path / "e.csv").exists()


def greedy_rollout_length(env, q, start, goal, max_steps):
    s = start
    for t in range(max_steps):
        if s == goal:
            return t
        s = int(env.transition[s, greedy_action(q, s, goal)])
    return max_steps if s != goal else max_steps


def test_greedy_on_oracle_reaches_goals_in_exact_distance():
    for env in (build_grid_env(5, 5), build_grid_env(6, 4, walls={(2, 1), (2, 2)}),
                random_graph_env(60, 3, seed=4)):
        q = oracle_table(env)
        dist = all_pairs_distances(env)
        for s in range(env.num_states):
            for g in range(env.num_states):
                if dist[s, g] == UNREACHABLE:
                    continue
                steps_taken = greedy_rollout_length(env, q, s, g, int(dist[s, g]) + 1)
                assert steps_taken == dist[s, g], (s, g)
