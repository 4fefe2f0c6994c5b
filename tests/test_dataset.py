import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gclab.cli import main
from gclab.dataset import (
    TrajectoryDataset,
    collect_dataset,
    load_dataset,
    sample_index_pairs,
    sample_flat_states,
    sample_relabeled_goal_batch,
    sample_triplet_batch,
    save_dataset,
)
from gclab.env import ConfigError, adjacency_matrix, build_grid_env
from gclab.harness import train_run
from gclab.learners import LearnerConfig


def sample_triplet(ds, rng):
    """Single (traj, i, j, k) triplet; see ``sample_triplet_batch``."""
    traj, i, j, k = sample_triplet_batch(ds, 1, rng)
    return int(traj[0]), int(i[0]), int(j[0]), int(k[0])


def sample_relabeled_goal(ds, traj, t, cfg, rng):
    """Single relabeled goal for trajectory ``traj`` at timestep ``t``."""
    return int(sample_relabeled_goal_batch(ds, np.array([traj]), np.array([t]), cfg, rng)[0])


def mixture(p_cur, p_geom, p_traj, geom_param=0.01):
    """A LearnerConfig holding the relabel mixture; the rest of the mass,
    1 - p_cur - p_geom - p_traj, draws dataset states."""
    return LearnerConfig(p_cur=p_cur, p_geom=p_geom, p_traj=p_traj, geom_param=geom_param)


@pytest.fixture(scope="module")
def grid_env():
    return build_grid_env(5, 5)


@pytest.fixture(scope="module")
def grid_dataset(grid_env):
    return collect_dataset(grid_env, num_traj=200, T=64, seed=3)


def test_single_transition_consistency():
    env = build_grid_env(3, 3)
    ds = collect_dataset(env, num_traj=1, T=1, seed=0)
    s0, a0, s1 = int(ds.states[0, 0]), int(ds.actions[0, 0]), int(ds.states[0, 1])
    assert s1 == env.transition[s0, a0]


def test_collected_transitions_live_in_edge_set(grid_env, grid_dataset):
    edges = adjacency_matrix(grid_env)
    for n in range(grid_dataset.num_traj):
        for t in range(grid_dataset.horizon):
            s, s2 = int(grid_dataset.states[n, t]), int(grid_dataset.states[n, t + 1])
            assert s == s2 or edges[s, s2]


def test_collection_is_seed_deterministic(grid_env):
    a = collect_dataset(grid_env, 20, 16, seed=9)
    b = collect_dataset(grid_env, 20, 16, seed=9)
    np.testing.assert_array_equal(a.states, b.states)
    np.testing.assert_array_equal(a.actions, b.actions)


def test_validate_against_rejects_corruption(grid_env, grid_dataset):
    broken = TrajectoryDataset(grid_dataset.states.copy(), grid_dataset.actions.copy())
    broken.states[0, 1] = (broken.states[0, 1] + 1) % grid_env.num_states
    with pytest.raises(ValueError):
        broken.validate_against(grid_env)


def test_triplet_T2_is_forced():
    env = build_grid_env(2, 1)
    ds = collect_dataset(env, 4, 2, seed=0)
    rng = np.random.default_rng(0)
    for _ in range(32):
        _, i, j, k = sample_triplet(ds, rng)
        assert (i, j, k) == (0, 1, 0)


def test_triplet_requires_T_at_least_2(tmp_path, capsys):
    """The sampler trusts its horizon: trl's ``min_horizon`` of 2 is checked
    before a run starts, and a sweep exits 2 naming 'dataset.T'."""
    env = build_grid_env(2, 1)
    ds = collect_dataset(env, 2, 1, seed=0)
    with pytest.raises(ConfigError, match=r"'dataset.T' for method 'trl' must lie in \[2, inf\)"):
        train_run(env, ds, LearnerConfig(method="trl", steps=1))
    config = {"out_dir": str(tmp_path / "exp"), "env": {"kind": "grid", "width": 2, "height": 1},
              "dataset": {"num_traj": 2, "T": 1, "seed": 0}, "methods": ["trl"], "seeds": [0]}
    (tmp_path / "cfg.json").write_text(json.dumps(config))
    assert main(["sweep", "--config", str(tmp_path / "cfg.json")]) == 2
    err = capsys.readouterr().err
    assert "'dataset.T' for method 'trl' must lie in [2, inf), got 1" in err
    assert not (tmp_path / "exp").exists()


def test_triplet_T3_distribution():
    """(i, j) uniform over {(0,1),(0,2),(1,2)}; k | (0,2) uniform over {0,1}."""
    env = build_grid_env(2, 1)
    ds = collect_dataset(env, 2, 3, seed=0)
    rng = np.random.default_rng(42)
    n = 100_000
    _, i, j, k = sample_triplet_batch(ds, n, rng)

    pairs, counts = np.unique(np.stack([i, j]), axis=1, return_counts=True)
    assert {tuple(p) for p in pairs.T} == {(0, 1), (0, 2), (1, 2)}
    # Each pair has probability 1/3; 3 sigma binomial band.
    sigma = np.sqrt(n * (1 / 3) * (2 / 3))
    assert np.all(np.abs(counts - n / 3) < 3 * sigma)

    sel = (i == 0) & (j == 2)
    k02 = k[sel]
    frac0 = (k02 == 0).mean()
    sigma_k = np.sqrt(0.25 / k02.size)
    assert set(np.unique(k02)) <= {0, 1}
    assert abs(frac0 - 0.5) < 3 * sigma_k


def test_pair_gap_marginal_matches_enumeration():
    """For T=8, P(j - i = g) = (T - g) / C(T, 2); check within 3 sigma per gap."""
    T = 8
    env = build_grid_env(2, 1)
    ds = collect_dataset(env, 2, T, seed=0)
    rng = np.random.default_rng(7)
    n = 200_000
    _, i, j, _ = sample_triplet_batch(ds, n, rng)
    gaps = j - i
    total_pairs = T * (T - 1) // 2
    for g in range(1, T):
        p = (T - g) / total_pairs
        observed = (gaps == g).mean()
        sigma = np.sqrt(p * (1 - p) / n)
        assert abs(observed - p) < 3 * sigma, f"gap {g}: {observed} vs {p}"


@settings(max_examples=40, deadline=None)
@given(T=st.integers(2, 40), seed=st.integers(0, 10**6))
def test_triplet_bounds_property(T, seed):
    env = build_grid_env(2, 1)
    ds = collect_dataset(env, 3, T, seed=1)
    rng = np.random.default_rng(seed)
    _, i, j, k = sample_triplet_batch(ds, 256, rng)
    assert np.all((0 <= i) & (i < j) & (j <= T - 1))
    assert np.all((i <= k) & (k <= j - 1))  # never k == j


def test_samplers_keep_their_invariants_in_every_row_of_a_shape(grid_dataset):
    """A (K, B) shape, as the learners draw CHUNK_STEPS steps at once, gives
    (K, B) arrays whose every row keeps the sampler's invariants: i < j,
    i <= k < j, and goals read from the dataset (with no random component,
    a state of the anchor's own trajectory at or after the anchor)."""
    ds, T = grid_dataset, grid_dataset.horizon
    K, B = 16, 64
    rng = np.random.default_rng(4)
    traj, i, j, k = sample_triplet_batch(ds, (K, B), rng)
    assert {x.shape for x in (traj, i, j, k)} == {(K, B)}
    assert np.all((0 <= i) & (i < j) & (j <= T - 1)) and np.all((i <= k) & (k < j))
    assert len({row.tobytes() for row in i}) == K  # each row its own draw
    i2, j2 = sample_index_pairs(T, (K, B), rng, allow_equal=True)
    assert i2.shape == j2.shape == (K, B)
    assert np.all((0 <= i2) & (i2 <= j2) & (j2 <= T - 1))

    t = rng.integers(0, T + 1, size=(K, B))
    goals = sample_relabeled_goal_batch(ds, traj, t, mixture(0.2, 0.5, 0.3), rng)
    assert goals.shape == (K, B)
    later = np.arange(T + 1) >= t[..., None]
    assert ((ds.states[traj] == goals[..., None]) & later).any(axis=-1).all()
    flat = sample_flat_states(ds, (K, B), rng)
    assert flat.shape == (K, B) and np.isin(flat, ds.states).all()


def test_mc_pairs_allow_equality():
    i, j = sample_index_pairs(T=5, size=10_000, rng=np.random.default_rng(0), allow_equal=True)
    assert np.all((0 <= i) & (i <= j) & (j <= 4))
    assert (i == j).any()
    # Uniform over the 15 pairs with i <= j: each ~1/15.
    pairs, counts = np.unique(np.stack([i, j]), axis=1, return_counts=True)
    assert pairs.shape[1] == 15
    sigma = np.sqrt(10_000 * (1 / 15) * (14 / 15))
    assert np.all(np.abs(counts - 10_000 / 15) < 4 * sigma)


def test_relabel_degenerate_current(grid_dataset):
    rng = np.random.default_rng(0)
    cfg = mixture(1.0, 0.0, 0.0)
    for _ in range(20):
        t = int(rng.integers(0, grid_dataset.horizon))
        n = int(rng.integers(0, grid_dataset.num_traj))
        g = sample_relabeled_goal(grid_dataset, n, t, cfg, rng)
        assert g == grid_dataset.states[n, t]


def test_relabel_uniform_future_at_end_is_final_state(grid_dataset):
    rng = np.random.default_rng(0)
    cfg = mixture(0.0, 0.0, 1.0)
    T = grid_dataset.horizon
    for n in range(10):
        g = sample_relabeled_goal(grid_dataset, n, T, cfg, rng)
        assert g == grid_dataset.states[n, T]


def test_relabel_component_frequencies(grid_env):
    """Mixture weights (0.2, 0.5, 0, 0.3) recovered within 3 sigma.

    The env is a one-way ring so each component can be identified from the
    sampled goal: current state, near-future states, or anything else.
    """
    n_states = 40
    transition = ((np.arange(n_states) + 1) % n_states).reshape(-1, 1)
    from gclab.env import GraphEnv

    ring = GraphEnv(n_states, 1, transition)
    T = 12
    ds = collect_dataset(ring, num_traj=64, T=T, seed=5)
    cfg = mixture(0.2, 0.5, 0.0, geom_param=0.9)
    rng = np.random.default_rng(11)
    n = 100_000
    traj = rng.integers(0, ds.num_traj, size=n)
    t = np.full(n, 3)
    goals = sample_relabeled_goal_batch(ds, traj, t, cfg, rng)

    start = ds.states[traj, 0]
    cur = ds.states[traj, 3]
    # On the ring, position at step t is start + t (mod n_states): invert to an offset.
    offset = (goals - start) % n_states
    is_cur = goals == cur

    # Random goals are marginally uniform over the ring (uniform starts), so the
    # rand component overlaps the current state with probability 1/n_states.
    expect_cur = 0.2 + 0.3 / n_states
    sigma_cur = np.sqrt(expect_cur * (1 - expect_cur) / n)
    assert abs(is_cur.mean() - expect_cur) < 3 * sigma_cur

    # geom draws (param 0.9, truncated at T=12) always land at offsets 4..12,
    # and the rand component hits that 9-state window with probability 9/40.
    in_future = (~is_cur) & (offset > 3) & (offset <= T)
    expect_future = 0.5 + 0.3 * (T - 3) / n_states
    sigma_f = np.sqrt(expect_future * (1 - expect_future) / n)
    assert abs(in_future.mean() - expect_future) < 3 * sigma_f


def test_relabel_truncation_goes_to_final_state(grid_dataset):
    """geom_param tiny means nearly every draw truncates at s_T."""
    rng = np.random.default_rng(0)
    cfg = mixture(0.0, 1.0, 0.0, geom_param=1e-9)
    T = grid_dataset.horizon
    traj = np.arange(20)
    goals = sample_relabeled_goal_batch(grid_dataset, traj, np.zeros(20, dtype=int), cfg, rng)
    np.testing.assert_array_equal(goals, grid_dataset.states[traj, T])


def test_sampling_is_reproducible(grid_dataset):
    r1, r2 = np.random.default_rng(123), np.random.default_rng(123)
    a = sample_triplet_batch(grid_dataset, 500, r1)
    b = sample_triplet_batch(grid_dataset, 500, r2)
    for x, y in zip(a, b):
        np.testing.assert_array_equal(x, y)
    cfg = LearnerConfig()
    ga = sample_relabeled_goal_batch(grid_dataset, a[0], a[1], cfg, r1)
    gb = sample_relabeled_goal_batch(grid_dataset, b[0], b[1], cfg, r2)
    np.testing.assert_array_equal(ga, gb)


def masked_relabel_reference(ds, traj, t, cfg, rng):
    """The relabel sampler as a default goal overwritten component by
    component through masks: the same draws in the same order."""
    T = ds.horizon
    u = rng.random(traj.shape)
    geom_delta = rng.geometric(cfg.geom_param, size=traj.shape)
    future_t = t + rng.integers(0, T - t + 1)
    flat = rng.integers(0, ds.states.size, size=traj.shape)
    states, row = ds.states.ravel(), traj * (T + 1)
    c1 = cfg.p_cur
    c2 = c1 + cfg.p_geom
    c3 = c2 + cfg.p_traj
    goals = states[row + t]
    geom = (u >= c1) & (u < c2)
    goals[geom] = states[row[geom] + np.minimum(t[geom] + geom_delta[geom], T)]
    later = (u >= c2) & (u < c3)
    goals[later] = states[row[later] + future_t[later]]
    goals[u >= c3] = states[flat[u >= c3]]
    return goals


@pytest.mark.parametrize(
    "probs",
    [(0.2, 0.5, 0.0), (0.25, 0.25, 0.25), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0),
     (0.0, 0.0, 0.0)],
)
def test_relabel_matches_the_masked_reference(grid_dataset, probs):
    """Goals and the generator state after the draw are those of the masked
    reference, on the mixture and on each pure component (the last draws
    every goal from the dataset)."""
    cfg = mixture(*probs)
    for seed in range(5):
        anchors = np.random.default_rng([seed, 1])
        traj = anchors.integers(0, grid_dataset.num_traj, size=(16, 64))
        t = anchors.integers(0, grid_dataset.horizon, size=(16, 64))
        rngs = np.random.default_rng(seed), np.random.default_rng(seed)
        got = sample_relabeled_goal_batch(grid_dataset, traj, t, cfg, rngs[0])
        want = masked_relabel_reference(grid_dataset, traj, t, cfg, rngs[1])
        np.testing.assert_array_equal(got, want)
        assert rngs[0].random() == rngs[1].random()


def test_ratio_validation():
    """Weights above 1 in sum, a negative weight and a geometric parameter
    at 0 are refused, naming the keys."""
    joint = "config keys 'learner.p_cur' + 'learner.p_geom' + 'learner.p_traj' must sum to at most 1"
    for probs in ((0.5, 0.5, 0.5), (0.5, 0.5, 0.1)):
        with pytest.raises(ConfigError, match=re.escape(joint)):
            mixture(*probs)
    with pytest.raises(ConfigError, match=re.escape("'learner.p_traj' must lie in [0, 1]")):
        mixture(0.5, 0.5, -0.5)
    with pytest.raises(ConfigError, match=re.escape("'learner.geom_param' must lie in (0, 1)")):
        LearnerConfig(geom_param=0.0)


@pytest.mark.parametrize("field", ["p_cur", "p_geom", "p_traj", "geom_param"])
@pytest.mark.parametrize(
    "value",
    [float("nan"), float("inf"), -float("inf"),
     pytest.param(10**400, id="10**400"), pytest.param(-(10**400), id="-10**400")],
)
def test_ratio_rejects_non_finite(field, value):
    with pytest.raises(ConfigError, match=f"config key 'learner.{field}' must be finite"):
        LearnerConfig(**{field: value})


def test_save_load_round_trip(tmp_path, grid_env, grid_dataset):
    path = tmp_path / "ds.csv"
    save_dataset(grid_dataset, str(path))
    loaded = load_dataset(str(path), env=grid_env)
    np.testing.assert_array_equal(loaded.states, grid_dataset.states)
    np.testing.assert_array_equal(loaded.actions, grid_dataset.actions)
    # Bit-exact round trip: a second save produces identical bytes.
    path2 = tmp_path / "ds2.csv"
    save_dataset(loaded, str(path2))
    assert path.read_bytes() == path2.read_bytes()
