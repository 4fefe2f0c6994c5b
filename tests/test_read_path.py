"""The sparse read path: learners gather table entries at flat indices,
policies through ``ValueTable.values_at``, and neither takes the full-table
``values()`` pass."""

from dataclasses import replace

import numpy as np
import pytest

from gclab import harness, learners
from gclab.dataset import collect_dataset
from gclab.env import build_grid_env
from gclab.harness import (
    block_settings,
    evaluate_policy,
    select_tasks,
    spearman_to_oracle,
    train_run,
)
from gclab.learners import (
    LOGIT_CLAMP,
    LearnerConfig,
    PolyakTarget,
    ValueTable,
    _apply_logit_updates,
    _flat,
)
from gclab.oracle import all_pairs_distances
from gclab.policy import BehaviorPolicy, estimate_behavior_policy
import reference_helpers as ref
from env_helpers import random_graph_env
from target_helpers import STOCHASTIC_METHODS


def random_table(space, seed=0, shape=(7, 4, 7)):
    rng = np.random.default_rng(seed)
    if space == "logit":
        params = rng.uniform(-LOGIT_CLAMP, LOGIT_CLAMP, size=shape)
    else:
        params = rng.uniform(-0.5, 1.5, size=shape)
    return ValueTable(params, 0.9, space=space), rng


@pytest.mark.parametrize("space", ["logit", "value"])
def test_values_at_equals_full_table_gather(space):
    q, rng = random_table(space)
    s = rng.integers(0, 7, size=50)
    a = rng.integers(0, 4, size=50)
    g = rng.integers(0, 7, size=50)
    w = rng.integers(0, 7, size=(50, 3))
    full = q.values()
    for idx in [
        (3, slice(None), 5),
        (s, slice(None), g),
        (s, a, g),
        (s[:, None], a[:, None], w),
        (w, rng.integers(0, 4, size=(50, 3)), g[:, None]),
        ...,
    ]:
        got, want = q.values_at(idx), full[idx]
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def test_apply_logit_updates_clips_touched_entries_only():
    q, rng = random_table("logit", seed=2)
    q.params = np.clip(q.params, -5.0, 5.0)
    before = q.params.copy()
    n = 200
    idx = (rng.integers(0, 7, size=n), rng.integers(0, 4, size=n), rng.integers(0, 7, size=n))
    idx = tuple(np.concatenate([i, i[:40]]) for i in idx)  # duplicates sum in np.add.at
    grads = rng.choice([-1.0, 1.0], size=idx[0].size) * rng.uniform(1.0, 10.0, size=idx[0].size)

    reference = before.copy()
    np.add.at(reference, idx, -1e3 * grads)
    np.clip(reference, -LOGIT_CLAMP, LOGIT_CLAMP, out=reference)

    flat = np.ravel_multi_index(idx, q.params.shape)
    assert (_flat(q.params.shape, *idx) == flat).all()
    _apply_logit_updates(PolyakTarget(q), flat, q.params.reshape(-1)[flat], grads, 1e3)
    assert q.params.tobytes() == reference.tobytes()
    assert (q.params == LOGIT_CLAMP).any() and (q.params == -LOGIT_CLAMP).any()
    untouched = np.ones(q.params.shape, dtype=bool)
    untouched[idx] = False
    assert untouched.any()
    assert q.params[untouched].tobytes() == before[untouched].tobytes()


def test_row_probs_match_full_probs():
    counts = np.random.default_rng(3).integers(0, 50, size=(9, 4))
    counts[2] = 0
    beh = BehaviorPolicy(counts)
    full = beh.row_probs(slice(None))
    for s in range(9):
        assert beh.row_probs(s).tobytes() == full[s].tobytes()


def test_training_and_eval_never_read_the_full_table(monkeypatch):
    env = build_grid_env(4, 4)
    ds = collect_dataset(env, num_traj=10, T=12, seed=0)
    dist = all_pairs_distances(env)
    beh = estimate_behavior_policy(ds, env)
    tasks = select_tasks(dist, 3)

    def forbidden(self):
        raise AssertionError("full-table ValueTable.values() pass")

    monkeypatch.setattr(ValueTable, "values", forbidden)
    for method in STOCHASTIC_METHODS:
        cfg = LearnerConfig(
            method=method, learning_rate=0.5, batch_size=16, steps=5, n_step=2, M_subgoals=3
        )
        q, _ = train_run(env, ds, cfg)
        for extraction in ("greedy", "rejection"):
            spec = block_settings("eval", {"episodes": 2, "max_steps_factor": 2,
                                           "extraction": extraction, "rejection_n": 4})
            report = evaluate_policy(env, q, beh, dist, tasks, spec, 0)
            assert len(report.tasks) == len(tasks)
        assert np.isfinite(spearman_to_oracle(q, dist))


# Each learner's step and layout as they read before every step made one
# read (mc's and coe's layouts are unchanged).
SEPARATE_READS = {
    "trl": (ref.trl_update_step_separate_reads, ref.trl_layout_separate_reads),
    "mc": (ref.mc_update_step_separate_reads, learners._mc_layout),
    "td_n": (ref.td_n_update_step_separate_reads, ref.td_layout_separate_reads),
    "gciql": (ref.gciql_update_step_separate_reads, ref.gciql_layout_separate_reads),
    "sgt": (ref.sgt_update_step_separate_reads, ref.sgt_layout_separate_reads),
    "coe": (ref.coe_update_step_separate_reads, learners._coe_layout),
}


@pytest.mark.parametrize("env_kind", ["grid", "random_graph"])
@pytest.mark.parametrize("method", STOCHASTIC_METHODS)
def test_one_read_per_step_keeps_the_bits_of_the_separate_reads(monkeypatch, method, env_kind):
    """40 steps of train_run with the one-read steps and with the earlier
    steps, which read each block in its own call and gather the written
    entries again (tests/reference_helpers.py): the online table, the
    target's lag and scale and the loss log are byte for byte the same."""
    if env_kind == "grid":
        env, beta = build_grid_env(5, 5), 1.0
    else:  # no grid coordinates: coe's goal regularizer is off
        env, beta = random_graph_env(12, 3, seed=4), 0.0
    ds = collect_dataset(env, num_traj=20, T=16, seed=0)
    cfg = LearnerConfig(
        method=method, steps=40, log_every=7, learning_rate=0.5, kappa=0.9, tau_target=0.2,
        batch_size=32, M_subgoals=4, n_step=3, beta_goal_reg=beta, seed=1,
    )

    def train():
        built = []

        def capture(q):
            built.append(PolyakTarget(q))
            return built[-1]

        monkeypatch.setattr(harness, "PolyakTarget", capture)
        q, log = train_run(env, ds, cfg)
        return q.params.tobytes(), built[0].lag.tobytes(), built[0].scale, log

    one_read = train()
    step, layout = SEPARATE_READS[method]
    monkeypatch.setattr(learners, f"{method}_update_step", step)
    monkeypatch.setitem(learners.METHODS, method, replace(learners.METHODS[method], layout=layout))
    assert one_read == train()
