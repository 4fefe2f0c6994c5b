import json
import warnings
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from gclab.dataset import collect_dataset, load_dataset
from gclab.env import ConfigError, GraphEnv, build_grid_env
from gclab.harness import (
    _SETTINGS,
    aggregate_summary,
    block_settings,
    check_run,
    evaluate_policy,
    run_experiment,
    select_tasks,
    spearman_to_oracle,
    train_run,
    validate_experiment_config,
)
from gclab import dataset as dataset_mod
from gclab import env as env_mod
from gclab import harness, learners, oracle
from gclab.learners import LearnerConfig, ValueTable, load_table
from gclab.oracle import UNREACHABLE, all_pairs_distances, optimal_value_table, oracle_q_table
from gclab.policy import estimate_behavior_policy, greedy_action_batch
from env_helpers import random_graph_env
from sweep_helpers import run_transitive_fixed_point
from target_helpers import STOCHASTIC_METHODS


@pytest.fixture(scope="module")
def small_world():
    env = build_grid_env(4, 4)
    ds = collect_dataset(env, num_traj=60, T=24, seed=7)
    return env, ds


def oracle_table(env, gamma=0.99):
    return ValueTable(oracle_q_table(env, gamma), gamma, space="value")


def test_zero_steps_returns_initial_table(small_world):
    env, ds = small_world
    cfg = LearnerConfig(method="trl", steps=0)
    q, log = train_run(env, ds, cfg)
    np.testing.assert_array_equal(q.params, np.full(q.params.shape, -3.0))
    assert log == []


def test_exact_method_ignores_dataset(small_world):
    env, _ = small_world
    cfg = LearnerConfig(method="exact", gamma=0.95)
    q, log = train_run(env, None, cfg)
    d_fp, _ = run_transitive_fixed_point(env)
    v_fp = optimal_value_table(d_fp, 0.95)
    idx = np.arange(env.num_states)
    expected = 0.95 * v_fp[env.transition, :]
    expected[idx, :, idx] = 1.0
    np.testing.assert_array_equal(q.params, expected)
    np.testing.assert_array_equal(q.params, oracle_q_table(env, 0.95))
    assert log[-1]["loss"] == 0


def test_exact_log_has_one_row_per_sweep_to_the_fixed_point():
    """A 200-cell corridor (finite diameter 199) needs ceil(log2 199) = 8
    shortening sweeps; the run stops at the first sweep that shortens no
    pair and logs each sweep once, its loss the count of shortened pairs."""
    env = build_grid_env(200, 1)
    q, log = train_run(env, None, LearnerConfig(method="exact", gamma=0.99))
    assert [row["step"] for row in log] == list(range(9))
    assert all(row["loss"] > 0 for row in log[:-1])
    assert log[-1]["loss"] == 0
    assert run_transitive_fixed_point(env)[1] == 8
    np.testing.assert_array_equal(q.params, oracle_q_table(env, 0.99))


def test_exact_stop_rule_holds_at_small_gamma():
    """At gamma 0.5 the far pairs of a 200-cell corridor hold values far
    below 1e-13 (0.5^199), and at gamma 0.01 gamma^d underflows to 0 past
    d = 161 in both tables; the run still sweeps every distance."""
    env = build_grid_env(200, 1)
    for gamma in (0.5, 0.01):
        q, log = train_run(env, None, LearnerConfig(method="exact", gamma=gamma))
        assert len(log) == 9
        np.testing.assert_array_equal(q.params, oracle_q_table(env, gamma))


@pytest.mark.parametrize("method", STOCHASTIC_METHODS)
def test_train_run_calls_the_module_level_step(small_world, monkeypatch, method):
    """The method table looks each update function up in gclab.learners at
    call time, so rebinding the module attribute (as a tracer does) sees
    every step."""
    env, ds = small_world
    name = f"{method}_update_step"
    original = getattr(learners, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(learners, name, counted)
    train_run(env, ds, LearnerConfig(method=method, steps=3, batch_size=8, learning_rate=0.1))
    assert len(calls) == 3


@pytest.mark.parametrize("method", STOCHASTIC_METHODS)
def test_a_run_is_a_prefix_of_any_longer_run(small_world, method):
    """Batches are drawn in whole chunks of CHUNK_STEPS steps, so a run's
    random stream does not depend on its step count: logging every step,
    a 20-step run's log is the first 20 rows of a 40-step run's."""
    env, ds = small_world
    cfg = LearnerConfig(
        method=method, steps=40, log_every=1, batch_size=16, learning_rate=0.1, M_subgoals=3
    )
    _, log40 = train_run(env, ds, cfg)
    _, log20 = train_run(env, ds, replace(cfg, steps=20))
    assert len(log40) == 40
    assert log20 == log40[:20]


@pytest.mark.parametrize("method", STOCHASTIC_METHODS)
def test_statistics_are_read_only_on_logged_steps_and_change_nothing(small_world, method):
    """A step returns its statistics unevaluated; reading them on every step
    or on the first and last only gives byte-identical tables and rows."""
    env, ds = small_world
    cfg = LearnerConfig(method=method, steps=37, batch_size=16, learning_rate=0.1, M_subgoals=3)
    q_every, log_every = train_run(env, ds, replace(cfg, log_every=1))
    q_rare, log_rare = train_run(env, ds, replace(cfg, log_every=10**6))
    assert q_every.params.tobytes() == q_rare.params.tobytes()
    assert log_rare == [log_every[0], log_every[-1]]


def test_training_is_bit_deterministic(small_world):
    env, ds = small_world
    for method in STOCHASTIC_METHODS:
        cfg = LearnerConfig(method=method, steps=40, batch_size=32, learning_rate=0.1, seed=3)
        q1, log1 = train_run(env, ds, cfg)
        q2, log2 = train_run(env, ds, cfg)
        np.testing.assert_array_equal(q1.params, q2.params)
        assert log1 == log2


def test_every_method_trains_without_blowup(small_world):
    env, ds = small_world
    for method in STOCHASTIC_METHODS:
        cfg = LearnerConfig(method=method, steps=200, batch_size=64, learning_rate=0.2, seed=0)
        q, log = train_run(env, ds, cfg)
        assert np.isfinite(q.params).all(), method
        assert len(log) >= 1


def test_a_diverging_run_is_refused_at_its_first_overflowing_step():
    """gciql on a 4x1 corridor at lr 0.9 overflows within 200 steps: the run
    is refused at that step, naming it and numpy's message, with no
    RuntimeWarning."""
    env = build_grid_env(4, 1)
    ds = collect_dataset(env, 100, 64, seed=0)
    cfg = LearnerConfig(method="gciql", learning_rate=0.9, kappa=0.9, tau_target=0.01,
                        batch_size=256, steps=200)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ValueError, match=r"^training overflowed at step \d+: overflow "):
            train_run(env, ds, cfg)


def test_every_learner_field_has_one_setting_row():
    """Each LearnerConfig field is the one learner.* row of _SETTINGS, with
    the field's default and its rule: the range its declaration states for a
    number, the methods for method."""
    rows = {key: row for key, row in _SETTINGS.items() if key.startswith("learner.")}
    assert list(rows) == [f"learner.{f.name}" for f in fields(LearnerConfig)]
    for f in fields(LearnerConfig):
        rule = tuple(learners.METHODS) if f.name == "method" else f.metadata["interval"]
        assert rows[f"learner.{f.name}"] == (f.default, rule)
    assert LearnerConfig(**block_settings("learner", {})) == LearnerConfig()


def test_env_and_dataset_rows_and_gamma_read_their_owners_rules():
    """Each env.* and dataset.* row of _SETTINGS is required and holds the
    very rule its owner checks, in the owner's order; learners' gamma rule is
    oracle's, and the seeds and n_values rows hold the rules that the seed and
    n_step fields declare: each of these rules is written once."""
    for block, owner in (("env", env_mod), ("dataset", dataset_mod)):
        rows = {key: row for key, row in _SETTINGS.items() if key.startswith(f"{block}.")}
        assert list(rows) == [f"{block}.{name}" for name in owner._INTERVALS]
        for name, rule in owner._INTERVALS.items():
            default, row_rule = rows[f"{block}.{name}"]
            assert default is None and row_rule is rule
    declared = {f.name: f.metadata.get("interval") for f in fields(LearnerConfig)}
    assert declared["gamma"] is oracle.GAMMA_INTERVAL
    assert _SETTINGS["seeds"][1] is declared["seed"]
    assert _SETTINGS["n_values"][1] is declared["n_step"]


def test_coe_requires_coordinates():
    """check_run, the one check of the rule, refuses the run, and train_run
    makes that check first."""
    transition = np.array([[1], [0]])
    env = GraphEnv(2, 1, transition)  # no coords
    ds = collect_dataset(env, 4, 4, seed=0)
    cfg = LearnerConfig(method="coe", beta_goal_reg=1.0, steps=10)
    for run in (check_run, train_run):
        with pytest.raises(ConfigError, match="'learner.beta_goal_reg'"):
            run(env, ds, cfg)


def test_a_stochastic_method_needs_a_dataset():
    """check_run refuses a run that would sample from no dataset; exact reads
    none."""
    env = build_grid_env(3, 1)
    with pytest.raises(ConfigError, match="method 'mc' requires a dataset"):
        train_run(env, None, LearnerConfig(method="mc", steps=1))
    check_run(env, None, LearnerConfig(method="exact"))


def test_trl_needs_horizon_two(small_world):
    env, _ = small_world
    ds = collect_dataset(env, 4, 1, seed=0)
    with pytest.raises(ConfigError):
        train_run(env, ds, LearnerConfig(method="trl", steps=1))


def test_select_tasks_deterministic_and_spread():
    env = build_grid_env(8, 1)
    dist = all_pairs_distances(env)
    tasks = select_tasks(dist, 5)
    assert tasks == select_tasks(dist, 5)
    dists = [int(dist[s, g]) for s, g in tasks]
    assert min(dists) >= 1
    assert max(dists) == 7  # corridor diameter reached


def select_tasks_by_sorting(d, num_tasks, min_distance):
    """The task pairs as first defined: sort every candidate pair by
    (distance, start, goal) and take evenly spaced quantile positions."""
    starts, goals = np.nonzero((d != UNREACHABLE) & (d >= min_distance))
    if starts.size == 0:
        raise ConfigError("no candidate pair")
    order = np.lexsort((goals, starts, d[starts, goals]))
    starts, goals = starts[order], goals[order]
    positions = sorted(set(np.round(np.linspace(0, starts.size - 1, num_tasks)).astype(int)))
    return [(int(starts[p]), int(goals[p])) for p in positions]


def two_component_env():
    """A 5-state corridor beside a 4-state one-way ring: no pair across."""
    transition = np.array([[0, 1], [0, 2], [1, 3], [2, 4], [3, 4], [6, 5], [7, 6], [8, 7], [5, 8]])
    return GraphEnv(9, 2, transition)


TASK_GRAPHS = {
    "walled grid": lambda: build_grid_env(7, 6, walls=[(3, y) for y in range(5)] + [(5, 2)]),
    "disconnected": two_component_env,
    **{f"random {seed}": (lambda seed=seed: random_graph_env(40, 2, seed)) for seed in range(3)},
}


@pytest.mark.parametrize("graph", list(TASK_GRAPHS))
def test_select_tasks_equals_the_sorted_selection(graph):
    d = all_pairs_distances(TASK_GRAPHS[graph]())
    if graph != "walled grid":
        assert (d == UNREACHABLE).any()
    for min_distance in (0, 1, 5, int(d.max())):
        for num_tasks in (1, 5, d.size + 3):
            try:
                expected = select_tasks_by_sorting(d, num_tasks, min_distance)
            except ConfigError:
                with pytest.raises(ConfigError, match="eval.min_task_distance"):
                    select_tasks(d, num_tasks, min_distance)
                continue
            assert select_tasks(d, num_tasks, min_distance) == expected, (min_distance, num_tasks)
    with pytest.raises(ConfigError, match="eval.min_task_distance"):
        select_tasks(d, 5, int(d.max()) + 1)


def test_evaluate_start_equals_goal(small_world):
    env, ds = small_world
    q = oracle_table(env)
    beh = estimate_behavior_policy(ds, env)
    dist = all_pairs_distances(env)
    spec = block_settings("eval", {"episodes": 4})
    report = evaluate_policy(env, q, beh, dist, [(3, 3)], spec, 0)
    assert report.tasks[0]["success_rate"] == 1.0


def test_evaluate_oracle_greedy_all_tasks(small_world):
    env, ds = small_world
    q = oracle_table(env)
    beh = estimate_behavior_policy(ds, env)
    dist = all_pairs_distances(env)
    tasks = select_tasks(dist, 5)
    spec = block_settings("eval", {"episodes": 3, "max_steps_factor": 1})
    report = evaluate_policy(env, q, beh, dist, tasks, spec, 0)
    assert all(row["success_rate"] == 1.0 for row in report.tasks)
    assert report.spearman_to_oracle == pytest.approx(1.0, abs=1e-12)


def test_evaluate_unreachable_goal():
    transition = np.minimum(np.arange(3) + 1, 2).reshape(-1, 1)  # one-way chain
    env = GraphEnv(3, 1, transition)
    q = oracle_table(env)
    dist = all_pairs_distances(env)
    spec = block_settings("eval", {"episodes": 3})
    report = evaluate_policy(env, q, None, dist, [(2, 0)], spec, 0)
    assert report.tasks[0]["success_rate"] == 0.0


def greedy_walk(env, q, start, goal) -> list[int]:
    """The greedy walk from ``start`` until it stands on ``goal`` or on a
    state it has visited before, after which it only cycles."""
    path = [start]
    while path[-1] != goal and path[-1] not in path[:-1]:
        action = greedy_action_batch(q, np.array([path[-1]]), np.array([goal]))[0]
        path.append(int(env.transition[path[-1], action]))
    return path


def test_greedy_budget_stops_at_S_minus_1(small_world):
    """A greedy rollout's budget is capped at S - 1 steps: success is that
    of the whole budget, and the largest factor allowed ends at once."""
    env, _ = small_world
    dist = all_pairs_distances(env)
    tasks = select_tasks(dist, 40)
    rng = np.random.default_rng(0)
    shape = (env.num_states, env.num_actions, env.num_states)
    outcomes = set()
    largest = int(_SETTINGS["eval.max_steps_factor"][1][:-1].split(",")[1])
    for q in [ValueTable(rng.normal(0.0, 3.0, shape), 0.9) for _ in range(4)]:
        for factor in (1, 4, largest):
            spec = block_settings("eval", {"max_steps_factor": factor})
            report = evaluate_policy(env, q, None, dist, tasks, spec, 0)
            for row, (start, goal) in zip(report.tasks, tasks):
                budget = max(1, factor * int(dist[start, goal]))
                want = float(goal in greedy_walk(env, q, start, goal)[: budget + 1])
                assert row["success_rate"] == want
                outcomes.add(want)
    assert outcomes == {0.0, 1.0}


def greedy_eval_tables(shape):
    """Random logits; integer logits, whose rows tie; and logits with NaN
    rows, whole and partial."""
    rng = np.random.default_rng(5)
    tied = rng.integers(0, 2, shape).astype(np.float64)
    nan = rng.normal(0.0, 3.0, shape)
    nan[np.broadcast_to(rng.random((shape[0], 1, shape[2])) < 0.3, shape)] = np.nan  # whole rows
    nan[rng.random(shape) < 0.1] = np.nan  # single entries
    return [ValueTable(rng.normal(0.0, 3.0, shape), 0.9), ValueTable(tied, 0.9), ValueTable(nan, 0.9)]


@pytest.mark.parametrize("env", [
    build_grid_env(5, 4, walls=[(1, 1), (2, 1), (3, 2), (1, 3)]),
    random_graph_env(20, 3, seed=4),
], ids=["walled_grid", "random_graph"])
def test_greedy_eval_by_successor_column_equals_stepwise_rollout(env, monkeypatch):
    """Every greedy eval row equals the walk that asks greedy_action_batch
    one state per step (greedy_walk), on tied and NaN rows, at budgets 1 (factor 1 at
    distance 0 or 1) and S - 1 (the largest factor), start == goal tasks
    included; the eval makes exactly one greedy_action_batch call per task."""
    dist = all_pairs_distances(env)
    tasks = select_tasks(dist, 60, min_distance=0)
    assert any(start == goal for start, goal in tasks)
    calls = []

    def counting_greedy(q, states, goals):
        calls.append(1)
        return greedy_action_batch(q, states, goals)

    monkeypatch.setattr(harness, "greedy_action_batch", counting_greedy)
    largest = int(_SETTINGS["eval.max_steps_factor"][1][:-1].split(",")[1])
    budgets, outcomes = set(), set()
    for q in greedy_eval_tables((env.num_states, env.num_actions, env.num_states)):
        for factor in (1, 2, largest):
            spec = block_settings("eval", {"max_steps_factor": factor, "episodes": 3})
            calls.clear()
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                report = evaluate_policy(env, q, None, dist, tasks, spec, 0)
            assert len(calls) == len(tasks)
            for row, (start, goal) in zip(report.tasks, tasks):
                budget = min(max(1, factor * int(dist[start, goal])), env.num_states - 1)
                want = float(goal in greedy_walk(env, q, start, goal)[: budget + 1])
                assert (row["start"], row["goal"], row["episodes"]) == (start, goal, 3)
                assert row["success_rate"] == want
                budgets.add(budget)
                outcomes.add(want)
    assert {1, env.num_states - 1} <= budgets
    assert outcomes == {0.0, 1.0}


def test_spearman_penalizes_scrambled_values(small_world):
    env, _ = small_world
    q = oracle_table(env)
    rho_oracle = spearman_to_oracle(q, all_pairs_distances(env))
    scrambled = ValueTable(
        np.random.default_rng(0).uniform(0.01, 0.99, size=q.params.shape), 0.99, space="value"
    )
    rho_bad = spearman_to_oracle(scrambled, all_pairs_distances(env))
    assert rho_oracle > 0.99 > rho_bad


@pytest.mark.parametrize("space", ["logit", "value"])
def test_evaluation_leaves_the_table_as_it_was(small_world, space):
    """A value table's values_at hands out views of its params: the oracle
    agreement's running maximum and the rollouts must not write into them."""
    env, ds = small_world
    dist = all_pairs_distances(env)
    tasks = select_tasks(dist, 5)
    beh = estimate_behavior_policy(ds, env)
    shape = (env.num_states, env.num_actions, env.num_states)
    params = np.random.default_rng(3).normal(0.0, 2.0, shape)
    if space == "value":
        params = np.abs(params) / 4.0  # values above 1 too
    q = ValueTable(params, 0.9, space=space)
    before = q.params.tobytes()
    spearman_to_oracle(q, dist)
    assert q.params.tobytes() == before
    for extraction in ("greedy", "rejection"):
        spec = block_settings("eval", {"episodes": 3, "extraction": extraction})
        evaluate_policy(env, q, beh, dist, tasks, spec, 0)
        assert q.params.tobytes() == before


def sweep_config(out_dir, **overrides):
    config = {
        "out_dir": str(out_dir),
        "env": {"kind": "grid", "width": 5, "height": 1},
        "dataset": {"num_traj": 40, "T": 12, "seed": 1},
        "methods": ["trl"],
        "seeds": [0],
        "learner": {"steps": 300, "batch_size": 64, "learning_rate": 0.25, "log_every": 100},
        "eval": {"num_tasks": 3, "episodes": 5},
    }
    config.update(overrides)
    return config


def test_single_run_artifacts(tmp_path):
    out = tmp_path / "exp"
    assert run_experiment(sweep_config(out)) == 0
    run_dir = out / "runs" / "trl_seed0"
    for name in ("loss.csv", "table.bin", "eval.csv", "meta.json"):
        assert (run_dir / name).is_file(), name
    assert (out / "summary.csv").is_file()
    assert (out / "dataset.csv").is_file()

    table = load_table(str(run_dir / "table.bin"))
    assert table.params.shape == (5, 4, 5)
    meta = json.loads((run_dir / "meta.json").read_text())
    assert meta["method"] == "trl" and meta["seed"] == 0
    assert "config_hash" in meta

    header = (run_dir / "eval.csv").read_text().splitlines()[0]
    assert header == "task_id,success_rate,episodes,spearman"
    header = (run_dir / "loss.csv").read_text().splitlines()[0]
    assert header == "step,loss,mean_q"
    header = (out / "summary.csv").read_text().splitlines()[0]
    assert header == "method,task_id,mean,ci95,seeds"


def test_sweep_multi_seed_mean(tmp_path):
    out = tmp_path / "exp"
    assert run_experiment(sweep_config(out, seeds=[0, 1, 2, 3])) == 0
    lines = (out / "summary.csv").read_text().splitlines()[1:]
    rows = [line.split(",") for line in lines]
    assert all(row[4] == "4" for row in rows)  # four seeds aggregated per row
    # mean matches the per-run rows recomputed by hand
    per_run = []
    for seed in range(4):
        eval_lines = (out / "runs" / f"trl_seed{seed}" / "eval.csv").read_text().splitlines()[1:]
        per_run.append(float(eval_lines[0].split(",")[1]))
    summary_task0 = next(r for r in rows if r[1] == "0")
    assert float(summary_task0[2]) == pytest.approx(np.mean(per_run))


def test_sweep_estimates_the_behavior_policy_for_rejection_only(tmp_path, monkeypatch):
    """Greedy extraction reads no behavior policy, so a greedy sweep never
    estimates one, as ``gclab eval`` does not; a rejection sweep does once."""
    calls = []

    def counted(ds, env):
        calls.append(1)
        return estimate_behavior_policy(ds, env)

    monkeypatch.setattr(harness, "estimate_behavior_policy", counted)
    assert run_experiment(sweep_config(tmp_path / "greedy", seeds=[0, 1])) == 0
    assert calls == []
    spec = {"num_tasks": 3, "episodes": 2, "extraction": "rejection"}
    assert run_experiment(sweep_config(tmp_path / "rejection", seeds=[0, 1], eval=spec)) == 0
    assert calls == [1]


def test_td_n_sweep_labels(tmp_path):
    out = tmp_path / "exp"
    config = sweep_config(out, methods=["td_n"], n_values=[1, 5])
    assert run_experiment(config) == 0
    assert (out / "runs" / "td-1_seed0").is_dir()
    assert (out / "runs" / "td-5_seed0").is_dir()


def test_report_matches_emitted_summary(tmp_path):
    out = tmp_path / "exp"
    assert run_experiment(sweep_config(out, seeds=[0, 1])) == 0
    emitted = (out / "summary.csv").read_bytes()
    aggregate_summary(str(out))
    assert (out / "summary.csv").read_bytes() == emitted


def test_sweep_is_byte_deterministic(tmp_path):
    c1 = sweep_config(tmp_path / "a", seeds=[0, 1])
    c2 = sweep_config(tmp_path / "b", seeds=[0, 1])
    assert run_experiment(c1) == 0
    assert run_experiment(c2) == 0
    assert (tmp_path / "a" / "summary.csv").read_bytes() == (
        tmp_path / "b" / "summary.csv"
    ).read_bytes()
    for run in ("trl_seed0", "trl_seed1"):
        assert (tmp_path / "a" / "runs" / run / "eval.csv").read_bytes() == (
            tmp_path / "b" / "runs" / run / "eval.csv"
        ).read_bytes()


def test_malformed_configs_name_the_key(tmp_path):
    base = sweep_config(tmp_path / "x")
    bad = dict(base)
    del bad["methods"]
    with pytest.raises(ConfigError, match="methods"):
        run_experiment(bad)
    bad = dict(base, env={"kind": "hexagon"})
    with pytest.raises(ConfigError, match="env.kind"):
        run_experiment(bad)
    bad = dict(base, extra_key=1)
    with pytest.raises(ConfigError, match="extra_key"):
        run_experiment(bad)
    bad = dict(base, learner={"steps": 10, "bogus": 2})
    with pytest.raises(ConfigError, match="learner"):
        run_experiment(bad)
    bad = dict(base, eval={"episodes": 3, "bogus": 1})
    with pytest.raises(ConfigError, match="eval.bogus"):
        run_experiment(bad)
    bad = dict(base, eval=[1])
    with pytest.raises(ConfigError, match="'eval'"):
        run_experiment(bad)


def test_validate_config_defaults():
    config = validate_experiment_config(sweep_config("/tmp/unused"))
    assert config["eval"]["max_steps_factor"] == 4
    assert config["eval"]["episodes"] == 5  # explicit override kept
    assert [cfg.log_every for _, cfg in config["_runs"]] == [100]


def test_learner_n_step_holds_without_n_values():
    """With no n_values, learner.n_step is td_n's one step count."""
    config = sweep_config("/tmp/unused", methods=["td_n"], learner={"n_step": 3})
    runs = validate_experiment_config(config)["_runs"]
    assert [(label, cfg.n_step) for label, cfg in runs] == [("td_n", 3)]


def test_checked_in_horizon_config_builds_its_runs():
    """configs/horizon.json, the corridor comparison of trl against td-n,
    validates and builds trl, td-1, td-5 and td-10 at seeds 0-3."""
    path = Path(__file__).resolve().parents[1] / "configs" / "horizon.json"
    config = validate_experiment_config(json.loads(path.read_text()))
    runs = [(label, cfg.seed) for label, cfg in config["_runs"]]
    labels = ("trl", "td-1", "td-5", "td-10")
    assert runs == [(label, seed) for label in labels for seed in range(4)]
    n_steps = {label: cfg.n_step for label, cfg in config["_runs"] if cfg.method == "td_n"}
    assert n_steps == {"td-1": 1, "td-5": 5, "td-10": 10}


def test_recursion_csv_emission(tmp_path):
    out = tmp_path / "exp"
    config = sweep_config(out, recursion={"n_max": 64, "sim_sizes": [4], "trials": 500})
    assert run_experiment(config) == 0
    lines = (out / "recursion.csv").read_text().splitlines()
    assert lines[0] == "n,B_n,bound,C_n,sim_mean,sim_stderr"
    assert any(line.startswith("64,") for line in lines[1:])


def test_dataset_round_trip_through_sweep(tmp_path):
    out = tmp_path / "exp"
    assert run_experiment(sweep_config(out)) == 0
    env = build_grid_env(5, 1)
    ds = load_dataset(str(out / "dataset.csv"), env=env)
    assert ds.num_traj == 40 and ds.horizon == 12
