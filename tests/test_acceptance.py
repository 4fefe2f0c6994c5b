"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
happen (pytest otherwise shows captured output only on failure).
"""

import contextlib
import time

import numpy as np
from scipy.special import expit, logit

from gclab.dataset import collect_dataset, sample_index_pairs
from gclab.env import GraphEnv, build_grid_env
from gclab.harness import (
    block_settings,
    evaluate_policy,
    run_experiment,
    spearman_to_oracle,
    train_run,
)
from gclab import learners
from gclab.learners import (
    LearnerConfig,
    PolyakTarget,
    ValueTable,
    _bce_loss,
    asymmetric_loss,
    expectile_weight,
    gciql_update_step,
    mc_update_step,
    step_batches,
    target_sync,
    td_n_compute_targets,
    trl_update_step,
)
from gclab.analysis import expected_recursions, simulate_recursions
from gclab.oracle import (
    UNREACHABLE,
    all_pairs_distances,
    oracle_q_table,
)
from gclab.policy import estimate_behavior_policy
from env_helpers import random_graph_env
from sweep_helpers import finite_diameter, run_transitive_fixed_point
from target_helpers import step_batch, target_params, target_with_params


@contextlib.contextmanager
def criterion(num: int, description: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num}: FAIL - {description}")
        raise
    print(f"ACCEPTANCE {num}: PASS - {description}")


def acceptance_envs():
    envs = [build_grid_env(5, 5), build_grid_env(9, 9)]
    rng = np.random.default_rng(2024)
    for seed in range(20):
        n = int(rng.integers(20, 101))
        a = int(rng.integers(2, 5))
        envs.append(random_graph_env(n, a, seed))
    return envs


def test_criterion_1_exact_operator_optimality():
    with criterion(1, "exact sweeps reach gamma^d* exactly in <= ceil(log2(diam)) sweeps"):
        started = time.perf_counter()
        for env in acceptance_envs():
            dist = all_pairs_distances(env)
            fp, sweeps = run_transitive_fixed_point(env)
            np.testing.assert_array_equal(fp, dist)
            q, _ = train_run(env, None, LearnerConfig(method="exact", gamma=0.99))
            np.testing.assert_array_equal(q.params, oracle_q_table(env, 0.99))
            diam = finite_diameter(dist)
            budget = int(np.ceil(np.log2(diam))) if diam > 1 else 0
            assert sweeps <= budget, (env.num_states, sweeps, budget)
        elapsed = time.perf_counter() - started
        assert elapsed < 5.0, f"runtime {elapsed:.2f}s exceeds 5s"


def test_criterion_2_recursion_theory():
    with criterion(2, "recursion recurrence bounded by ln(n)/ln(4/3) up to n=1e6"):
        started = time.perf_counter()
        b = expected_recursions(10**6)
        assert abs(b[1] - 0.0) <= 1e-12
        assert abs(b[2] - 1.0) <= 1e-12
        assert abs(b[3] - 2.0) <= 1e-12
        assert abs(b[4] - 8.0 / 3.0) <= 1e-12
        n = np.arange(1, 10**6 + 1)
        bound = np.log(n) / np.log(4.0 / 3.0)
        assert np.all(b[1:] <= bound + 1e-12)
        m = np.arange(2, 10**6 + 1)
        even = m % 2 == 0
        half = m // 2
        c = np.where(
            even,
            (3.0 * half * half - 2.0 * half) / np.maximum(2.0 * half - 1.0, 1.0),
            (3.0 * half + 1.0) / 2.0,
        )
        assert np.all(c <= 0.75 * m)
        for idx, size in enumerate((4, 16, 64, 256, 1024)):
            mean, stderr = simulate_recursions(size, 100_000, seed=100 + idx)
            assert abs(mean - b[size]) < 4 * max(stderr, 1e-12), (size, mean, b[size])
        elapsed = time.perf_counter() - started
        assert elapsed < 30.0, f"runtime {elapsed:.2f}s exceeds 30s"


def _expectile_bce(z, y, kappa):
    """Expectile BCE as the logit learners form it: loss and gradient wrt the
    logit z."""
    pred = expit(z)
    loss, grad = _bce_loss(pred, y), pred - y
    w = expectile_weight(pred, y, kappa)
    return w * loss, w * grad


def test_criterion_3_gradient_checks():
    with criterion(3, "analytic loss gradients match central differences to 1e-6"):
        rng = np.random.default_rng(777)
        h = 1e-7
        points = 0
        while points < 100:
            kappa = 0.5 if points % 5 == 0 else float(rng.uniform(0.5, 0.99))
            for kind in ("squared", "bce"):
                x, y = rng.uniform(0.02, 0.98, size=2)
                if abs(x - y) < 1e-3:
                    continue
                if kind == "bce":  # the BCE learners step in the logit
                    x, fn = logit(x), _expectile_bce
                else:
                    fn = asymmetric_loss
                _, grad = fn(x, y, kappa)
                lp, _ = fn(x + h, y, kappa)
                lm, _ = fn(x - h, y, kappa)
                fd = (lp - lm) / (2 * h)
                assert abs(grad - fd) / max(abs(fd), 1e-8) <= 1e-6
            points += 1


def _fit_expectile(kappa: float, gamma: float = 0.99, steps: int = 60_000) -> float:
    """Fit one table entry against the fixed two-target distribution
    {gamma^2, gamma^5} through the online update path."""
    q = ValueTable.create(5, 1, gamma)
    qt_params = ValueTable.create(5, 1, gamma).params
    qt_params[0, 0, 1] = logit(gamma)
    qt_params[1, 0, 2] = logit(gamma)
    qt_params[0, 0, 3] = logit(gamma**2)
    qt_params[3, 0, 2] = logit(gamma**3)
    qt = target_with_params(q, qt_params)
    cfg = LearnerConfig(method="trl", learning_rate=0.3, kappa=kappa)
    batch = step_batch(
        cfg, q.params.shape, s_i=[0, 0], a_i=[0, 0], s_j=[2, 2], s_k=[1, 3], a_k=[0, 0],
        gap_ik=[2, 2], gap_kj=[2, 2],
    )
    for _ in range(steps):
        trl_update_step(qt, None, batch, cfg)
    return float(expit(q.params[0, 0, 2]))


def test_criterion_4_expectile_behavior():
    with criterion(4, "fitted values nondecreasing in kappa; kappa=0.5 is the symmetric mean"):
        gamma = 0.99
        fits = [_fit_expectile(k) for k in (0.5, 0.6, 0.7, 0.9)]
        assert all(b >= a - 1e-9 for a, b in zip(fits, fits[1:])), fits
        symmetric = 0.5 * (gamma**2 + gamma**5)
        assert abs(fits[0] - symmetric) <= 1e-4


def test_criterion_5_policy_extraction():
    with criterion(5, "greedy-on-oracle reaches goals in d* steps; rejection N=32 >= 0.99"):
        # Greedy: every reachable pair, exact step counts.
        for env in (build_grid_env(5, 5), build_grid_env(9, 9),
                    build_grid_env(6, 4, walls={(2, 1), (3, 2)}),
                    random_graph_env(80, 3, seed=5)):
            dist = all_pairs_distances(env)
            q = ValueTable(oracle_q_table(env, 0.99), 0.99, space="value")
            vals = q.values()
            for s in range(env.num_states):
                for g in range(env.num_states):
                    if dist[s, g] == UNREACHABLE:
                        continue
                    cur, taken = s, 0
                    while cur != g:
                        a = int(np.argmax(vals[cur, :, g]))
                        cur = int(env.transition[cur, a])
                        taken += 1
                        assert taken <= dist[s, g], (s, g)
                    assert taken == dist[s, g], (s, g)

        # Rejection sampling over 1000 episodes on the 5x5 grid.
        env = build_grid_env(5, 5)
        dist = all_pairs_distances(env)
        q = ValueTable(oracle_q_table(env, 0.99), 0.99, space="value")
        ds = collect_dataset(env, num_traj=200, T=32, seed=1)
        beh = estimate_behavior_policy(ds, env)
        rng = np.random.default_rng(99)
        starts, goals = np.nonzero((dist != UNREACHABLE) & (dist >= 1))
        picks = rng.integers(0, starts.size, size=1000)
        tasks = [(int(starts[p]), int(goals[p])) for p in picks]
        spec = block_settings("eval", {"episodes": 1, "extraction": "rejection"})
        report = evaluate_policy(env, q, beh, dist, tasks, spec, 99)
        rate = float(np.mean([row["success_rate"] for row in report.tasks]))
        assert rate >= 0.99, rate


def _horizon_cfg(method: str, seed: int) -> LearnerConfig:
    return LearnerConfig(
        method=method,
        gamma=0.99,
        kappa=0.9,
        lambda_reweight=0.0,
        learning_rate=0.5,
        tau_target=0.01,
        batch_size=256,
        steps=15_000,
        n_step=1,
        seed=seed,
    )


def test_criterion_6_horizon_trend():
    with criterion(6, "64-cell corridor: transitive update >= td-1 on spearman and far tasks"):
        env = build_grid_env(64, 1)
        ds = collect_dataset(env, num_traj=200, T=64, seed=0)
        dist = all_pairs_distances(env)
        beh = estimate_behavior_policy(ds, env)
        far_tasks = [(s, g) for s in (0, 8, 16) for g in range(64) if dist[s, g] >= 32]
        far_tasks = far_tasks[:: max(1, len(far_tasks) // 10)]
        spec = block_settings("eval", {"episodes": 3})

        results = {}
        for method in ("trl", "td_n"):
            rhos, successes = [], []
            for seed in range(4):
                q, _ = train_run(env, ds, _horizon_cfg(method, seed))
                rhos.append(spearman_to_oracle(q, dist))
                report = evaluate_policy(env, q, beh, dist, far_tasks, spec, seed)
                successes.append(np.mean([r["success_rate"] for r in report.tasks]))
            results[method] = (float(np.mean(rhos)), float(np.mean(successes)))
        (trl_rho, trl_succ), (td_rho, td_succ) = results["trl"], results["td_n"]
        print(f"  spearman: trl={trl_rho:.4f} td-1={td_rho:.4f}; "
              f"far-task success: trl={trl_succ:.3f} td-1={td_succ:.3f}")
        assert trl_rho >= td_rho
        assert trl_succ >= td_succ


def _mc_full_support(ds):
    """Every (traj, i, j) with i <= j, exactly the uniform sampler's support,
    as mc's named batch arrays."""
    s_i, a_i, s_j, gap = [], [], [], []
    for n in range(ds.num_traj):
        for i in range(ds.horizon):
            for j in range(i, ds.horizon):
                s_i.append(ds.states[n, i])
                a_i.append(ds.actions[n, i])
                s_j.append(ds.states[n, j])
                gap.append(j - i)
    return {"s_i": np.array(s_i), "a_i": np.array(a_i), "s_j": np.array(s_j), "gap": np.array(gap)}


def test_criterion_7_fixed_point_residuals(monkeypatch):
    with criterion(7, "MC matches enumerated means; gciql residuals <= 1e-6; td-n>=T == MC"):
        # MC: full-batch descent onto the closed-form minimizer.
        env = build_grid_env(3, 1)
        ds = collect_dataset(env, num_traj=30, T=8, seed=4)
        gamma = 0.99
        q = ValueTable.create(env.num_states, env.num_actions, gamma)
        cfg = LearnerConfig(method="mc", gamma=gamma, learning_rate=0.4)
        support = _mc_full_support(ds)
        batch = step_batch(cfg, q.params.shape, **support)
        qt = PolyakTarget(q)
        for _ in range(20_000):
            mc_update_step(qt, None, batch, cfg)
        targets = np.power(gamma, support["gap"])
        entries = (support["s_i"], support["a_i"], support["s_j"])
        sums = np.zeros(q.params.shape)
        counts = np.zeros(q.params.shape)
        np.add.at(sums, entries, targets)
        np.add.at(counts, entries, 1.0)
        seen = counts > 0
        closed_form = sums[seen] / counts[seen]
        assert np.abs(q.values()[seen] - closed_form).max() <= 1e-3

        # GCIQL: residuals of both coupled equations at the SARSA fixed point.
        chain = GraphEnv(4, 1, np.minimum(np.arange(4) + 1, 3).reshape(-1, 1))
        g_chain = 0.9
        v = np.zeros((4, 4))
        qg = ValueTable(np.zeros((4, 1, 4)), g_chain, space="value")
        qt = PolyakTarget(qg)
        cfg_g = LearnerConfig(
            method="gciql", gamma=g_chain, learning_rate=0.25, kappa=0.5, tau_target=0.5
        )
        s_all, g_all = np.divmod(np.arange(16), 4)
        gbatch = step_batch(
            cfg_g, qg.params.shape, s=s_all, a=np.zeros_like(s_all),
            s2=chain.transition[s_all, 0], g=g_all,
        )
        for _ in range(30_000):
            gciql_update_step(qt, v, gbatch, cfg_g)
            target_sync(qt, cfg_g.tau_target)
        qv = qg.params[:, 0, :]
        r_q = qv - (np.eye(4) + g_chain * v[chain.transition[:, 0], :])
        r_v = v - target_params(qt)[:, 0, :]
        assert np.abs(r_q).max() <= 1e-6
        assert np.abs(r_v).max() <= 1e-6

        # TD-n with n >= T produces exactly the MC targets.
        ds2 = collect_dataset(env, num_traj=10, T=6, seed=9)
        cfg_td = LearnerConfig(method="td_n", gamma=gamma, n_step=ds2.horizon)
        q2 = ValueTable.create(env.num_states, env.num_actions, gamma)
        # poison: any bootstrap read would show up
        qt2 = target_with_params(q2, np.full_like(q2.params, 5.0))
        # The first batch a run draws; the pair sampler's draws give each gap.
        pairs = []

        def recorded(*args, **kwargs):
            pairs.append(sample_index_pairs(*args, **kwargs))
            return pairs[-1]

        monkeypatch.setattr(learners, "sample_index_pairs", recorded)
        tdb = next(step_batches(ds2, q2.params.shape, cfg_td))
        i, j = pairs[0]
        targets_td = td_n_compute_targets(qt2.read(tdb["reads"], 2)[1][2], tdb)
        np.testing.assert_array_equal(targets_td, np.power(gamma, j[0] - i[0]))
        assert np.all(tdb["clipped"])


def test_criterion_8_sweep_determinism(tmp_path):
    with criterion(8, "repeated sweep executions produce byte-identical summaries"):
        def config(out):
            return {
                "out_dir": str(out),
                "env": {"kind": "grid", "width": 6, "height": 1},
                "dataset": {"num_traj": 30, "T": 10, "seed": 2},
                "methods": ["trl", "mc"],
                "seeds": [0, 1],
                "learner": {
                    "steps": 400, "batch_size": 64, "learning_rate": 0.25, "log_every": 100
                },
                "eval": {"num_tasks": 3, "episodes": 4},
            }

        assert run_experiment(config(tmp_path / "a")) == 0
        assert run_experiment(config(tmp_path / "b")) == 0
        sa = (tmp_path / "a" / "summary.csv").read_bytes()
        sb = (tmp_path / "b" / "summary.csv").read_bytes()
        assert sa == sb and len(sa) > 0
