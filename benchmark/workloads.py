"""Sweep configs for the benchmark workloads.

Each workload is one `gclab sweep` config. The workload seed sets only the
seeds inside the config (``dataset.seed``, the learner ``seeds`` and, where
present, ``recursion.seed``); everything else is fixed, so gclab sees only
generated JSON and two seeds differ in nothing but their random streams.
"""

from __future__ import annotations

import copy

# The README's learner settings for the horizon experiment.
README_LEARNER = {
    "gamma": 0.99,
    "kappa": 0.9,
    "lambda_reweight": 0.0,
    "learning_rate": 0.5,
    "tau_target": 0.01,
    "batch_size": 256,
}

# BENCHMARK.json says why each workload is here; the layers each stresses:
_BASE = {
    # Small table (64*4*64 entries), many cheap steps: the fixed cost per
    # step (sampling, batch assembly, dispatch, target sync) and one greedy
    # (s, g) query per rollout step dominate.
    "corridor64": {
        "env": {"kind": "grid", "width": 64, "height": 1},
        "dataset": {"num_traj": 200, "T": 64},
        "methods": ["trl", "td_n", "mc"],
        "n_values": [1, 10],
        "learner": {**README_LEARNER, "steps": 2000},
        "eval": {"num_tasks": 5, "episodes": 5, "max_steps_factor": 4, "extraction": "greedy"},
    },
    # 16x larger table: the full-table sigmoid and Polyak sync dominate
    # training and rollout steps; covers gciql/sgt/coe and the only
    # stochastic extraction.
    "grid16": {
        "env": {"kind": "grid", "width": 16, "height": 16},
        "dataset": {"num_traj": 100, "T": 64},
        "methods": ["trl", "gciql", "sgt", "coe"],
        "learner": {**README_LEARNER, "steps": 100},
        "eval": {
            "num_tasks": 5,
            "episodes": 2,
            "max_steps_factor": 2,
            "extraction": "rejection",
            "rejection_n": 32,
        },
    },
    # No stochastic training: O(S^3) max-product sweeps, the BFS oracle and
    # the O(n) recursion table; the largest peak memory.
    "exact24": {
        "env": {"kind": "grid", "width": 24, "height": 24},
        "dataset": {"num_traj": 50, "T": 32},
        "methods": ["exact"],
        "learner": dict(README_LEARNER),
        "eval": {"num_tasks": 5, "episodes": 15, "max_steps_factor": 4, "extraction": "greedy"},
        "recursion": {"n_max": 10**6, "sim_sizes": [4, 64, 1024, 65536], "trials": 10**5},
    },
}

WORKLOADS = tuple(_BASE)


def make_config(workload: str, seed: int, out_dir: str) -> dict:
    """The sweep config of ``workload`` for workload seed ``seed``."""
    config = {"out_dir": out_dir, **copy.deepcopy(_BASE[workload])}
    config["dataset"]["seed"] = seed
    config["seeds"] = [seed]
    if "recursion" in config:
        config["recursion"]["seed"] = seed
    return config


def run_names(config: dict) -> list[str]:
    """Run directory names the sweep creates, in the harness's label scheme."""
    labels = []
    for method in config["methods"]:
        if method == "td_n" and config.get("n_values"):
            labels += [f"td-{n}" for n in config["n_values"]]
        else:
            labels.append(method)
    return [f"{label}_seed{seed}" for label in labels for seed in config["seeds"]]
