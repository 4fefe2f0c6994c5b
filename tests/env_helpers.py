"""Test helpers that build and write environments."""

from __future__ import annotations

import numpy as np

from gclab.env import GraphEnv


def random_graph_env(num_states: int, num_actions: int, seed: int) -> GraphEnv:
    """Random deterministic graph: each (s, a) maps to a uniform random state."""
    rng = np.random.default_rng(seed)
    transition = rng.integers(0, num_states, size=(num_states, num_actions), dtype=np.int64)
    return GraphEnv(num_states, num_actions, transition)


def save_env(env: GraphEnv, path: str) -> None:
    """Write the transition table in the plain-text format ``load_env`` reads:
    header line, then one row per state."""
    with open(path, "w") as fh:
        fh.write(f"{env.num_states} {env.num_actions}\n")
        for s in range(env.num_states):
            fh.write(" ".join(str(int(t)) for t in env.transition[s]) + "\n")
