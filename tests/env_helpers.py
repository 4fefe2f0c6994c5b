"""Test helpers that build and write environments."""

from __future__ import annotations

import numpy as np

from gclab.env import GraphEnv


def random_graph_env(num_states: int, num_actions: int, seed: int) -> GraphEnv:
    """Random deterministic graph: each (s, a) maps to a uniform random state."""
    rng = np.random.default_rng(seed)
    transition = rng.integers(0, num_states, size=(num_states, num_actions), dtype=np.int64)
    return GraphEnv(num_states, num_actions, transition)


def star_env(legs: int, length: int = 1) -> GraphEnv:
    """A hub (state 0) with ``legs`` >= 2 two-way paths of ``length`` states
    each: the hub has one action to the first state of each leg, and a leg
    state has an inward and an outward action (the last state's outward
    action stays), repeated to fill the actions. Seen from a leg's first
    state, the first state of every other leg lies exactly two steps away."""
    num_states = 1 + legs * length
    state = np.arange(1, num_states)
    first = (state - 1) % length == 0
    transition = np.empty((num_states, legs), dtype=np.int64)
    transition[0] = 1 + length * np.arange(legs)
    transition[1:] = np.where(first, 0, state - 1)[:, None]
    transition[1:, 1] = np.where((state - 1) % length == length - 1, state, state + 1)
    return GraphEnv(num_states, legs, transition)


def save_env(env: GraphEnv, path: str) -> None:
    """Write the transition table in the plain-text format ``load_env`` reads:
    header line, then one row per state."""
    with open(path, "w") as fh:
        fh.write(f"{env.num_states} {env.num_actions}\n")
        for s in range(env.num_states):
            fh.write(" ".join(str(int(t)) for t in env.transition[s]) + "\n")
