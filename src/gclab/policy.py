"""Policy extraction from learned value tables.

Greedy extraction takes the argmax action; rejection sampling draws N
actions from an estimated behavior policy and keeps the one the value
table ranks highest. Ties always resolve to the lowest action index.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import TrajectoryDataset
from .env import GraphEnv
from .learners import ValueTable


@dataclass
class BehaviorPolicy:
    """Per-state action frequencies with add-one smoothing.

    Unvisited states fall back to the uniform distribution automatically
    (all-zero counts smooth to 1/num_actions each).
    """

    counts: np.ndarray  # (S, A) visit counts

    def row_probs(self, s) -> np.ndarray:
        """Smoothed action probabilities of state row(s) ``s`` only."""
        smoothed = self.counts[s] + 1.0
        return smoothed / smoothed.sum(axis=-1, keepdims=True)


def estimate_behavior_policy(ds: TrajectoryDataset, env: GraphEnv) -> BehaviorPolicy:
    """Count (state, action) visits over every stored transition."""
    counts = np.zeros((env.num_states, env.num_actions), dtype=np.int64)
    np.add.at(counts, (ds.states[:, :-1].ravel(), ds.actions.ravel()), 1)
    return BehaviorPolicy(counts)


def greedy_action_batch(q: ValueTable, states: np.ndarray, goals: np.ndarray) -> np.ndarray:
    return q.values_at((states, slice(None), goals)).argmax(axis=1)


def rejection_sample_action(
    q: ValueTable,
    beh: BehaviorPolicy,
    s: int,
    g: int,
    N: int,
    rng: np.random.Generator,
) -> int:
    """Best-of-N behavioral sample: draw N >= 1 actions from the behavior policy
    at s, return the Q-argmax among the drawn set (ties -> lowest index)."""
    probs = beh.row_probs(s)
    draws = rng.choice(probs.size, size=N, p=probs)
    drawn = np.zeros(probs.size, dtype=bool)
    drawn[draws] = True
    scores = np.where(drawn, q.values_at((s, slice(None), g)), -np.inf)
    return int(np.argmax(scores))
