"""Policy extraction from learned value tables.

Greedy extraction takes the argmax action; rejection sampling draws N
actions from an estimated behavior policy and keeps the one the value
table ranks highest. Ties always resolve to the lowest action index.

The behavior policy keeps each state's CDF, built once from the smoothed
counts, and a rejection draw reads its state's row: N uniforms placed in
that row by ``searchsorted``, which is what ``Generator.choice`` does with
``p``, draw for draw, without rebuilding and validating ``p`` on each call.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dataset import TrajectoryDataset
from .env import GraphEnv
from .learners import ValueTable


@dataclass
class BehaviorPolicy:
    """Per-state action frequencies with add-one smoothing.

    Unvisited states fall back to the uniform distribution automatically
    (all-zero counts smooth to 1/num_actions each). ``cdf`` holds each
    state's cumulative probabilities, divided by the last one: the two
    operations ``Generator.choice`` applies to ``p``.
    """

    counts: np.ndarray  # (S, A) visit counts
    cdf: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        cdf = self.row_probs(slice(None)).cumsum(axis=1)
        self.cdf = cdf / cdf[:, -1:]

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
    at s, return the Q-argmax among the drawn set (ties -> lowest index).
    The draws are those of ``rng.choice(A, size=N, p=beh.row_probs(s))``:
    the same N uniforms, placed in the same CDF."""
    cdf = beh.cdf[s]
    draws = cdf.searchsorted(rng.random(N), side="right")
    drawn = np.zeros(cdf.size, dtype=bool)
    drawn[draws] = True
    scores = np.where(drawn, q.values_at((s, slice(None), g)), -np.inf)
    return int(np.argmax(scores))
