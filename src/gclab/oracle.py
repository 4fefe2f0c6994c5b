"""Exact temporal distances and optimal goal-conditioned values.

These tables are the ground truth every learned table is checked against.
Unreachable pairs carry the sentinel :data:`UNREACHABLE` (never a large
finite number), so the value-table conversion maps them to exactly 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import shortest_path

from .env import ConfigError, GraphEnv, adjacency_matrix

# Sentinel for "no path". Kept negative so any arithmetic misuse is loud.
UNREACHABLE = -1


@dataclass
class DistanceTable:
    """Shortest-path step counts d[s, g]; UNREACHABLE marks no path."""

    d: np.ndarray

    @property
    def num_states(self) -> int:
        return self.d.shape[0]


@dataclass
class OptimalValueTable:
    """v[s, g] = gamma ** d[s, g], with unreachable pairs at 0."""

    v: np.ndarray
    gamma: float


def all_pairs_distances(env: GraphEnv) -> DistanceTable:
    """Unit-weight shortest paths from every source over the one-step
    reachability relation (scipy's csgraph, which runs the searches in C).

    Self-loop transitions do not contribute edges, so d[s, s] = 0 always
    and no distance-1 self pairs appear.
    """
    d = shortest_path(csr_matrix(adjacency_matrix(env)), method="D", unweighted=True)
    d[np.isinf(d)] = UNREACHABLE
    return DistanceTable(d.astype(np.int64))


def optimal_value_table(dist: DistanceTable, gamma: float) -> OptimalValueTable:
    """Elementwise gamma ** d with unreachable -> 0."""
    if not (0.0 < gamma < 1.0):
        raise ConfigError(f"gamma must lie in (0, 1), got {gamma}")
    reachable = dist.d != UNREACHABLE
    v = np.zeros_like(dist.d, dtype=np.float64)
    v[reachable] = np.power(gamma, dist.d[reachable].astype(np.float64))
    return OptimalValueTable(v, gamma)


def q_table_from_values(env: GraphEnv, v: np.ndarray, gamma: float) -> np.ndarray:
    """Action values from state-goal values under the hitting-time
    convention: Q[s, a, g] = 1 when s == g (goal already reached; the action
    is moot), otherwise gamma * v(step(s, a), g)."""
    q = gamma * v[env.transition, :]  # (S, A, S); v indexed by successor state
    q[np.arange(env.num_states), :, np.arange(env.num_states)] = 1.0
    return q


def oracle_q_table(env: GraphEnv, gamma: float) -> np.ndarray:
    """Optimal action values; greedy extraction over this table follows
    shortest paths."""
    v = optimal_value_table(all_pairs_distances(env), gamma).v
    return q_table_from_values(env, v, gamma)
