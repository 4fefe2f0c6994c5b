"""Exact temporal distances and optimal goal-conditioned values.

These tables are the ground truth every learned table is checked against.
Unreachable pairs carry the sentinel :data:`UNREACHABLE` (never a large
finite number), so the value-table conversion maps them to exactly 0.
"""

from __future__ import annotations

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import shortest_path

from .env import ConfigError, GraphEnv, adjacency_matrix

# Sentinel for "no path". Kept negative so any arithmetic misuse is loud.
UNREACHABLE = -1


def all_pairs_distances(env: GraphEnv) -> np.ndarray:
    """Unit-weight shortest-path step counts d[s, g] as an int64 (S, S)
    array, UNREACHABLE where no path exists. scipy's csgraph runs the
    searches in C over the one-step reachability relation.

    Self-loop transitions do not contribute edges, so d[s, s] = 0 always
    and no distance-1 self pairs appear.
    """
    d = shortest_path(csr_matrix(adjacency_matrix(env)), method="D", unweighted=True)
    d[np.isinf(d)] = UNREACHABLE
    return d.astype(np.int64)


def optimal_value_table(d: np.ndarray, gamma: float) -> np.ndarray:
    """Elementwise gamma ** d as float64, with UNREACHABLE pairs at 0."""
    if not (0.0 < gamma < 1.0):
        raise ConfigError(f"gamma must lie in (0, 1), got {gamma}")
    return np.power(gamma, d, out=np.zeros(d.shape), where=d != UNREACHABLE)


def q_table_from_values(env: GraphEnv, v: np.ndarray, gamma: float) -> np.ndarray:
    """Action values from state-goal values under the hitting-time
    convention: Q[s, a, g] = 1 when s == g (goal already reached; the action
    is moot), otherwise gamma * v(transition[s, a], g)."""
    q = gamma * v[env.transition, :]  # (S, A, S); v indexed by successor state
    q[np.arange(env.num_states), :, np.arange(env.num_states)] = 1.0
    return q


def oracle_q_table(env: GraphEnv, gamma: float) -> np.ndarray:
    """Optimal action values; greedy extraction over this table follows
    shortest paths."""
    v = optimal_value_table(all_pairs_distances(env), gamma)
    return q_table_from_values(env, v, gamma)
