"""Exact temporal distances and optimal goal-conditioned values.

These tables are the ground truth every learned table is checked against.
Unreachable pairs carry the sentinel :data:`UNREACHABLE` (never a large
finite number), so the value-table conversion maps them to exactly 0. The
distance table is assembled in the narrowest unsigned dtype that holds its
levels and widened to int64 once, so no full-size int64 temporary is made.
"""

from __future__ import annotations

import itertools

import numpy as np

from .env import GraphEnv, check_number

# Sentinel for "no path". Kept negative so any arithmetic misuse is loud.
UNREACHABLE = -1

# Bit sets over states are rows of little-endian 64-bit words: state g is
# bit g % 64 of word g // 64, so a uint8 view unpacks in state order.
_WORD = np.dtype("<u8")

# The range of the discount gamma, for every reader of it: learners takes it
# as its gamma rule, since oracle cannot import learners.
GAMMA_INTERVAL = "(0, 1)"


def all_pairs_distances(env: GraphEnv) -> np.ndarray:
    """Unit-weight shortest-path step counts d[s, g] as an int64 (S, S)
    array, UNREACHABLE where no path exists.

    A breadth-first search from every start at once, over bit sets: row s of
    ``frontier`` holds the goals at the current level from s, so the next
    level is the union over actions a of ``frontier[transition[s, a]]``
    less the goals s has reached. A level costs O(S * A * S / 64) word
    operations, and the search ends after the largest finite distance. Each
    pair's level is kept as binary-digit planes of bit sets. Each plane is
    unpacked once, to one byte per pair, and ORed into the levels in the
    narrowest unsigned dtype that holds len(planes) bits (uint8 up to level
    255); the levels are widened to int64 at the end.

    Self-loop transitions add no goal, so d[s, s] = 0 always and no
    distance-1 self pairs appear.
    """
    n = env.num_states
    states = np.arange(n)
    reached = np.zeros((n, -(-n // 64)), dtype=_WORD)
    reached[states, states // 64] = np.uint64(1) << (states % 64).astype(np.uint64)
    frontier = reached.copy()
    planes = []  # planes[b]: the pairs whose level has binary digit b set
    for level in itertools.count(1):
        frontier = np.bitwise_or.reduce(frontier[env.transition], axis=1) & ~reached
        if not frontier.any():
            break
        reached |= frontier
        for bit in range(level.bit_length()):
            if level >> bit & 1:
                if bit == len(planes):
                    planes.append(np.zeros_like(reached))
                planes[bit] |= frontier

    def unpack(bits: np.ndarray) -> np.ndarray:
        return np.unpackbits(bits.view(np.uint8), axis=1, count=n, bitorder="little")

    # The planes are disjoint digits, so OR and + agree.
    levels = np.zeros((n, n), dtype=np.min_scalar_type((1 << len(planes)) - 1))
    for bit, plane in enumerate(planes):
        levels |= unpack(plane).astype(levels.dtype, copy=False) << bit
    d = levels.astype(np.int64)
    d[unpack(reached) == 0] = UNREACHABLE
    return d


def optimal_value_table(d: np.ndarray, gamma: float) -> np.ndarray:
    """Elementwise gamma ** d as float64 for an integer table ``d``, with
    UNREACHABLE pairs at 0: each entry is read from the powers gamma ** 0 ..
    gamma ** max(d) and a final 0, which UNREACHABLE (-1) indexes, so it
    equals np.power's value at the cost of max(d) + 1 powers. ``d`` may have
    any shape and integer dtype: the count of powers is a Python int, so a
    narrow table holding its dtype's maximum (int8 127, uint8 255) reads
    every power up to it.

    It is the lab's one gamma ** d: the exact method, the oracle tables and
    the td_n and mc batches read it. At small gamma the values cannot
    hold long distances: at gamma = 0.01, gamma ** d is 0 past d = 161, in
    the exact and the oracle tables alike, so greedy extraction ties there."""
    check_number("gamma", gamma, "float", interval=GAMMA_INTERVAL)
    return np.append(np.power(gamma, np.arange(int(d.max(initial=0)) + 1)), 0.0)[d]


def implied_distances(values, gamma: float, out: np.ndarray | None = None) -> np.ndarray:
    """log_gamma of ``values``, the inverse of :func:`optimal_value_table`:
    a value of 0 reads as log_gamma(1e-300), values of 1 or more as 0.
    An array is converted in place in ``out``, or else in its first
    temporary; a scalar or 0-d input gives a numpy scalar."""
    x = np.maximum(values, 1e-300, out=out)
    if np.ndim(x) == 0:
        return np.maximum(np.log(x) / np.log(gamma), 0.0)
    np.log(x, out=x)
    x /= np.log(gamma)
    return np.maximum(x, 0.0, out=x)


def q_table_from_values(env: GraphEnv, v: np.ndarray, gamma: float) -> np.ndarray:
    """Action values from state-goal values under the hitting-time
    convention: Q[s, a, g] = 1 when s == g (goal already reached; the action
    is moot), otherwise gamma * v(transition[s, a], g)."""
    q = v[env.transition, :]  # (S, A, S); v indexed by successor state
    q *= gamma
    q[np.arange(env.num_states), :, np.arange(env.num_states)] = 1.0
    return q


def oracle_q_table(env: GraphEnv, gamma: float) -> np.ndarray:
    """Optimal action values; greedy extraction over this table follows
    shortest paths."""
    v = optimal_value_table(all_pairs_distances(env), gamma)
    return q_table_from_values(env, v, gamma)
