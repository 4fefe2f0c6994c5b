"""Reference copies of routines that were rewritten to work in place.

Each function is the earlier form, kept verbatim apart from its name, so a
test can require the rewritten routine to give the same bits: gathers,
``np.where`` and full-size int64 or float64 temporaries where the routine
now updates its buffers in place.
"""

from __future__ import annotations

import itertools

import numpy as np

from gclab.analysis import _BLOCK
from gclab.oracle import _WORD, UNREACHABLE


def expected_recursions_gathered(n_max: int) -> np.ndarray:
    """``analysis.expected_recursions`` with int64 n, a fancy gather of
    P(n // 2) and B(n / 2), ``np.where`` for the even-n term and ``np.diff``
    for the monotone check."""
    b, p = np.zeros(n_max + 1), np.zeros(n_max + 1)  # b[n] = B(n), p[n] = P(n)
    lo = 2
    while lo <= n_max:
        hi = min(2 * lo, lo + _BLOCK, n_max + 1)
        n = np.arange(lo, hi)
        half = n // 2
        c = 1.0 - (2.0 * p[half] - np.where(n % 2 == 0, b[half], 0.0)) / (n - 1)
        h = n * (n + 1.0)
        p[lo:hi] = (p[lo - 1] / ((lo - 1) * lo) + np.cumsum(c / h)) * h
        b[lo:hi] = 2.0 * p[lo - 1 : hi - 1] / (n - 1) + c
        if np.any(np.diff(b[lo - 1 : hi]) < 0):
            raise ArithmeticError(f"B is not nondecreasing on [{lo}, {hi - 1}]")
        lo = hi
    return b


def split_points_of_sizes(u: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Split points k = 1 + floor(u (size - 1)) from chunk sizes."""
    k = u * (sizes - 1.0)
    np.floor(k, out=k)
    k += 1.0
    return k


def recursion_depths_of_sizes(n: int, trials: int, seed: int) -> np.ndarray:
    """``analysis.recursion_depths`` over the chunk sizes themselves, with a
    fresh uniform array on each level."""
    rng = np.random.default_rng(seed)
    sizes = np.full(trials if n > 1 else 0, float(n))  # the unfinished chunks
    finished = [trials - sizes.size]  # finished[level]: trials of depth level
    while sizes.size:
        k = split_points_of_sizes(rng.random(sizes.size), sizes)
        sizes -= k
        np.maximum(sizes, k, out=sizes)
        keep = sizes > 1.0
        sizes = sizes[keep]
        finished.append(keep.size - sizes.size)
    return np.repeat(np.arange(len(finished), dtype=np.int64), finished)


def all_pairs_distances_int64(env) -> np.ndarray:
    """``oracle.all_pairs_distances`` with every digit plane unpacked,
    widened to int64 and shifted before it is added."""
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

    d = np.zeros((n, n), dtype=np.int64)
    for bit, plane in enumerate(planes):
        d += unpack(plane).astype(np.int64) << bit
    d[unpack(reached) == 0] = UNREACHABLE
    return d


def implied_distances_copying(values, gamma: float) -> np.ndarray:
    """``oracle.implied_distances`` with a new array for every step."""
    return np.maximum(np.log(np.maximum(values, 1e-300)) / np.log(gamma), 0.0)


def _average_ranks(x: np.ndarray) -> np.ndarray:
    order = np.argsort(x)
    xs = x[order]
    starts = np.flatnonzero(np.concatenate(([True], xs[1:] != xs[:-1])))
    counts = np.diff(starts, append=x.size)
    ranks = np.empty(x.size)
    ranks[order] = np.repeat(starts + 1 + (counts - 1) / 2, counts)
    return ranks


def _counted_ranks(x: np.ndarray) -> np.ndarray:
    counts = np.bincount(x)
    return (np.cumsum(counts) - counts + (counts + 1) / 2)[x]


def spearman_to_oracle_stacked(q, d: np.ndarray) -> float:
    """``harness.spearman_to_oracle`` holding every array to the end and
    stacking the two rank vectors with ``np.vstack``."""
    best = np.full(d.shape, -np.inf)
    for a in range(q.params.shape[1]):
        np.maximum(best, q.values_at((slice(None), a, slice(None))), out=best)
    flat = d.reshape(-1)
    pairs = np.flatnonzero(flat != UNREACHABLE)
    implied = implied_distances_copying(best.reshape(-1)[pairs], q.gamma)
    true = flat[pairs]
    constant = true.size < 2 or (implied == implied[0]).all() or (true == true[0]).all()
    if constant or np.isnan(implied).any():
        return 0.0
    ranked = np.vstack((_average_ranks(implied), _counted_ranks(true)))
    return float(np.corrcoef(ranked)[1, 0])


def table_file_bytes(table) -> bytes:
    """The bytes ``learners.save_table`` writes, built with ``tobytes``."""
    header = np.array(
        [*table.params.shape, 0 if table.space == "logit" else 1], dtype=np.int64
    )
    return (
        header.tobytes()
        + np.float64(table.gamma).tobytes()
        + np.ascontiguousarray(table.params).tobytes()
    )
