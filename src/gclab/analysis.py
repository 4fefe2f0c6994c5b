"""Recursion-count analysis for random-midpoint divide and conquer.

The quantity of interest is the expected number of backup recursions
needed to resolve a length-n chunk when the split point is uniform:

    B(1) = 0
    B(n) = 1 + (1 / (n-1)) * sum_{k=1}^{n-1} max(B(k), B(n-k))

Evaluated exactly in float64. While B is nondecreasing (checked per block,
never assumed), max(B(k), B(n-k)) = B(max(k, n-k)), so B(n) needs only
prefix sums of B up to n // 2. A block of n within [lo, 2 lo) thus reads
only earlier blocks, through slices, and is a few in-place numpy passes:
about 250 blocks up to 10^6. A Monte Carlo simulator of the underlying
random process provides an independent estimate of the same expectations,
updating one buffer per level in place, and the closed-form companion
sequence C(n) backs the logarithmic bound B(n) <= ln n / ln(4/3).
"""

from __future__ import annotations

import math
from collections.abc import Sequence

import numpy as np

from .env import ConfigError

# expected_recursions fills B in blocks [lo, hi) with hi <= 2 lo, so n // 2
# lies below the block for every n in it, and hi - lo <= _BLOCK, so each
# cumsum adds few terms and no temporary outgrows 32 KB.
_BLOCK = 4096


def expected_recursions(n_max: int) -> np.ndarray:
    """Evaluate the recursion-count recurrence exactly up to n_max, as a
    float64 array b of length n_max + 1 with b[n] = B(n) (b[0] is unused).

    With P(n) = B(1) + ... + B(n), the upper-half identity
    sum_k max(B(k), B(n-k)) = 2 (P(n-1) - P(n//2)) + [n even] B(n/2) gives
    B(n) = 2 P(n-1) / (n-1) + c(n), c(n) = 1 - (2 P(n//2) - [n even] B(n/2)) / (n-1),
    so P(n) / (n (n+1)) is a cumulative sum of c(n) / (n (n+1)). A block
    takes c from earlier blocks, P from that sum and B from the direct form,
    never as a difference of P, which would lose B to the rounding of P.
    The identity needs B nondecreasing below n, so a block that is not
    raises ArithmeticError.
    """
    b, p = np.zeros(n_max + 1), np.zeros(n_max + 1)  # b[n] = B(n), p[n] = P(n)
    lo = 2
    while lo <= n_max:
        hi = min(2 * lo, lo + _BLOCK, n_max + 1)
        # One float arange gives n - 1 and n (n + 1), exact below 2^53. lo is
        # 2, a power of two or a multiple of _BLOCK, so even: n = lo + 2i and
        # lo + 2i + 1 share P(n // 2), and every other n is even.
        a = np.arange(lo - 1, hi + 1, dtype=np.float64)
        m, h = a[:-2], a[1:-1] * a[2:]  # n - 1 and n (n + 1)
        c = np.repeat(p[lo // 2 : (hi + 1) // 2], 2)[: hi - lo]
        c *= 2.0
        c[::2] -= b[lo // 2 : lo // 2 + (hi - lo + 1) // 2]  # odd n: x - 0.0 == x
        c /= m
        np.subtract(1.0, c, out=c)
        block_p = p[lo:hi]
        np.divide(c, h, out=block_p)
        np.cumsum(block_p, out=block_p)
        block_p += p[lo - 1] / ((lo - 1) * lo)
        block_p *= h
        block_b = b[lo:hi]
        np.multiply(p[lo - 1 : hi - 1], 2.0, out=block_b)
        block_b /= m
        block_b += c
        if (block_b < b[lo - 1 : hi - 1]).any():
            raise ArithmeticError(f"B is not nondecreasing on [{lo}, {hi - 1}]")
        lo = hi
    return b


def recursion_bound(n: int) -> float:
    """Logarithmic bound ln(n) / ln(4/3)."""
    if n < 1:
        raise ConfigError(f"n must be >= 1, got {n}")
    return math.log(n) / math.log(4.0 / 3.0)


def c_sequence(n: int) -> float:
    """Average of max(k, n-k) over k = 1..n-1, via the closed forms
    (3m^2 - 2m) / (2m - 1) for n = 2m and (3m + 1) / 2 for n = 2m + 1."""
    if n < 2:
        raise ValueError(f"c_sequence needs n >= 2, got {n}")
    m = n // 2
    if n % 2 == 0:
        return (3.0 * m * m - 2.0 * m) / (2.0 * m - 1.0)
    return (3.0 * m + 1.0) / 2.0


def split_points(u: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Uniform split offsets f = floor(u r) in 0..r-1, written into ``u``,
    for uniforms ``u`` in [0, 1) and chunks of r + 1 >= 2 elements given as
    float64 ``r``: the chunk splits at k = f + 1 in 1..r, into r - f and
    f + 1 elements.

    u is a multiple of 2**-53, so each f's probability is 1 / r to within
    about 2**-53, a bias of at most about r * 2**-53 in all. A float
    product u * r with u < 1 rounds below the integer r, so f never
    reaches r.
    """
    u *= r
    return np.floor(u, out=u)


def recursion_depths(n: int, trials: int, seed: int) -> np.ndarray:
    """The depths of ``trials`` simulated recursions of size n, as an int64
    array in ascending order.

    Each trial follows the recursion along its deepest branch: split the
    current chunk at a uniform point and keep the larger half (the branch
    whose expected depth dominates, B being nondecreasing), counting one
    backup per split. The trials are exchangeable, so only the unfinished
    ones are kept, each as r = chunk size - 1, an exact integer in float64,
    and the depths are the numbers of trials that finish at each level.
    Each level fills one buffer with a uniform per unfinished trial, splits
    at :func:`split_points` in place and keeps r <- max(r - f - 1, f), the
    larger half less one.
    """
    rng = np.random.default_rng(seed)
    r = np.full(trials if n > 1 else 0, n - 1.0)  # the unfinished chunks, less one
    u = np.empty(r.size)
    finished = [trials - r.size]  # finished[level]: trials of depth level
    while r.size:
        f = split_points(rng.random(out=u[: r.size]), r)
        r -= f
        r -= 1.0
        np.maximum(r, f, out=r)
        keep = r > 0.0
        r = r[keep]
        finished.append(keep.size - r.size)
    return np.repeat(np.arange(len(finished), dtype=np.int64), finished)


def simulate_recursions(n: int, trials: int, seed: int) -> tuple[float, float]:
    """Monte Carlo estimate of B(n) with its standard error: the mean of
    :func:`recursion_depths`, which equals B(n) exactly under monotonicity,
    as expected_recursions verifies."""
    depth = recursion_depths(n, trials, seed)
    mean = float(depth.mean())
    stderr = float(depth.std(ddof=1) / np.sqrt(trials)) if trials > 1 else 0.0
    return mean, stderr


def check_sim_sizes(n_max: int, sim_sizes: Sequence[int]) -> None:
    """Raise ConfigError naming ``recursion.sim_sizes`` if a simulated size
    exceeds n_max; the recursion block's rules check each setting alone."""
    largest = max(sim_sizes, default=n_max)
    if largest > n_max:
        raise ConfigError(f"config key 'recursion.sim_sizes': {largest} is above n_max ({n_max})")


def recursion_report_rows(
    n_max: int, sim_sizes: Sequence[int], trials: int, seed: int
) -> list[dict]:
    """Rows for the analysis CSV: n, B_n, bound, C_n, sim_mean, sim_stderr.

    Reported n values are 1..16, every power of two up to n_max, n_max
    itself and every simulated size; simulation columns are filled only for
    the simulated sizes, which must lie in 1..n_max. The arguments are
    those of the ``recursion`` block as the harness checks it.
    """
    b = expected_recursions(n_max)
    ns = sorted(
        {n for n in range(1, min(16, n_max) + 1)}
        | {1 << p for p in range(int(n_max).bit_length())}
        | {n_max}
        | set(sim_sizes)
    )
    sims = {n: simulate_recursions(n, trials, seed + idx) for idx, n in enumerate(sim_sizes)}
    rows = []
    for n in ns:
        mean, stderr = sims.get(n, (None, None))
        rows.append(
            {
                "n": n,
                "B_n": float(b[n]),
                "bound": recursion_bound(n),
                "C_n": c_sequence(n) if n >= 2 else float("nan"),
                "sim_mean": mean,
                "sim_stderr": stderr,
            }
        )
    return rows
