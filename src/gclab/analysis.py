"""Recursion-count analysis for random-midpoint divide and conquer.

The quantity of interest is the expected number of backup recursions
needed to resolve a length-n chunk when the split point is uniform:

    B(1) = 0
    B(n) = 1 + (1 / (n-1)) * sum_{k=1}^{n-1} max(B(k), B(n-k))

Evaluated exactly by dynamic programming. When B is nondecreasing (checked
element by element, never assumed), max(B(k), B(n-k)) = B(max(k, n-k)) and
each step collapses to a prefix-sum lookup over the upper half range, which
makes the whole table O(n). A Monte Carlo simulator of the underlying
random process provides an independent estimate of the same expectations,
and the closed-form companion sequence C(n) backs the logarithmic bound
B(n) <= ln n / ln(4/3).
"""

from __future__ import annotations

import math
from array import array
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .env import ConfigError

# Switch the prefix accumulation to compensated (Kahan) summation above this
# size so bound checks at n = 10^6 are not polluted by summation drift.
_KAHAN_THRESHOLD = 100_000


@dataclass
class RecursionTable:
    """Exact B values; b[0] is unused padding so b[n] is B(n)."""

    b: np.ndarray
    monotone: bool

    @property
    def n_max(self) -> int:
        return len(self.b) - 1


def expected_recursions(n_max: int) -> RecursionTable:
    """Evaluate the recursion-count recurrence exactly up to n_max.

    The fast path uses the upper-half prefix-sum identity
    sum_k max(B(k), B(n-k)) = 2 * sum_{m > n/2} B(m) + [n even] B(n/2),
    valid while B has stayed nondecreasing. Monotonicity is verified after
    every step; on the first violation the remaining steps downgrade to the
    O(n) direct pairwise maximum (correct regardless of shape).
    """
    if n_max < 1:
        raise ConfigError(f"n_max must be >= 1, got {n_max}")
    # Flat float64 storage, 8 bytes an entry. The bytes of b rest on the
    # float operations below and their order, not on the container.
    b = array("d", bytes(8 * (n_max + 1)))
    prefix = array("d", bytes(8 * (n_max + 1)))  # prefix[m] = sum_{t <= m} b[t]
    comp = 0.0  # Kahan compensation for the running prefix sum
    monotone = True
    b_last = 0.0  # b[n - 1]
    p_last = 0.0  # prefix[n - 1]
    for n in range(2, n_max + 1):
        if monotone:
            upper = p_last - prefix[n // 2]
            total = 2.0 * upper + (b[n // 2] if n % 2 == 0 else 0.0)
        else:
            total = sum(max(b[k], b[n - k]) for k in range(1, n))
        bn = 1.0 + total / (n - 1)
        b[n] = bn
        if monotone and bn < b_last:
            monotone = False
        if n >= _KAHAN_THRESHOLD:
            y = bn - comp
            t = p_last + y
            comp = (t - p_last) - y
            p_last = t
        else:
            p_last = p_last + bn
        prefix[n] = p_last
        b_last = bn
    # b[1] = 0 seeds prefix[1] = 0 implicitly; fill for completeness.
    return RecursionTable(np.array(b), monotone)


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


def simulate_recursions(n: int, trials: int, seed: int) -> tuple[float, float]:
    """Monte Carlo estimate of B(n) with its standard error.

    Each trial follows the recursion along its deepest branch: split the
    current chunk at a uniform point and keep the larger half (the branch
    whose expected depth dominates, B being nondecreasing), counting one
    backup per split. The mean of this single-path depth equals B(n)
    exactly under monotonicity, which expected_recursions verifies.
    """
    if n < 1:
        raise ConfigError(f"n must be >= 1, got {n}")
    _check_sim_draws(trials, seed)
    rng = np.random.default_rng(seed)
    sizes = np.full(trials, n, dtype=np.int64)
    depth = np.zeros(trials, dtype=np.int64)
    while True:
        active = sizes > 1
        if not active.any():
            break
        cur = sizes[active]
        k = rng.integers(1, cur)  # uniform split point in 1..cur-1
        sizes[active] = np.maximum(k, cur - k)
        depth[active] += 1
    mean = float(depth.mean())
    stderr = float(depth.std(ddof=1) / np.sqrt(trials)) if trials > 1 else 0.0
    return mean, stderr


def check_sim_sizes(n_max: int, sim_sizes: Sequence[int]) -> None:
    """Raise ConfigError unless every simulated size lies in 1..n_max."""
    for n in sim_sizes:
        if not 1 <= n <= n_max:
            raise ConfigError(f"simulation size {n} is outside 1..n_max ({n_max})")


def _check_sim_draws(trials: int, seed: int) -> None:
    """Raise ConfigError unless the simulation's trials and seed are valid."""
    if trials < 1:
        raise ConfigError(f"trials must be >= 1, got {trials}")
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")


def recursion_report_rows(
    n_max: int, sim_sizes: Sequence[int], trials: int, seed: int
) -> list[dict]:
    """Rows for the analysis CSV: n, B_n, bound, C_n, sim_mean, sim_stderr.

    Reported n values are 1..16, powers of two, n_max itself and every
    simulated size; simulation columns are filled only for the simulated
    sizes, which must lie in 1..n_max. Every simulation argument is checked
    before the table is built.
    """
    check_sim_sizes(n_max, sim_sizes)
    _check_sim_draws(trials, seed)
    table = expected_recursions(n_max)
    ns = sorted(
        {n for n in range(1, min(16, n_max) + 1)}
        | {1 << p for p in range(0, 21) if (1 << p) <= n_max}
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
                "B_n": float(table.b[n]),
                "bound": recursion_bound(n),
                "C_n": c_sequence(n) if n >= 2 else float("nan"),
                "sim_mean": mean,
                "sim_stderr": stderr,
            }
        )
    return rows
