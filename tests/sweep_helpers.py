"""Test helpers for the exact (min, +) sweeps."""

from __future__ import annotations

import numpy as np

from gclab.learners import transitive_sweeps
from gclab.oracle import UNREACHABLE


def run_transitive_fixed_point(env) -> tuple[np.ndarray, int]:
    """The fixed point of ``learners.transitive_sweeps`` (distances, with
    UNREACHABLE for no path) and the number of sweeps that shortened a pair."""
    changed = 0
    for d, shortened in transitive_sweeps(env):
        changed += shortened > 0
    return d, changed


def naive_sweep(d: np.ndarray) -> np.ndarray:
    """Reference (min, +) sweep: every sum d[s, w] + d[w, g] at once."""
    return np.minimum(d, (d[:, :, None] + d[None, :, :]).min(axis=1))


def finite_diameter(d: np.ndarray) -> int:
    """Largest finite distance of ``d`` (0 for a single-state or edgeless env)."""
    finite = d[d != UNREACHABLE]
    return int(finite.max()) if finite.size else 0
