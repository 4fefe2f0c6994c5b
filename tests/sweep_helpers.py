"""Test helper: run the exact max-product sweeps to their fixed point."""

from __future__ import annotations

import numpy as np

from gclab.learners import transitive_sweeps


def run_transitive_fixed_point(
    env, gamma: float, max_sweeps: int | None = None, tol: float = 1e-13
) -> tuple[np.ndarray, int]:
    """The fixed point of ``learners.transitive_sweeps`` and the number of
    sweeps that changed the table by more than ``tol``."""
    changed = 0
    for v, delta in transitive_sweeps(env, gamma, max_sweeps, tol):
        changed += delta > tol
    return v, changed
