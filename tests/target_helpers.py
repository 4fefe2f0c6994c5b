"""Test helpers for the lazy Polyak target: an eager reference target, ways
to read or set a target's values in full, and hand-built step batches."""

from __future__ import annotations

import numpy as np
from scipy.special import expit

from gclab.learners import METHODS, PolyakTarget, ValueTable


class EagerTarget:
    """Reference target: a full copy of the online table that every sync
    moves entry by entry, t <- (1 - tau) t + tau q. It takes the write
    helper's bookkeeping in ``lag`` and ``scale`` and never reads it."""

    def __init__(self, online: ValueTable):
        self.online = online
        self.params = online.params.copy()
        self.lag = np.zeros_like(online.params)
        self.scale = 1.0

    def read(self, flat, online: int) -> tuple[np.ndarray, np.ndarray]:
        """``PolyakTarget.read`` from the online table and this full copy."""
        logits = np.concatenate(
            (self.online.params.reshape(-1)[flat[:online]], self.params.reshape(-1)[flat[online:]])
        )
        return logits, expit(logits) if self.online.space == "logit" else logits


def eager_sync(target: EagerTarget, tau: float) -> None:
    target.params *= 1.0 - tau
    target.params += tau * target.online.params


def target_params(target: PolyakTarget) -> np.ndarray:
    """Every entry of a lazy target, in the online table's space."""
    return target.online.params + target.scale * target.lag


def target_with_params(q: ValueTable, params) -> PolyakTarget:
    """The target of ``q`` set to hold ``params`` (scale 1)."""
    target = PolyakTarget(q)
    target.lag[...] = params - q.params
    return target


def step_batch(cfg, shape, **named):
    """One step's batch of ``cfg.method`` for a table of ``shape``, from named
    per-sample arrays: the keys of the method's draw (s_i, a_i, s_j, ... for
    trl, mc and td_n; s, a, s2, g, ... for gciql, sgt and coe), laid out by
    the method's own layout as a run's batches are."""
    arrays = {key: np.asarray(value) for key, value in named.items()}
    return METHODS[cfg.method].layout(shape, cfg, **arrays)
