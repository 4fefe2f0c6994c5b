"""Test helpers for the lazy Polyak target: an eager reference, and ways to
read or set a target's values in full."""

from __future__ import annotations

import numpy as np
from scipy.special import expit

from gclab import learners
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

    def values_at(self, idx) -> np.ndarray:
        params = self.params[idx]
        return expit(params) if self.online.space == "logit" else params


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


def run_steps(env, ds, cfg, make_target, sync):
    """``harness.train_run``'s update loop with a chosen target and sync;
    returns the online table and its target."""
    method = METHODS[cfg.method]
    rng = np.random.default_rng(cfg.seed)
    q = ValueTable.create(env.num_states, env.num_actions, cfg.gamma, space=method.space)
    target = make_target(q)
    state = method.state(env, q, cfg)
    update = getattr(learners, f"{cfg.method}_update_step")
    for _ in range(cfg.steps):
        update(target, state, method.batch(ds, cfg, rng), cfg)
        sync(target, cfg.tau_target)
    return q, target
