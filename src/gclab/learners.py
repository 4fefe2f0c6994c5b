"""Tabular value-update rules over a shared goal-conditioned table.

All dataset-driven learners operate on dense tables Q[s, a, g]. Methods
trained with the binary cross-entropy loss store logits and read values
through a sigmoid, which keeps Q inside (0, 1); the squared-loss SARSA
learner (gciql) stores raw values because its fixed point exceeds 1 at
goal states. One exact method runs full-table (min, +) sweeps over step
counts instead of consuming data.

Update convention: ``learning_rate`` is the per-sample step size (the
classic tabular convention). A step first reads everything it needs from
the pre-step tables, then writes its Q entries in one call, every term's
entries in a fixed order, so runs are bit-reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Callable

import numpy as np

from .dataset import (
    RelabelRatios,
    TrajectoryDataset,
    sample_flat_states,
    sample_index_pairs,
    sample_relabeled_goal_batch,
    sample_triplet_batch,
)
from .env import ConfigError, GraphEnv, adjacency_matrix, check_number, open_input

# Logit clamp: keeps sigmoid outputs strictly inside (0, 1) in float64
# (sigmoid(30) = 1 - 9.4e-14) while leaving room for implied distances of
# several thousand steps at gamma = 0.99.
LOGIT_CLAMP = 30.0

# PolyakTarget folds its scale into its lag once the scale falls below this.
# At tau = 0.005 that happens about every 46 000 steps.
_MIN_TARGET_SCALE = 1e-100


@np.errstate(over="ignore")  # exp(-x) is inf below x = -709.78; 1 / inf is the exact 0
def _sigmoid(x: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-x)) elementwise, into a new array.

    ``x`` is a float64 array, not a scalar, and may be a view of a table
    (``values_at`` with basic indices), so the negation makes the array
    that exp, + 1 and the reciprocal then overwrite.
    """
    z = np.negative(x)
    np.exp(z, out=z)
    z += 1.0
    return np.reciprocal(z, out=z)


def _as_values(params: np.ndarray, space: str) -> np.ndarray:
    return _sigmoid(params) if space == "logit" else params


@dataclass
class ValueTable:
    """Dense goal-conditioned action-value table.

    params holds logits when space == "logit" (values read through a
    sigmoid, hence in (0, 1)) and raw values when space == "value". It is
    kept C-contiguous, so ``params.reshape(-1)`` is a view that writes reach.
    """

    params: np.ndarray
    gamma: float
    space: str = "logit"

    def __post_init__(self):
        if self.space not in ("logit", "value"):
            raise ConfigError(f"unknown table space {self.space!r}")
        if not (0.0 < self.gamma < 1.0):
            raise ConfigError(f"gamma must lie in (0, 1), got {self.gamma}")
        self.params = np.ascontiguousarray(self.params, dtype=np.float64)
        if self.params.ndim != 3:
            raise ConfigError("value table must be (states, actions, goals)")

    @classmethod
    def create(
        cls,
        num_states: int,
        num_actions: int,
        gamma: float,
        space: str = "logit",
        init_logit: float = -3.0,
    ) -> "ValueTable":
        """Pessimistic initialization: logit -3 puts Q near 0.047."""
        params = np.full((num_states, num_actions, num_states), float(init_logit))
        if space == "value":  # the value that logit reads as
            params = _sigmoid(params)
        return cls(params, gamma, space)

    def values(self) -> np.ndarray:
        """The whole table as values: a full S*A*S pass, meant for analysis."""
        return self.values_at(...)

    def values_at(self, idx) -> np.ndarray:
        """Values at ``params[idx]`` only: gather first, then the sigmoid.
        ``idx`` selects an array; one entry is ``values_at((s, a, [g]))``.

        Bit-identical to ``values()[idx]`` (the sigmoid is elementwise) at a
        cost that grows with the number of entries read, not with the table.
        """
        return _as_values(self.params[idx], self.space)

    def implied_distances(self, idx) -> np.ndarray:
        """log_gamma Q at ``params[idx]``, clamped below at 0 (values above 1
        read as distance 0)."""
        v = np.maximum(self.values_at(idx), 1e-300)
        return np.maximum(np.log(v) / np.log(self.gamma), 0.0)


class PolyakTarget:
    """The Polyak-averaged target of an online table, kept lazily.

    The target is ``online.params + scale * lag``, starting equal to the
    online table. A Polyak step t <- (1 - tau) t + tau q leaves
    t - q = (1 - tau) (t_prev - q): with every online write folded into
    ``lag`` (see :func:`_apply_logit_updates`), the step only multiplies
    ``scale`` by 1 - tau (:func:`target_sync`), and the lag changes only
    where the online table changed. Reads and writes cost O(entries
    touched), whatever the table size.
    """

    def __init__(self, online: ValueTable):
        self.online = online
        self.lag = np.zeros_like(online.params)
        self.scale = 1.0

    def values_flat(self, flat) -> np.ndarray:
        """Target values at the flat indices ``flat`` of the table (see
        :func:`_flat`), gathered first, then read like ``ValueTable.values_at``."""
        params = self.online.params.reshape(-1)[flat] + self.scale * self.lag.reshape(-1)[flat]
        return _as_values(params, self.online.space)


@dataclass
class LearnerConfig:
    """Scalars governing a training run; defaults follow the standard recipe."""

    method: str = "trl"
    gamma: float = 0.99
    kappa: float = 0.7
    lambda_reweight: float = 0.0
    learning_rate: float = 3e-4
    tau_target: float = 0.005
    batch_size: int = 256
    steps: int = 200_000
    n_step: int = 1
    M_subgoals: int = 8
    P_random_distance: int = 500
    beta_goal_reg: float = 1.0
    ratios: RelabelRatios = field(default_factory=RelabelRatios)
    seed: int = 0

    def __post_init__(self):
        for f in fields(self):  # annotations are strings: this module postpones them
            if f.type in ("int", "float"):
                check_number(f"learner field '{f.name}'", getattr(self, f.name), f.type)
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.method not in METHODS:
            raise ConfigError(f"unknown method {self.method!r}; expected one of {tuple(METHODS)}")
        if not (0.0 < self.gamma < 1.0):
            raise ConfigError(f"gamma must lie in (0, 1), got {self.gamma}")
        if not (0.5 <= self.kappa < 1.0):
            raise ConfigError(f"kappa must lie in [0.5, 1), got {self.kappa}")
        if self.lambda_reweight < 0:
            raise ConfigError(f"lambda_reweight must be >= 0, got {self.lambda_reweight}")
        if self.learning_rate <= 0:
            raise ConfigError(f"learning_rate must be positive, got {self.learning_rate}")
        if not (0.0 < self.tau_target <= 1.0):
            raise ConfigError(f"tau_target must lie in (0, 1], got {self.tau_target}")
        if self.batch_size < 1 or self.steps < 0:
            raise ConfigError("need batch_size >= 1 and steps >= 0")
        if self.n_step < 1:
            raise ConfigError(f"n_step must be >= 1, got {self.n_step}")
        if self.M_subgoals < 1 or self.P_random_distance < 1:
            raise ConfigError("need M_subgoals >= 1 and P_random_distance >= 1")
        if self.beta_goal_reg < 0:
            raise ConfigError(f"beta_goal_reg must be >= 0, got {self.beta_goal_reg}")
        if isinstance(self.ratios, dict):
            self.ratios = RelabelRatios(**self.ratios)
        if not isinstance(self.ratios, RelabelRatios):
            raise ConfigError(f"learner field 'ratios' must be an object, got {self.ratios!r}")


# ---------------------------------------------------------------------------
# Losses


def expectile_weight(pred, target, kappa: float) -> np.ndarray:
    """Per-sample expectile weight: kappa where the prediction sits at or
    below the target, 1 - kappa where it sits above, so kappa > 0.5
    penalizes under-predictions harder and the minimizer moves toward an
    upper expectile of the targets."""
    return np.where(pred > target, 1.0 - kappa, kappa)


def asymmetric_loss(x_pred, y_target, kappa: float):
    """Expectile squared loss weight * (x - y)^2 and its gradient with
    respect to the prediction, elementwise: the value-space loss of gciql's
    V step. Returns (loss, dloss_dx)."""
    if not (0.5 <= kappa < 1.0):
        raise ConfigError(f"kappa must lie in [0.5, 1), got {kappa}")
    weight = expectile_weight(x_pred, y_target, kappa)
    diff = x_pred - y_target
    return weight * diff * diff, weight * 2.0 * diff


def _bce_loss(pred, target):
    """Plain BCE loss; target may touch 0 or 1. Its gradient with respect to
    the logit is ``pred - target``, which the steps form on every step; the
    loss itself is computed only when a step's statistics are read.

    pred must come from a clamped sigmoid, so logs stay finite.
    """
    return -(target * np.log(pred) + (1.0 - target) * np.log1p(-pred))


def reweight_factor(q_value, gamma: float, lam: float) -> np.ndarray:
    """Distance-based weight 1 / (1 + log_gamma q)^lam.

    The implied distance is clamped to [0, 4 / (1 - gamma)] before use, so
    near-zero q early in training cannot zero the weight.
    """
    if lam < 0:
        raise ConfigError(f"lambda must be >= 0, got {lam}")
    dist = np.log(np.maximum(q_value, 1e-300)) / np.log(gamma)
    dist = np.clip(dist, 0.0, 4.0 / (1.0 - gamma))
    return np.power(1.0 + dist, -lam)


# ---------------------------------------------------------------------------
# Exact (min, +) sweeps over step counts

# Distances in the sweep table are int16. "No path yet" is above any distance
# of a table of at most _NO_PATH states, and a sum of two of them still fits.
_DIST_DTYPE = np.int16
_NO_PATH = np.iinfo(_DIST_DTYPE).max // 2
# A sweep forms its sums in tiles of _TILE_ROWS rows s by _TILE_W rows w, so
# one tile's temporary (8 x 32 x S int16, 0.3 MB at S = 576) stays in a
# per-core L2 cache.
_TILE_ROWS = 8
_TILE_W = 32


def exact_transitive_sweep(d: np.ndarray) -> tuple[np.ndarray, int]:
    """One Jacobi sweep of the (min, +) backup over an int16 distance table.

    Every entry of the result reads only the input table:
    new[s, g] = min(d[s, g], min_w d[s, w] + d[w, g]). Integer sums and
    minima are exact, so the tiling changes no entry, and neither does the
    skip of a tile whose d[s, w] block holds no path (its sums are all at
    least _NO_PATH). Returns the new table and the number of pairs it shortened.
    """
    n = d.shape[0]
    new = d.copy()
    for lo in range(0, n, _TILE_ROWS):
        rows = slice(lo, lo + _TILE_ROWS)
        for w_lo in range(0, n, _TILE_W):
            w = slice(w_lo, w_lo + _TILE_W)
            blk = d[rows, w]
            if blk.min() == _NO_PATH:
                continue
            sums = blk[:, :, None] + d[w]
            np.minimum(new[rows], sums.min(axis=1), out=new[rows])
    return new, int(np.count_nonzero(new != d))


def transitive_sweeps(env: GraphEnv):
    """Jacobi (min, +) sweeps from the base table (0 on the diagonal, 1 on
    one-step edges): yields ``(d, shortened)`` after each sweep, with ``d`` the
    sweep's int16 table (_NO_PATH, which is at least S, for no path), and
    stops after the first sweep that shortens no pair. More than _NO_PATH
    states raise ConfigError before any S x S array.

    After k sweeps every pair at distance <= 2^k holds its distance, so a
    table of finite diameter D needs ceil(log2 D) sweeps plus the one that
    finds nothing to shorten. Every other sweep lowers a non-negative
    integer table, so the loop needs no sweep limit.
    """
    if env.num_states > _NO_PATH:
        raise ConfigError(f"exact sweeps take at most {_NO_PATH} states, got {env.num_states}")
    d = np.full((env.num_states, env.num_states), _NO_PATH, dtype=_DIST_DTYPE)
    d[adjacency_matrix(env)] = 1
    np.fill_diagonal(d, 0)
    while True:
        d, shortened = exact_transitive_sweep(d)
        yield d, shortened
        if shortened == 0:
            return


# ---------------------------------------------------------------------------
# Stochastic update steps (one gradient step per call)
#
# A step reads and writes the tables only at the flat indices its batch
# carries (see the layouts below). It reads first, all from the pre-step
# tables, then writes its Q entries in one _apply_logit_updates call, and
# returns its statistics unevaluated: a zero-argument callable that
# harness.train_run calls on logged steps only.


def _flat(shape, s, a, g):
    """Flat index (s * A + a) * G + g of entry (s, a, g) of a C-contiguous
    (S, A, G) table, elementwise over index arrays of any shape."""
    return (s * shape[1] + a) * shape[2] + g


def _apply_logit_updates(target: PolyakTarget, flat, grads, lr: float) -> None:
    """Scatter-add the steps at the 1-D flat indices ``flat`` into the
    target's online table, clip the touched entries of a logit table, and
    move the lag so the target stays put. A step makes one call with the
    entries of all its terms, term after term: a shared entry sums its
    steps in that order, then is clipped once.

    Untouched entries need no clip: training tables start inside the clamp
    (``ValueTable.create``) and only entries named by some ``flat`` move.
    Every copy of a duplicated index carries the same move, so the plain
    fancy assignment of the lag is right where ``np.add.at`` is needed for
    the steps.
    """
    params = target.online.params.reshape(-1)
    before = params[flat]
    np.add.at(params, flat, -lr * grads)
    after = params[flat]
    if target.online.space == "logit":  # np.clip's bits at a third of its cost
        np.minimum(np.maximum(after, -LOGIT_CLAMP, out=after), LOGIT_CLAMP, out=after)
        params[flat] = after
    target.lag.reshape(-1)[flat] -= (after - before) / target.scale


def trl_update_step(target: PolyakTarget, state, batch: dict, cfg: LearnerConfig):
    """Divide-and-conquer update: regress Q(s_i, a_i, s_j) onto the product
    of the two target-table halves through the in-trajectory subgoal s_k.

    Segments of length <= 1 substitute the exact base value gamma^len for
    the target factor. The BCE loss is weighted per sample by the expectile
    weight times the distance-based reweight factor; target factors are
    constants.
    """
    ij = batch["ij"]
    pred = _sigmoid(target.online.params.reshape(-1)[ij])
    # Both target halves in one read: (s_i, a_i, s_k) and (s_k, a_k, s_j).
    f1, f2 = np.where(batch["is_base"], batch["base"], target.values_flat(batch["halves"]))
    y = f1 * f2
    w = expectile_weight(pred, y, cfg.kappa)
    if cfg.lambda_reweight != 0:  # the factor is exactly 1.0 at lambda = 0
        w = reweight_factor(pred, cfg.gamma, cfg.lambda_reweight) * w
    _apply_logit_updates(target, ij, w * (pred - y), cfg.learning_rate)
    return lambda: {
        "loss": float(np.mean(w * _bce_loss(pred, y))),
        "mean_q": float(np.mean(pred)),
        "max_target": float(y.max()),
    }


def mc_update_step(target: PolyakTarget, state, batch: dict, cfg: LearnerConfig):
    """Regress Q(s_i, a_i, s_j) toward gamma^(j-i) with a symmetric squared
    loss on the sigmoid output (chain rule through the logit). mc reads no
    target values; it writes through the target like every other learner."""
    ij, y = batch["ij"], batch["target"]
    pred = _sigmoid(target.online.params.reshape(-1)[ij])
    diff = pred - y
    _apply_logit_updates(target, ij, 2.0 * diff * pred * (1.0 - pred), cfg.learning_rate)
    return lambda: {
        "loss": float(np.mean(diff * diff)),
        "mean_q": float(np.mean(pred)),
        "max_target": float(y.max()),
    }


def td_n_compute_targets(target: PolyakTarget, batch: dict) -> np.ndarray:
    """n-step bootstrap target gamma^n_eff * Qbar(s_{i+n_eff}, a_{i+n_eff}, g).

    n_eff = min(n, j - i); when the unclipped n would overshoot j the
    bootstrap factor is replaced by 1, so the boundary target is exactly
    gamma^(j-i).
    """
    boot = np.where(batch["clipped"], 1.0, target.values_flat(batch["boot"]))
    return batch["discount"] * boot


def td_n_update_step(target: PolyakTarget, state, batch: dict, cfg: LearnerConfig):
    """n-step bootstrapped update: a plain BCE anchor at the current state
    (target gamma^0) plus an expectile BCE term toward the n-step target."""
    online = batch["online"].reshape(-1)  # anchors (s_i, a_i, s_i), then goals (s_i, a_i, g)
    pred0, pred1 = _sigmoid(target.online.params.reshape(-1)[online]).reshape(2, -1)
    y = td_n_compute_targets(target, batch)
    weight = expectile_weight(pred1, y, cfg.kappa)
    grads = np.concatenate((pred0 - 1.0, weight * (pred1 - y)))
    _apply_logit_updates(target, online, grads, cfg.learning_rate)
    return lambda: {
        "loss": float(np.mean(_bce_loss(pred0, 1.0) + weight * _bce_loss(pred1, y))),
        "mean_q": float(np.mean(pred1)),
        "max_target": float(y.max()),
    }


def gciql_update_step(target: PolyakTarget, v: np.ndarray, batch: dict, cfg: LearnerConfig):
    """SARSA-style coupled update in raw value space; ``v`` is the
    C-contiguous V(s, g) table.

    V(s, g) chases Qbar(s, a, g) through the expectile squared loss;
    Q(s, a, g) chases I(s = g) + gamma * V(s', g) through a symmetric
    squared loss. Both gradients read the pre-step tables.
    """
    sag, sg = batch["sag"], batch["sg"]
    v_flat = v.reshape(-1)
    loss_v, grad_v = asymmetric_loss(v_flat[sg], target.values_flat(sag), cfg.kappa)
    qv = target.online.params.reshape(-1)[sag]
    y = batch["at_goal"] + cfg.gamma * v_flat[batch["s2g"]]
    diff = qv - y
    np.add.at(v_flat, sg, -cfg.learning_rate * grad_v)
    _apply_logit_updates(target, sag, 2.0 * diff, cfg.learning_rate)
    return lambda: {
        "loss": float(np.mean(loss_v + diff * diff)),
        "mean_q": float(np.mean(qv)),
        "max_target": float(y.max()),
    }


def sgt_update_step(target: PolyakTarget, state, batch: dict, cfg: LearnerConfig):
    """Subgoal-tree update with a hard max over M sampled candidates.

    Four summed terms: an anchor at the current state (gamma^0), a one-step
    term (gamma^1, restricted to genuine edges), a far-away prior pushing
    random goals toward gamma^P, and the triangle term whose target is the
    best product of target-table halves over the candidate set.
    """
    online = batch["online"].reshape(-1)  # the four terms' entries, term after term
    pred0, pred1, predr, predg = _sigmoid(target.online.params.reshape(-1)[online]).reshape(4, -1)
    # One-step base case applies to edges only; self-loop transitions in the
    # data would otherwise fight the gamma^0 anchor on the same entry.
    edge = batch["edge"]
    prior = np.power(cfg.gamma, cfg.P_random_distance)
    half_sw, half_wg = target.values_flat(batch["cand"])
    tri_target = (half_sw * half_wg).max(axis=1)
    grads = (pred0 - 1.0, edge * (pred1 - cfg.gamma), predr - prior, predg - tri_target)
    _apply_logit_updates(target, online, np.concatenate(grads), cfg.learning_rate)

    def stats():
        loss = _bce_loss(pred0, 1.0) + edge * _bce_loss(pred1, cfg.gamma)
        loss = loss + _bce_loss(predr, prior) + _bce_loss(predg, tri_target)
        return {
            "loss": float(np.mean(loss)),
            "mean_q": float(np.mean(predg)),
            "max_target": float(tri_target.max()),
        }

    return stats


def coe_update_step(target: PolyakTarget, state: tuple, batch: dict, cfg: LearnerConfig):
    """Generator-guided triangle update; ``state`` is the
    ``(generator, policy_fn, coords)`` triple of :func:`_coe_state`.

    The generator step is a discrete hill-climb: score the incumbent
    subgoal w and M sampled candidates by the target-value product through
    them (each subgoal's action from the greedy policy) minus beta times
    the squared coordinate distance to a random goal, and keep the best,
    replacing the incumbent only on strict improvement. The Q step sums the
    one-step edge term with a triangle term toward the incumbent's product.
    Both read the pre-step tables.
    """
    generator, policy_fn, coords = state
    shape = target.online.params.shape
    online, sa, goal = batch["online"], batch["sa"], batch["g"]
    pred1, predg = _sigmoid(target.online.params.reshape(-1)[online])
    edge = batch["edge"]

    # The generator shares the table's (s, a, g) layout. The incumbent in
    # column 0 wins ties, so replacement happens only on strict improvement.
    gen_flat = generator.reshape(-1)
    options = np.concatenate([gen_flat[online[1]][:, None], batch["cand_states"]], axis=1)
    goals = np.repeat(goal, options.shape[1]).reshape(options.shape)  # (B, M+1)
    actions = policy_fn(options.ravel(), goals.ravel()).reshape(options.shape)
    scores = target.values_flat(sa[:, None] + options) * target.values_flat(
        _flat(shape, options, actions, goals)
    )
    tri_target = scores[:, 0]  # a view: the penalty below makes a new array
    if cfg.beta_goal_reg > 0:
        delta = coords[options] - coords[batch["g_rand"]][:, None, :]
        scores = scores - cfg.beta_goal_reg * np.sum(delta * delta, axis=-1)
    gen_flat[online[1]] = options[np.arange(options.shape[0]), scores.argmax(axis=1)]
    grads = np.concatenate((edge * (pred1 - cfg.gamma), predg - tri_target))
    _apply_logit_updates(target, online.reshape(-1), grads, cfg.learning_rate)

    def stats():
        loss = edge * _bce_loss(pred1, cfg.gamma) + _bce_loss(predg, tri_target)
        return {
            "loss": float(np.mean(loss)),
            "mean_q": float(np.mean(predg)),
            "max_target": float(tri_target.max()),
        }

    return stats


def target_sync(target: PolyakTarget, tau: float) -> None:
    """Polyak step target <- (1 - tau) * target + tau * target.online, in
    O(1): it scales the target's lag (see :class:`PolyakTarget`).

    Once the scale falls below ``_MIN_TARGET_SCALE`` it is folded into the
    lag in one full pass, which changes no target value. At tau = 1 the
    scale is 0 after every step, so every step pays that pass, as an eager
    sync would.
    """
    target.scale *= 1.0 - tau
    if target.scale < _MIN_TARGET_SCALE:
        target.lag *= target.scale
        target.scale = 1.0


# ---------------------------------------------------------------------------
# Batches. A draw takes every random index of CHUNK_STEPS steps in one call
# per kind of index, and names the states, actions and gaps it read; the
# draws and their order fix a run's random stream. A layout turns the named
# arrays into what the step reads: flat table indices and every factor that
# depends on the data alone, for any leading shape.

# Steps per draw. A run draws whole chunks only, so its random stream does
# not depend on cfg.steps: an n-step run is a prefix of any longer one.
CHUNK_STEPS = 16


def _powers(gamma: float, k: np.ndarray) -> np.ndarray:
    """np.power(gamma, k) for an array of integers k >= 0, read from the
    table of powers 0..max(k): the same values for a fraction of the cost."""
    return np.power(gamma, np.arange(k.max() + 1))[k]


def _states_at(ds: TrajectoryDataset, traj, t):
    return ds.states.reshape(-1)[traj * (ds.horizon + 1) + t]


def _actions_at(ds: TrajectoryDataset, traj, t):
    return ds.actions.reshape(-1)[traj * ds.horizon + t]


def _trl_draw(ds: TrajectoryDataset, cfg: LearnerConfig, rng) -> dict:
    traj, i, j, k = sample_triplet_batch(ds, (CHUNK_STEPS, cfg.batch_size), rng)
    return {
        "s_i": _states_at(ds, traj, i),
        "a_i": _actions_at(ds, traj, i),
        "s_j": _states_at(ds, traj, j),
        "s_k": _states_at(ds, traj, k),
        "a_k": _actions_at(ds, traj, k),
        "gap_ik": k - i,
        "gap_kj": j - k,
    }


def _trl_layout(shape, cfg, s_i, a_i, s_j, s_k, a_k, gap_ik, gap_kj) -> dict:
    gaps = np.stack((gap_ik, gap_kj), axis=-2)
    halves = (_flat(shape, s_i, a_i, s_k), _flat(shape, s_k, a_k, s_j))
    return {
        "ij": _flat(shape, s_i, a_i, s_j),
        "halves": np.stack(halves, axis=-2),
        "is_base": gaps <= 1,
        "base": _powers(cfg.gamma, gaps),
    }


def _mc_draw(ds: TrajectoryDataset, cfg: LearnerConfig, rng) -> dict:
    size = (CHUNK_STEPS, cfg.batch_size)
    traj = rng.integers(0, ds.num_traj, size=size)
    i, j = sample_index_pairs(ds.horizon, size, rng, allow_equal=True)
    return {
        "s_i": _states_at(ds, traj, i),
        "a_i": _actions_at(ds, traj, i),
        "s_j": _states_at(ds, traj, j),
        "gap": j - i,
    }


def _mc_layout(shape, cfg, s_i, a_i, s_j, gap) -> dict:
    return {"ij": _flat(shape, s_i, a_i, s_j), "target": _powers(cfg.gamma, gap)}


def _td_draw(ds: TrajectoryDataset, cfg: LearnerConfig, rng) -> dict:
    size = (CHUNK_STEPS, cfg.batch_size)
    traj = rng.integers(0, ds.num_traj, size=size)
    i, j = sample_index_pairs(ds.horizon, size, rng)
    gap = j - i
    n_eff = np.minimum(cfg.n_step, gap)
    b = i + n_eff
    return {
        "s_i": _states_at(ds, traj, i),
        "a_i": _actions_at(ds, traj, i),
        "g": _states_at(ds, traj, j),
        "s_b": _states_at(ds, traj, b),
        "a_b": _actions_at(ds, traj, b),
        "n_eff": n_eff,
        "clipped": cfg.n_step > gap,
    }


def _td_layout(shape, cfg, s_i, a_i, g, s_b, a_b, n_eff, clipped) -> dict:
    return {
        "online": np.stack((_flat(shape, s_i, a_i, s_i), _flat(shape, s_i, a_i, g)), axis=-2),
        "boot": _flat(shape, s_b, a_b, g),
        "discount": _powers(cfg.gamma, n_eff),
        "clipped": clipped,
    }


def _transition_draw(ds: TrajectoryDataset, cfg: LearnerConfig, rng) -> dict:
    size = (CHUNK_STEPS, cfg.batch_size)
    traj = rng.integers(0, ds.num_traj, size=size)
    t = rng.integers(0, ds.horizon, size=size)
    goals = sample_relabeled_goal_batch(ds, traj, t, cfg.ratios, rng)
    return {
        "s": _states_at(ds, traj, t),
        "a": _actions_at(ds, traj, t),
        "s2": _states_at(ds, traj, t + 1),
        "g": goals,
    }


def _gciql_layout(shape, cfg, s, a, s2, g) -> dict:
    """Flat indices of Q(s, a, g), V(s, g) and V(s2, g); V is (S, G)."""
    return {
        "sag": _flat(shape, s, a, g),
        "sg": s * shape[2] + g,
        "s2g": s2 * shape[2] + g,
        "at_goal": (s == g).astype(np.float64),
    }


def _subgoal_draw(ds: TrajectoryDataset, cfg: LearnerConfig, rng) -> dict:
    """A transition draw plus a random goal and M candidate subgoals
    (``w_states``, ``w_actions``) per row."""
    draw = _transition_draw(ds, cfg, rng)
    draw["g_rand"] = sample_flat_states(ds, (CHUNK_STEPS, cfg.batch_size), rng)
    size = (CHUNK_STEPS, cfg.batch_size, cfg.M_subgoals)
    traj = rng.integers(0, ds.num_traj, size=size)
    t = rng.integers(0, ds.horizon, size=size)
    draw["w_states"] = _states_at(ds, traj, t)
    draw["w_actions"] = _actions_at(ds, traj, t)
    return draw


def _sgt_layout(shape, cfg, s, a, s2, g, g_rand, w_states, w_actions) -> dict:
    """``online`` holds the anchor, one-step, random-goal and goal entries;
    ``cand`` the two halves (s, a, w) and (w, a_w, g) of every candidate."""
    sa = _flat(shape, s, a, 0)
    halves = (sa[..., None] + w_states, _flat(shape, w_states, w_actions, g[..., None]))
    return {
        "online": np.stack((sa + s, sa + s2, sa + g_rand, sa + g), axis=-2),
        "edge": (s2 != s).astype(np.float64),
        "cand": np.stack(halves, axis=-3),
    }


def _coe_layout(shape, cfg, s, a, s2, g, g_rand, w_states, w_actions=None) -> dict:
    """``online`` holds the one-step and goal entries, ``sa`` the flat start
    (s * A + a) * G of every row; the candidates are states, whose actions
    coe's greedy policy picks."""
    sa = _flat(shape, s, a, 0)
    return {
        "online": np.stack((sa + s2, sa + g), axis=-2),
        "edge": (s2 != s).astype(np.float64),
        "sa": sa,
        "g": g,
        "g_rand": g_rand,
        "cand_states": w_states,
    }


def step_batches(ds: TrajectoryDataset, shape, cfg: LearnerConfig):
    """Endless per-step batches of the run ``cfg`` on a table of ``shape``.

    Draws CHUNK_STEPS steps at a time from rng ``cfg.seed`` (the method's
    ``draw``), lays the chunk out once (its ``layout``) and yields it one
    step's rows at a time.
    """
    method = METHODS[cfg.method]
    rng = np.random.default_rng(cfg.seed)
    while True:
        chunk = method.layout(shape, cfg, **method.draw(ds, cfg, rng))
        for step in range(CHUNK_STEPS):
            yield {key: rows[step] for key, rows in chunk.items()}


# ---------------------------------------------------------------------------
# The method table


def _coe_state(env: GraphEnv, q: ValueTable, cfg: LearnerConfig) -> tuple:
    """coe's generator table (every subgoal starts as the goal itself), the
    greedy policy of the online table and the grid coordinates its goal
    regularizer reads."""
    if cfg.beta_goal_reg > 0 and env.state_coords is None:
        raise ConfigError("coe with beta_goal_reg > 0 requires a grid environment")
    from . import policy  # policy imports this module

    def policy_fn(states, goals):
        return policy.greedy_action_batch(q, states, goals)

    s, a = env.num_states, env.num_actions
    generator = np.broadcast_to(np.arange(s), (s, a, s)).copy()
    return generator, policy_fn, env.state_coords


@dataclass(frozen=True)
class Method:
    """How one learner trains.

    ``draw(ds, cfg, rng)`` takes CHUNK_STEPS steps of random indices and
    returns the named states, actions and gaps they read, each with leading
    shape (CHUNK_STEPS, batch_size); ``layout(shape, cfg, **named)`` turns
    such arrays, of any leading shape, into a batch for a table of
    ``shape``. Each step makes one update with this module's
    ``<name>_update_step(target, state, batch, cfg)``: ``target`` is the
    run's :class:`PolyakTarget`, whose online table the step reads as
    ``target.online`` and then writes in one :func:`_apply_logit_updates`
    call (after every read: the reads see the pre-step tables), and
    ``state(env, q, cfg)`` builds the run's extra tables once, raising
    ConfigError when the run cannot start. Trajectories need at least
    ``min_horizon`` actions.
    """

    space: str
    draw: Callable | None = None
    layout: Callable | None = None
    state: Callable = lambda env, q, cfg: None
    min_horizon: int = 1


# Every learner, keyed by its config name. "exact" consumes no data: it runs
# transitive_sweeps to the fixed point.
METHODS = {
    "trl": Method("logit", _trl_draw, _trl_layout, min_horizon=2),
    "mc": Method("logit", _mc_draw, _mc_layout),
    "td_n": Method("logit", _td_draw, _td_layout, min_horizon=2),
    "gciql": Method(
        "value",
        _transition_draw,
        _gciql_layout,
        state=lambda env, q, cfg: np.zeros((env.num_states, env.num_states)),  # V(s, g)
    ),
    "sgt": Method("logit", _subgoal_draw, _sgt_layout),
    "coe": Method("logit", _subgoal_draw, _coe_layout, state=_coe_state),
    "exact": Method("value"),
}


# ---------------------------------------------------------------------------
# Serialization: shape header (int64 S, A, G, space flag), gamma, then the
# row-major float64 parameter block.


def save_table(table: ValueTable, path: str) -> None:
    header = np.array(
        [*table.params.shape, 0 if table.space == "logit" else 1], dtype=np.int64
    )
    with open(path, "wb") as fh:
        fh.write(header.tobytes())
        fh.write(np.float64(table.gamma).tobytes())
        fh.write(np.ascontiguousarray(table.params).tobytes())


_SPACE_FLAGS = {0: "logit", 1: "value"}


def load_table(path: str) -> ValueTable:
    """Read a table saved by :func:`save_table`; the header is checked
    before anything is sized from it."""
    with open_input(path, "rb") as fh:
        head = fh.read(5 * 8)
        if len(head) != 5 * 8:
            raise ConfigError(f"{path}: truncated value-table header")
        s, a, g, flag = (int(x) for x in np.frombuffer(head[:32], dtype=np.int64))
        for field, dim in (("states", s), ("actions", a), ("goals", g)):
            if dim < 1:
                raise ConfigError(f"{path}: header field {field} must be >= 1, got {dim}")
        if flag not in _SPACE_FLAGS:
            raise ConfigError(f"{path}: header field space flag must be 0 or 1, got {flag}")
        body = fh.read()
    if len(body) != 8 * s * a * g:
        raise ConfigError(
            f"{path}: expected {s * a * g} float64 entries ({8 * s * a * g} bytes), "
            f"found {len(body)} bytes"
        )
    gamma = float(np.frombuffer(head[32:], dtype=np.float64)[0])
    data = np.frombuffer(body, dtype=np.float64).reshape(s, a, g).copy()
    return ValueTable(data, gamma, _SPACE_FLAGS[flag])
