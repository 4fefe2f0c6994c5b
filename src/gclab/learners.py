"""Tabular value-update rules over a shared goal-conditioned table.

All dataset-driven learners operate on dense tables Q[s, a, g]. Methods
trained with the binary cross-entropy loss store logits and read values
through a sigmoid, which keeps Q inside (0, 1); the squared-loss SARSA
learner (gciql) stores raw values because its fixed point exceeds 1 at
goal states. One exact method runs (min, +) sweeps over step counts
instead of consuming data, each through the midpoint sphere of the
distances it has already fixed.

Update convention: ``learning_rate`` is the per-sample step size (the
classic tabular convention). A step first reads everything it needs from
the pre-step tables in one read and one sigmoid, then writes its Q entries
in one call, every term's entries in a fixed order, so runs are
bit-reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Callable

import numpy as np

from .dataset import (
    MAX_DATASET_STATES,
    TrajectoryDataset,
    sample_flat_states,
    sample_index_pairs,
    sample_relabeled_goal_batch,
    sample_triplet_batch,
)
from .env import ConfigError, GraphEnv, adjacency_matrix, check_choice, check_number, open_input
from .oracle import GAMMA_INTERVAL, UNREACHABLE, implied_distances, optimal_value_table

# Logit clamp: keeps sigmoid outputs strictly inside (0, 1) in float64
# (sigmoid(30) = 1 - 9.4e-14) while leaving room for implied distances of
# several thousand steps at gamma = 0.99.
LOGIT_CLAMP = 30.0
_INIT_LOGIT = -3.0  # ValueTable.create's logit for every entry

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
        check_choice("table space", self.space, ("logit", "value"))
        check_number("gamma", self.gamma, "float", interval=_INTERVALS["gamma"])
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
    ) -> "ValueTable":
        """Pessimistic initialization: logit _INIT_LOGIT puts Q near 0.047."""
        params = np.full((num_states, num_actions, num_states), _INIT_LOGIT)
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

    def read(self, flat, online: int) -> tuple[np.ndarray, np.ndarray]:
        """A step's one read at the flat indices ``flat`` of the table (see
        :func:`_flat`): the first ``online`` entries along flat's first axis
        read the online table, the rest the target. Returns the logits (raw
        values of a value table) and their values, after one gather, one
        ``scale * lag`` add on the target entries and one sigmoid, as
        ``ValueTable.values_at`` reads. The online logits are the ``before``
        of the step's :func:`_apply_logit_updates` call."""
        logits = self.online.params.reshape(-1)[flat]
        if online < len(flat):
            logits[online:] += self.scale * self.lag.reshape(-1)[flat[online:]]
        return logits, _as_values(logits, self.online.space)


# Steps per draw. A run draws whole chunks only, so its random stream does
# not depend on cfg.steps: an n-step run is a prefix of any longer one.
CHUNK_STEPS = 16
# The most entries of one index array of a chunk draw: CHUNK_STEPS *
# batch_size, and for the M_subgoals candidates per row of sgt and coe that
# times M_subgoals (LearnerConfig checks the product). A 1-step run at
# the bound peaks at 171 MB RSS for trl at batch_size 65536, and at 123 MB
# for sgt at batch_size 8192 with 8 candidates (16x16 grid, 2-vCPU Xeon,
# numpy 2.4.6).
MAX_DRAW_ENTRIES = 2**20

# The range of each number in a LearnerConfig, and of its row in
# harness._SETTINGS: every caller reads its fields as checked here, when the
# config is built, and checks none again. gamma's rule is oracle's
# GAMMA_INTERVAL, which ValueTable and load_table read from here too.
# n_step's end changes no run (td_n looks min(n_step, gap) < T steps ahead);
# P's end bounds no cost, since sgt reads gamma^P in constant memory.
_INTERVALS = {
    "gamma": GAMMA_INTERVAL,
    "kappa": "[0.5, 1)",
    "lambda_reweight": "[0, inf)",
    "learning_rate": "(0, inf)",
    "tau_target": "(0, 1]",
    "batch_size": f"[1, {MAX_DRAW_ENTRIES // CHUNK_STEPS}]",
    "steps": "[0, inf)",
    "log_every": "[1, inf)",
    "n_step": f"[1, {MAX_DATASET_STATES}]",
    "M_subgoals": "[1, inf)",
    "P_random_distance": f"[1, {MAX_DATASET_STATES}]",
    "beta_goal_reg": "[0, inf)",
    "p_cur": "[0, 1]",
    "p_geom": "[0, 1]",
    "p_traj": "[0, 1]",
    "geom_param": "(0, 1)",
    "seed": "[0, inf)",
}


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
    log_every: int = 1000  # loss-log period of a stochastic run, in steps
    n_step: int = 1
    M_subgoals: int = 8
    P_random_distance: int = 500
    beta_goal_reg: float = 1.0
    # The goal-relabel mixture of gciql, sgt and coe, as
    # dataset.sample_relabeled_goal_batch draws it.
    p_cur: float = 0.2
    p_geom: float = 0.5
    p_traj: float = 0.0
    geom_param: float = 0.01
    seed: int = 0

    def __post_init__(self):
        for f in fields(self):  # annotations are strings: this module postpones them
            if f.type in ("int", "float"):
                check_number(f"config key 'learner.{f.name}'", getattr(self, f.name), f.type,
                             interval=_INTERVALS[f.name])
        check_choice("config key 'learner.method'", self.method, tuple(METHODS))
        if self.method in ("sgt", "coe"):  # the methods that draw M_subgoals candidates per row
            check_number(f"config keys 'learner.batch_size' and 'learner.M_subgoals' for method "
                         f"{self.method!r}: candidates per draw {CHUNK_STEPS} * batch_size * "
                         "M_subgoals", CHUNK_STEPS * self.batch_size * self.M_subgoals, "int",
                         f"[1, {MAX_DRAW_ENTRIES}]")
        mixture = self.p_cur + self.p_geom + self.p_traj
        if mixture > 1.0 + 1e-9:  # the slack takes float rounding: 0.34 + 0.56 + 0.1
            raise ConfigError("config keys 'learner.p_cur' + 'learner.p_geom' + 'learner.p_traj' "
                              f"must sum to at most 1, got {mixture!r}")


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
    dist = np.minimum(implied_distances(q_value, gamma), 4.0 / (1.0 - gamma))
    return np.power(1.0 + dist, -lam)


# ---------------------------------------------------------------------------
# Exact (min, +) sweeps over step counts

# The kernel gathers midpoint rows in blocks of at most this many bytes, so
# each temporary stays in a typical per-core L2 cache, whatever the sphere size.
_SWEEP_BYTES = 2**21


def exact_transitive_sweep(left: np.ndarray, d: np.ndarray, radius: int) -> tuple[np.ndarray, int]:
    """One (min, +) sweep of a block of rows through the midpoint sphere:
    new[s] = min(left[s], radius + min over {w : left[s, w] == radius} of d[w]).

    ``d`` is the table after k sweeps of a unit-edge graph in an unsigned
    dtype whose maximum means no path (see :func:`transitive_sweeps`),
    ``radius`` is 2^k, and ``left`` holds some of d's rows. Returns the new
    rows and the number of entries they shortened.

    The rows equal those of the full sweep, min(left[s, g], min over every w
    of left[s, w] + d[w, g]): a pair at distance t in (2^k, 2^(k+1)] has a
    shortest-path vertex w with d(s, w) = 2^k exactly, and d(w, g) =
    t - 2^k <= 2^k is already final in ``d``. Every finite sum is a walk, so
    it is never shorter than the distance, and a pair beyond 2^(k+1) gets no
    finite sum. None of this needs a symmetric, loop-free or connected
    graph; a row with no midpoint is left as it is.

    The midpoints come row by row from ``np.nonzero``; each row's list is
    padded to the longest by repeating its first midpoint, which changes no
    minimum. A midpoint minimum is clamped at the dtype's maximum less the
    radius before the radius is added, so no path stays the maximum and
    never wraps; finite sums must fit the dtype below that.
    """
    new = left.copy()
    rows, mids = np.nonzero(left == radius)
    if not rows.size:
        return new, 0
    counts = np.bincount(rows, minlength=left.shape[0])
    open_rows = np.flatnonzero(counts)
    counts = counts[open_rows]
    width = int(counts.max())
    pos = np.arange(width)
    first = np.cumsum(counts) - counts
    sphere = mids[first[:, None] + np.where(pos < counts[:, None], pos, 0)]
    per_mid = d.shape[1] * d.itemsize
    mid_step = max(1, min(width, _SWEEP_BYTES // per_mid))
    row_step = max(1, _SWEEP_BYTES // (mid_step * per_mid))
    for lo in range(0, open_rows.size, row_step):
        block = sphere[lo:lo + row_step]
        best = d[block[:, :mid_step]].min(axis=1)
        for w_lo in range(mid_step, width, mid_step):
            np.minimum(best, d[block[:, w_lo:w_lo + mid_step]].min(axis=1), out=best)
        np.minimum(best, np.iinfo(d.dtype).max - radius, out=best)
        best += radius
        r = open_rows[lo:lo + row_step]
        new[r] = np.minimum(new[r], best)
    return new, int(np.count_nonzero(new != left))


def transitive_sweeps(env: GraphEnv):
    """Jacobi (min, +) sweeps from the base table (0 on the diagonal, 1 on
    one-step edges): yields ``(d, shortened)`` after each sweep and stops
    after the first sweep that shortens no pair. ``d`` is the live table, in
    the oracle's convention (UNREACHABLE for no path, as in
    ``oracle.all_pairs_distances``); the next sweep overwrites it, so copy
    it to keep it.

    Every edge has length 1, so after k sweeps an entry is finite exactly
    when its pair lies within 2^k steps, and then it holds the distance (the
    argument is :func:`exact_transitive_sweep`'s). A table of finite diameter
    D thus needs ceil(log2 D) sweeps plus the one that finds nothing to
    shorten, and a finite entry is final. Each sweep therefore passes the
    kernel, with radius 2^k, only the rows that still hold a no-path entry:
    on a connected graph the last sweep forms no sum, and a row with an
    unreachable pair stays open and is swept every time, which is still
    exact.

    The kernel reads the table through its unsigned view, where UNREACHABLE
    (-1) is the dtype's maximum. The table is int8 while twice its largest
    entry is at most 127, so every finite sum the kernel forms reads the
    same signed, and is widened once to int16 after that (astype keeps -1);
    the rule reads only the table. In int16 a GraphEnv's table bound keeps
    its states at most isqrt(env.MAX_TABLE_ENTRIES) = 5792, so sums stay at
    most 11582. A sweep
    of radius 2^k > 1 follows one that shortened a pair, so the table holds
    a distance above 2^(k-1) and the radius is below twice the largest
    entry: at most 64 in int8 and 2^13 in int16.
    """
    d = np.full((env.num_states, env.num_states), UNREACHABLE, dtype=np.int8)
    d[adjacency_matrix(env)] = 1
    np.fill_diagonal(d, 0)
    radius = 1
    while True:
        if 2 * int(d.max()) > np.iinfo(np.int8).max:
            d = d.astype(np.int16, copy=False)
        u = d.view(f"u{d.itemsize}")
        rows = np.flatnonzero((d == UNREACHABLE).any(axis=1))
        u[rows], shortened = exact_transitive_sweep(u[rows], u, radius)
        radius *= 2
        yield d, shortened
        if shortened == 0:
            return


# ---------------------------------------------------------------------------
# Stochastic update steps (one gradient step per call)
#
# A step reads and writes the tables only at the flat indices its batch
# carries (see the layouts below), in one read and one write. The read
# (PolyakTarget.read) gathers every entry the step reads, online entries
# first and target entries after them, adds the target's scaled lag to the
# target entries and runs one sigmoid; all of it sees the pre-step tables.
# The write (_apply_logit_updates) takes the online logits the read already
# holds, so no entry is gathered twice. A step returns its statistics
# unevaluated: a zero-argument callable that harness.train_run calls on
# logged steps only.


def _flat(shape, s, a, g):
    """Flat index (s * A + a) * G + g of entry (s, a, g) of a C-contiguous
    (S, A, G) table, elementwise over index arrays of any shape."""
    return (s * shape[1] + a) * shape[2] + g


def _apply_logit_updates(target: PolyakTarget, flat, before, grads, lr: float) -> None:
    """Scatter-add the steps ``-lr * grads`` at the 1-D flat indices ``flat``
    into the target's online table, clip the touched entries of a logit
    table, and move the lag so the target stays put. ``before`` holds the
    online logits at ``flat`` that the step's read gathered; ``grads`` is
    overwritten. A step makes one call with the entries of all its terms,
    term after term: a shared entry sums its steps in that order, then is
    clipped once.

    Untouched entries need no clip: training tables start inside the clamp
    (``ValueTable.create``) and only entries named by some ``flat`` move.
    Every copy of a duplicated index carries the same move, so the plain
    fancy assignment of the lag is right where ``np.add.at`` is needed for
    the steps.
    """
    params = target.online.params.reshape(-1)
    grads *= -lr
    np.add.at(params, flat, grads)
    after = params[flat]
    if target.online.space == "logit":  # np.clip's bits at a third of its cost
        np.minimum(np.maximum(after, -LOGIT_CLAMP, out=after), LOGIT_CLAMP, out=after)
        params[flat] = after
    after -= before
    after /= target.scale
    target.lag.reshape(-1)[flat] -= after


def trl_update_step(target: PolyakTarget, state, batch: dict, cfg: LearnerConfig):
    """Divide-and-conquer update: regress Q(s_i, a_i, s_j) onto the product
    of the two target-table halves through the in-trajectory subgoal s_k.

    Segments of length <= 1 substitute the exact base value gamma^len for
    the target factor. The BCE loss is weighted per sample by the expectile
    weight times the distance-based reweight factor; target factors are
    constants.
    """
    reads = batch["reads"]  # (s_i, a_i, s_j), then the halves (s_i, a_i, s_k), (s_k, a_k, s_j)
    logits, values = target.read(reads, 1)
    pred = values[0]
    f1, f2 = np.where(batch["is_base"], batch["base"], values[1:])
    y = f1 * f2
    w = expectile_weight(pred, y, cfg.kappa)
    if cfg.lambda_reweight != 0:  # the factor is exactly 1.0 at lambda = 0
        w = reweight_factor(pred, cfg.gamma, cfg.lambda_reweight) * w
    _apply_logit_updates(target, reads[0], logits[0], w * (pred - y), cfg.learning_rate)
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
    logits, pred = target.read(ij, len(ij))
    diff = pred - y
    _apply_logit_updates(target, ij, logits, 2.0 * diff * pred * (1.0 - pred), cfg.learning_rate)
    return lambda: {
        "loss": float(np.mean(diff * diff)),
        "mean_q": float(np.mean(pred)),
        "max_target": float(y.max()),
    }


def td_n_compute_targets(boot: np.ndarray, batch: dict) -> np.ndarray:
    """n-step bootstrap target gamma^n_eff * Qbar(s_{i+n_eff}, a_{i+n_eff}, g),
    from the target values ``boot`` read at the batch's bootstrap entries.

    n_eff = min(n, j - i); when the unclipped n would overshoot j the
    bootstrap factor is replaced by 1, so the boundary target is exactly
    gamma^(j-i).
    """
    return batch["discount"] * np.where(batch["clipped"], 1.0, boot)


def td_n_update_step(target: PolyakTarget, state, batch: dict, cfg: LearnerConfig):
    """n-step bootstrapped update: a plain BCE anchor at the current state
    (target gamma^0) plus an expectile BCE term toward the n-step target."""
    reads = batch["reads"]  # anchors (s_i, a_i, s_i), goals (s_i, a_i, g), bootstraps (s_b, a_b, g)
    logits, (pred0, pred1, boot) = target.read(reads, 2)
    y = td_n_compute_targets(boot, batch)
    weight = expectile_weight(pred1, y, cfg.kappa)
    grads = np.concatenate((pred0 - 1.0, weight * (pred1 - y)))
    _apply_logit_updates(
        target, reads[:2].reshape(-1), logits[:2].reshape(-1), grads, cfg.learning_rate
    )
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
    reads, sg = batch["reads"], batch["sg"]  # reads: Q(s, a, g), then Qbar(s, a, g)
    (qv, qbar), _ = target.read(reads, 1)  # a value table: the logits are the values
    v_flat = v.reshape(-1)
    loss_v, grad_v = asymmetric_loss(v_flat[sg], qbar, cfg.kappa)
    y = batch["at_goal"] + cfg.gamma * v_flat[batch["s2g"]]
    diff = qv - y
    np.add.at(v_flat, sg, -cfg.learning_rate * grad_v)
    _apply_logit_updates(target, reads[0], qv, 2.0 * diff, cfg.learning_rate)
    return lambda: {
        "loss": float(np.mean(loss_v + diff * diff)),
        "mean_q": float(np.mean(qv)),
        "max_target": float(y.max()),
    }


def sgt_update_step(target: PolyakTarget, prior, batch: dict, cfg: LearnerConfig):
    """Subgoal-tree update with a hard max over M sampled candidates.

    Four summed terms: an anchor at the current state (gamma^0), a one-step
    term (gamma^1, restricted to genuine edges), a far-away prior pushing
    random goals toward ``prior`` = gamma^P (the run's state), and the
    triangle term whose target is the best product of target-table halves
    over the candidate set.
    """
    # One-step base case applies to edges only; self-loop transitions in the
    # data would otherwise fight the gamma^0 anchor on the same entry.
    reads, edge = batch["reads"], batch["edge"]
    online = 4 * edge.size  # the four terms' entries, then the candidates' halves
    logits, values = target.read(reads, online)
    pred0, pred1, predr, predg = values[:online].reshape(4, -1)
    half_sw, half_wg = values[online:].reshape(2, -1, edge.size)
    tri_target = (half_sw * half_wg).max(axis=0)
    grads = (pred0 - 1.0, edge * (pred1 - cfg.gamma), predr - prior, predg - tri_target)
    _apply_logit_updates(
        target, reads[:online], logits[:online], np.concatenate(grads), cfg.learning_rate
    )

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
    edge = batch["edge"]

    # The generator shares the table's (s, a, g) layout. The incumbent in
    # column 0 wins ties, so replacement happens only on strict improvement.
    gen_flat = generator.reshape(-1)
    options = np.concatenate([gen_flat[online[1]][:, None], batch["cand_states"]], axis=1)
    goals = np.repeat(goal, options.shape[1]).reshape(options.shape)  # (B, M+1)
    actions = policy_fn(options.ravel(), goals.ravel()).reshape(options.shape)
    # One read: the one-step and goal entries, then both halves (s, a, w) and
    # (w, a_w, g) of every option.
    halves = (sa[:, None] + options, _flat(shape, options, actions, goals))
    n = online.size
    reads = np.concatenate((online.reshape(-1), *(half.reshape(-1) for half in halves)))
    logits, values = target.read(reads, n)
    pred1, predg = values[:n].reshape(2, -1)
    half_sw, half_wg = values[n:].reshape(2, *options.shape)
    scores = half_sw * half_wg
    tri_target = scores[:, 0]  # a view: the penalty below makes a new array
    if cfg.beta_goal_reg > 0:
        x, y = coords.T  # int64 columns: the squared distance is exact
        dx = x[options] - x[batch["g_rand"]][:, None]
        dy = y[options] - y[batch["g_rand"]][:, None]
        scores = scores - cfg.beta_goal_reg * (dx * dx + dy * dy)
    gen_flat[online[1]] = options[np.arange(options.shape[0]), scores.argmax(axis=1)]
    grads = np.concatenate((edge * (pred1 - cfg.gamma), predg - tri_target))
    _apply_logit_updates(target, reads[:n], logits[:n], grads, cfg.learning_rate)

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
    """``reads`` holds the online entry (s_i, a_i, s_j), then the target
    halves (s_i, a_i, s_k) and (s_k, a_k, s_j)."""
    gaps = np.stack((gap_ik, gap_kj), axis=-2)
    reads = (_flat(shape, s_i, a_i, s_j), _flat(shape, s_i, a_i, s_k), _flat(shape, s_k, a_k, s_j))
    return {
        "reads": np.stack(reads, axis=-2),
        "is_base": gaps <= 1,
        "base": optimal_value_table(gaps, cfg.gamma),
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
    return {"ij": _flat(shape, s_i, a_i, s_j), "target": optimal_value_table(gap, cfg.gamma)}


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
    """``reads`` holds the online anchor (s_i, a_i, s_i) and goal
    (s_i, a_i, g) entries, then the target's bootstrap (s_b, a_b, g)."""
    reads = (_flat(shape, s_i, a_i, s_i), _flat(shape, s_i, a_i, g), _flat(shape, s_b, a_b, g))
    return {
        "reads": np.stack(reads, axis=-2),
        "discount": optimal_value_table(n_eff, cfg.gamma),
        "clipped": clipped,
    }


def _transition_draw(ds: TrajectoryDataset, cfg: LearnerConfig, rng) -> dict:
    size = (CHUNK_STEPS, cfg.batch_size)
    traj = rng.integers(0, ds.num_traj, size=size)
    t = rng.integers(0, ds.horizon, size=size)
    goals = sample_relabeled_goal_batch(ds, traj, t, cfg, rng)
    return {
        "s": _states_at(ds, traj, t),
        "a": _actions_at(ds, traj, t),
        "s2": _states_at(ds, traj, t + 1),
        "g": goals,
    }


def _gciql_layout(shape, cfg, s, a, s2, g) -> dict:
    """Flat indices of Q(s, a, g), online then target (``reads``), and of
    V(s, g) and V(s2, g); V is (S, G)."""
    sag = _flat(shape, s, a, g)
    return {
        "reads": np.stack((sag, sag), axis=-2),
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
    """``reads`` holds, flattened per step, the online anchor, one-step,
    random-goal and goal entries, (4, batch), then the target halves
    (s, a, w) and (w, a_w, g) of every candidate, candidate-major, (2, M,
    batch): the maximum over candidates then runs down the long axis."""
    sa = _flat(shape, s, a, 0)
    online = np.stack((sa + s, sa + s2, sa + g_rand, sa + g), axis=-2)
    halves = (sa[..., None] + w_states, _flat(shape, w_states, w_actions, g[..., None]))
    cand = np.stack(halves, axis=-3).swapaxes(-1, -2)
    lead = s.shape[:-1]
    return {
        "reads": np.concatenate((online.reshape(*lead, -1), cand.reshape(*lead, -1)), axis=-1),
        "edge": (s2 != s).astype(np.float64),
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
    regularizer reads (``harness.check_run`` checks that a run with
    beta_goal_reg > 0 has them)."""
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
    run's :class:`PolyakTarget`, whose online table and target the step
    reads in one ``target.read`` and then writes in one
    :func:`_apply_logit_updates` call (after the read, which sees the
    pre-step tables), and ``state(env, q, cfg)`` builds the run's extra
    tables once. Trajectories need at least ``min_horizon`` actions.
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
    "sgt": Method(
        "logit",
        _subgoal_draw,
        _sgt_layout,
        # The prior gamma^P from the vector power loop over the one exponent P:
        # the bits of optimal_value_table's gamma^P, in O(1) memory.
        state=lambda env, q, cfg: np.power(cfg.gamma, np.full(1, cfg.P_random_distance))[0],
    ),
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
        fh.write(np.ascontiguousarray(table.params))  # the table's own buffer, not a copy


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
            check_number(f"{path}: header field {field}", dim, "int", "[1, inf)")
        check_choice(f"{path}: header field space flag", flag, tuple(_SPACE_FLAGS))
        gamma = float(np.frombuffer(head[32:], dtype=np.float64)[0])
        check_number(f"{path}: header field gamma", gamma, "float", _INTERVALS["gamma"])
        body = fh.read()
    if len(body) != 8 * s * a * g:
        raise ConfigError(
            f"{path}: expected {s * a * g} float64 entries ({8 * s * a * g} bytes), "
            f"found {len(body)} bytes"
        )
    data = np.frombuffer(body, dtype=np.float64).reshape(s, a, g).copy()
    return ValueTable(data, gamma, _SPACE_FLAGS[flag])
