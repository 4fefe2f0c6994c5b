"""Reference copies of routines that were rewritten to work in place.

Each function is the earlier form, kept verbatim apart from its name and
the names of the earlier forms it calls, so a test can require the
rewritten routine to give the same bits: gathers, ``np.where`` and
full-size int64 or float64 temporaries where the routine now updates its
buffers in place, and separate reads where a training step now reads once.
"""

from __future__ import annotations

import itertools

import numpy as np

from gclab.analysis import _BLOCK
from gclab.learners import (
    LOGIT_CLAMP,
    LearnerConfig,
    PolyakTarget,
    _as_values,
    _bce_loss,
    _flat,
    _sigmoid,
    asymmetric_loss,
    expectile_weight,
)
from gclab.oracle import _WORD, UNREACHABLE, optimal_value_table


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


# ---------------------------------------------------------------------------
# The stochastic steps as they read before every step made one read: the
# online entries and each target block in a call and a sigmoid of their own,
# and a write that gathers its entries' logits again. mc's and coe's layouts
# are unchanged; the other four are here. PolyakTarget's ``values_flat``
# method is the function ``target_values_flat``.


def target_values_flat(target, flat) -> np.ndarray:
    """Target values at the flat indices ``flat`` of the table (see
    :func:`_flat`), gathered first, then read like ``ValueTable.values_at``."""
    params = target.online.params.reshape(-1)[flat] + target.scale * target.lag.reshape(-1)[flat]
    return _as_values(params, target.online.space)


def apply_logit_updates_regathering(target: PolyakTarget, flat, grads, lr: float) -> None:
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


def trl_update_step_separate_reads(target: PolyakTarget, state, batch: dict, cfg: LearnerConfig):
    """Divide-and-conquer update: regress Q(s_i, a_i, s_j) onto the product
    of the two target-table halves through the in-trajectory subgoal s_k.

    Segments of length <= 1 substitute the exact base value gamma^len for
    the target factor. The BCE loss is weighted per sample by the expectile
    weight; target factors are constants.
    """
    ij = batch["ij"]
    pred = _sigmoid(target.online.params.reshape(-1)[ij])
    # Both target halves in one read: (s_i, a_i, s_k) and (s_k, a_k, s_j).
    f1, f2 = np.where(batch["is_base"], batch["base"], target_values_flat(target, batch["halves"]))
    y = f1 * f2
    w = expectile_weight(pred, y, cfg.kappa)
    apply_logit_updates_regathering(target, ij, w * (pred - y), cfg.learning_rate)
    return lambda: {
        "loss": float(np.mean(w * _bce_loss(pred, y))),
        "mean_q": float(np.mean(pred)),
        "max_target": float(y.max()),
    }


def mc_update_step_separate_reads(target: PolyakTarget, state, batch: dict, cfg: LearnerConfig):
    """Regress Q(s_i, a_i, s_j) toward gamma^(j-i) with a symmetric squared
    loss on the sigmoid output (chain rule through the logit). mc reads no
    target values; it writes through the target like every other learner."""
    ij, y = batch["ij"], batch["target"]
    pred = _sigmoid(target.online.params.reshape(-1)[ij])
    diff = pred - y
    apply_logit_updates_regathering(target, ij, 2.0 * diff * pred * (1.0 - pred), cfg.learning_rate)
    return lambda: {
        "loss": float(np.mean(diff * diff)),
        "mean_q": float(np.mean(pred)),
        "max_target": float(y.max()),
    }


def td_n_compute_targets_separate_reads(target: PolyakTarget, batch: dict) -> np.ndarray:
    """n-step bootstrap target gamma^n_eff * Qbar(s_{i+n_eff}, a_{i+n_eff}, g).

    n_eff = min(n, j - i); when the unclipped n would overshoot j the
    bootstrap factor is replaced by 1, so the boundary target is exactly
    gamma^(j-i).
    """
    boot = np.where(batch["clipped"], 1.0, target_values_flat(target, batch["boot"]))
    return batch["discount"] * boot


def td_n_update_step_separate_reads(target: PolyakTarget, state, batch: dict, cfg: LearnerConfig):
    """n-step bootstrapped update: a plain BCE anchor at the current state
    (target gamma^0) plus an expectile BCE term toward the n-step target."""
    online = batch["online"].reshape(-1)  # anchors (s_i, a_i, s_i), then goals (s_i, a_i, g)
    pred0, pred1 = _sigmoid(target.online.params.reshape(-1)[online]).reshape(2, -1)
    y = td_n_compute_targets_separate_reads(target, batch)
    weight = expectile_weight(pred1, y, cfg.kappa)
    grads = np.concatenate((pred0 - 1.0, weight * (pred1 - y)))
    apply_logit_updates_regathering(target, online, grads, cfg.learning_rate)
    return lambda: {
        "loss": float(np.mean(_bce_loss(pred0, 1.0) + weight * _bce_loss(pred1, y))),
        "mean_q": float(np.mean(pred1)),
        "max_target": float(y.max()),
    }


def gciql_update_step_separate_reads(
    target: PolyakTarget, v: np.ndarray, batch: dict, cfg: LearnerConfig
):
    """SARSA-style coupled update in raw value space; ``v`` is the
    C-contiguous V(s, g) table.

    V(s, g) chases Qbar(s, a, g) through the expectile squared loss;
    Q(s, a, g) chases I(s = g) + gamma * V(s', g) through a symmetric
    squared loss. Both gradients read the pre-step tables.
    """
    sag, sg = batch["sag"], batch["sg"]
    v_flat = v.reshape(-1)
    loss_v, grad_v = asymmetric_loss(v_flat[sg], target_values_flat(target, sag), cfg.kappa)
    qv = target.online.params.reshape(-1)[sag]
    y = batch["at_goal"] + cfg.gamma * v_flat[batch["s2g"]]
    diff = qv - y
    np.add.at(v_flat, sg, -cfg.learning_rate * grad_v)
    apply_logit_updates_regathering(target, sag, 2.0 * diff, cfg.learning_rate)
    return lambda: {
        "loss": float(np.mean(loss_v + diff * diff)),
        "mean_q": float(np.mean(qv)),
        "max_target": float(y.max()),
    }


def sgt_update_step_separate_reads(target: PolyakTarget, prior, batch: dict, cfg: LearnerConfig):
    """Subgoal-tree update with a hard max over M sampled candidates.

    Four summed terms: an anchor at the current state (gamma^0), a one-step
    term (gamma^1, restricted to genuine edges), a far-away prior pushing
    random goals toward ``prior`` = gamma^P (the run's state), and the
    triangle term whose target is the best product of target-table halves
    over the candidate set.
    """
    online = batch["online"].reshape(-1)  # the four terms' entries, term after term
    pred0, pred1, predr, predg = _sigmoid(target.online.params.reshape(-1)[online]).reshape(4, -1)
    # One-step base case applies to edges only; self-loop transitions in the
    # data would otherwise fight the gamma^0 anchor on the same entry.
    edge = batch["edge"]
    half_sw, half_wg = target_values_flat(target, batch["cand"])
    tri_target = (half_sw * half_wg).max(axis=0)
    grads = (pred0 - 1.0, edge * (pred1 - cfg.gamma), predr - prior, predg - tri_target)
    apply_logit_updates_regathering(target, online, np.concatenate(grads), cfg.learning_rate)

    def stats():
        loss = _bce_loss(pred0, 1.0) + edge * _bce_loss(pred1, cfg.gamma)
        loss = loss + _bce_loss(predr, prior) + _bce_loss(predg, tri_target)
        return {
            "loss": float(np.mean(loss)),
            "mean_q": float(np.mean(predg)),
            "max_target": float(tri_target.max()),
        }

    return stats


def coe_update_step_separate_reads(
    target: PolyakTarget, state: tuple, batch: dict, cfg: LearnerConfig
):
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
    scores = target_values_flat(target, sa[:, None] + options) * target_values_flat(
        target,
        _flat(shape, options, actions, goals)
    )
    tri_target = scores[:, 0]  # a view: the penalty below makes a new array
    if cfg.beta_goal_reg > 0:
        delta = coords[options] - coords[batch["g_rand"]][:, None, :]
        scores = scores - cfg.beta_goal_reg * np.sum(delta * delta, axis=-1)
    gen_flat[online[1]] = options[np.arange(options.shape[0]), scores.argmax(axis=1)]
    grads = np.concatenate((edge * (pred1 - cfg.gamma), predg - tri_target))
    apply_logit_updates_regathering(target, online.reshape(-1), grads, cfg.learning_rate)

    def stats():
        loss = edge * _bce_loss(pred1, cfg.gamma) + _bce_loss(predg, tri_target)
        return {
            "loss": float(np.mean(loss)),
            "mean_q": float(np.mean(predg)),
            "max_target": float(tri_target.max()),
        }

    return stats


def trl_layout_separate_reads(shape, cfg, s_i, a_i, s_j, s_k, a_k, gap_ik, gap_kj) -> dict:
    gaps = np.stack((gap_ik, gap_kj), axis=-2)
    halves = (_flat(shape, s_i, a_i, s_k), _flat(shape, s_k, a_k, s_j))
    return {
        "ij": _flat(shape, s_i, a_i, s_j),
        "halves": np.stack(halves, axis=-2),
        "is_base": gaps <= 1,
        "base": optimal_value_table(gaps, cfg.gamma),
    }


def td_layout_separate_reads(shape, cfg, s_i, a_i, g, s_b, a_b, n_eff, clipped) -> dict:
    return {
        "online": np.stack((_flat(shape, s_i, a_i, s_i), _flat(shape, s_i, a_i, g)), axis=-2),
        "boot": _flat(shape, s_b, a_b, g),
        "discount": optimal_value_table(n_eff, cfg.gamma),
        "clipped": clipped,
    }


def gciql_layout_separate_reads(shape, cfg, s, a, s2, g) -> dict:
    """Flat indices of Q(s, a, g), V(s, g) and V(s2, g); V is (S, G)."""
    return {
        "sag": _flat(shape, s, a, g),
        "sg": s * shape[2] + g,
        "s2g": s2 * shape[2] + g,
        "at_goal": (s == g).astype(np.float64),
    }


def sgt_layout_separate_reads(shape, cfg, s, a, s2, g, g_rand, w_states, w_actions) -> dict:
    """``online`` holds the anchor, one-step, random-goal and goal entries;
    ``cand`` the two halves (s, a, w) and (w, a_w, g) of every candidate,
    candidate-major, (2, M, batch) per step: the maximum over candidates
    then runs down the long axis."""
    sa = _flat(shape, s, a, 0)
    halves = (sa[..., None] + w_states, _flat(shape, w_states, w_actions, g[..., None]))
    return {
        "online": np.stack((sa + s, sa + s2, sa + g_rand, sa + g), axis=-2),
        "edge": (s2 != s).astype(np.float64),
        "cand": np.ascontiguousarray(np.stack(halves, axis=-3).swapaxes(-1, -2)),
    }
