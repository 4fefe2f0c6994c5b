"""Offline trajectory datasets and the sampling distributions learners consume.

Data collection runs a uniform-random behavior policy from uniform-random
start states. Four samplers are provided:

* index pairs (``sample_index_pairs``): (i, j) uniform over ordered index
  pairs with i < j (or i <= j), drawn by direct index arithmetic (two
  draws, no rejection).
* triplets (``sample_triplet_batch``): a trajectory, an index pair, and a
  subgoal index k uniform over {i, ..., j-1}.
* hindsight goal relabeling (``sample_relabeled_goal_batch``): a four-way
  mixture over the current state, a geometrically discounted future
  state, a uniform future state, and a uniform random state from the
  whole dataset.
* flat states (``sample_flat_states``): uniform states of the whole
  dataset.

Every sampler takes a ``size`` that is an int or a shape, as numpy's
generators do, and draws each kind of index for the whole shape in one
call: the learners draw ``(steps, batch_size)`` at a time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .env import ConfigError, GraphEnv, _shown, check_number, open_input


@dataclass
class TrajectoryDataset:
    """Fixed-horizon trajectories: states (N, T+1) and actions (N, T)."""

    states: np.ndarray
    actions: np.ndarray

    def __post_init__(self):
        self.states = np.asarray(self.states, dtype=np.int64)
        self.actions = np.asarray(self.actions, dtype=np.int64)
        if self.states.ndim != 2 or self.actions.ndim != 2:
            raise ConfigError("states and actions must be 2-D arrays")
        if self.states.shape[0] != self.actions.shape[0]:
            raise ConfigError("states and actions disagree on trajectory count")
        if self.states.shape[1] != self.actions.shape[1] + 1:
            raise ConfigError("states must hold exactly one more step than actions")

    @property
    def num_traj(self) -> int:
        return self.states.shape[0]

    @property
    def horizon(self) -> int:
        """T: number of actions per trajectory."""
        return self.actions.shape[1]

    def validate_against(self, env: GraphEnv) -> None:
        """Check every stored transition against the environment dynamics."""
        if self.states.min() < 0 or self.states.max() >= env.num_states:
            raise ValueError("dataset contains out-of-range states")
        if self.actions.min() < 0 or self.actions.max() >= env.num_actions:
            raise ValueError("dataset contains out-of-range actions")
        predicted = env.transition[self.states[:, :-1], self.actions]
        if not np.array_equal(predicted, self.states[:, 1:]):
            raise ValueError("dataset transitions are inconsistent with the environment")


# The most states a collected dataset holds, num_traj * (T + 1). Its states
# and actions take 16 bytes per state, 160 MB at the bound.
MAX_DATASET_STATES = 10**7

# The range of each argument of collect_dataset, and of its dataset.* row in
# harness._SETTINGS; a dataset file's header reads the num_traj and T rules.
_INTERVALS = {"num_traj": "[1, inf)", "T": "[1, inf)", "seed": "[0, inf)"}


def collect_dataset(env: GraphEnv, num_traj: int, T: int, seed: int) -> TrajectoryDataset:
    """Roll out uniform-random actions from uniform-random start states."""
    for name, value in (("num_traj", num_traj), ("T", T), ("seed", seed)):
        check_number(f"config key 'dataset.{name}'", value, "int", _INTERVALS[name])
    check_number("config keys 'dataset.num_traj' * ('dataset.T' + 1)", num_traj * (T + 1), "int",
                 f"[1, {MAX_DATASET_STATES}]")
    rng = np.random.default_rng(seed)
    states = np.empty((num_traj, T + 1), dtype=np.int64)
    actions = rng.integers(0, env.num_actions, size=(num_traj, T), dtype=np.int64)
    states[:, 0] = rng.integers(0, env.num_states, size=num_traj, dtype=np.int64)
    for t in range(T):
        states[:, t + 1] = env.transition[states[:, t], actions[:, t]]
    ds = TrajectoryDataset(states, actions)
    ds.validate_against(env)
    return ds


def sample_index_pairs(T: int, size, rng: np.random.Generator, allow_equal: bool = False):
    """Uniform (i, j) over {0..T-1}^2 with i < j (or i <= j when allow_equal),
    one pair per entry of the shape ``size``. T is at least 2 (1 with
    allow_equal), as each learner's ``min_horizon`` ensures.

    Uses the distinct-pair trick: draw a in [0, m), b in [0, m-1), bump b past
    a, and sort. With allow_equal the pair is drawn from m = T + 1 positions
    and mapped back through j -> j - 1, which is a bijection onto {i <= j}.
    """
    m = T + 1 if allow_equal else T
    a = rng.integers(0, m, size=size)
    b = rng.integers(0, m - 1, size=size)
    b = b + (b >= a)
    i = np.minimum(a, b)
    j = np.maximum(a, b)
    if allow_equal:
        j = j - 1
    return i, j


def sample_triplet_batch(ds: TrajectoryDataset, size, rng: np.random.Generator):
    """Vectorized triplet draw: (traj_ids, i, j, k) arrays of shape ``size``
    with i < j and i <= k <= j-1 in every entry; the horizon is at least 2."""
    traj = rng.integers(0, ds.num_traj, size=size)
    i, j = sample_index_pairs(ds.horizon, size, rng)
    k = i + rng.integers(0, j - i)  # per-element high; uniform over {i..j-1}
    return traj, i, j, k


def sample_relabeled_goal_batch(
    ds: TrajectoryDataset,
    traj: np.ndarray,
    t: np.ndarray,
    cfg,
    rng: np.random.Generator,
) -> np.ndarray:
    """Vectorized hindsight goal relabeling for (traj, t) anchor points: one
    goal state per entry of ``traj`` and ``t``, two arrays of one shape.

    Each goal is, with probability cfg.p_cur, the anchor's own state; with
    cfg.p_geom, the state geometric(cfg.geom_param) steps later, truncated
    at the trajectory's end; with cfg.p_traj, a uniform state of the
    trajectory from the anchor on; with the rest, 1 - p_cur - p_geom -
    p_traj, a uniform state of the whole dataset. ``cfg`` is a LearnerConfig.

    All random draws happen unconditionally in a fixed order so the stream
    of generator calls (and therefore the result) is reproducible. States
    are read through flat indices traj * (T + 1) + step.
    """
    traj = np.asarray(traj)
    t = np.asarray(t)
    size = traj.shape
    T = ds.horizon

    u = rng.random(size)
    geom_delta = rng.geometric(cfg.geom_param, size=size)
    future_t = t + rng.integers(0, T - t + 1)  # uniform over {t..T}, per element
    flat = rng.integers(0, ds.states.size, size=size)

    row = traj * (T + 1)
    c1 = cfg.p_cur
    c2 = c1 + cfg.p_geom
    c3 = c2 + cfg.p_traj
    # Each goal's flat index: the current state, a geometric or a uniform
    # future state of its trajectory, or a uniform state of the dataset.
    idx = np.select(
        (u < c1, u < c2, u < c3),
        (row + t, row + np.minimum(t + geom_delta, T), row + future_t),
        default=flat,
    )
    return ds.states.ravel()[idx]


def sample_flat_states(ds: TrajectoryDataset, size, rng: np.random.Generator) -> np.ndarray:
    """Uniform states from the whole dataset (every (traj, step) cell equally
    likely), one per entry of the shape ``size``."""
    return ds.states.ravel()[rng.integers(0, ds.states.size, size=size)]


def save_dataset(ds: TrajectoryDataset, path: str) -> None:
    """CSV layout: header 'num_traj,T', then alternating state/action rows."""
    with open(path, "w") as fh:
        fh.write(f"{ds.num_traj},{ds.horizon}\n")
        for n in range(ds.num_traj):
            fh.write(",".join(map(str, ds.states[n].tolist())) + "\n")
            fh.write(",".join(map(str, ds.actions[n].tolist())) + "\n")


def _parse_row(path: str, n: int, field: str, line: str, length: int) -> np.ndarray:
    try:
        row = np.array([int(tok) for tok in line.split(",")], dtype=np.int64)
    except (ValueError, OverflowError):
        raise ConfigError(f"{path}: trajectory {n} {field} row is not int64 integers") from None
    if len(row) != length:
        raise ConfigError(
            f"{path}: trajectory {n} {field} row has {len(row)} entries, expected {length}"
        )
    return row


def load_dataset(path: str, env: GraphEnv) -> TrajectoryDataset:
    """Read a dataset saved by :func:`save_dataset` and validate it against
    ``env``, raising ConfigError naming ``path`` if the two do not fit.

    Rows are checked against the header as they are read, so a bad header
    is a config error before anything is sized from it.
    """
    with open_input(path) as fh:
        header = fh.readline().strip()
        try:
            num_traj, T = (int(tok) for tok in header.split(","))
        except ValueError as exc:
            raise ConfigError(f"bad dataset header in {path}: {_shown(header)}") from exc
        for field, value in (("num_traj", num_traj), ("T", T)):
            check_number(f"{path}: header field {field}", value, "int", _INTERVALS[field])
        states, actions = [], []
        for n in range(num_traj):
            srow = fh.readline().strip()
            arow = fh.readline().strip()
            if not srow or not arow:
                raise ConfigError(
                    f"{path}: truncated at trajectory {n} (header num_traj={num_traj})"
                )
            states.append(_parse_row(path, n, "states", srow, T + 1))
            actions.append(_parse_row(path, n, "actions", arow, T))
    ds = TrajectoryDataset(np.stack(states), np.stack(actions))
    try:
        ds.validate_against(env)
    except ValueError as exc:
        raise ConfigError(f"{path}: does not fit the environment: {exc}") from None
    return ds
