"""End-to-end experiment orchestration.

A run is (method, seed) on a shared environment and dataset: train a value
table, extract a policy, evaluate on a fixed task set, write CSVs. A sweep
executes a matrix of runs from a JSON config and aggregates a summary with
normal-approximation confidence intervals over seeds. Everything downstream
of the config is deterministic, so repeated executions produce
byte-identical CSV artifacts.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import asdict, dataclass, fields, replace

import numpy as np

from . import analysis as analysis_mod
from . import dataset as dataset_mod
from . import env as env_mod
from . import learners
from .dataset import TrajectoryDataset, collect_dataset, save_dataset
from .env import (
    ConfigError,
    GraphEnv,
    _shown,
    build_grid_env,
    check_choice,
    check_number,
    load_env,
    open_input,
    parse_walls,
)
from .learners import (
    METHODS,
    LearnerConfig,
    PolyakTarget,
    ValueTable,
    save_table,
    step_batches,
    target_sync,
    transitive_sweeps,
)
from .oracle import (
    UNREACHABLE,
    all_pairs_distances,
    implied_distances,
    optimal_value_table,
    q_table_from_values,
)
from .policy import (
    BehaviorPolicy,
    estimate_behavior_policy,
    greedy_action_batch,
    rejection_sample_action,
)

@dataclass
class EvalReport:
    """Per-task success rates plus the rank agreement with oracle distances."""

    tasks: list[dict]  # task_id, start, goal, success_rate, episodes
    spearman_to_oracle: float


def config_hash(payload: dict) -> str:
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# Training


def check_run(env: GraphEnv, ds: TrajectoryDataset | None, cfg: LearnerConfig) -> None:
    """Raise ConfigError naming the key unless the run ``cfg`` can start on
    ``env`` and ``ds``: the one check of each rule that joins a run's
    settings to its environment or data (a rule on one side is checked where
    that side is built). :func:`train_run` makes it first, and a sweep makes
    it for every run before it writes anything. ``exact`` reads no data;
    every other method needs a dataset of at least its ``min_horizon``
    actions, and coe with a goal regularizer needs the grid coordinates."""
    if cfg.method == "exact":
        return
    if ds is None:
        raise ConfigError(f"method {cfg.method!r} requires a dataset")
    check_number(f"config key 'dataset.T' for method {cfg.method!r}", ds.horizon, "int",
                 f"[{METHODS[cfg.method].min_horizon}, inf)")
    if cfg.method == "coe" and cfg.beta_goal_reg > 0 and env.state_coords is None:
        raise ConfigError(
            "config key 'learner.beta_goal_reg' must be 0 for coe on an environment "
            "without grid coordinates"
        )


def train_run(
    env: GraphEnv, ds: TrajectoryDataset | None, cfg: LearnerConfig
) -> tuple[ValueTable, list[dict]]:
    """Train one table and return it with its loss log. Deterministic given cfg.
    :func:`check_run` checks the run first.

    ``exact`` logs one row per (min, +) sweep (the loss is the number of
    pairs the sweep shortened, ``mean_q`` the mean of gamma^d) and turns each
    sweep's distances into values with ``oracle.optimal_value_table``, as the
    oracle's own tables are turned. Every other method runs
    cfg.steps calls of ``learners.<method>_update_step`` (looked up when the
    run starts, so rebinding the module attribute reaches every call) on the
    batches of ``learners.step_batches``, each followed by a target sync. It
    evaluates a step's statistics only on the steps it logs: every
    ``cfg.log_every`` steps and the last one. It raises ValueError at a
    step that overflows or on a non-finite table; the caller names the run.
    """
    check_run(env, ds, cfg)
    log: list[dict] = []
    if cfg.method == "exact":
        for sweep, (d, shortened) in enumerate(transitive_sweeps(env)):
            v = optimal_value_table(d, cfg.gamma)
            stats = {"loss": shortened, "mean_q": float(v.mean())}
            log.append({"step": sweep, "method": cfg.method, **stats})
        return ValueTable(q_table_from_values(env, v, cfg.gamma), cfg.gamma, space="value"), log

    method = METHODS[cfg.method]
    q = ValueTable.create(env.num_states, env.num_actions, cfg.gamma, space=method.space)
    target = PolyakTarget(q)
    state = method.state(env, q, cfg)
    update = getattr(learners, f"{cfg.method}_update_step")
    batches = step_batches(ds, q.params.shape, cfg)
    log_every = cfg.log_every
    try:
        with np.errstate(over="raise", invalid="raise"):
            for step_idx, batch in zip(range(cfg.steps), batches):
                stats = update(target, state, batch, cfg)
                target_sync(target, cfg.tau_target)
                if step_idx % log_every == 0 or step_idx == cfg.steps - 1:
                    log.append({"step": step_idx, "method": cfg.method, **stats()})
    except FloatingPointError as exc:
        raise ValueError(f"training overflowed at step {step_idx}: {exc}") from exc
    if not np.isfinite(q.params).all():
        raise ValueError("training ended with a non-finite table")
    return q, log


# ---------------------------------------------------------------------------
# Evaluation


def select_tasks(d: np.ndarray, num_tasks: int, min_distance: int = 1) -> list[tuple[int, int]]:
    """Deterministic task pairs spread across the reachable distance range
    of the distance table ``d``: order the candidate pairs by (distance,
    start, goal) and take evenly spaced quantile positions.

    The order is never formed: counting the pairs of each distance gives the
    distance group of every position, and only those groups are read, each
    in (start, goal) order."""
    flat = d.reshape(-1)
    # counts[v]: candidate pairs v steps apart (UNREACHABLE is negative).
    counts = np.bincount(flat[flat >= max(min_distance, 0)])
    ends = np.cumsum(counts)
    if ends.size == 0:
        raise ConfigError(
            f"config key 'eval.min_task_distance': no reachable pair is {min_distance} or more "
            "steps apart"
        )
    # A set, not np.unique, whose first call imports numpy.ma (16 ms).
    positions = np.array(sorted(set(np.round(np.linspace(0, ends[-1] - 1, num_tasks)).astype(int))))
    groups = np.searchsorted(ends, positions, side="right")  # the distance at each position
    offsets = positions - (ends - counts)[groups]  # its rank within that distance
    pairs = np.zeros(positions.size, dtype=np.int64)
    for v in set(groups.tolist()):
        here = groups == v
        pairs[here] = np.flatnonzero(flat == v)[offsets[here]]
    return [divmod(int(pair), d.shape[1]) for pair in pairs]


def _rollout(env, act, start, goal, max_steps) -> bool:
    """Whether following ``act(s, goal)`` from ``start`` hits ``goal``
    within ``max_steps`` steps."""
    s = start
    if s == goal:
        return True
    for _ in range(max_steps):
        s = int(env.transition[s, act(s, goal)])
        if s == goal:
            return True
    return False


def _average_ranks(x: np.ndarray, out: np.ndarray) -> None:
    """Write the 1-based ranks of ``x`` into ``out``, using ``x`` as scratch;
    a run of tied entries shares the mean of its positions. Every rank is a
    half-integer, exact in float64, so the sort algorithm (stable or not)
    cannot change a bit of the result.

    Besides ``x`` and ``out`` it holds only the argsort order and one bool
    mask: the sorted values go into ``out``, the 1-based positions into
    ``x``, and a run's first and last positions spread over it by a running
    maximum and a reversed running minimum; their mean is the run's rank."""
    order = np.argsort(x)
    # Every order entry indexes x, so "clip" never acts; "raise" would buffer.
    np.take(x, order, out=out, mode="clip")
    tied = out[1:] == out[:-1]  # tied[i]: sorted positions i and i + 1 share a run
    np.cumsum(np.broadcast_to(1.0, x.size), out=x)
    np.copyto(out, x)
    np.copyto(out[1:], 0.0, where=tied)  # positions that start no run
    np.maximum.accumulate(out, out=out)  # the first position of each run
    np.copyto(x[:-1], np.inf, where=tied)  # positions that end no run
    np.minimum.accumulate(x[::-1], out=x[::-1])  # the last position of each run
    x += out
    x *= 0.5
    out[order] = x


def _counted_ranks(x: np.ndarray, out: np.ndarray) -> None:
    """:func:`_average_ranks` of a nonnegative integer array, by counting:
    an entry's rank is the number of entries below it plus (the number
    equal to it + 1) / 2, the same half-integers, with no sort."""
    counts = np.bincount(x)
    # Every x indexes the table, so "clip" never acts; it lets take write
    # into out directly, where "raise" would buffer a copy.
    np.take(np.cumsum(counts) - counts + (counts + 1) / 2, x, out=out, mode="clip")


def spearman_to_oracle(q: ValueTable, d: np.ndarray) -> float:
    """Spearman rank correlation between greedy-action implied distances and
    the true distances ``d`` over all reachable pairs: the statistic of
    ``scipy.stats.spearmanr``, bit for bit, with the integer distances
    ranked by counting. 0.0, with no warning, for fewer than two pairs, a
    constant column or a NaN. A pair's greedy value is the maximum of its
    action values, whichever action a tie-break picks; it is taken one
    action at a time, each pass reading that action's S x S values.

    The only arrays as large as the pair count are one (2, n) rank array,
    the argsort order and one-byte masks: the implied distances go into the
    oracle's row, which the learned ranks use as scratch before the oracle
    ranks overwrite it, and ``np.corrcoef``'s steps run on the ranks in
    place."""
    # A running maximum from -inf writes into a new array, never into a
    # value table that values_at hands out as a view; NaN passes through.
    best = np.full(d.shape, -np.inf)
    for a in range(q.params.shape[1]):
        np.maximum(best, q.values_at((slice(None), a, slice(None))), out=best)
    implied_distances(best, q.gamma, out=best)
    implied, true = best.reshape(-1), d.reshape(-1)
    reached = true != UNREACHABLE
    n = int(np.count_nonzero(reached))
    if n < true.size:
        implied, true = implied[reached], true[reached]
    del best, reached  # each full-size array is dropped once it is read
    ranked = np.empty((2, n))  # the learned ranks, then the oracle's
    ranked[1] = implied
    del implied
    constant = n < 2 or (ranked[1] == ranked[1, 0]).all() or (true == true[0]).all()
    if constant or np.isnan(ranked[1]).any():
        return 0.0
    _average_ranks(ranked[1], out=ranked[0])
    _counted_ranks(true, out=ranked[1])
    # np.corrcoef's steps, in place: it would copy the ranks twice.
    ranked -= ranked.mean(axis=1)[:, None]
    c = np.dot(ranked, ranked.T)
    c *= np.true_divide(1, n - 1)
    stddev = np.sqrt(np.diag(c))
    c /= stddev[:, None]
    c /= stddev[None, :]
    return float(np.clip(c, -1, 1)[1, 0])


def evaluate_policy(env, q, beh, dist, tasks, eval_spec: dict, seed: int) -> EvalReport:
    """Roll out the policy extracted from ``q`` on ``tasks``, pairs of the
    distance table ``dist``, and rank ``q`` against ``dist``. ``eval_spec``
    holds the ``eval`` keys of a sweep config, as :func:`block_settings`
    checks them. A rollout succeeds if it hits the exact goal within
    max_steps_factor times the task's distance, and at least 1 step.

    The env and the greedy policy are deterministic, so a greedy task is
    rolled out once and that rollout decides every episode, and its budget
    is at most S - 1 steps: a greedy walk that has not hit its goal by then
    has revisited a state, so it never will. Rejection sampling rolls out
    every episode, drawing from rng [seed, 2025]."""
    episodes = eval_spec["episodes"]
    if eval_spec["extraction"] == "greedy":
        rollouts, longest = 1, env.num_states - 1

        def act(s, goal):
            return int(greedy_action_batch(q, np.array([s]), np.array([goal]))[0])

    else:
        rollouts, longest, rng = episodes, float("inf"), np.random.default_rng([seed, 2025])

        def act(s, goal):
            return rejection_sample_action(q, beh, s, goal, eval_spec["rejection_n"], rng)

    rows = []
    for task_id, (start, goal) in enumerate(tasks):
        budget = min(max(1, eval_spec["max_steps_factor"] * int(dist[start, goal])), longest)
        wins = sum(_rollout(env, act, start, goal, budget) for _ in range(rollouts))
        rows.append({"task_id": task_id, "start": start, "goal": goal,
                     "success_rate": wins / rollouts, "episodes": episodes})
    return EvalReport(rows, spearman_to_oracle(q, dist))


# ---------------------------------------------------------------------------
# Experiment configs


# The keys each kind of environment reads besides its "kind".
_ENV_KEYS = {"grid": ("width", "height", "walls"), "file": ("path",)}
# Every setting of a sweep config by dotted key: (default, rule). A None
# default marks a required key, a list default a list setting whose entries
# each follow the rule, none twice, and _NON_EMPTY a list that must be given
# and hold an entry. A rule is the tuple of values a setting takes, or a
# number's range as learners._INTERVALS writes it, real for a float default.
# The env.*, dataset.* and learner.* rows take their ranges from the
# _INTERVALS of env, dataset and learners, whose checks read the same text.
# Upper ends bound work: a rejection eval rolls out every episode, for up to
# max_steps_factor * d draws of rejection_n uniforms (35 s at the episodes end
# on a 16x16 grid, 25 s at the rejection_n end on a 4x4 grid); the task choice
# lays out num_tasks positions before it drops repeats; the recursion table
# takes 16 bytes per n up to n_max, and at both bounds `gclab recursion --sim
# 10000000` runs in 8.7 s at 437 MB peak RSS (2-vCPU Xeon, numpy 2.4.6).
_NON_EMPTY = [None]
_SETTINGS = {
    **{f"env.{name}": (None, rule) for name, rule in env_mod._INTERVALS.items()},
    **{f"dataset.{name}": (None, rule) for name, rule in dataset_mod._INTERVALS.items()},
    "methods": (_NON_EMPTY, tuple(METHODS)),
    "seeds": (_NON_EMPTY, learners._INTERVALS["seed"]),  # each entry is a run's learner.seed
    "n_values": ([], learners._INTERVALS["n_step"]),  # each entry is a run's learner.n_step
    "eval.num_tasks": (5, "[1, 100000]"),
    "eval.episodes": (15, "[1, 10000]"),
    "eval.max_steps_factor": (4, "[1, 1000]"),
    "eval.extraction": ("greedy", ("greedy", "rejection")),
    "eval.rejection_n": (32, "[1, 1000000]"),
    "eval.min_task_distance": (1, "[0, inf)"),
    "recursion.n_max": (10**6, "[1, 10000000]"),
    "recursion.sim_sizes": ([], "[1, inf)"),
    "recursion.trials": (100_000, "[1, 10000000]"),
    "recursion.seed": (0, "[0, inf)"),
    **{f"learner.{f.name}": (f.default, tuple(METHODS) if f.name == "method"
                             else learners._INTERVALS[f.name]) for f in fields(LearnerConfig)},
}
_TOP_KEYS = {"out_dir", "env", *(key.partition(".")[0] for key in _SETTINGS)}
# Learner fields a sweep sets per run, and the list that sets them when it is
# non-empty: the same field under 'learner' would be silently overwritten.
_PER_RUN = {"method": "methods", "seed": "seeds", "n_step": "n_values"}


def block_defaults(block: str) -> dict:
    """Each key of a sweep config's ``block`` ("" for the top) with its default."""
    return {key.rpartition(".")[2]: default for key, (default, _) in _SETTINGS.items()
            if key.rpartition(".")[0] == block}


def check_setting(key: str, value) -> None:
    """Raise ConfigError naming ``key`` (dotted, as in the sweep config)
    unless ``value`` follows its rule in ``_SETTINGS``. A list setting must
    be a list whose entries each follow the rule, with no entry twice."""
    default, rule = _SETTINGS[key]
    entries = value if isinstance(default, list) else [value]
    if not isinstance(entries, list):
        raise ConfigError(f"config key '{key}' must be a list, got {_shown(value)}")
    for entry in entries:
        if isinstance(rule, str):
            kind = "float" if isinstance(default, float) else "int"
            check_number(f"config key '{key}'", entry, kind, rule)
        else:
            check_choice(f"config key '{key}'", entry, rule)
    if len(set(entries)) < len(entries):
        raise ConfigError(f"config key '{key}' has a duplicate entry: {_shown(value)}")


def block_settings(block: str, spec) -> dict:
    """The ``block`` object of a sweep config with its defaults filled in.
    Raises ConfigError naming the first unknown, missing or bad key."""
    if not isinstance(spec, dict):
        raise ConfigError(f"config key '{block}' must be an object")
    defaults = block_defaults(block)
    for key in spec:
        if key not in defaults:
            raise ConfigError(f"unknown config key {_shown(f'{block}.{key}')}")
    settings = {**defaults, **spec}
    for key, value in settings.items():
        if key not in spec and value is None:
            raise ConfigError(f"missing config key '{block}.{key}'")
        check_setting(f"{block}.{key}", value)
    return settings


def _run_configs(config: dict, base: LearnerConfig) -> list[tuple[str, LearnerConfig]]:
    """Every (label, run config) of the sweep: each method (td_n once per
    entry of the optional ``n_values``, labeled td-<n>) at each seed."""
    labeled, n_values = [], config["n_values"]
    for method in config["methods"]:
        if method == "td_n" and n_values:
            labeled += [(f"td-{n}", replace(base, method="td_n", n_step=n)) for n in n_values]
        else:
            labeled.append((method, replace(base, method=method)))
    return [(label, replace(cfg, seed=seed)) for label, cfg in labeled for seed in config["seeds"]]


def validate_experiment_config(config: dict) -> dict:
    """Normalize a sweep config, naming the offending key on any problem.

    Every setting is checked, and the environment (``_env``, by
    :func:`build_env_from_spec`) and every run config (``_runs``) built, before
    the sweep writes anything; the rules that join them are :func:`check_run`'s.
    """
    if not isinstance(config, dict):
        raise ConfigError("config must be a JSON object")
    for key in config:
        if key not in _TOP_KEYS:
            raise ConfigError(f"unknown config key {_shown(key)}")
    top = block_defaults("")
    for key in ("out_dir", "env", "dataset", *(k for k, d in top.items() if d is _NON_EMPTY)):
        if key not in config:
            raise ConfigError(f"missing config key {key!r}")
    out_dir = config["out_dir"]
    if not isinstance(out_dir, str) or not out_dir:
        raise ConfigError(f"config key 'out_dir' must be a non-empty path, got {_shown(out_dir)}")

    normalized = {**top, **config, "_env": build_env_from_spec(config["env"])}
    normalized["dataset"] = block_settings("dataset", config["dataset"])
    lists = [key for key, default in top.items() if isinstance(default, list)]
    for key in lists:
        check_setting(key, normalized[key])
    for key in lists:
        if top[key] is _NON_EMPTY and not normalized[key]:
            raise ConfigError(f"config key '{key}' must be a non-empty list")
    if normalized["n_values"] and "td_n" not in normalized["methods"]:
        raise ConfigError("config key 'n_values' is read only by method 'td_n', "
                          "which 'methods' does not list")
    normalized["eval"] = block_settings("eval", config.get("eval", {}))
    if "recursion" in config:
        rec = normalized["recursion"] = block_settings("recursion", config["recursion"])
        analysis_mod.check_sim_sizes(rec["n_max"], rec["sim_sizes"])
    learner = config.get("learner", {})
    base = LearnerConfig(**block_settings("learner", learner))
    for key, source in _PER_RUN.items():
        if key in learner and normalized[source]:
            raise ConfigError(f"config key 'learner.{key}' is set per run by '{source}'")
    normalized["_runs"] = _run_configs(normalized, base)
    return normalized


def build_env_from_spec(env_spec: dict) -> GraphEnv:
    """The environment of a sweep config's ``env`` block, or of the env flags of
    ``gclab gen``, ``train`` and ``eval``; a ConfigError names the bad ``env.*`` key."""
    if not isinstance(env_spec, dict) or "kind" not in env_spec:
        raise ConfigError("config key 'env' must be an object with a 'kind'")
    kind = env_spec["kind"]
    check_choice("config key 'env.kind'", kind, tuple(_ENV_KEYS))
    for key in env_spec:
        if key != "kind" and key not in _ENV_KEYS[kind]:
            raise ConfigError(f"config key {_shown(f'env.{key}')} is not read by a {kind!r} "
                              "environment")
    if kind == "file":
        if not isinstance(env_spec.get("path"), str):
            raise ConfigError("config key 'env.path' must be a file path string")
        return load_env(env_spec["path"])
    if "width" not in env_spec or "height" not in env_spec:
        raise ConfigError("config keys 'env.width' and 'env.height' are required for grids")
    walls = parse_walls(env_spec.get("walls", []))
    return build_grid_env(env_spec["width"], env_spec["height"], walls)


# ---------------------------------------------------------------------------
# CSV writers (repr-formatted floats keep artifacts byte-stable)


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, float):
        return repr(x)
    return str(x)


def write_csv(path: str, header: list[str], rows: list[dict]) -> None:
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(row[h]) for h in header) + "\n")


def write_loss_log(path: str, log: list[dict]) -> None:
    write_csv(path, ["step", "loss", "mean_q"], log)


def write_eval_csv(path: str, report: EvalReport) -> None:
    rows = [
        {**row, "spearman": report.spearman_to_oracle}
        for row in report.tasks
    ]
    write_csv(path, ["task_id", "success_rate", "episodes", "spearman"], rows)


def write_recursion_csv(path: str, rows: list[dict]) -> None:
    write_csv(path, ["n", "B_n", "bound", "C_n", "sim_mean", "sim_stderr"], rows)


# ---------------------------------------------------------------------------
# The sweep


def train_and_save(
    env: GraphEnv,
    ds: TrajectoryDataset | None,
    label: str,
    cfg: LearnerConfig,
    run_dir: str,
) -> tuple[ValueTable, list[dict]]:
    """Train one run (see :func:`train_run`) and write its ``loss.csv``,
    ``table.bin`` and ``meta.json`` into ``run_dir``, which is created only
    once training has succeeded. ``meta.json`` holds the label, the seed, a
    hash of the label and every learner setting (the log period among
    them), and the training wall time."""
    started = time.time()
    q, log = train_run(env, ds, cfg)
    meta = {
        "method": label,
        "seed": cfg.seed,
        "config_hash": config_hash({"label": label, "learner": asdict(cfg)}),
        "wall_time_s": time.time() - started,
    }
    os.makedirs(run_dir, exist_ok=True)
    write_loss_log(os.path.join(run_dir, "loss.csv"), log)
    save_table(q, os.path.join(run_dir, "table.bin"))
    with open(os.path.join(run_dir, "meta.json"), "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
    return q, log


def run_single(
    env: GraphEnv,
    ds: TrajectoryDataset,
    dist: np.ndarray,
    beh: BehaviorPolicy | None,
    label: str,
    cfg: LearnerConfig,
    tasks: list[tuple[int, int]],
    eval_spec: dict,
    run_dir: str,
) -> EvalReport:
    q, _ = train_and_save(env, ds, label, cfg, run_dir)
    report = evaluate_policy(env, q, beh, dist, tasks, eval_spec, cfg.seed)
    write_eval_csv(os.path.join(run_dir, "eval.csv"), report)
    return report


def _read_eval_csv(path: str) -> list[tuple[str, float, float]]:
    """(task_id, success_rate, spearman) of each row of a run's eval.csv,
    raising ConfigError naming ``path`` when a column is missing, a row has
    not the header's field count, a value is not a number, or a task_id
    repeats (one run is one seed of each task)."""
    columns = ("task_id", "success_rate", "spearman")
    with open_input(path) as fh:
        header = fh.readline().strip().split(",")
        for column in columns:
            if column not in header:
                raise ConfigError(f"{path}: header has no column {column!r}")
        task, rate, rho = (header.index(column) for column in columns)
        rows, first_line = [], {}
        for line_no, line in enumerate(fh, start=2):
            if not line.strip():
                continue
            values = line.strip().split(",")
            if len(values) != len(header):
                raise ConfigError(f"{path}: line {line_no} has {len(values)} fields, "
                                  f"the header {len(header)}")
            if values[task] in first_line:
                raise ConfigError(f"{path}: line {line_no} repeats task_id {_shown(values[task])} "
                                  f"of line {first_line[values[task]]}")
            first_line[values[task]] = line_no
            try:
                rows.append((values[task], float(values[rate]), float(values[rho])))
            except ValueError as exc:
                raise ConfigError(f"{path}: line {line_no}: {exc}") from None
    return rows


def aggregate_summary(out_dir: str) -> str:
    """Recompute the summary from per-run eval CSVs (the only code path that
    produces summary.csv, so re-aggregation is trivially consistent). Every
    eval CSV is read (:func:`_read_eval_csv`) before summary.csv is written,
    and a ``runs`` directory in which no run holds one is refused. A sweep
    writes the summary only after some run succeeded, and every successful
    run has written its eval.csv."""
    runs_dir = os.path.join(out_dir, "runs")
    if not os.path.isdir(runs_dir):
        raise ConfigError(f"no runs directory under {out_dir}")
    groups: dict[tuple[str, str], list[float]] = {}
    evaluated = 0
    for run_name in sorted(os.listdir(runs_dir)):
        eval_path = os.path.join(runs_dir, run_name, "eval.csv")
        if not os.path.isfile(eval_path):
            continue
        evaluated += 1
        label = run_name.rsplit("_seed", 1)[0]
        rows_in = _read_eval_csv(eval_path)
        for task_id, success_rate, _ in rows_in:
            groups.setdefault((label, task_id), []).append(success_rate)
        if rows_in:  # spearman is a run-level statistic repeated on every row
            groups.setdefault((label, "spearman"), []).append(rows_in[0][2])
    if not evaluated:
        raise ConfigError(f"{runs_dir}: no run directory holds an eval.csv")
    rows = []
    for (label, task_id), values in sorted(groups.items()):
        arr = np.array(values)
        ci95 = 1.96 * arr.std(ddof=1) / np.sqrt(arr.size) if arr.size > 1 else 0.0
        rows.append(
            {
                "method": label,
                "task_id": task_id,
                "mean": float(arr.mean()),
                "ci95": float(ci95),
                "seeds": arr.size,
            }
        )
    path = os.path.join(out_dir, "summary.csv")
    write_csv(path, ["method", "task_id", "mean", "ci95", "seeds"], rows)
    return path


def run_experiment(config_or_path) -> int:
    """Execute a (method x seed) matrix; returns 0, or 1 if any run was
    refused (see :func:`train_run`), after printing a FAILED line for each.
    Partial results stay on disk, and the summary is written unless every
    run was refused. A ConfigError is raised, never counted as a refused
    run, and the config, the dataset size, every run (:func:`check_run`),
    the distances and the task set are checked before ``out_dir`` is
    created; so is ``out_dir`` itself, whose ``runs`` directory must be
    missing or empty, since the summary reads every run under it."""
    if isinstance(config_or_path, str):
        with open_input(config_or_path) as fh:
            text = fh.read()
        try:
            config = json.loads(text)
        except ValueError as exc:  # bad JSON, or an integer of more than 4300 digits
            raise ConfigError(f"config {config_or_path} is not valid JSON: {exc}") from exc
    else:
        config = config_or_path
    config = validate_experiment_config(config)
    env = config["_env"]
    ds = collect_dataset(env, **config["dataset"])
    for _, cfg in config["_runs"]:
        check_run(env, ds, cfg)
    dist = all_pairs_distances(env)
    eval_spec = config["eval"]
    tasks = select_tasks(dist, eval_spec["num_tasks"], eval_spec["min_task_distance"])
    out_dir, runs_dir = config["out_dir"], os.path.join(config["out_dir"], "runs")
    if os.path.isdir(runs_dir) and os.listdir(runs_dir):
        raise ConfigError(f"config key 'out_dir': {runs_dir} already holds another sweep's runs")
    os.makedirs(out_dir, exist_ok=True)
    save_dataset(ds, os.path.join(out_dir, "dataset.csv"))
    # Greedy extraction reads no behavior policy, so none is estimated for it.
    beh = estimate_behavior_policy(ds, env) if eval_spec["extraction"] == "rejection" else None

    failures = []
    for label, cfg in config["_runs"]:
        run_dir = os.path.join(runs_dir, f"{label}_seed{cfg.seed}")
        try:
            run_single(env, ds, dist, beh, label, cfg, tasks, eval_spec, run_dir)
        except ConfigError:
            raise
        except (ValueError, RuntimeError) as exc:
            failures.append(f"{label} seed {cfg.seed}: {exc}")

    if "recursion" in config:
        rows = analysis_mod.recursion_report_rows(**config["recursion"])
        write_recursion_csv(os.path.join(out_dir, "recursion.csv"), rows)

    for failure in failures:
        print(f"FAILED {failure}")
    if len(failures) < len(config["_runs"]):
        aggregate_summary(out_dir)
    return 1 if failures else 0
