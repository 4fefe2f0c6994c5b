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
from dataclasses import asdict, dataclass, replace

import numpy as np

from . import analysis as analysis_mod
from . import learners
from .dataset import TrajectoryDataset, collect_dataset, save_dataset
from .env import (
    ConfigError,
    GraphEnv,
    build_grid_env,
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
    optimal_value_table,
    q_table_from_values,
)
from .policy import (
    BehaviorPolicy,
    estimate_behavior_policy,
    greedy_action_batch,
    rejection_sample_action,
)

# Loss-log period of a stochastic run, in steps.
LOG_EVERY = 1000


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


def train_run(
    env: GraphEnv,
    ds: TrajectoryDataset | None,
    cfg: LearnerConfig,
    log_every: int = LOG_EVERY,
) -> tuple[ValueTable, list[dict]]:
    """Train one table and return it with its loss log. Deterministic given cfg.

    ``exact`` logs one row per (min, +) sweep (the loss is the number of
    pairs the sweep shortened, ``mean_q`` the mean of gamma^d) and turns the
    distances into values as the oracle does: it reads gamma^d from a table
    of the S powers made by ``optimal_value_table``, with 0 for no path, so
    a sweep costs no S x S powers. Every other method runs
    cfg.steps calls of ``learners.<method>_update_step`` (looked up when the
    run starts, so rebinding the module attribute reaches every call) on the
    batches of ``learners.step_batches``, each followed by a target sync. It
    evaluates a step's statistics only on the steps it logs: every
    ``log_every`` steps and the last one. It raises ValueError, naming the
    method and seed, if the trained table holds a non-finite entry.
    """
    log: list[dict] = []
    if cfg.method == "exact":
        # Finite distances are below S and a sweep's no-path marker is not,
        # so mode="clip" reads it as the last entry, 0.
        steps = np.append(np.arange(env.num_states), UNREACHABLE)
        powers = optimal_value_table(steps, cfg.gamma)
        for sweep, (d, shortened) in enumerate(transitive_sweeps(env)):
            v = np.take(powers, d, mode="clip")
            stats = {"loss": shortened, "mean_q": float(v.mean())}
            log.append({"step": sweep, "method": cfg.method, **stats})
        return ValueTable(q_table_from_values(env, v, cfg.gamma), cfg.gamma, space="value"), log

    method = METHODS[cfg.method]
    if ds is None:
        raise ConfigError(f"method {cfg.method!r} requires a dataset")
    if ds.horizon < method.min_horizon:
        raise ConfigError(
            f"method {cfg.method!r} needs trajectories with T >= {method.min_horizon}"
        )
    check_setting("log_every", log_every)
    q = ValueTable.create(env.num_states, env.num_actions, cfg.gamma, space=method.space)
    target = PolyakTarget(q)
    state = method.state(env, q, cfg)
    update = getattr(learners, f"{cfg.method}_update_step")
    batches = step_batches(ds, q.params.shape, cfg)
    for step_idx, batch in zip(range(cfg.steps), batches):
        stats = update(target, state, batch, cfg)
        target_sync(target, cfg.tau_target)
        if step_idx % log_every == 0 or step_idx == cfg.steps - 1:
            log.append({"step": step_idx, "method": cfg.method, **stats()})
    if not np.isfinite(q.params).all():
        raise ValueError(f"{cfg.method} seed {cfg.seed}: training ended with a non-finite table")
    return q, log


# ---------------------------------------------------------------------------
# Evaluation


def select_tasks(d: np.ndarray, num_tasks: int, min_distance: int = 1) -> list[tuple[int, int]]:
    """Deterministic task pairs spread across the reachable distance range
    of the distance table ``d``: sort candidate pairs by (distance, start,
    goal) and take evenly spaced quantile positions."""
    starts, goals = np.nonzero((d != UNREACHABLE) & (d >= min_distance))
    if starts.size == 0:
        raise ConfigError("environment has no reachable task pairs at the requested distance")
    order = np.lexsort((goals, starts, d[starts, goals]))
    starts, goals = starts[order], goals[order]
    # A set, not np.unique, whose first call imports numpy.ma (16 ms).
    positions = sorted(set(np.round(np.linspace(0, starts.size - 1, num_tasks)).astype(int)))
    return [(int(starts[p]), int(goals[p])) for p in positions]


def _rollout(env, q, beh, start, goal, max_steps, extraction, rejection_n, rng) -> bool:
    s = start
    if s == goal:
        return True
    for _ in range(max_steps):
        if extraction == "greedy":
            a = int(greedy_action_batch(q, np.array([s]), np.array([goal]))[0])
        else:
            a = rejection_sample_action(q, beh, s, goal, rejection_n, rng)
        s = int(env.transition[s, a])
        if s == goal:
            return True
    return False


def _average_ranks(x: np.ndarray) -> np.ndarray:
    """1-based ranks of ``x``; a run of tied entries shares the mean of its
    positions. Every rank is a half-integer, exact in float64, so the sort
    algorithm (stable or not) cannot change a bit of the result."""
    order = np.argsort(x)
    xs = x[order]
    starts = np.flatnonzero(np.concatenate(([True], xs[1:] != xs[:-1])))
    counts = np.diff(starts, append=x.size)
    ranks = np.empty(x.size)
    ranks[order] = np.repeat(starts + 1 + (counts - 1) / 2, counts)
    return ranks


def spearman_rho(a, b) -> float:
    """Spearman rank correlation of paired samples: the statistic of
    ``scipy.stats.spearmanr(a, b)``, bit for bit, without its p-value. NaN
    (and no warning) for fewer than two pairs, a constant input or a NaN."""
    ab = np.column_stack((a, b))  # one dtype for both, as spearmanr stacks them
    if ab.shape[0] < 2 or (ab[0] == ab).all(axis=0).any() or np.isnan(ab).any():
        return float("nan")
    ranked = np.column_stack((_average_ranks(ab[:, 0]), _average_ranks(ab[:, 1])))
    return float(np.corrcoef(ranked, rowvar=False)[1, 0])


def spearman_to_oracle(q: ValueTable, d: np.ndarray) -> float:
    """Rank correlation between greedy-action implied distances and the true
    distances ``d`` over all reachable pairs."""
    starts, goals = np.nonzero(d != UNREACHABLE)
    actions = greedy_action_batch(q, starts, goals)
    implied = q.implied_distances((starts, actions, goals))
    rho = spearman_rho(implied, d[starts, goals])
    return rho if np.isfinite(rho) else 0.0


def evaluate_policy(
    env: GraphEnv,
    q: ValueTable,
    beh: BehaviorPolicy | None,
    tasks: list[tuple[int, int]],
    episodes: int,
    max_steps,
    extraction: str = "greedy",
    rng: np.random.Generator | None = None,
    rejection_n: int = 32,
    dist: np.ndarray | None = None,
) -> EvalReport:
    """Roll out the extracted policy; success means hitting the exact goal
    within the step budget. max_steps may be one int or one per task.

    The env and the greedy policy are deterministic, so a greedy task is
    rolled out once and that rollout decides every episode; only rejection
    sampling reads ``rng``."""
    settings = {"episodes": episodes, "extraction": extraction, "rejection_n": rejection_n}
    for key, value in settings.items():
        check_setting(f"eval.{key}", value)
    if extraction == "rejection" and beh is None:
        raise ConfigError("rejection sampling requires a behavior policy")
    rng = rng if rng is not None else np.random.default_rng(0)
    dist = dist if dist is not None else all_pairs_distances(env)
    budgets = [max_steps] * len(tasks) if np.isscalar(max_steps) else list(max_steps)
    if any(b < 1 for b in budgets):
        raise ConfigError("max_steps must be >= 1 for every task")

    rows = []
    for task_id, ((start, goal), budget) in enumerate(zip(tasks, budgets)):
        if extraction == "greedy":
            won = _rollout(env, q, beh, start, goal, budget, extraction, rejection_n, rng)
            wins = episodes * won
        else:
            wins = sum(
                _rollout(env, q, beh, start, goal, budget, extraction, rejection_n, rng)
                for _ in range(episodes)
            )
        rows.append(
            {
                "task_id": task_id,
                "start": start,
                "goal": goal,
                "success_rate": wins / episodes,
                "episodes": episodes,
            }
        )
    rho = spearman_to_oracle(q, dist)
    return EvalReport(rows, rho)


def evaluate_run(env, q, beh, dist, eval_spec: dict, seed: int) -> EvalReport:
    """Evaluate ``q`` as a sweep run is evaluated (``eval_spec`` keys as in
    the sweep config's ``eval``): the task set from :func:`select_tasks`, a
    step budget of max_steps_factor times each task's distance (at least 1),
    and rollouts drawn from rng [seed, 2025]."""
    tasks = select_tasks(dist, eval_spec["num_tasks"], eval_spec["min_task_distance"])
    budgets = [max(1, eval_spec["max_steps_factor"] * int(dist[s, g])) for s, g in tasks]
    return evaluate_policy(
        env,
        q,
        beh,
        tasks,
        eval_spec["episodes"],
        budgets,
        extraction=eval_spec["extraction"],
        rng=np.random.default_rng([seed, 2025]),
        rejection_n=eval_spec["rejection_n"],
        dist=dist,
    )


# ---------------------------------------------------------------------------
# Experiment configs


# The keys each kind of environment reads besides its "kind".
_ENV_KEYS = {"grid": ("width", "height", "walls"), "file": ("path",)}
_TOP_KEYS = {
    "out_dir",
    "env",
    "dataset",
    "methods",
    "seeds",
    "n_values",
    "learner",
    "eval",
    "recursion",
    "log_every",
}
# The keys of each block of a sweep config with their defaults; None marks a
# required key. The eval and recursion blocks are also the flags of
# `gclab eval` and `gclab recursion`.
_BLOCKS = {
    "dataset": {"num_traj": None, "T": None, "seed": None},
    "eval": {
        "num_tasks": 5,
        "episodes": 15,
        "max_steps_factor": 4,
        "extraction": "greedy",
        "rejection_n": 32,
        "min_task_distance": 1,
    },
    "recursion": {"n_max": 10**6, "sim_sizes": [], "trials": 100_000, "seed": 0},
}
# Smallest allowed value of each integer setting, by dotted key; a list
# setting's entries are held to it.
_MINIMUMS = {
    "env.width": 1,
    "env.height": 1,
    "dataset.num_traj": 1,
    "dataset.T": 1,
    "dataset.seed": 0,
    "seeds": 0,
    "n_values": 1,
    "log_every": 1,
    "eval.num_tasks": 1,
    "eval.episodes": 1,
    "eval.max_steps_factor": 1,
    "eval.rejection_n": 1,
    "eval.min_task_distance": 0,
    "recursion.n_max": 1,
    "recursion.sim_sizes": 1,
    "recursion.trials": 1,
    "recursion.seed": 0,
}
# The string settings and the values each takes.
_CHOICES = {"methods": tuple(METHODS), "eval.extraction": ("greedy", "rejection")}
_LISTS = ("methods", "seeds", "n_values", "recursion.sim_sizes")
# Learner fields a sweep sets per run, and the list that sets them when it is
# non-empty: the same field under 'learner' would be silently overwritten.
_PER_RUN = {"method": "methods", "seed": "seeds", "n_step": "n_values"}


def check_setting(key: str, value) -> None:
    """Raise ConfigError naming ``key`` (dotted, as in the sweep config)
    unless ``value`` suits it. A list setting must be a list whose entries
    each suit the key, with no entry twice; any other setting is one of its
    ``_CHOICES`` or an integer no smaller than its ``_MINIMUMS`` entry."""
    entries = value if key in _LISTS else [value]
    if not isinstance(entries, list):
        raise ConfigError(f"config key '{key}' must be a list, got {value!r}")
    for entry in entries:
        if key not in _CHOICES:
            check_number(f"config key '{key}'", entry, "int", _MINIMUMS[key])
        elif entry not in _CHOICES[key]:
            raise ConfigError(f"config key '{key}' must be one of {_CHOICES[key]}, got {entry!r}")
    if len(set(entries)) < len(entries):
        raise ConfigError(f"config key '{key}' has a duplicate entry: {value!r}")


def block_settings(block: str, spec) -> dict:
    """The ``block`` object of a sweep config with its defaults filled in.
    Raises ConfigError naming the first unknown, missing or bad key."""
    if not isinstance(spec, dict):
        raise ConfigError(f"config key '{block}' must be an object")
    defaults = _BLOCKS[block]
    for key in spec:
        if key not in defaults:
            raise ConfigError(f"unknown config key '{block}.{key}'")
    settings = {**defaults, **spec}
    for key, value in settings.items():
        if key not in spec and value is None:
            raise ConfigError(f"missing config key '{block}.{key}'")
        check_setting(f"{block}.{key}", value)
    return settings


def _run_configs(config: dict, base: LearnerConfig) -> list[tuple[str, LearnerConfig]]:
    """Every (label, run config) of the sweep: each method (td_n once per
    entry of the optional ``n_values``, labeled td-<n>) at each seed."""
    horizon = config["dataset"]["T"]
    for method in config["methods"]:
        if horizon < METHODS[method].min_horizon:
            raise ConfigError(
                f"config key 'dataset.T' must be >= {METHODS[method].min_horizon} "
                f"for method {method!r}, got {horizon}"
            )
    labeled, n_values = [], config["n_values"]
    for method in config["methods"]:
        if method == "td_n" and n_values:
            labeled += [(f"td-{n}", replace(base, method="td_n", n_step=n)) for n in n_values]
        else:
            labeled.append((method, replace(base, method=method)))
    return [(label, replace(cfg, seed=seed)) for label, cfg in labeled for seed in config["seeds"]]


def validate_experiment_config(config: dict) -> dict:
    """Normalize a sweep config, naming the offending key on any problem.

    Every setting is checked, and every run config built, before the sweep
    writes anything.
    """
    if not isinstance(config, dict):
        raise ConfigError("config must be a JSON object")
    for key in config:
        if key not in _TOP_KEYS:
            raise ConfigError(f"unknown config key {key!r}")
    for key in ("out_dir", "env", "dataset", "methods", "seeds"):
        if key not in config:
            raise ConfigError(f"missing config key {key!r}")
    out_dir = config["out_dir"]
    if not isinstance(out_dir, str) or not out_dir:
        raise ConfigError(f"config key 'out_dir' must be a non-empty path, got {out_dir!r}")

    env_spec = config["env"]
    if not isinstance(env_spec, dict) or "kind" not in env_spec:
        raise ConfigError("config key 'env' must be an object with a 'kind'")
    kind = env_spec["kind"]
    if kind not in ("grid", "file"):
        raise ConfigError(f"config key 'env.kind' must be 'grid' or 'file', got {kind!r}")
    for key in env_spec:
        if key != "kind" and key not in _ENV_KEYS[kind]:
            raise ConfigError(f"config key 'env.{key}' is not read by a {kind!r} environment")
    if kind == "grid":
        if "width" not in env_spec or "height" not in env_spec:
            raise ConfigError("config keys 'env.width' and 'env.height' are required for grids")
        check_setting("env.width", env_spec["width"])
        check_setting("env.height", env_spec["height"])
    elif not isinstance(env_spec.get("path"), str):
        raise ConfigError("config key 'env.path' must be a file path string")

    normalized = {"learner": {}, "n_values": [], "log_every": LOG_EVERY, **config}
    normalized["dataset"] = block_settings("dataset", config["dataset"])
    for key in ("methods", "seeds", "n_values", "log_every"):
        check_setting(key, normalized[key])
    for key in ("methods", "seeds"):
        if not normalized[key]:
            raise ConfigError(f"config key '{key}' must be a non-empty list")
    normalized["eval"] = block_settings("eval", config.get("eval", {}))
    if "recursion" in config:
        rec = normalized["recursion"] = block_settings("recursion", config["recursion"])
        try:
            analysis_mod.check_sim_sizes(rec["n_max"], rec["sim_sizes"])
        except ConfigError as exc:
            raise ConfigError(f"config key 'recursion.sim_sizes': {exc}") from None
    try:
        base = LearnerConfig(**normalized["learner"])
    except TypeError as exc:
        raise ConfigError(f"bad config key under 'learner': {exc}") from exc
    for key, source in _PER_RUN.items():
        if key in normalized["learner"] and normalized[source]:
            raise ConfigError(f"config key 'learner.{key}' is set per run by '{source}'")
    normalized["_runs"] = _run_configs(normalized, base)
    return normalized


def build_env_from_spec(env_spec: dict) -> GraphEnv:
    if env_spec["kind"] == "grid":
        walls = parse_walls(env_spec.get("walls", []))
        return build_grid_env(env_spec["width"], env_spec["height"], walls)
    return load_env(env_spec["path"])


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
    log_every: int,
) -> tuple[ValueTable, list[dict]]:
    """Train one run (see :func:`train_run`) and write its ``loss.csv``,
    ``table.bin`` and ``meta.json`` into ``run_dir``, which is created only
    once training has succeeded. ``meta.json`` holds the label, the seed, a
    hash of the label and learner settings, and the training wall time."""
    started = time.time()
    q, log = train_run(env, ds, cfg, log_every=log_every)
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
    beh: BehaviorPolicy,
    label: str,
    cfg: LearnerConfig,
    eval_spec: dict,
    run_dir: str,
    log_every: int,
) -> EvalReport:
    q, _ = train_and_save(env, ds, label, cfg, run_dir, log_every)
    report = evaluate_run(env, q, beh, dist, eval_spec, cfg.seed)
    write_eval_csv(os.path.join(run_dir, "eval.csv"), report)
    return report


def aggregate_summary(out_dir: str) -> str:
    """Recompute the summary from per-run eval CSVs (the only code path that
    produces summary.csv, so re-aggregation is trivially consistent)."""
    runs_dir = os.path.join(out_dir, "runs")
    if not os.path.isdir(runs_dir):
        raise ConfigError(f"no runs directory under {out_dir}")
    groups: dict[tuple[str, str], list[float]] = {}
    for run_name in sorted(os.listdir(runs_dir)):
        eval_path = os.path.join(runs_dir, run_name, "eval.csv")
        if not os.path.isfile(eval_path):
            continue
        label = run_name.rsplit("_seed", 1)[0]
        with open(eval_path) as fh:
            header = fh.readline().strip().split(",")
            rows_in = [dict(zip(header, line.strip().split(","))) for line in fh if line.strip()]
        for row in rows_in:
            groups.setdefault((label, row["task_id"]), []).append(float(row["success_rate"]))
        if rows_in:  # spearman is a run-level statistic repeated on every row
            groups.setdefault((label, "spearman"), []).append(float(rows_in[0]["spearman"]))
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
    refused (see :func:`train_run`). Partial results stay on disk."""
    if isinstance(config_or_path, str):
        with open_input(config_or_path) as fh:
            try:
                config = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"config is not valid JSON: {exc}") from exc
    else:
        config = config_or_path
    config = validate_experiment_config(config)

    env = build_env_from_spec(config["env"])
    out_dir = config["out_dir"]
    os.makedirs(out_dir, exist_ok=True)
    ds_spec = config["dataset"]
    ds = collect_dataset(env, ds_spec["num_traj"], ds_spec["T"], ds_spec["seed"])
    save_dataset(ds, os.path.join(out_dir, "dataset.csv"))
    dist = all_pairs_distances(env)
    beh = estimate_behavior_policy(ds, env)

    failures = []
    for label, cfg in config["_runs"]:
        run_dir = os.path.join(out_dir, "runs", f"{label}_seed{cfg.seed}")
        try:
            run_single(
                env, ds, dist, beh, label, cfg, config["eval"], run_dir, config["log_every"]
            )
        except (ValueError, RuntimeError) as exc:
            failures.append(f"{label} seed {cfg.seed}: {exc}")

    if "recursion" in config:
        rows = analysis_mod.recursion_report_rows(**config["recursion"])
        write_recursion_csv(os.path.join(out_dir, "recursion.csv"), rows)

    aggregate_summary(out_dir)
    if failures:
        for failure in failures:
            print(f"FAILED {failure}")
        return 1
    return 0
