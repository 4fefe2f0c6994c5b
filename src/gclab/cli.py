"""Command-line entry points.

Subcommands: gen (dataset generation), train (single run), eval (evaluate a
saved table), sweep (experiment matrix from a JSON config), recursion
(recursion-count analysis), report (re-aggregate a sweep summary).

Exit codes: 0 success, 1 validation failure, 2 bad configuration.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .analysis import check_sim_sizes, recursion_report_rows
from .dataset import collect_dataset, load_dataset, save_dataset
from .env import ConfigError
from .harness import (
    aggregate_summary,
    block_defaults,
    block_settings,
    build_env_from_spec,
    check_setting,
    evaluate_policy,
    run_experiment,
    select_tasks,
    train_and_save,
    write_eval_csv,
    write_recursion_csv,
)
from .learners import LearnerConfig, load_table
from .oracle import all_pairs_distances
from .policy import estimate_behavior_policy


def _add_env_flags(parser):
    parser.add_argument("--width", type=int, help="grid width")
    parser.add_argument("--height", type=int, help="grid height")
    parser.add_argument("--walls", default="", help="walled cells as 'x,y;x,y'")
    parser.add_argument("--env-file", help="plain-text transition-table file")


def _env_from_args(args):
    if args.env_file:
        if args.width is not None or args.height is not None or args.walls:
            raise ConfigError("--env-file takes no --width, --height or --walls")
        spec = {"kind": "file", "path": args.env_file}
    elif args.width is None or args.height is None:
        raise ConfigError("provide --width/--height or --env-file")
    else:
        spec = {"kind": "grid", "width": args.width, "height": args.height, "walls": args.walls}
    return build_env_from_spec(spec)


def _add_flags(parser, defaults: dict, required=()) -> None:
    """One flag per setting, --name with dashes for underscores, typed and
    defaulted by the setting's default; a None default makes a required int."""
    for name, default in defaults.items():
        needed = default is None or name in required
        kwargs = {"required": True} if needed else {"default": default}
        kwargs["help"] = "required" if needed else "default: %(default)s"
        kind = int if default is None else type(default)
        parser.add_argument("--" + name.replace("_", "-"), type=kind, **kwargs)


def cmd_gen(args) -> int:
    dataset = block_settings("dataset", {n: getattr(args, n) for n in block_defaults("dataset")})
    ds = collect_dataset(_env_from_args(args), **dataset)
    save_dataset(ds, args.out)
    print(f"wrote {args.out}: {ds.num_traj} trajectories, T={ds.horizon}")
    return 0


def cmd_train(args) -> int:
    cfg = LearnerConfig(**{name: getattr(args, name) for name in block_defaults("learner")})
    env = _env_from_args(args)
    ds = None if args.dataset is None else load_dataset(args.dataset, env=env)
    try:
        _, log = train_and_save(env, ds, cfg.method, cfg, args.out_dir)
    except ConfigError:
        raise
    except ValueError as exc:  # a refused run, named as a sweep's FAILED line names it
        raise ValueError(f"{cfg.method} seed {cfg.seed}: {exc}") from exc
    print(f"trained {cfg.method} ({len(log)} loss rows) -> {args.out_dir}")
    return 0


def cmd_eval(args) -> int:
    eval_spec = block_settings("eval", {n: getattr(args, n) for n in block_defaults("eval")})
    check_setting("learner.seed", args.seed)
    rejection = eval_spec["extraction"] == "rejection"
    if rejection and args.dataset is None:
        raise ConfigError("--extraction rejection needs --dataset for its behavior policy")
    env = _env_from_args(args)
    q = load_table(args.table)
    expected = (env.num_states, env.num_actions, env.num_states)
    if q.params.shape != expected:
        raise ConfigError(
            f"{args.table}: table shape {q.params.shape} does not match the "
            f"environment's (states, actions, goals) {expected}"
        )
    if not np.isfinite(q.params).all():
        raise ConfigError(f"{args.table}: table holds a non-finite entry")
    # Greedy extraction reads no behavior policy, so it never opens the dataset.
    beh = estimate_behavior_policy(load_dataset(args.dataset, env=env), env) if rejection else None
    dist = all_pairs_distances(env)
    tasks = select_tasks(dist, eval_spec["num_tasks"], eval_spec["min_task_distance"])
    report = evaluate_policy(env, q, beh, dist, tasks, eval_spec, args.seed)
    write_eval_csv(args.out, report)
    print(f"wrote {args.out} (spearman={report.spearman_to_oracle:.4f})")
    return 0


def cmd_sweep(args) -> int:
    return run_experiment(args.config)


def cmd_recursion(args) -> int:
    spec = block_settings("recursion", {n: getattr(args, n) for n in block_defaults("recursion")})
    check_sim_sizes(spec["n_max"], spec["sim_sizes"])
    rows = recursion_report_rows(**spec)
    write_recursion_csv(args.out, rows)
    print(f"wrote {args.out} ({len(rows)} rows)")
    return 0


def cmd_report(args) -> int:
    path = aggregate_summary(args.out_dir)
    print(f"wrote {path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="gclab")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a random-walk dataset")
    _add_env_flags(p)
    _add_flags(p, block_defaults("dataset"))
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_gen)

    p = sub.add_parser("train", help="train a single value table")
    _add_env_flags(p)
    _add_flags(p, block_defaults("learner"), required=("method", "seed"))
    p.add_argument("--dataset", help="dataset of random walks; every method but exact reads one")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("eval", help="evaluate a saved value table")
    _add_env_flags(p)
    p.add_argument("--table", required=True)
    p.add_argument("--dataset", help="dataset of the behavior policy; rejection extraction only")
    _add_flags(p, block_defaults("eval"))
    p.add_argument("--seed", type=int, default=LearnerConfig.seed, help="the trained run's seed")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("sweep", help="run a (method x seed) experiment matrix")
    p.add_argument("--config", required=True)
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser("recursion", help="emit the recursion-count analysis CSV")
    recursion = block_defaults("recursion")
    _add_flags(p, {k: v for k, v in recursion.items() if k != "sim_sizes"})
    p.add_argument("--sim", dest="sim_sizes", type=int, action="append", metavar="N",
                   default=recursion["sim_sizes"], help="a size to simulate (repeatable)")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_recursion)

    p = sub.add_parser("report", help="re-aggregate a sweep summary from run CSVs")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(fn=cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
