"""Command-line entry points.

Subcommands: gen (dataset generation), train (single run), eval (evaluate a
saved table), sweep (experiment matrix from a JSON config), recursion
(recursion-count analysis), report (re-aggregate a sweep summary).

Exit codes: 0 success, 1 validation failure, 2 bad configuration.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict

import numpy as np

from .analysis import recursion_report_rows
from .dataset import collect_dataset, load_dataset, save_dataset
from .env import ConfigError, build_grid_env, load_env, parse_walls
from .harness import (
    aggregate_summary,
    check_eval_settings,
    config_hash,
    evaluate_policy,
    run_experiment,
    select_tasks,
    train_run,
    write_eval_csv,
    write_loss_log,
    write_recursion_csv,
)
from .learners import LearnerConfig, load_table, save_table
from .oracle import all_pairs_distances
from .policy import estimate_behavior_policy


def _add_env_flags(parser):
    parser.add_argument("--width", type=int, help="grid width")
    parser.add_argument("--height", type=int, help="grid height")
    parser.add_argument("--walls", default="", help="walled cells as 'x,y;x,y'")
    parser.add_argument("--env-file", help="plain-text transition-table file")


def _env_from_args(args):
    if args.env_file:
        return load_env(args.env_file)
    if args.width is None or args.height is None:
        raise ConfigError("provide --width/--height or --env-file")
    return build_grid_env(args.width, args.height, parse_walls(args.walls))


def _add_learner_flags(parser):
    parser.add_argument("--method", required=True)
    parser.add_argument("--gamma", type=float, default=0.99)
    parser.add_argument("--kappa", type=float, default=0.7)
    parser.add_argument("--lambda-reweight", type=float, default=0.0)
    parser.add_argument("--learning-rate", type=float, default=3e-4)
    parser.add_argument("--tau-target", type=float, default=0.005)
    parser.add_argument("--batch-size", type=int, default=256)
    parser.add_argument("--steps", type=int, default=200_000)
    parser.add_argument("--n-step", type=int, default=1)
    parser.add_argument("--M-subgoals", type=int, default=8)
    parser.add_argument("--P-random-distance", type=int, default=500)
    parser.add_argument("--beta-goal-reg", type=float, default=1.0)


def _learner_config(args) -> LearnerConfig:
    return LearnerConfig(
        method=args.method,
        gamma=args.gamma,
        kappa=args.kappa,
        lambda_reweight=args.lambda_reweight,
        learning_rate=args.learning_rate,
        tau_target=args.tau_target,
        batch_size=args.batch_size,
        steps=args.steps,
        n_step=args.n_step,
        M_subgoals=args.M_subgoals,
        P_random_distance=args.P_random_distance,
        beta_goal_reg=args.beta_goal_reg,
        seed=args.seed,
    )


def cmd_gen(args) -> int:
    env = _env_from_args(args)
    ds = collect_dataset(env, args.num_traj, args.T, args.seed)
    save_dataset(ds, args.out)
    print(f"wrote {args.out}: {ds.num_traj} trajectories, T={ds.horizon}")
    return 0


def cmd_train(args) -> int:
    env = _env_from_args(args)
    ds = load_dataset(args.dataset, env=env)
    cfg = _learner_config(args)
    q, log = train_run(env, ds, cfg, log_every=args.log_every)
    os.makedirs(args.out_dir, exist_ok=True)
    write_loss_log(os.path.join(args.out_dir, "loss.csv"), log)
    save_table(q, os.path.join(args.out_dir, "table.bin"))
    meta = {
        "method": cfg.method,
        "seed": cfg.seed,
        "config_hash": config_hash({"learner": asdict(cfg), "dataset": args.dataset}),
    }
    with open(os.path.join(args.out_dir, "meta.json"), "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
    print(f"trained {cfg.method} for {cfg.steps} steps -> {args.out_dir}")
    return 0


def cmd_eval(args) -> int:
    check_eval_settings(
        num_tasks=args.num_tasks,
        episodes=args.episodes,
        max_steps_factor=args.max_steps_factor,
        rejection_n=args.rejection_n,
        min_task_distance=args.min_task_distance,
    )
    env = _env_from_args(args)
    q = load_table(args.table)
    ds = load_dataset(args.dataset, env=env)
    beh = estimate_behavior_policy(ds, env)
    dist = all_pairs_distances(env)
    tasks = select_tasks(env, dist, args.num_tasks, args.min_task_distance)
    budgets = [max(1, args.max_steps_factor * int(dist.d[s, g])) for s, g in tasks]
    report = evaluate_policy(
        env,
        q,
        beh,
        tasks,
        args.episodes,
        budgets,
        extraction=args.extraction,
        rng=np.random.default_rng([args.seed, 2025]),
        rejection_n=args.rejection_n,
        dist=dist,
    )
    write_eval_csv(args.out, report)
    print(f"wrote {args.out} (spearman={report.spearman_to_oracle:.4f})")
    return 0


def cmd_sweep(args) -> int:
    return run_experiment(args.config)


def cmd_recursion(args) -> int:
    rows = recursion_report_rows(
        args.n_max, sim_sizes=tuple(args.sim), trials=args.trials, seed=args.seed
    )
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
    p.add_argument("--num-traj", type=int, required=True)
    p.add_argument("--T", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_gen)

    p = sub.add_parser("train", help="train a single value table")
    _add_env_flags(p)
    _add_learner_flags(p)
    p.add_argument("--dataset", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--log-every", type=int, default=1000)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("eval", help="evaluate a saved value table")
    _add_env_flags(p)
    p.add_argument("--table", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--num-tasks", type=int, default=5)
    p.add_argument("--episodes", type=int, default=15)
    p.add_argument("--max-steps-factor", type=int, default=4)
    p.add_argument("--min-task-distance", type=int, default=1)
    p.add_argument("--extraction", choices=["greedy", "rejection"], default="greedy")
    p.add_argument("--rejection-n", type=int, default=32)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("sweep", help="run a (method x seed) experiment matrix")
    p.add_argument("--config", required=True)
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser("recursion", help="emit the recursion-count analysis CSV")
    p.add_argument("--n-max", type=int, default=10**6)
    p.add_argument("--sim", type=int, action="append", default=[])
    p.add_argument("--trials", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=0)
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
