"""Tabular laboratory for offline goal-conditioned value learning."""

from .dataset import TrajectoryDataset, collect_dataset
from .env import GraphEnv, build_grid_env
from .harness import EvalReport, evaluate_policy, run_experiment, train_run
from .learners import LearnerConfig, ValueTable
from .oracle import UNREACHABLE, all_pairs_distances, optimal_value_table

__all__ = [
    "GraphEnv",
    "build_grid_env",
    "UNREACHABLE",
    "all_pairs_distances",
    "optimal_value_table",
    "TrajectoryDataset",
    "collect_dataset",
    "ValueTable",
    "LearnerConfig",
    "EvalReport",
    "train_run",
    "evaluate_policy",
    "run_experiment",
]
