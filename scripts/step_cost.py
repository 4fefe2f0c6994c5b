"""Training-step cost against table size, and on the 64-cell corridor.

Times ``harness.train_run`` for every learner that trains on drawn batches
(each of ``learners.METHODS`` but exact) on square grids of
S = 64, 256 and 1024 states (batch 256, 100 random walks of 64 steps) and
prints the median milliseconds per step over a few repeats, one row per
grid. The step count is fixed, so a step that touches the whole table shows
as a row that grows with S.

It then times trl, td-1, td-10 and mc on the 64x1 corridor with 200 random
walks of 64 steps, the shape of the horizon experiment and of the
benchmark's corridor64 workload, and prints their median microseconds per
step in one row. Every run uses the README's learner settings.

    python scripts/step_cost.py [--steps 300] [--repeats 3]
"""

from __future__ import annotations

import argparse
import statistics
import time

from gclab import learners
from gclab.dataset import collect_dataset
from gclab.env import build_grid_env
from gclab.harness import train_run
from gclab.learners import LearnerConfig

METHODS = tuple(name for name, method in learners.METHODS.items() if method.draw)
SIDES = (8, 16, 32)
# The corridor's runs by sweep label: the learner settings besides the README's.
CORRIDOR_RUNS = {
    "trl": {"method": "trl"},
    "td-1": {"method": "td_n", "n_step": 1},
    "td-10": {"method": "td_n", "n_step": 10},
    "mc": {"method": "mc"},
}


def s_per_step(env, ds, steps: int, repeats: int, **settings) -> float:
    cfg = LearnerConfig(
        steps=steps, log_every=steps, learning_rate=0.5, kappa=0.9, tau_target=0.01,
        batch_size=256, **settings,
    )
    times = []
    for _ in range(repeats):
        started = time.perf_counter()
        train_run(env, ds, cfg)
        times.append(time.perf_counter() - started)
    return statistics.median(times) / steps


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--steps", type=int, default=300)
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args(argv)
    print("S," + ",".join(f"{m}_ms_per_step" for m in METHODS))
    for side in SIDES:
        env = build_grid_env(side, side)
        ds = collect_dataset(env, num_traj=100, T=64, seed=0)
        row = [1e3 * s_per_step(env, ds, args.steps, args.repeats, method=m) for m in METHODS]
        print(f"{env.num_states}," + ",".join(f"{x:.3f}" for x in row))
    env = build_grid_env(64, 1)
    ds = collect_dataset(env, num_traj=200, T=64, seed=0)
    row = [1e6 * s_per_step(env, ds, args.steps, args.repeats, **settings)
           for settings in CORRIDOR_RUNS.values()]
    print("\nenv," + ",".join(f"{label}_us_per_step" for label in CORRIDOR_RUNS))
    print("corridor64," + ",".join(f"{x:.1f}" for x in row))


if __name__ == "__main__":
    main()
