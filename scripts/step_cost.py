"""Training-step cost against table size.

Times ``harness.train_run`` for the six stochastic learners (trl, mc,
td_n, gciql, sgt and coe) on square grids of
S = 64, 256 and 1024 states (batch 256, 100 random walks of 64 steps) and
prints the median milliseconds per step over a few repeats, one row per
grid. The step count is fixed, so a step that touches the whole table shows
as a row that grows with S.

    python scripts/step_cost.py [--steps 300] [--repeats 3]
"""

from __future__ import annotations

import argparse
import statistics
import time

from gclab.dataset import collect_dataset
from gclab.env import build_grid_env
from gclab.harness import train_run
from gclab.learners import LearnerConfig

METHODS = ("trl", "mc", "td_n", "gciql", "sgt", "coe")
SIDES = (8, 16, 32)


def ms_per_step(env, ds, method: str, steps: int, repeats: int) -> float:
    cfg = LearnerConfig(
        method=method, steps=steps, log_every=steps, learning_rate=0.5, kappa=0.9,
        tau_target=0.01, batch_size=256,
    )
    times = []
    for _ in range(repeats):
        started = time.perf_counter()
        train_run(env, ds, cfg)
        times.append(time.perf_counter() - started)
    return 1e3 * statistics.median(times) / steps


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--steps", type=int, default=300)
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args(argv)
    print("S," + ",".join(f"{m}_ms_per_step" for m in METHODS))
    for side in SIDES:
        env = build_grid_env(side, side)
        ds = collect_dataset(env, num_traj=100, T=64, seed=0)
        row = [ms_per_step(env, ds, m, args.steps, args.repeats) for m in METHODS]
        print(f"{env.num_states}," + ",".join(f"{x:.3f}" for x in row))


if __name__ == "__main__":
    main()
