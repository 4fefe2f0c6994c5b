"""Recursion-count analysis: exact recurrence, bound margins, simulation.

Emits the analysis CSV and prints how far the exact values sit below the
ln(n)/ln(4/3) bound at a few checkpoints.

Usage:
    python scripts/recursion_analysis.py --n-max 1000000 --out recursion.csv
"""

import argparse
import sys

from gclab.analysis import expected_recursions, recursion_bound, recursion_report_rows
from gclab.harness import write_recursion_csv


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n-max", type=int, default=10**6)
    parser.add_argument("--sim", type=int, nargs="+", default=[4, 16, 64, 256, 1024])
    parser.add_argument("--trials", type=int, default=100_000)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default="recursion.csv")
    args = parser.parse_args()

    rows = recursion_report_rows(
        args.n_max, sim_sizes=tuple(args.sim), trials=args.trials, seed=args.seed
    )
    write_recursion_csv(args.out, rows)
    print(f"wrote {args.out} ({len(rows)} rows)")

    table = expected_recursions(args.n_max)
    print("\n       n        B(n)      bound   margin")
    for n in (4, 64, 1024, args.n_max):
        if n <= table.n_max:
            b, bound = table.b[n], recursion_bound(n)
            print(f"{n:>8}  {b:>10.4f} {bound:>10.4f} {bound - b:>8.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
