"""One measured `gclab sweep` in a fresh process.

Run by ``benchmark/run.py`` with ``PYTHONPATH`` pointing at the checkout's
``src``. The child times ``import gclab.cli`` plus the sweep's shared set-up
calls (set-up), then ``gclab.cli.main(["sweep", ...])`` (sweep), records its
peak RSS, checks every artifact of the sweep and writes one JSON result.
With ``--spans`` the sweep runs under the tracer and the result carries the
per-layer metrics.

Usage:
    python3 benchmark/child.py --workload W --config CFG --result OUT.json [--spans SPANS.jsonl]
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import re
import resource
import sys
import time

ARTIFACTS = ("loss.csv", "table.bin", "eval.csv", "meta.json")
# Files whose bytes depend on wall time, so they are left out of the
# byte count that must repeat exactly.
TIMED_ARTIFACTS = ("meta.json",)
EXACT_TOLERANCE = 1e-12
FAILED_LINE = re.compile(r"FAILED (\S+) seed (-?\d+):")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--config", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--spans")
    args = parser.parse_args(argv)
    with open(args.config) as fh:
        config = json.load(fh)

    start = time.perf_counter()
    import gclab.cli
    import_s = time.perf_counter() - start

    from gclab.dataset import collect_dataset
    from gclab.harness import build_env_from_spec
    from gclab.oracle import all_pairs_distances
    from gclab.policy import estimate_behavior_policy

    start = time.perf_counter()
    env = build_env_from_spec(config["env"])
    ds_spec = config["dataset"]
    ds = collect_dataset(env, ds_spec["num_traj"], ds_spec["T"], ds_spec["seed"])
    all_pairs_distances(env)
    estimate_behavior_policy(ds, env)
    setup_s = import_s + time.perf_counter() - start

    tracer = None
    if args.spans:
        from tracer import Tracer

        tracer = Tracer(args.workload)
        tracer.install()
    stdout = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(stdout):
        code = gclab.cli.main(["sweep", "--config", args.config])
    sweep_s = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    import numpy
    import scipy

    result = {
        "workload": args.workload,
        "versions": {"numpy": numpy.__version__, "scipy": scipy.__version__},
        "exit_code": code,
        "import_s": import_s,
        "setup_s": setup_s,
        "sweep_s": sweep_s,
        "peak_rss_mb": peak_rss_mb,
    }
    if tracer is not None:
        from tracer import layer_metrics

        tracer.uninstall()
        tracer.write(args.spans)
        result["layers"] = layer_metrics(tracer.spans)
    result.update(check_sweep(config, env, code, stdout.getvalue()))
    result.update(computed_counts(config, env))
    with open(args.result, "w") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
    return 0


def check_sweep(config: dict, env, code: int, stdout: str) -> dict:
    """Check the sweep's exit code and artifacts; name every failed run.

    Exit code 1 names its failed runs on FAILED lines; exit code 2, or 1
    without a FAILED line naming a run, fails the whole workload. A run also fails when an
    artifact is missing, its table is not finite, or (for ``exact``) its
    table differs from the oracle's. A missing summary or a recursion row
    above its bound fails every run.
    """
    import numpy as np
    from gclab.learners import load_table
    from gclab.oracle import oracle_q_table
    from workloads import run_names

    names = run_names(config)
    out_dir = config["out_dir"]
    errors: list[str] = []
    failed: set[str] = set()
    unnamed = False
    for line in stdout.splitlines():
        if line.startswith("FAILED "):
            errors.append(line)
            match = FAILED_LINE.match(line)
            if match:
                failed.add(f"{match[1]}_seed{match[2]}")
            else:
                unnamed = True
    if code not in (0, 1) or (code == 1 and not failed) or unnamed:
        errors.append(f"gclab sweep exited {code} for the whole workload")
        return {"runs": names, "failed": names, "errors": errors}

    for name in names:
        if name in failed:
            continue
        run_dir = os.path.join(out_dir, "runs", name)
        missing = [f for f in ARTIFACTS if not os.path.isfile(os.path.join(run_dir, f))]
        if missing:
            errors.append(f"{name}: missing {', '.join(missing)}")
            failed.add(name)
            continue
        table = load_table(os.path.join(run_dir, "table.bin"))
        if not np.isfinite(table.params).all():
            errors.append(f"{name}: non-finite table.bin")
            failed.add(name)
        elif name.startswith("exact_"):
            gap = float(np.abs(table.params - oracle_q_table(env, table.gamma)).max())
            if gap > EXACT_TOLERANCE:
                errors.append(f"{name}: exact table is {gap:.3g} from the oracle")
                failed.add(name)

    summary = os.path.join(out_dir, "summary.csv")
    if not os.path.isfile(summary):
        errors.append("summary.csv missing")
        return {"runs": names, "failed": names, "errors": errors}
    if config.get("recursion"):
        rows = _read_csv(os.path.join(out_dir, "recursion.csv"))
        above = [r["n"] for r in rows if not float(r["B_n"]) <= float(r["bound"])]
        if not rows or above:
            errors.append(f"recursion.csv: B(n) above the bound at n = {above or 'no rows'}")
            return {"runs": names, "failed": names, "errors": errors}

    with open(summary, "rb") as fh:
        sha = hashlib.sha256(fh.read()).hexdigest()
    rows = _read_csv(summary)
    spearman = [float(r["mean"]) for r in rows if r["task_id"] == "spearman"]
    success = [float(r["mean"]) for r in rows if r["task_id"] != "spearman"]
    return {
        "runs": names,
        "failed": sorted(failed),
        "errors": errors,
        "summary_sha256": sha,
        "oracle_spearman": sum(spearman) / len(spearman),
        "task_success": sum(success) / len(success),
    }


def computed_counts(config: dict, env) -> dict:
    """Counts that follow from the config and the artifacts alone."""
    from gclab.env import adjacency_matrix

    n, a = env.num_states, env.num_actions
    artifact_bytes = 0
    for root, _dirs, files in os.walk(config["out_dir"]):
        artifact_bytes += sum(
            os.path.getsize(os.path.join(root, f)) for f in files if f not in TIMED_ARTIFACTS
        )
    return {
        "counts": {
            "learners.table_entries": n * a * n,
            "oracle.bfs_edge_visits": n * int(adjacency_matrix(env).sum()),
            "harness.artifact_bytes": artifact_bytes,
        }
    }


def _read_csv(path: str) -> list[dict]:
    if not os.path.isfile(path):
        return []
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        return [dict(zip(header, line.rstrip("\n").split(","))) for line in fh if line.strip()]


if __name__ == "__main__":
    sys.exit(main())
