"""The gclab benchmark: `gclab sweep` wall time, set-up time and memory.

Usage (from the root of a checkout):
    python3 benchmark/run.py --workload corridor64 --seed 0 --seconds 30 --trace 0

Each workload (see ``workloads.py``) is one generated sweep config; the seed
sets only the seeds inside it. The run first imports gclab once in a
throw-away process, so byte-compiling is not timed, then starts fresh child
processes (``child.py``) one at a time until ``--seconds`` are used, at
least ``MIN_CHILDREN`` of them. Each child sets up, runs the sweep and checks
its artifacts. Repeats of one seed must write the same ``summary.csv``.

``--trace 0`` reports the ``end_to_end`` metrics of ``BENCHMARK.json``:
medians over the children of ``sweep_s``, ``setup_s`` (both scaled to a
fixed host speed, see ``REFERENCE_S``) and ``peak_rss_mb``, the share of
runs that passed every check, and a deterministic learning guard
(``oracle_spearman``). ``--trace 1`` alternates untraced and traced children
and reports the ``per_layer`` metrics: medians over the traced children,
plus ``trace.overhead_ratio``.

The last stdout line is one JSON object: correct, attempted, failed,
metrics. The line before it records the host. Everything the run writes
goes under ``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from workloads import WORKLOADS, make_config, run_names  # noqa: E402

MIN_CHILDREN = 3
CHILD_TIMEOUT_S = 150
# The host's speed drifts: on a shared 2-vCPU VM every workload, and gclab's
# import, ran up to 30% faster or slower together for minutes at a time.
# Each child is bracketed by a fixed numpy kernel (reference_s), and its
# times are reported at the speed at which that kernel takes REFERENCE_S.
REFERENCE_S = 0.1
REFERENCE_REPEATS = 3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "gclab", "cli.py")):
        print("error: no src/gclab/cli.py here; run from the root of a gclab checkout",
              file=sys.stderr)
        return 2
    spec_path = os.path.join(root, "BENCHMARK.json")
    with open(spec_path) as fh:
        spec = json.load(fh)
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]

    work = os.path.join(root, ".bench_out", args.workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    env = child_env(root)
    warm = subprocess.run([sys.executable, "-c", "import gclab.cli"], env=env, cwd=root,
                          timeout=CHILD_TIMEOUT_S)
    if warm.returncode != 0:
        print("error: cannot import gclab from src/", file=sys.stderr)
        return 2

    deadline = time.monotonic() + args.seconds
    results, durations = [], []
    while True:
        traced = bool(args.trace) and len(results) % 2 == 1
        if len(results) >= (2 if args.trace else MIN_CHILDREN) and (
            time.monotonic() + statistics.median(durations) > deadline
        ):
            break
        started = time.monotonic()
        results.append(run_child(root, env, work, args.workload, args.seed, len(results), traced))
        durations.append(time.monotonic() - started)

    attempted = sum(len(r["runs"]) for r in results)
    failed = fail_mismatched_summaries(results)
    for r in results:
        for error in r["errors"]:
            print(f"check failed [{r['child']}]: {error}")
    if args.trace:
        metrics = layer_report(results)
    else:
        metrics = end_to_end_report(results, attempted, failed)
    mismatch = {m["name"] for m in listed} ^ set(metrics)
    if mismatch and failed == 0:
        print(f"error: metrics and BENCHMARK.json disagree on {sorted(mismatch)}", file=sys.stderr)
        return 1

    host = host_record(root, args.seed, results)
    raw = {key: _median(results, key) for key in ("sweep_s", "setup_s", "reference_s")}
    with open(os.path.join(work, "result.json"), "w") as fh:
        json.dump({"host": host, "raw": raw, "children": results, "metrics": metrics}, fh,
                  indent=1)
    print("unscaled medians: " + json.dumps(raw))
    print("host: " + json.dumps(host, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics.get(m["name"], 0.0), "unit": m["unit"]}
                    for m in listed},
    }))
    return 0


def child_env(root: str) -> dict:
    """The checkout's src first on the path; no more BLAS threads than CPUs."""
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    threads = str(len(os.sched_getaffinity(0)))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    return env


def run_child(root, env, work, workload, seed, index, traced) -> dict:
    """One child: fresh process, one sweep, checks. A crash fails every run."""
    child_dir = os.path.join(work, f"child{index}")
    os.makedirs(child_dir)
    config = make_config(workload, seed, os.path.join(child_dir, "out"))
    config_path = os.path.join(child_dir, "config.json")
    with open(config_path, "w") as fh:
        json.dump(config, fh, indent=1)
    result_path = os.path.join(child_dir, "result.json")
    cmd = [sys.executable, os.path.join(HERE, "child.py"), "--workload", workload,
           "--config", config_path, "--result", result_path]
    if traced:
        cmd += ["--spans", os.path.join(child_dir, "spans.jsonl")]
    references = [reference_s() for _ in range(REFERENCE_REPEATS)]
    proc = subprocess.run(cmd, env=env, cwd=root, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    references += [reference_s() for _ in range(REFERENCE_REPEATS)]
    if proc.returncode == 0 and os.path.isfile(result_path):
        with open(result_path) as fh:
            result = json.load(fh)
    else:
        names = run_names(config)
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        result = {"runs": names, "failed": names,
                  "errors": [f"child exited {proc.returncode}: {tail[0]}"]}
    shutil.rmtree(config["out_dir"], ignore_errors=True)
    result["child"] = index
    result["traced"] = traced
    result["reference_s"] = statistics.median(references)
    return result


def reference_s() -> float:
    """Seconds for a fixed kernel shaped like gclab's work: full-table
    sigmoids over a 2 MB array, then many small gathers and scatters."""
    rng = np.random.default_rng(0)
    table = rng.standard_normal((64, 4, 1024))
    idx = rng.integers(0, 64, size=256)
    start = time.perf_counter()
    for _ in range(40):
        values = 1.0 / (1.0 + np.exp(-table))
        np.maximum(values[idx[:64], 0, :64], 0.5).sum()
    for _ in range(1500):
        picked = table[idx, idx % 4, idx]
        np.add.at(table[:, 0, 0], idx[:8], 1e-9 * picked[:8])
    return time.perf_counter() - start


def fail_mismatched_summaries(results: list[dict]) -> int:
    """Count failed runs; a child whose summary.csv differs from the first
    child's fails all of its runs, since every child ran the same seed."""
    shas = [r.get("summary_sha256") for r in results if r.get("summary_sha256")]
    reference = shas[0] if shas else None
    failed = 0
    for r in results:
        sha = r.get("summary_sha256")
        if sha is not None and sha != reference:
            r["errors"].append(f"summary.csv sha256 {sha[:12]} != {reference[:12]}")
            r["failed"] = r["runs"]
        failed += len(r["failed"])
    return failed


def _median(results, key):
    values = [r[key] for r in results if key in r]
    return statistics.median(values) if values else 0.0


def _scaled_median(results, key):
    """Median of a child's seconds at the reference speed."""
    values = [r[key] * REFERENCE_S / r["reference_s"] for r in results if key in r]
    return statistics.median(values) if values else 0.0


def end_to_end_report(results, attempted, failed) -> dict:
    return {
        "sweep_s": _scaled_median(results, "sweep_s"),
        "setup_s": _scaled_median(results, "setup_s"),
        "peak_rss_mb": _median(results, "peak_rss_mb"),
        "pass_ratio": (attempted - failed) / attempted,
        "oracle_spearman": _median(results, "oracle_spearman"),
    }


def layer_report(results) -> dict:
    traced = [r for r in results if r["traced"] and "layers" in r]
    plain = [r for r in results if not r["traced"] and "sweep_s" in r]
    metrics = {}
    if traced:
        for name in traced[0]["layers"]:
            metrics[name] = statistics.median(r["layers"][name] for r in traced)
        metrics.update(traced[0]["counts"])
        metrics["cli.import_s"] = _median(traced, "import_s")
        metrics["harness.task_success"] = _median(traced, "task_success")
    if traced and plain:
        metrics["trace.overhead_ratio"] = (
            _scaled_median(traced, "sweep_s") / _scaled_median(plain, "sweep_s") - 1
        )
    return metrics


def host_record(root, seed, results) -> dict:
    versions = next((r["versions"] for r in results if "versions" in r), {})
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown"
    if os.path.isdir(os.path.join(root, ".git")):
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                                    text=True, timeout=30).stdout.strip() or "unknown"
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "python": platform.python_version(),
        **versions,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "commit": commit,
        "seed": seed,
    }


if __name__ == "__main__":
    sys.exit(main())
