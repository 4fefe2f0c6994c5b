"""Tests of the benchmark itself (not collected by the repo's test suite).

Run from the repo root:
    python3 -m pytest -q benchmark/test_benchmark.py
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(REPO, "src"))

import child  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import LISTED, Tracer, TracerError  # noqa: E402

with open(os.path.join(REPO, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


def tiny_config(out_dir: str, seed: int = 0) -> dict:
    """Every learner and the recursion block, at a size that runs in seconds."""
    return {
        "out_dir": out_dir,
        "env": {"kind": "grid", "width": 4, "height": 3},
        "dataset": {"num_traj": 20, "T": 12, "seed": seed},
        "methods": ["trl", "td_n", "mc", "gciql", "sgt", "coe", "exact"],
        "n_values": [1, 10],
        "seeds": [seed],
        "learner": {**workloads.README_LEARNER, "steps": 5},
        "eval": {"num_tasks": 2, "episodes": 2, "extraction": "rejection"},
        "recursion": {"n_max": 64, "sim_sizes": [4], "trials": 100, "seed": seed},
    }


@pytest.fixture(scope="module")
def checkout(tmp_path_factory):
    """A minimal checkout: src/ and BENCHMARK.json."""
    root = tmp_path_factory.mktemp("checkout")
    shutil.copytree(os.path.join(REPO, "src"), root / "src")
    shutil.copy(os.path.join(REPO, "BENCHMARK.json"), root)
    return root


def run_tiny(checkout, trace: int) -> dict:
    """run.main on the tiny config, from the checkout; the parsed last line."""
    out = io.StringIO()
    cwd = os.getcwd()
    original = run.make_config
    run.make_config = lambda workload, seed, out_dir: tiny_config(out_dir, seed)
    try:
        os.chdir(checkout)
        with contextlib.redirect_stdout(out):
            code = run.main(["--workload", "grid16", "--seed", "1", "--seconds", "0",
                             "--trace", str(trace)])
    finally:
        run.make_config = original
        os.chdir(cwd)
    assert code == 0
    return json.loads(out.getvalue().strip().splitlines()[-1])


@pytest.fixture(scope="module")
def traced(checkout):
    return run_tiny(checkout, trace=1)


def test_end_to_end_names_and_units(checkout):
    result = run_tiny(checkout, trace=0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == 3 * len(workloads.run_names(tiny_config("x")))
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_per_layer_names_and_units(traced):
    assert traced["correct"] and traced["failed"] == 0
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    metrics = traced["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == expected
    # The tiny config calls every learner, so these layers must all show work.
    for name in expected:
        if name.startswith(("learners.update_us.", "harness.step_us.", "learners.exact_")):
            assert metrics[name]["value"] > 0, name
    for name in ("policy.rejection_calls", "policy.greedy_calls.train", "dataset.sample_calls",
                 "learners.values_calls", "learners.full_table_passes_per_step",
                 "analysis.recursion_s", "analysis.simulate_s", "oracle.distances_s"):
        assert metrics[name]["value"] > 0, name


def test_tracing_keeps_summary(checkout, traced):
    with open(os.path.join(checkout, ".bench_out", "grid16", "result.json")) as fh:
        children = json.load(fh)["children"]
    assert {c["traced"] for c in children} == {False, True}
    assert len({c["summary_sha256"] for c in children}) == 1


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seed_changes_only_seeds(workload):
    a = workloads.make_config(workload, 3, "out")
    b = workloads.make_config(workload, 4, "out")
    assert a["seeds"] != b["seeds"] and a["dataset"]["seed"] != b["dataset"]["seed"]
    for config in (a, b):
        del config["seeds"], config["dataset"]["seed"]
        config.get("recursion", {}).pop("seed", None)
    assert a == b


def test_checks_reject_broken_artifacts(tmp_path):
    import numpy as np
    from gclab.cli import main as gclab_main
    from gclab.harness import build_env_from_spec
    from gclab.learners import load_table, save_table

    config = tiny_config(str(tmp_path / "out"))
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    with contextlib.redirect_stdout(io.StringIO()):
        assert gclab_main(["sweep", "--config", str(config_path)]) == 0
    env = build_env_from_spec(config["env"])
    assert child.check_sweep(config, env, 0, "")["failed"] == []

    runs = tmp_path / "out" / "runs"
    os.remove(runs / "trl_seed0" / "eval.csv")
    exact = load_table(str(runs / "exact_seed0" / "table.bin"))
    exact.params[0, 0, 1] += 1e-9
    save_table(exact, str(runs / "exact_seed0" / "table.bin"))
    mc = load_table(str(runs / "mc_seed0" / "table.bin"))
    mc.params[0, 0, 0] = np.nan
    save_table(mc, str(runs / "mc_seed0" / "table.bin"))
    stdout = "FAILED sgt seed 0: non-finite value table\n"
    checked = child.check_sweep(config, env, 1, stdout)
    assert checked["failed"] == ["exact_seed0", "mc_seed0", "sgt_seed0", "trl_seed0"]

    assert len(child.check_sweep(config, env, 2, "")["failed"]) == len(checked["runs"])


def test_tracer_fails_loudly_on_a_missing_function(monkeypatch):
    monkeypatch.setitem(LISTED, "learners", LISTED["learners"] + ("no_such_step",))
    tracer = Tracer("w")
    with pytest.raises(TracerError, match="no_such_step"):
        tracer.install()
    tracer.uninstall()


def test_refuses_a_directory_without_the_program(tmp_path, monkeypatch):
    shutil.copy(os.path.join(REPO, "BENCHMARK.json"), tmp_path)
    monkeypatch.chdir(tmp_path)
    assert run.main(["--workload", "exact24", "--seed", "0", "--seconds", "1"]) != 0
