import importlib.util
import json
import re
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from gclab import analysis, learners
from gclab.cli import main
from gclab.dataset import collect_dataset, load_dataset, save_dataset
from gclab.env import ConfigError, build_grid_env, load_env
from gclab.harness import _SETTINGS, build_env_from_spec
from gclab.learners import LearnerConfig, ValueTable, load_table, save_table
from gclab.oracle import optimal_value_table, oracle_q_table
from env_helpers import random_graph_env, save_env, star_env

_CHILD = Path(__file__).resolve().parents[1] / "benchmark" / "child.py"


def run_cli(*argv):
    return main(list(argv))


def test_gen_requires_seed(capsys, tmp_path):
    with pytest.raises(SystemExit) as exc:
        run_cli("gen", "--width", "3", "--height", "1", "--num-traj", "4", "--T", "8",
                "--out", str(tmp_path / "ds.csv"))
    assert exc.value.code == 2  # argparse: missing required --seed


def test_gen_train_eval_pipeline(tmp_path, capsys):
    ds_path = tmp_path / "ds.csv"
    code = run_cli(
        "gen", "--width", "4", "--height", "1", "--num-traj", "30", "--T", "10",
        "--seed", "0", "--out", str(ds_path),
    )
    assert code == 0
    assert ds_path.is_file()

    run_dir = tmp_path / "run"
    code = run_cli(
        "train", "--width", "4", "--height", "1", "--dataset", str(ds_path),
        "--method", "trl", "--steps", "200", "--batch-size", "32",
        "--learning-rate", "0.25", "--seed", "0", "--out-dir", str(run_dir),
    )
    assert code == 0
    assert (run_dir / "table.bin").is_file()

    eval_path = tmp_path / "eval.csv"
    code = run_cli(
        "eval", "--width", "4", "--height", "1", "--table", str(run_dir / "table.bin"),
        "--dataset", str(ds_path), "--num-tasks", "3", "--episodes", "2",
        "--out", str(eval_path),
    )
    assert code == 0
    assert eval_path.read_text().startswith("task_id,success_rate,episodes,spearman")


def test_train_rejects_bad_method(tmp_path, capsys):
    ds_path = tmp_path / "ds.csv"
    run_cli("gen", "--width", "3", "--height", "1", "--num-traj", "4", "--T", "8",
            "--seed", "0", "--out", str(ds_path))
    code = run_cli(
        "train", "--width", "3", "--height", "1", "--dataset", str(ds_path),
        "--method", "nonsense", "--seed", "0", "--out-dir", str(tmp_path / "r"),
    )
    assert code == 2
    assert "config error" in capsys.readouterr().err


def test_sweep_and_report(tmp_path, capsys):
    out_dir = tmp_path / "exp"
    config = {
        "out_dir": str(out_dir),
        "env": {"kind": "grid", "width": 4, "height": 1},
        "dataset": {"num_traj": 20, "T": 8, "seed": 0},
        "methods": ["mc"],
        "seeds": [0],
        "learner": {"steps": 100, "batch_size": 32, "learning_rate": 0.25},
        "eval": {"num_tasks": 2, "episodes": 2},
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    assert run_cli("sweep", "--config", str(cfg_path)) == 0
    assert (out_dir / "summary.csv").is_file()
    assert run_cli("report", "--out-dir", str(out_dir)) == 0


_EVAL_CSV = "task_id,success_rate,episodes,spearman\n0,1.0,15,0.5\n1,0.0,15,0.5\n"


@pytest.mark.parametrize("text, problem", [
    (b"task_id,success_rate\n0,1.0,15,0.5\n", "header has no column 'spearman'"),
    (_EVAL_CSV.replace("0,1.0", "0,abc").encode(), "line 2: could not convert string to float"),
    (_EVAL_CSV.encode() + b"\xff\n", "is not a text file"),
    (_EVAL_CSV.encode() + b"2,1.0,15\n", "line 4 has 3 fields, the header 4"),
    (_EVAL_CSV.encode() + b"0,0.0,15,0.5\n", "line 4 repeats task_id '0' of line 2"),
    (_EVAL_CSV.encode() + b"t" * 300 + b",1.0,15,0.5\n" + b"t" * 300 + b",0.0,15,0.5\n",
     "line 5 repeats task_id 'ttttttttttttttttttttttttttttttt... (302 characters) of line 4"),
], ids=["no_spearman_column", "not_a_number", "not_utf8", "short_row", "repeated_task",
        "long_repeated_task"])
def test_report_bad_eval_csv_exit_code(tmp_path, capsys, text, problem):
    """`gclab report` exits 2 naming a run's eval.csv that it cannot read,
    and writes no summary.csv."""
    runs = tmp_path / "exp" / "runs"
    for run, body in (("mc_seed0", _EVAL_CSV.encode()), ("mc_seed1", text)):
        (runs / run).mkdir(parents=True)
        (runs / run / "eval.csv").write_bytes(body)
    assert run_cli("report", "--out-dir", str(tmp_path / "exp")) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {runs / 'mc_seed1' / 'eval.csv'}") and problem in err
    assert not (tmp_path / "exp" / "summary.csv").exists()


def test_report_without_any_eval_csv_exit_code(tmp_path, capsys):
    """`gclab report` on a runs/ whose run directories hold no eval.csv exits
    2 naming that runs/ directory, and writes no summary.csv."""
    (tmp_path / "exp" / "runs" / "mc_seed0").mkdir(parents=True)
    assert run_cli("report", "--out-dir", str(tmp_path / "exp")) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {tmp_path / 'exp' / 'runs'}: no run directory holds")
    assert not (tmp_path / "exp" / "summary.csv").exists()


def test_sweep_into_an_out_dir_that_holds_runs_exit_code(tmp_path, capsys):
    """A sweep never reports another sweep's runs: a second sweep into an
    out_dir whose runs/ holds an entry exits 2 naming out_dir, and every file
    of the first sweep keeps its bytes."""
    out_dir = tmp_path / "out"
    first = {"out_dir": str(out_dir), "env": {"kind": "grid", "width": 4, "height": 4},
             "dataset": {"num_traj": 20, "T": 16, "seed": 0}, "methods": ["trl", "mc"],
             "seeds": [0, 1], "learner": {"steps": 10}}
    second = {**first, "dataset": {"num_traj": 20, "T": 16, "seed": 5}, "methods": ["trl"],
              "seeds": [0], "learner": {"steps": 300}}
    (tmp_path / "first.json").write_text(json.dumps(first))
    (tmp_path / "second.json").write_text(json.dumps(second))
    assert run_cli("sweep", "--config", str(tmp_path / "first.json")) == 0
    before = {path: path.read_bytes() for path in out_dir.rglob("*") if path.is_file()}
    capsys.readouterr()
    assert run_cli("sweep", "--config", str(tmp_path / "second.json")) == 2
    err = capsys.readouterr().err
    assert "config key 'out_dir'" in err and str(out_dir / "runs") in err
    assert {path: path.read_bytes() for path in out_dir.rglob("*") if path.is_file()} == before


_GRID = ["--width", "3", "--height", "1"]
_GEN = ["gen", *_GRID, "--num-traj", "4", "--T", "4", "--seed", "0", "--out"]
_TRAIN = ["train", *_GRID, "--dataset", "{tmp}/ds.csv", "--method", "trl", "--steps", "5",
          "--seed", "0", "--out-dir"]
_IS_A_DIR = "--out: cannot write {dir}: it is a directory"
# Each front end with an output path that cannot take its output, and the
# refusal: a directory where a file goes, a file where a directory goes, a
# path under a missing parent or a file, or none. {file} is a file, {dir} a
# directory.
_BAD_OUTPUTS = {
    "gen": ([*_GEN, "{dir}"], _IS_A_DIR),
    "gen_empty": ([*_GEN, ""], "--out must be a non-empty path"),
    "gen_missing_parent": ([*_GEN, "{tmp}/missing/ds.csv"], "--out: cannot write "
                           "{tmp}/missing/ds.csv: {tmp}/missing is not an existing directory"),
    "train": ([*_TRAIN, "{file}"], "--out-dir: cannot make directory {file}: {file} is not a "
              "directory"),
    "train_under_file": ([*_TRAIN, "{file}/run"], "--out-dir: cannot make directory "
                         "{file}/run: {file} is not a directory"),
    "train_empty": ([*_TRAIN, ""], "--out-dir must be a non-empty path"),
    "eval": (["eval", *_GRID, "--table", "{tmp}/table.bin", "--out", "{dir}"], _IS_A_DIR),
    "recursion": (["recursion", "--n-max", "64", "--sim", "4", "--out", "{dir}"], _IS_A_DIR),
    "sweep": (["sweep", "--config", "{tmp}/sweep.json"], "config key 'out_dir': cannot make "
              "directory {file}: {file} is not a directory"),
}


@pytest.mark.parametrize("case", list(_BAD_OUTPUTS))
def test_bad_output_path_exits_2_before_any_work(tmp_path, capsys, case):
    """Every front end checks its output path before its work: a path that
    cannot take the output exits 2, naming the path, and nothing is written
    (each input would let the command run to its end)."""
    env = build_grid_env(3, 1)
    save_dataset(collect_dataset(env, 4, 4, seed=0), str(tmp_path / "ds.csv"))
    save_table(ValueTable(oracle_q_table(env, 0.99), 0.99, space="value"),
               str(tmp_path / "table.bin"))
    names = {"tmp": tmp_path, "file": tmp_path / "taken", "dir": tmp_path / "adir"}
    names["file"].write_text("kept\n")
    names["dir"].mkdir()
    (tmp_path / "sweep.json").write_text(json.dumps({
        "out_dir": str(names["file"]), "env": {"kind": "grid", "width": 3, "height": 1},
        "dataset": {"num_traj": 4, "T": 4, "seed": 0}, "methods": ["trl"], "seeds": [0],
        "learner": {"steps": 5}}))
    before = {path: path.is_dir() or path.read_bytes() for path in tmp_path.rglob("*")}
    argv, message = _BAD_OUTPUTS[case]
    assert main([arg.format(**names) for arg in argv]) == 2
    assert capsys.readouterr().err == f"config error: {message.format(**names)}\n"
    assert {path: path.is_dir() or path.read_bytes() for path in tmp_path.rglob("*")} == before


def test_sweep_bad_config_exit_code(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"out_dir": "x"}))
    assert run_cli("sweep", "--config", str(cfg_path)) == 2
    err = capsys.readouterr().err
    assert "env" in err


def test_recursion_command(tmp_path):
    out = tmp_path / "rec.csv"
    code = run_cli(
        "recursion", "--n-max", "128", "--sim", "4", "--sim", "16",
        "--trials", "1000", "--out", str(out),
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "n,B_n,bound,C_n,sim_mean,sim_stderr"


def test_env_file_flag(tmp_path):
    env_path = tmp_path / "env.txt"
    env_path.write_text("3 1\n1\n2\n2\n")  # one-way chain
    ds_path = tmp_path / "ds.csv"
    code = run_cli(
        "gen", "--env-file", str(env_path), "--num-traj", "5", "--T", "4",
        "--seed", "1", "--out", str(ds_path),
    )
    assert code == 0
    header = ds_path.read_text().splitlines()[0]
    assert header == "5,4"


@pytest.mark.parametrize(
    "command, grid_flag",
    [("gen", ["--width", "4"]), ("gen", ["--height", "1"]), ("gen", ["--walls", "0,0"]),
     ("train", ["--width", "3", "--height", "1"]), ("eval", ["--width", "3"])],
)
def test_env_file_with_grid_flags_exit_code(tmp_path, capsys, command, grid_flag):
    """--env-file names the whole environment, so a grid flag beside it exits 2
    naming the flag's env.* key, as a sweep's file env with that key does,
    before anything is read or written."""
    env_path = tmp_path / "env.txt"
    env_path.write_text("3 1\n1\n2\n2\n")
    out = tmp_path / "out"
    rest = {
        "gen": ["--num-traj", "5", "--T", "4", "--seed", "1", "--out", str(out)],
        "train": ["--dataset", "ds.csv", "--method", "mc", "--seed", "0", "--out-dir", str(out)],
        "eval": ["--table", "table.bin", "--out", str(out)],
    }[command]
    assert run_cli(command, "--env-file", str(env_path), *grid_flag, *rest) == 2
    message = f"config key 'env.{grid_flag[0][2:]}' is not read by a 'file' environment"
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not out.exists()


def test_env_file_bad_row_exit_code(tmp_path, capsys):
    env_path = tmp_path / "env.txt"
    env_path.write_text("3 1\n1\nx\n2\n")
    code = run_cli(
        "gen", "--env-file", str(env_path), "--num-traj", "5", "--T", "4",
        "--seed", "1", "--out", str(tmp_path / "ds.csv"),
    )
    assert code == 2
    err = capsys.readouterr().err
    assert "config error" in err and str(env_path) in err and "row 1" in err


@pytest.mark.parametrize("walls, problem", [
    ("1", "bad wall cell"), ("a,b", "bad wall cell"), ("1,2,3", "bad wall cell"),
    ("1,1;2", "bad wall cell"), ("9,9", "wall cell (9, 9) outside the 4x4 grid"),
], ids=["1", "a,b", "1,2,3", "1,1;2", "9,9"])
def test_gen_bad_walls_exit_code(tmp_path, capsys, walls, problem):
    code = run_cli(
        "gen", "--width", "4", "--height", "4", "--walls", walls, "--num-traj", "2",
        "--T", "4", "--seed", "0", "--out", str(tmp_path / "ds.csv"),
    )
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: config key 'env.walls': ") and problem in err
    assert not (tmp_path / "ds.csv").exists()


def test_gen_walls_flag(tmp_path, capsys):
    code = run_cli(
        "gen", "--width", "3", "--height", "3", "--walls", "1,1; 0,2", "--num-traj", "2",
        "--T", "4", "--seed", "0", "--out", str(tmp_path / "ds.csv"),
    )
    assert code == 0
    assert "wrote" in capsys.readouterr().out


@pytest.mark.parametrize("walls", [[[1]], [["a", "b"]], [[1, 1.5]], [1, 2], 7, [[1, True]],
                                   [{"1": 0, "2": 0}], [["1", "2"]], ["1,2"], [[9, 9]],
                                   [[x, y] for x in range(4) for y in range(4)]])
def test_sweep_bad_walls_exit_code(tmp_path, capsys, walls):
    config = {
        "out_dir": str(tmp_path / "exp"),
        "env": {"kind": "grid", "width": 4, "height": 4, "walls": walls},
        "dataset": {"num_traj": 2, "T": 4, "seed": 0},
        "methods": ["mc"],
        "seeds": [0],
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    assert run_cli("sweep", "--config", str(cfg_path)) == 2
    assert capsys.readouterr().err.startswith("config error: config key 'env.walls': ")
    assert not (tmp_path / "exp").exists()


def _gen_dataset(tmp_path):
    ds_path = tmp_path / "ds.csv"
    assert run_cli("gen", "--width", "3", "--height", "1", "--num-traj", "2", "--T", "4",
                   "--seed", "0", "--out", str(ds_path)) == 0
    return ds_path


@pytest.mark.parametrize("flag, key", [("--num-traj", "dataset.num_traj"), ("--T", "dataset.T"),
                                       ("--width", "env.width"), ("--height", "env.height")],
                         ids=lambda name: name.rpartition(".")[2])
def test_gen_bad_size_names_the_argument(tmp_path, capsys, flag, key):
    sizes = {"--width": "3", "--height": "1", "--num-traj": "2", "--T": "4", flag: "0"}
    out = tmp_path / "ds.csv"
    argv = [token for pair in sizes.items() for token in pair]
    assert run_cli("gen", *argv, "--seed", "0", "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert f"config error: config key '{key}' must lie in [1, inf), got 0" in err
    assert not out.exists()


def _refusal(call, *args) -> str:
    """The message of the ConfigError that ``call(*args)`` raises."""
    with pytest.raises(ConfigError) as exc:
        call(*args)
    return str(exc.value)


# Each rule that env and dataset own, a value it refuses, and the refusal's
# text, which every front end gives word for word.
_OWNED_RULE_REFUSALS = {
    "env.width": (0, "config key 'env.width' must lie in [1, inf), got 0"),
    "env.height": (0, "config key 'env.height' must lie in [1, inf), got 0"),
    "dataset.num_traj": (0, "config key 'dataset.num_traj' must lie in [1, inf), got 0"),
    "dataset.T": (0, "config key 'dataset.T' must lie in [1, inf), got 0"),
    "dataset.seed": (-1, "config key 'dataset.seed' must lie in [0, inf), got -1"),
}


@pytest.mark.parametrize("key", sorted(_OWNED_RULE_REFUSALS))
def test_an_env_or_dataset_refusal_reads_the_same_from_every_front_end(tmp_path, capsys, key):
    """The owning function, a sweep config and `gclab gen` refuse the value
    with one message."""
    value, message = _OWNED_RULE_REFUSALS[key]
    block, _, name = key.partition(".")
    args = {"width": 3, "height": 1, "num_traj": 2, "T": 4, "seed": 0, name: value}
    if block == "env":
        assert _refusal(build_grid_env, args["width"], args["height"]) == message
    else:
        assert _refusal(collect_dataset, build_grid_env(3, 1), args["num_traj"], args["T"],
                        args["seed"]) == message
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(_set_setting(_sweep_config(tmp_path), key, value)))
    argv = [token for flag, arg in args.items() for token in (f"--{flag.replace('_', '-')}", str(arg))]
    for command in (["sweep", "--config", str(cfg_path)],
                    ["gen", *argv, "--out", str(tmp_path / "ds.csv")]):
        assert run_cli(*command) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"
    assert not (tmp_path / "exp").exists() and not (tmp_path / "ds.csv").exists()


# An env spec that build_env_from_spec refuses, the env flags of `gclab gen`,
# `train` and `eval` that map onto it, and the refusal every front end gives.
_ENV_REFUSALS = {
    "grid_key_beside_file": ({"kind": "file", "path": "env.txt", "width": 3},
                             ["--env-file", "env.txt", "--width", "3"],
                             "config key 'env.width' is not read by a 'file' environment"),
    "missing_grid_dimension": ({"kind": "grid", "width": 3}, ["--width", "3"],
                               "config keys 'env.width' and 'env.height' are required for grids"),
    "bad_wall": ({"kind": "grid", "width": 3, "height": 1, "walls": "a,b"},
                 ["--width", "3", "--height", "1", "--walls", "a,b"],
                 "config key 'env.walls': bad wall cell 'a,b': expected two integers x,y"),
}


@pytest.mark.parametrize("case", sorted(_ENV_REFUSALS))
def test_an_env_refusal_reads_the_same_from_every_front_end(tmp_path, capsys, monkeypatch, case):
    """build_env_from_spec, a sweep config's env block and the env flags of
    `gclab gen`, `train` and `eval` refuse one environment with one stderr
    line, exit 2 and write nothing."""
    spec, flags, message = _ENV_REFUSALS[case]
    monkeypatch.chdir(tmp_path)  # "env.txt": a three-state chain
    (tmp_path / "env.txt").write_text("3 1\n1\n2\n2\n")
    assert _refusal(build_env_from_spec, spec) == message
    (tmp_path / "cfg.json").write_text(json.dumps({**_sweep_config(tmp_path), "env": spec}))
    for argv in (["sweep", "--config", "cfg.json"],
                 ["gen", *flags, "--num-traj", "2", "--T", "4", "--seed", "0", "--out", "out"],
                 ["train", *flags, "--dataset", "ds.csv", "--method", "mc", "--seed", "0",
                  "--out-dir", "out"],
                 ["eval", *flags, "--table", "table.bin", "--out", "out"]):
        assert run_cli(*argv) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"
    assert sorted(path.name for path in tmp_path.iterdir()) == ["cfg.json", "env.txt"]


@pytest.mark.parametrize("header, field, value", [("0,4", "num_traj", 0), ("2,0", "T", 0)])
def test_a_dataset_header_refusal_reads_the_same_from_every_front_end(tmp_path, capsys, header,
                                                                     field, value):
    """load_dataset and `gclab train --dataset` refuse a header field out of
    its dataset rule with one message naming the file."""
    ds_path = _gen_dataset(tmp_path)
    ds_path.write_text(header + "\n")
    message = f"{ds_path}: header field {field} must lie in [1, inf), got {value}"
    assert _refusal(load_dataset, str(ds_path), build_grid_env(3, 1)) == message
    assert run_cli("train", "--width", "3", "--height", "1", "--dataset", str(ds_path),
                   "--method", "mc", "--seed", "0", "--out-dir", str(tmp_path / "r")) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"


def test_a_gamma_refusal_reads_the_same_from_every_reader(tmp_path):
    """optimal_value_table, ValueTable, a table file's header and
    LearnerConfig refuse a gamma of 1 with the one rule's text."""
    rule = "must lie in (0, 1), got 1.0"
    assert _refusal(optimal_value_table, np.zeros((2, 2), dtype=np.int64), 1.0) == f"gamma {rule}"
    assert _refusal(ValueTable, np.zeros((1, 1, 1)), 1.0) == f"gamma {rule}"
    table_path = tmp_path / "table.bin"
    table_path.write_bytes(np.array([1, 1, 1, 0], dtype=np.int64).tobytes()
                           + np.array([1.0, 0.0]).tobytes())
    assert _refusal(load_table, str(table_path)) == f"{table_path}: header field gamma {rule}"
    assert _refusal(LearnerConfig, "trl", 1.0) == f"config key 'learner.gamma' {rule}"


@pytest.mark.parametrize("flag, value, states", [("--num-traj", 10**12, 5 * 10**12),
                                                 ("--T", 10**7, 2 * (10**7 + 1))])
def test_gen_refuses_a_dataset_past_the_state_bound(tmp_path, capsys, flag, value, states):
    """num_traj * (T + 1) above its bound exits 2 before any array is
    allocated, and writes nothing."""
    sizes = {"--width": "3", "--height": "1", "--num-traj": "2", "--T": "4", flag: str(value)}
    out = tmp_path / "ds.csv"
    argv = [token for pair in sizes.items() for token in pair]
    assert run_cli("gen", *argv, "--seed", "0", "--out", str(out)) == 2
    err = capsys.readouterr().err
    bound = "config keys 'dataset.num_traj' * ('dataset.T' + 1) must lie in [1, 10000000]"
    assert f"config error: {bound}, got {states}" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "header, field",
    [("1000000000000,4", "num_traj"), ("-1,4", "num_traj"), ("2,-1", "T"),
     ("2,1000000000000", "states")],
)
def test_train_bad_dataset_header_exit_code(tmp_path, capsys, header, field):
    ds_path = _gen_dataset(tmp_path)
    lines = ds_path.read_text().splitlines()
    ds_path.write_text("\n".join([header] + lines[1:]) + "\n")
    code = run_cli(
        "train", "--width", "3", "--height", "1", "--dataset", str(ds_path),
        "--method", "mc", "--steps", "1", "--seed", "0", "--out-dir", str(tmp_path / "r"),
    )
    assert code == 2
    err = capsys.readouterr().err
    assert "config error" in err and str(ds_path) in err and field in err


@pytest.mark.parametrize(
    "header, field",
    [((3, 4, 3, 7), "space flag"), ((-1, 4, 3, 0), "states"), ((3, -4, -3, 1), "actions")],
)
def test_eval_bad_table_header_exit_code(tmp_path, capsys, header, field):
    ds_path = _gen_dataset(tmp_path)
    table_path = tmp_path / "table.bin"
    body = np.array(header, dtype=np.int64).tobytes() + np.float64(0.9).tobytes()
    table_path.write_bytes(body + np.zeros(36).tobytes())
    code = run_cli(
        "eval", "--width", "3", "--height", "1", "--table", str(table_path),
        "--dataset", str(ds_path), "--out", str(tmp_path / "eval.csv"),
    )
    assert code == 2
    err = capsys.readouterr().err
    assert "config error" in err and str(table_path) in err and field in err


def _sweep_config(tmp_path, **eval_spec):
    return {
        "out_dir": str(tmp_path / "exp"),
        "env": {"kind": "grid", "width": 4, "height": 1},
        "dataset": {"num_traj": 4, "T": 8, "seed": 0},
        "methods": ["mc"],
        "seeds": [0],
        "learner": {"steps": 10, "batch_size": 8},
        "eval": eval_spec,
    }


@pytest.mark.parametrize(
    "key, value",
    [("episodes", 0), ("num_tasks", 0), ("num_tasks", -1), ("max_steps_factor", 0),
     ("max_steps_factor", 1001), ("max_steps_factor", 10**400),
     ("rejection_n", 0), ("min_task_distance", -1), ("episodes", 2.5),
     ("extraction", "softmax"), ("min_task_distance", 100), ("num_tasks", 100_001),
     ("num_tasks", 10**400)],
)
def test_sweep_bad_eval_setting_exit_code(tmp_path, capsys, key, value):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(_sweep_config(tmp_path, **{key: value})))
    assert run_cli("sweep", "--config", str(cfg_path)) == 2
    assert f"eval.{key}" in capsys.readouterr().err
    assert not (tmp_path / "exp").exists()  # rejected before any training


@pytest.mark.parametrize(
    "flag, key", [("--episodes", "episodes"), ("--num-tasks", "num_tasks"),
                  ("--max-steps-factor", "max_steps_factor"), ("--rejection-n", "rejection_n"),
                  ("--extraction", "extraction")],
)
def test_eval_bad_setting_exit_code(tmp_path, capsys, flag, key):
    ds_path = _gen_dataset(tmp_path)
    code = run_cli(
        "eval", "--width", "3", "--height", "1", "--table", str(tmp_path / "none.bin"),
        "--dataset", str(ds_path), flag, "0", "--out", str(tmp_path / "eval.csv"),
    )
    assert code == 2
    assert f"eval.{key}" in capsys.readouterr().err


@pytest.mark.parametrize("flag, value", [("--learning-rate", "inf"), ("--beta-goal-reg", "nan")])
def test_train_non_finite_flag_exit_code(tmp_path, capsys, flag, value):
    ds_path = _gen_dataset(tmp_path)
    code = run_cli(
        "train", "--width", "3", "--height", "1", "--dataset", str(ds_path), "--method", "mc",
        "--seed", "0", "--steps", "10", flag, value, "--out-dir", str(tmp_path / "r"),
    )
    assert code == 2
    assert f"'learner.{flag[2:].replace('-', '_')}' must be finite" in capsys.readouterr().err
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize("flag", ["--dataset", "--env-file"])
def test_train_missing_input_file_exit_code(tmp_path, capsys, flag):
    missing = str(tmp_path / "missing.txt")
    grid = ["--width", "3", "--height", "1"] if flag == "--dataset" else []
    code = run_cli(
        "train", *grid, "--dataset", str(_gen_dataset(tmp_path)),
        "--method", "mc", "--seed", "0", "--steps", "10", "--out-dir", str(tmp_path / "r"),
        flag, missing,
    )
    assert code == 2
    err = capsys.readouterr().err
    assert "config error" in err and missing in err
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize(
    "argv",
    [["train", "--width", "3", "--height", "1", "--method", "mc", "--seed", "0",
      "--out-dir", "r", "--dataset"],
     ["gen", "--num-traj", "2", "--T", "4", "--seed", "0", "--out", "ds.csv", "--env-file"],
     ["sweep", "--config"]],
)
def test_binary_input_file_exit_code(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)  # outputs, had the input been accepted
    binary = str(tmp_path / "table.bin")
    save_table(ValueTable.create(3, 4, 0.99), binary)
    assert run_cli(*argv, binary) == 2
    err = capsys.readouterr().err
    assert "config error" in err and f"{binary} is not a text file" in err


@pytest.mark.parametrize("table_states, width, height", [(4, 3, 3), (9, 4, 1)])
def test_eval_table_shape_mismatch_exit_code(tmp_path, capsys, table_states, width, height):
    ds_path = tmp_path / "ds.csv"
    assert run_cli("gen", "--width", str(width), "--height", str(height), "--num-traj", "4",
                   "--T", "8", "--seed", "0", "--out", str(ds_path)) == 0
    table_path = str(tmp_path / "table.bin")
    save_table(ValueTable.create(table_states, 4, 0.99), table_path)
    code = run_cli(
        "eval", "--width", str(width), "--height", str(height), "--table", table_path,
        "--dataset", str(ds_path), "--out", str(tmp_path / "eval.csv"),
    )
    assert code == 2
    err = capsys.readouterr().err
    states = width * height
    assert table_path in err
    assert f"({table_states}, 4, {table_states})" in err and f"({states}, 4, {states})" in err
    assert not (tmp_path / "eval.csv").exists()


def test_sweep_missing_env_file_exit_code(tmp_path, capsys):
    missing = str(tmp_path / "missing.txt")
    config = {**_sweep_config(tmp_path), "env": {"kind": "file", "path": missing}}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    assert run_cli("sweep", "--config", str(cfg_path)) == 2
    err = capsys.readouterr().err
    assert "config error" in err and missing in err
    assert not (tmp_path / "exp").exists()  # rejected before anything is written


def test_sweep_missing_config_exit_code(tmp_path, capsys):
    cfg_path = tmp_path / "missing.json"
    assert run_cli("sweep", "--config", str(cfg_path)) == 2
    err = capsys.readouterr().err
    assert "config error" in err and str(cfg_path) in err


def test_recursion_reports_every_sim_size(tmp_path):
    out = tmp_path / "rec.csv"
    code = run_cli(
        "recursion", "--n-max", "1000", "--sim", "100", "--trials", "500", "--out", str(out),
    )
    assert code == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    sim_cells = {int(row[0]): row[4:] for row in rows}
    assert all(sim_cells[100])  # sim_mean and sim_stderr filled
    assert all(cells == ["", ""] for n, cells in sim_cells.items() if n != 100)


def test_recursion_sim_size_above_n_max_exit_code(tmp_path, capsys):
    code = run_cli(
        "recursion", "--n-max", "64", "--sim", "100", "--out", str(tmp_path / "rec.csv"),
    )
    assert code == 2
    err = capsys.readouterr().err
    assert "'recursion.sim_sizes'" in err and "100 is above n_max (64)" in err
    assert not (tmp_path / "rec.csv").exists()


def test_recursion_checks_simulation_arguments_before_the_table(tmp_path, capsys, monkeypatch):
    def no_table(n_max):
        raise AssertionError("expected_recursions ran before the arguments were checked")

    monkeypatch.setattr(analysis, "expected_recursions", no_table)
    code = run_cli(
        "recursion", "--n-max", "64", "--sim", "8", "--seed", "-1",
        "--out", str(tmp_path / "rec.csv"),
    )
    assert code == 2
    assert "config key 'recursion.seed' must lie in [0, inf), got -1" in capsys.readouterr().err


def blamed_keys(err: str) -> list[str]:
    """The quoted names a config error blames: those of its subject, before
    the verb that states the rule ("must", "is", "are" or "has"); an unknown
    key's message is all subject."""
    subject = re.split(r" (?:must|is|are|has) ", err.partition("config error: ")[2])[0]
    return re.findall(r"'([^']*)'", subject)


@pytest.mark.parametrize(
    "overrides, key",
    [({"methods": ["bogus"]}, "methods"), ({"methods": ["td_n"], "n_values": [0]}, "n_values"),
     ({"n_values": ["a"]}, "n_values"), ({"n_values": 0}, "n_values"),
     ({"n_values": {}}, "n_values"), ({"learner": {"log_every": 0}}, "log_every"),
     ({"learner": {"log_every": 1.5}}, "log_every"), ({"seeds": ["a"]}, "seeds"),
     ({"seeds": [-1]}, "seeds"),
     ({"dataset": 5}, "dataset"),
     ({"dataset": {"num_traj": 4, "T": 8, "seed": 0, "n": 1}}, "dataset.n"),
     ({"dataset": {"num_traj": "a", "T": 8, "seed": 0}}, "dataset.num_traj"),
     ({"dataset": {"num_traj": 4, "T": 0, "seed": 0}}, "dataset.T"),
     ({"dataset": {"num_traj": 4, "T": 2.5, "seed": 0}}, "dataset.T"),
     ({"dataset": {"num_traj": 4, "T": 8, "seed": -1}}, "dataset.seed"),
     ({"dataset": {"num_traj": 4, "T": 1, "seed": 0}, "methods": ["mc", "trl"]}, "dataset.T"),
     ({"learner": {"steps": "5"}}, "steps"), ({"learner": {"gamma": "0.9"}}, "gamma"),
     ({"learner": {"batch_size": True}}, "batch_size"), ({"learner": {"seed": 1.0}}, "seed"),
     ({"learner": {"learning_rate": float("inf")}}, "learning_rate"),
     ({"learner": {"beta_goal_reg": float("nan")}}, "beta_goal_reg"),
     ({"learner": {"p_cur": float("nan")}}, "p_cur"),
     ({"env": {"kind": "grid", "width": "8", "height": 1}}, "env.width"),
     ({"env": {"kind": "grid", "width": 2.5, "height": 1}}, "env.width"),
     ({"env": {"kind": "grid", "width": True, "height": 1}}, "env.width"),
     ({"env": {"kind": "grid", "width": 4, "height": 0}}, "env.height"),
     ({"env": {"kind": "file", "path": 3}}, "env.path"),
     ({"methods": ["mc", "mc"]}, "methods"), ({"seeds": [0, 1, 0]}, "seeds"),
     ({"methods": ["mc", "mc"], "seeds": [0, 0]}, "methods"),
     ({"methods": ["td_n"], "n_values": [1, 5, 1]}, "n_values"),
     ({"learner": {"ratios": 5}}, "learner.ratios"),
     ({"methods": ["gciql"], "learner": {"ratios": 5}}, "learner.ratios"),
     ({"learner": {"p_cur": True, "p_geom": 0.0}}, "p_cur"),
     ({"learner": {"p_cur": "0.2"}}, "p_cur"),
     ({"seeds": [[0]]}, "seeds"), ({"methods": [["mc"]]}, "methods"),
     ({"learner": {"method": "trl"}}, "learner.method"),
     ({"learner": {"seed": 7, "method": "trl"}, "methods": ["mc"]}, "learner.method"),
     ({"learner": {"seed": 7}}, "learner.seed"),
     ({"methods": ["td_n"], "n_values": [1, 5], "learner": {"n_step": 3}}, "learner.n_step"),
     ({"env": {"kind": "grid", "width": 4, "height": 1, "path": "env.txt"}}, "env.path"),
     ({"env": {"kind": "file", "path": "env.txt", "width": 4}}, "env.width"),
     ({"env": {"kind": "file", "path": "env.txt", "height": 1}}, "env.height"),
     ({"env": {"kind": "file", "path": "env.txt", "walls": [[9, 9]]}}, "env.walls"),
     ({"out_dir": 5}, "out_dir"), ({"out_dir": None}, "out_dir"), ({"out_dir": [1]}, "out_dir"),
     ({"out_dir": ""}, "out_dir"),
     ({"env": {"kind": "file", "path": "env.txt"}, "methods": ["trl", "coe"]},
      "learner.beta_goal_reg"),
     ({"learner": {"learning_rate": 10**400}}, "learning_rate"),
     ({"learner": {"lambda_reweight": 10**400}}, "lambda_reweight"),
     ({"learner": {"p_cur": 10**400}}, "p_cur"),
     ({"learner": {"kappa": 1.0}}, "kappa"),
     ({"dataset": {"num_traj": 10**12, "T": 8, "seed": 0}}, "dataset.num_traj"),
     ({"dataset": {"num_traj": 1, "T": 10**7, "seed": 0}}, "dataset.T"),
     ({"methods": ["td_n"], "n_values": [1, 10**21]}, "n_values"),
     ({"log_every": 100}, "log_every"),
     ({"methods": ["mc"], "n_values": [3]}, "n_values"),
     ({"methods": ["mc"], "n_values": [3], "learner": {"n_step": 3}}, "n_values")],
)
def test_sweep_bad_run_setting_exit_code(tmp_path, capsys, monkeypatch, overrides, key):
    """The message blames ``key``; a case whose ``key`` is a field it sets
    in the learner block blames that field's dotted key, learner.<field>."""
    learner = overrides.get("learner", {})
    key = f"learner.{key}" if key in learner else key
    monkeypatch.chdir(tmp_path)  # a file env's "env.txt": a three-state chain
    (tmp_path / "env.txt").write_text("3 1\n1\n2\n2\n")
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({**_sweep_config(tmp_path), **overrides}))
    assert run_cli("sweep", "--config", str(cfg_path)) == 2
    assert key in blamed_keys(capsys.readouterr().err)
    assert not (tmp_path / "exp").exists()  # rejected before any work


def test_lambda_reweight_is_held_at_zero(tmp_path, capsys):
    """trl has no distance reweight, so learner.lambda_reweight takes 0 only:
    0.5 exits 2 naming the key, from a sweep config and from `gclab train`,
    and neither writes anything."""
    message = "config key 'learner.lambda_reweight' must lie in [0, 0], got 0.5"
    config = _sweep_config(tmp_path)
    config.update(methods=["trl"], learner={**config["learner"], "lambda_reweight": 0.5})
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    assert run_cli("sweep", "--config", str(cfg_path)) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "exp").exists()
    ds_path = tmp_path / "ds.csv"
    assert run_cli("gen", "--width", "4", "--height", "1", "--num-traj", "4", "--T", "8",
                   "--seed", "0", "--out", str(ds_path)) == 0
    assert run_cli("train", "--width", "4", "--height", "1", "--dataset", str(ds_path),
                   "--method", "trl", "--lambda-reweight", "0.5", "--steps", "1", "--seed", "0",
                   "--out-dir", str(tmp_path / "run")) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("learner, key", [({"kappaa": 0.7}, "kappaa"),
                                          ({"ratios": {"p_cur": 0.2}}, "ratios"),
                                          ({"p_rand": 0.3}, "p_rand"), (5, None), ([1], None)],
                         ids=["kappaa", "ratios", "p_rand", "number", "list"])
def test_sweep_unknown_learner_key_or_block_exit_code(tmp_path, capsys, learner, key):
    """A learner key that is no LearnerConfig field, among them the relabel
    mixture's old nested 'ratios' and its dropped 'p_rand', is refused by
    its dotted name, and a learner block that is not an object as such,
    before anything is written."""
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({**_sweep_config(tmp_path), "learner": learner}))
    assert run_cli("sweep", "--config", str(cfg_path)) == 2
    message = ("config key 'learner' must be an object" if key is None
               else f"unknown config key 'learner.{key}'")
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not (tmp_path / "exp").exists()


def test_n_values_without_td_n_is_blamed_before_learner_n_step(tmp_path, capsys):
    """n_values sets td_n runs only: without td_n in methods the sweep
    refuses it, naming n_values and not the learner.n_step that no run
    would then have set per run, before writing."""
    config = {**_sweep_config(tmp_path), "n_values": [3], "learner": {"n_step": 3}}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    assert run_cli("sweep", "--config", str(cfg_path)) == 2
    err = capsys.readouterr().err
    assert "config key 'n_values' is read only by method 'td_n'" in err
    assert "learner" not in err
    assert not (tmp_path / "exp").exists()


def test_sweep_config_integer_past_the_digit_limit_exit_code(tmp_path, capsys):
    """Python's JSON parser refuses an integer of more than 4300 digits; the
    refusal names the config file, and nothing is written."""
    cfg_path = tmp_path / "cfg.json"
    text = json.dumps(_sweep_config(tmp_path))
    cfg_path.write_text(text.replace('"steps": 10', '"steps": 1' + "0" * 5000))
    assert run_cli("sweep", "--config", str(cfg_path)) == 2
    err = capsys.readouterr().err
    assert f"config {cfg_path} is not valid JSON" in err and "4300 digits" in err
    assert not (tmp_path / "exp").exists()


_LONG, _LONG_SHOWN = "x" * 5000, "'xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx... (5002 characters)"
_METHOD, _METHOD_SHOWN = "m" * 300, "'mmmmmmmmmmmmmmmmmmmmmmmmmmmmmmm... (302 characters)"
_ONE_OF_METHODS = "must be one of ('trl', 'mc', 'td_n', 'gciql', 'sgt', 'coe', 'exact'), got "


@pytest.mark.parametrize(
    "overrides, message",
    [({"learner": {"learning_rate": 10**400}},
      "config key 'learner.learning_rate' must be finite, got 100000000000000000000000"
      "00000000... (401 characters)"),
     ({"eval": {"max_steps_factor": 10**400}},
      "config key 'eval.max_steps_factor' must lie in [1, 1000], got 1000000000000000000"
      "0000000000000... (401 characters)"),
     ({"eval": {"episodes": "x" * 500}},
      "config key 'eval.episodes' must be an integer, got 'xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx"
      "... (502 characters)"),
     ({_LONG: 1}, f"unknown config key {_LONG_SHOWN}"),
     ({"learner": {_LONG: 1}},
      "unknown config key 'learner.xxxxxxxxxxxxxxxxxxxxxxx... (5010 characters)"),
     ({"methods": _LONG}, f"config key 'methods' must be a list, got {_LONG_SHOWN}"),
     ({"methods": ["mc"] * 1000},
      "config key 'methods' has a duplicate entry: ['mc', 'mc', 'mc', 'mc', 'mc', '"
      "... (6000 characters)"),
     ({"out_dir": [1] * 2000},
      "config key 'out_dir' must be a non-empty path, got [1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1"
      "... (6000 characters)"),
     ({"env": {"kind": "grid", "width": 4, "height": 1, "walls": _LONG}},
      f"config key 'env.walls': bad wall cell {_LONG_SHOWN}: expected two integers x,y"),
     ({"env": {"kind": "file", "path": "long.txt"}},
      f"long.txt: row 0 is not integers: {_LONG_SHOWN}"),
     ({"methods": [_METHOD]}, f"config key 'methods' {_ONE_OF_METHODS}{_METHOD_SHOWN}"),
     ({"learner": {"method": _METHOD}},
      f"config key 'learner.method' {_ONE_OF_METHODS}{_METHOD_SHOWN}"),
     ({"eval": {"extraction": _METHOD}},
      f"config key 'eval.extraction' must be one of ('greedy', 'rejection'), got {_METHOD_SHOWN}"),
     ({"env": {"kind": _METHOD}},
      f"config key 'env.kind' must be one of ('grid', 'file'), got {_METHOD_SHOWN}"),
     (["train", "--width", "3", "--height", "1", "--method", _METHOD, "--seed", "0",
       "--out-dir", "exp"], f"config key 'learner.method' {_ONE_OF_METHODS}{_METHOD_SHOWN}")],
    ids=["learning_rate", "max_steps_factor", "episodes", "unknown_key", "unknown_learner_key",
         "methods_not_a_list", "duplicate_entry", "out_dir_list", "walls_string", "env_file_row",
         "methods_entry", "learner_method", "extraction", "env_kind", "train_method_flag"],
)
def test_a_long_refused_value_is_shortened(tmp_path, capsys, monkeypatch, overrides, message):
    """The message keeps the key and the bound and shows the value's start
    and length, not all of it, from a sweep config (a dict of overrides) and
    from a command's flags (a list) alike."""
    monkeypatch.chdir(tmp_path)  # a file env's "long.txt": a row of 5000 characters
    (tmp_path / "long.txt").write_text(f"1 1\n{_LONG}\n")
    if isinstance(overrides, list):
        assert run_cli(*overrides) == 2
    else:
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({**_sweep_config(tmp_path), **overrides}))
        assert run_cli("sweep", "--config", str(cfg_path)) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not (tmp_path / "exp").exists()


@pytest.mark.parametrize(
    "recursion, key",
    [({"bogus": 1}, "recursion.bogus"), ({"n_max": 0}, "recursion.n_max"),
     ({"n_max": 64, "sim_sizes": [100]}, "recursion.sim_sizes"),
     ({"sim_sizes": [0]}, "recursion.sim_sizes"), ({"sim_sizes": 4}, "recursion.sim_sizes"),
     ({"trials": 0}, "recursion.trials"), ({"seed": -1}, "recursion.seed"), (5, "recursion"),
     ({"n_max": 64, "sim_sizes": [8, 8]}, "recursion.sim_sizes"),
     ({"n_max": 64, "sim_sizes": [[8]]}, "recursion.sim_sizes"), ([], "recursion"),
     (False, "recursion"), (None, "recursion")],
)
def test_sweep_bad_recursion_block_exit_code(tmp_path, capsys, recursion, key):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({**_sweep_config(tmp_path), "recursion": recursion}))
    assert run_cli("sweep", "--config", str(cfg_path)) == 2
    assert f"'{key}" in capsys.readouterr().err
    assert not (tmp_path / "exp").exists()  # rejected before any training


def _set_setting(config: dict, key: str, value, entry=True) -> dict:
    """``config`` with the setting at dotted ``key`` set to ``value`` (the one
    entry of a list setting, unless ``entry`` is false)."""
    value = [value] if entry and isinstance(_SETTINGS[key][0], list) else value
    block, _, name = key.rpartition(".")
    if not block:
        return {**config, "methods": ["td_n"] if key == "n_values" else ["mc"], key: value}
    return {**config, block: {**config.get(block, {}), name: value}}


def _keys(test) -> list[str]:
    """The dotted keys of the sweep settings whose default and rule pass ``test``."""
    return sorted(key for key, (default, rule) in _SETTINGS.items() if test(default, rule))


def _setting_id(key: str) -> str:
    """A generated case's id: the dotted key, a learner row's by its field."""
    return key.removeprefix("learner.")


def _refused_before_writing(tmp_path, capsys, key, value) -> None:
    """A sweep with the setting ``key`` set to ``value`` exits 2, blaming
    ``key``, before anything is written."""
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(_set_setting(_sweep_config(tmp_path), key, value)))
    assert run_cli("sweep", "--config", str(cfg_path)) == 2
    assert key in blamed_keys(capsys.readouterr().err)
    assert not (tmp_path / "exp").exists()


@pytest.mark.parametrize(
    "key", _keys(lambda default, rule: isinstance(rule, str) and not isinstance(default, float)),
    ids=_setting_id)
@pytest.mark.parametrize("bad", ["below", "bool", "float"])
def test_sweep_setting_below_its_minimum_or_not_an_integer_exit_code(tmp_path, capsys, key, bad):
    """Every integer setting, learner fields among them, set one below the
    closed lower end of its range, to true or to a float, exits 2 naming the
    key before anything is written."""
    minimum = int(_SETTINGS[key][1][1:].split(",")[0])
    value = {"below": minimum - 1, "bool": True, "float": minimum + 0.5}[bad]
    _refused_before_writing(tmp_path, capsys, key, value)


@pytest.mark.parametrize("key", _keys(lambda default, rule: isinstance(default, float)),
                         ids=_setting_id)
@pytest.mark.parametrize("bad", ["non_finite", "bool", "below"])
def test_sweep_real_setting_non_finite_or_below_its_minimum_exit_code(tmp_path, capsys, key, bad):
    """Every real setting (each a learner field) set to infinity, to true or
    one below the lower end of its range exits 2 naming the key before
    anything is written."""
    minimum = float(_SETTINGS[key][1][1:].split(",")[0])
    value = {"non_finite": float("inf"), "bool": True, "below": minimum - 1}[bad]
    _refused_before_writing(tmp_path, capsys, key, value)


@pytest.mark.parametrize("key", _keys(lambda default, rule: isinstance(rule, tuple)))
def test_sweep_setting_outside_its_values_exit_code(tmp_path, capsys, key):
    """Every setting that takes one of a tuple of values refuses any other,
    naming the key, before anything is written."""
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(_set_setting(_sweep_config(tmp_path), key, "bogus")))
    assert run_cli("sweep", "--config", str(cfg_path)) == 2
    assert f"config key '{key}' must be one of" in capsys.readouterr().err
    assert not (tmp_path / "exp").exists()


@pytest.mark.parametrize("key", _keys(lambda default, rule: isinstance(default, list)))
@pytest.mark.parametrize("bad", ["not_a_list", "duplicate"])
def test_list_setting_not_a_list_or_with_a_duplicate_exit_code(tmp_path, capsys, key, bad):
    """Every list setting refuses one entry outside a list, and a list that
    holds an entry twice, naming the key, before anything is written."""
    rule = _SETTINGS[key][1]
    entry = rule[0] if isinstance(rule, tuple) else int(rule[1:].split(",")[0])
    value, message = {"not_a_list": (entry, "must be a list"),
                      "duplicate": ([entry, entry], "has a duplicate entry")}[bad]
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(_set_setting(_sweep_config(tmp_path), key, value, entry=False)))
    assert run_cli("sweep", "--config", str(cfg_path)) == 2
    assert f"config key '{key}' {message}" in capsys.readouterr().err
    assert not (tmp_path / "exp").exists()


# Each rule of harness.check_run, and each bound on a size that sizes an
# array or a run's work, broken once through a sweep config and once through
# a command's flags: (config change, the key or file its message names, the
# command). Every command writes its last argument. "chain.txt" is a
# three-state file env, "ds.csv" holds T = 8 and "ds1.csv" T = 1 walks on the
# 4 x 1 corridor, "chain.csv" walks on the chain, and "table.bin" is a table
# of the corridor.
_GRID_TRAIN = ["train", "--width", "4", "--height", "1", "--seed", "0"]
_REJECTION_EVAL = ["eval", "--width", "4", "--height", "1", "--table", "table.bin",
                   "--extraction", "rejection", "--dataset", "ds.csv"]
_ONE_CHECK_CASES = {
    "min_horizon": ({"dataset": {"num_traj": 4, "T": 1, "seed": 0}, "methods": ["trl"]},
                    "'dataset.T'",
                    [*_GRID_TRAIN, "--dataset", "ds1.csv", "--method", "trl", "--out-dir", "run"]),
    "coe_coordinates": ({"env": {"kind": "file", "path": "chain.txt"}, "methods": ["coe"]},
                        "'learner.beta_goal_reg'",
                        ["train", "--env-file", "chain.txt", "--dataset", "chain.csv", "--seed",
                         "0", "--method", "coe", "--out-dir", "run"]),
    "log_every": ({"learner": {"log_every": 0}}, "'learner.log_every'",
                  [*_GRID_TRAIN, "--dataset", "ds.csv", "--method", "mc", "--log-every", "0",
                   "--out-dir", "run"]),
    "grid_table": ({"env": {"kind": "grid", "width": 10**11, "height": 1}}, "'env.width'",
                   ["gen", "--width", str(10**11), "--height", "1", "--num-traj", "2", "--T", "4",
                    "--seed", "0", "--out", "out.csv"]),
    "file_table": ({"env": {"kind": "file", "path": "wide.txt"}}, "wide.txt",
                   ["gen", "--env-file", "wide.txt", "--num-traj", "2", "--T", "4", "--seed",
                    "0", "--out", "out.csv"]),
    "batch_size": ({"learner": {"steps": 1, "batch_size": 10**12}}, "'learner.batch_size'",
                   [*_GRID_TRAIN, "--dataset", "ds.csv", "--method", "trl", "--batch-size",
                    str(10**12), "--steps", "1", "--out-dir", "run"]),
    "subgoal_draw": ({"methods": ["sgt"], "learner": {"steps": 1, "M_subgoals": 10**11}},
                     "'learner.M_subgoals'",
                     [*_GRID_TRAIN, "--dataset", "ds.csv", "--method", "sgt", "--M-subgoals",
                      str(10**11), "--steps", "1", "--out-dir", "run"]),
    "n_step": ({"methods": ["td_n"], "learner": {"steps": 3, "n_step": 10**21}},
               "'learner.n_step'",
               [*_GRID_TRAIN, "--dataset", "ds.csv", "--method", "td_n", "--n-step",
                str(10**21), "--steps", "3", "--out-dir", "run"]),
    "P_random_distance": ({"methods": ["sgt"],
                           "learner": {"steps": 3, "P_random_distance": 10**21}},
                          "'learner.P_random_distance'",
                          [*_GRID_TRAIN, "--dataset", "ds.csv", "--method", "sgt",
                           "--P-random-distance", str(10**21), "--steps", "3", "--out-dir", "run"]),
    "rejection_n": ({"eval": {"extraction": "rejection", "rejection_n": 10**12}},
                    "'eval.rejection_n'",
                    [*_REJECTION_EVAL, "--rejection-n", str(10**12), "--out", "out.csv"]),
    "episodes": ({"eval": {"extraction": "rejection", "episodes": 10**4 + 1}}, "'eval.episodes'",
                 [*_REJECTION_EVAL, "--episodes", str(10**4 + 1), "--out", "out.csv"]),
    "max_steps_factor": ({"eval": {"extraction": "rejection", "max_steps_factor": 1001}},
                         "'eval.max_steps_factor'",
                         [*_REJECTION_EVAL, "--max-steps-factor", "1001", "--out", "out.csv"]),
    "recursion_n_max": ({"recursion": {"n_max": 10**12}}, "'recursion.n_max'",
                        ["recursion", "--n-max", str(10**12), "--out", "out.csv"]),
    "recursion_trials": ({"recursion": {"trials": 10**12}}, "'recursion.trials'",
                         ["recursion", "--trials", str(10**12), "--out", "out.csv"]),
}


@pytest.mark.parametrize("case", sorted(_ONE_CHECK_CASES))
def test_each_run_rule_and_size_bound_exits_2_before_writing(tmp_path, capsys, monkeypatch, case):
    """A sweep exits 2 naming the key before out_dir exists, and so does the
    command that breaks the same rule, writing nothing."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "chain.txt").write_text("3 1\n1\n2\n2\n")
    (tmp_path / "wide.txt").write_text("3000 4\n")  # 36 * 10**6 table entries
    grid = ["--width", "4", "--height", "1", "--num-traj", "4", "--seed", "0"]
    for argv in ([*grid, "--T", "8", "--out", "ds.csv"], [*grid, "--T", "1", "--out", "ds1.csv"],
                 ["--env-file", "chain.txt", "--num-traj", "4", "--T", "4", "--seed", "0",
                  "--out", "chain.csv"]):
        assert run_cli("gen", *argv) == 0
    save_table(ValueTable.create(4, 4, 0.99), "table.bin")
    overrides, named, argv = _ONE_CHECK_CASES[case]
    (tmp_path / "cfg.json").write_text(json.dumps({**_sweep_config(tmp_path), **overrides}))
    capsys.readouterr()
    assert run_cli("sweep", "--config", "cfg.json") == 2
    assert named in capsys.readouterr().err
    assert not (tmp_path / "exp").exists()
    assert run_cli(*argv) == 2
    assert named in capsys.readouterr().err
    assert not (tmp_path / argv[-1]).exists()


def test_exact_train_reads_no_dataset(tmp_path, capsys):
    """exact reads no data: without --dataset it writes the loss log and the
    table of the run with one. A method that reads data exits 2 without one,
    naming the method, and writes nothing."""
    ds_path = _gen_dataset(tmp_path)
    grid = ["train", "--width", "3", "--height", "1", "--seed", "0"]
    assert run_cli(*grid, "--method", "exact", "--dataset", str(ds_path),
                   "--out-dir", str(tmp_path / "with")) == 0
    assert run_cli(*grid, "--method", "exact", "--out-dir", str(tmp_path / "without")) == 0
    for name in ("loss.csv", "table.bin"):
        assert (tmp_path / "with" / name).read_bytes() == (tmp_path / "without" / name).read_bytes()
    assert run_cli(*grid, "--method", "trl", "--out-dir", str(tmp_path / "trl")) == 2
    assert "config error: method 'trl' requires a dataset" in capsys.readouterr().err
    assert not (tmp_path / "trl").exists()


@pytest.mark.parametrize("graph", ["random", "star"])
def test_exact_train_on_an_env_file_is_the_oracle_table(tmp_path, graph):
    """The console commands on an env file: exact training writes the
    oracle's table bit for bit, on a directed random graph and on a 41-state
    star (every leaf's radius-2 sphere holds the other leaves), and its
    greedy eval reaches every task."""
    env_path = str(tmp_path / "env.txt")
    save_env(random_graph_env(60, 2, 0) if graph == "random" else star_env(40), env_path)
    run_dir = tmp_path / "exact"
    assert run_cli("train", "--env-file", env_path, "--method", "exact", "--seed", "0",
                   "--out-dir", str(run_dir)) == 0
    q = load_table(str(run_dir / "table.bin"))
    assert q.params.tobytes() == oracle_q_table(load_env(env_path), q.gamma).tobytes()
    out = tmp_path / "eval.csv"
    assert run_cli("eval", "--env-file", env_path, "--table", str(run_dir / "table.bin"),
                   "--episodes", "2", "--out", str(out)) == 0
    rows = out.read_text().splitlines()[1:]
    assert len(rows) == 5 and all(row.split(",")[1] == "1.0" for row in rows)


@pytest.mark.parametrize("gamma", [1.5, float("nan")])
def test_eval_bad_table_gamma_names_the_file(tmp_path, capsys, gamma):
    table_path = tmp_path / "table.bin"
    header = np.array((3, 4, 3, 0), dtype=np.int64).tobytes() + np.float64(gamma).tobytes()
    table_path.write_bytes(header + np.zeros(36).tobytes())
    code = run_cli("eval", "--width", "3", "--height", "1", "--table", str(table_path),
                   "--out", str(tmp_path / "eval.csv"))
    assert code == 2
    assert f"config error: {table_path}: header field gamma must" in capsys.readouterr().err
    assert not (tmp_path / "eval.csv").exists()


def test_recursion_duplicate_sim_size_exit_code(tmp_path, capsys):
    code = run_cli(
        "recursion", "--n-max", "64", "--sim", "8", "--sim", "8", "--trials", "10",
        "--out", str(tmp_path / "rec.csv"),
    )
    assert code == 2
    assert "'recursion.sim_sizes' has a duplicate entry: [8, 8]" in capsys.readouterr().err
    assert not (tmp_path / "rec.csv").exists()


def test_sweep_recursion_defaults(tmp_path):
    """Unset recursion settings in a sweep are those of `gclab recursion`."""
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({**_sweep_config(tmp_path), "recursion": {"sim_sizes": [8]}}))
    assert run_cli("sweep", "--config", str(cfg_path)) == 0
    out = tmp_path / "rec.csv"
    assert run_cli("recursion", "--sim", "8", "--out", str(out)) == 0
    assert (tmp_path / "exp" / "recursion.csv").read_bytes() == out.read_bytes()


def test_sweep_empty_recursion_block_takes_every_default(tmp_path):
    """An empty recursion block is the analysis of a bare `gclab recursion`."""
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({**_sweep_config(tmp_path), "recursion": {}}))
    assert run_cli("sweep", "--config", str(cfg_path)) == 0
    out = tmp_path / "rec.csv"
    assert run_cli("recursion", "--out", str(out)) == 0
    assert (tmp_path / "exp" / "recursion.csv").read_bytes() == out.read_bytes()


def test_flags_follow_learner_config_and_eval_defaults():
    """Every LearnerConfig field is a `gclab train` flag, typed and
    defaulted by the field; every eval and recursion setting is a `gclab
    eval` or `gclab recursion` flag defaulted by the sweep config's default."""
    from gclab.cli import build_parser
    from gclab.harness import block_defaults
    from gclab.learners import LearnerConfig

    args = build_parser().parse_args(
        ["train", "--dataset", "d", "--out-dir", "o", "--method", "mc", "--seed", "3"]
    )
    for f in fields(LearnerConfig):
        if f.name in ("method", "seed"):
            continue
        assert getattr(args, f.name) == f.default and type(getattr(args, f.name)) is type(f.default)
    assert (args.method, args.seed) == ("mc", 3)
    with pytest.raises(SystemExit):  # --seed stays required
        build_parser().parse_args(["train", "--dataset", "d", "--out-dir", "o", "--method", "mc"])
    args = build_parser().parse_args(["eval", "--table", "t", "--dataset", "d", "--out", "o"])
    defaults = block_defaults("eval")
    assert {key: getattr(args, key) for key in defaults} == defaults
    args = build_parser().parse_args(["recursion", "--out", "o"])
    defaults = block_defaults("recursion")
    assert {key: getattr(args, key) for key in defaults} == defaults


def test_recursion_help_shows_the_defaults(capsys):
    with pytest.raises(SystemExit):
        run_cli("recursion", "--help")
    out = capsys.readouterr().out
    for flag, default in (("--n-max", 10**6), ("--trials", 100_000), ("--seed", 0)):
        assert re.search(rf"{flag} \S+ +default: {default}\n", out), flag


def test_gen_help_shows_the_dataset_flags_as_required(capsys):
    """`gclab gen` takes a sweep config's dataset settings as flags, each
    required as its key is."""
    with pytest.raises(SystemExit):
        run_cli("gen", "--help")
    out = capsys.readouterr().out
    for flag in ("--num-traj", "--T", "--seed"):
        assert re.search(rf"{flag} \S+ +required\n", out), flag


def test_train_bad_width_names_the_env_key(tmp_path, capsys):
    code = run_cli("train", "--width", "0", "--height", "1", "--method", "exact", "--seed", "0",
                   "--out-dir", str(tmp_path / "r"))
    assert code == 2
    err = capsys.readouterr().err
    assert err == "config error: config key 'env.width' must lie in [1, inf), got 0\n"
    assert not (tmp_path / "r").exists()


def test_train_bad_log_every_exit_code(tmp_path, capsys):
    ds_path = _gen_dataset(tmp_path)
    code = run_cli(
        "train", "--width", "3", "--height", "1", "--dataset", str(ds_path), "--method", "mc",
        "--seed", "0", "--log-every", "0", "--out-dir", str(tmp_path / "r"),
    )
    assert code == 2
    assert "log_every" in capsys.readouterr().err


# The setting each command's --seed sets: a dataset's, a run's, or the
# recursion table's.
_SEED_KEYS = {"gen": "dataset.seed", "train": "learner.seed", "eval": "learner.seed",
              "recursion": "recursion.seed"}


@pytest.mark.parametrize(
    "argv",
    [["gen", "--width", "3", "--height", "1", "--num-traj", "2", "--T", "4", "--out", "out.csv"],
     ["train", "--width", "3", "--height", "1", "--dataset", "ds.csv", "--method", "mc",
      "--steps", "1", "--out-dir", "r"],
     ["eval", "--width", "3", "--height", "1", "--table", "table.bin", "--dataset", "ds.csv",
      "--out", "eval.csv"],
     ["recursion", "--n-max", "64", "--sim", "8", "--trials", "10", "--out", "rec.csv"]],
    ids=lambda argv: argv[0],
)
def test_negative_seed_exit_code(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    _gen_dataset(tmp_path)
    save_table(ValueTable.create(3, 4, 0.99), "table.bin")
    assert run_cli(*argv, "--seed", "-1") == 2
    err = capsys.readouterr().err
    assert err == f"config error: config key '{_SEED_KEYS[argv[0]]}' must lie in [0, inf), got -1\n"


def test_greedy_eval_needs_no_dataset(tmp_path):
    """Greedy extraction reads no behavior policy: the eval without --dataset
    writes the bytes of the eval with it."""
    ds_path = _gen_dataset(tmp_path)
    q = ValueTable.create(3, 4, 0.99)
    q.params[:] = np.random.default_rng(0).normal(size=q.params.shape)
    table_path = str(tmp_path / "table.bin")
    save_table(q, table_path)
    argv = ["eval", "--width", "3", "--height", "1", "--table", table_path, "--episodes", "3"]
    assert run_cli(*argv, "--dataset", str(ds_path), "--out", str(tmp_path / "with.csv")) == 0
    assert run_cli(*argv, "--out", str(tmp_path / "without.csv")) == 0
    assert (tmp_path / "with.csv").read_bytes() == (tmp_path / "without.csv").read_bytes()


def test_rejection_eval_without_dataset_exit_code(tmp_path, capsys):
    table_path = str(tmp_path / "table.bin")
    save_table(ValueTable.create(3, 4, 0.99), table_path)
    code = run_cli(
        "eval", "--width", "3", "--height", "1", "--table", table_path,
        "--extraction", "rejection", "--out", str(tmp_path / "eval.csv"),
    )
    assert code == 2
    err = capsys.readouterr().err
    assert "config error" in err and "--dataset" in err
    assert not (tmp_path / "eval.csv").exists()


@pytest.mark.parametrize("command", ["train", "eval"])
def test_dataset_that_does_not_fit_the_env_exit_code(tmp_path, capsys, command):
    """An 8x8 dataset given to a 4x4 grid is bad input: exit 2 naming the
    file, before anything is written."""
    ds_path = tmp_path / "ds.csv"
    assert run_cli("gen", "--width", "8", "--height", "8", "--num-traj", "4", "--T", "8",
                   "--seed", "0", "--out", str(ds_path)) == 0
    capsys.readouterr()
    out = tmp_path / "out"
    grid = ["--width", "4", "--height", "4", "--dataset", str(ds_path)]
    if command == "train":
        argv = ["train", *grid, "--method", "mc", "--steps", "1", "--seed", "0",
                "--out-dir", str(out)]
    else:
        table_path = str(tmp_path / "table.bin")
        save_table(ValueTable.create(16, 4, 0.99), table_path)
        argv = ["eval", *grid, "--table", table_path, "--extraction", "rejection",
                "--out", str(out)]
    assert run_cli(*argv) == 2
    err = capsys.readouterr().err
    assert "config error" in err and str(ds_path) in err and "out-of-range states" in err
    assert not out.exists()


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_eval_non_finite_table_exit_code(tmp_path, capsys, value):
    ds_path = _gen_dataset(tmp_path)
    q = ValueTable.create(3, 4, 0.99)
    q.params[1, 2, 0] = value
    table_path = str(tmp_path / "table.bin")
    save_table(q, table_path)
    code = run_cli(
        "eval", "--width", "3", "--height", "1", "--table", table_path,
        "--dataset", str(ds_path), "--out", str(tmp_path / "eval.csv"),
    )
    assert code == 2
    err = capsys.readouterr().err
    assert table_path in err and "non-finite" in err
    assert not (tmp_path / "eval.csv").exists()


@pytest.fixture
def nan_mc_step(monkeypatch):
    """mc's update step, followed by a NaN written into the online table."""
    original = learners.mc_update_step

    def poisoned(target, *args, **kwargs):
        stats = original(target, *args, **kwargs)
        target.online.params[0, 0, 1] = np.nan
        return stats

    monkeypatch.setattr(learners, "mc_update_step", poisoned)


def test_sweep_names_a_diverged_run(tmp_path, capsys, nan_mc_step):
    """The diverged run fails on a line benchmark/child.py parses, and leaves
    no table; the other runs and the summary still complete."""
    spec = importlib.util.spec_from_file_location("bench_child", _CHILD)
    child = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(child)
    config = {**_sweep_config(tmp_path), "methods": ["mc", "trl"]}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    assert run_cli("sweep", "--config", str(cfg_path)) == 1
    failed = [line for line in capsys.readouterr().out.splitlines() if line.startswith("FAILED ")]
    assert len(failed) == 1
    match = child.FAILED_LINE.match(failed[0])
    assert match and (match[1], match[2]) == ("mc", "0")
    runs = tmp_path / "exp" / "runs"
    assert not (runs / "mc_seed0" / "table.bin").exists()
    for name in child.ARTIFACTS:
        assert (runs / "trl_seed0" / name).is_file()
    summary = (tmp_path / "exp" / "summary.csv").read_text()
    assert "\ntrl," in summary and "\nmc," not in summary


def test_sweep_with_every_run_refused_exits_1(tmp_path, capsys, nan_mc_step):
    """With no finished run there is nothing to aggregate: the sweep prints
    its FAILED line, writes no summary and exits 1, not 2."""
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(_sweep_config(tmp_path)))
    assert run_cli("sweep", "--config", str(cfg_path)) == 1
    out, err = capsys.readouterr()
    assert out == "FAILED mc seed 0: training ended with a non-finite table\n"
    assert "config error" not in err
    assert not (tmp_path / "exp" / "runs").exists()
    assert not (tmp_path / "exp" / "summary.csv").exists()


def test_a_diverging_sweep_is_refused_at_its_first_overflowing_step(tmp_path, capsys):
    """gciql diverges on an 8x1 corridor at lr 1.0: the sweep stops the run
    at its first overflowing step, prints a FAILED line naming that step,
    emits no RuntimeWarning and exits 1."""
    config = {"out_dir": str(tmp_path / "exp"), "env": {"kind": "grid", "width": 8, "height": 1},
              "dataset": {"num_traj": 100, "T": 64, "seed": 0}, "methods": ["gciql"],
              "seeds": [0], "learner": {"steps": 2000, "learning_rate": 1.0, "kappa": 0.9,
                                        "tau_target": 0.01, "batch_size": 256}}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run_cli("sweep", "--config", str(cfg_path)) == 1
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    out, err = capsys.readouterr()
    assert re.fullmatch(r"FAILED gciql seed 0: training overflowed at step \d+: [^\n]+\n", out)
    assert err == ""


def test_train_refuses_a_diverged_table(tmp_path, capsys, nan_mc_step):
    ds_path = _gen_dataset(tmp_path)
    code = run_cli(
        "train", "--width", "3", "--height", "1", "--dataset", str(ds_path), "--method", "mc",
        "--seed", "0", "--steps", "10", "--batch-size", "8", "--out-dir", str(tmp_path / "r"),
    )
    assert code == 1
    assert capsys.readouterr().err == "error: mc seed 0: training ended with a non-finite table\n"
    assert not (tmp_path / "r" / "table.bin").exists()


def test_train_matches_the_sweep_run(tmp_path):
    """`gclab train` on a sweep's dataset and learner settings writes the
    sweep run's loss log and table, byte for byte, and the same meta.json
    but for the wall time."""
    config = _sweep_config(tmp_path)
    config["learner"] = {"steps": 30, "batch_size": 8, "learning_rate": 0.25, "log_every": 7}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    assert run_cli("sweep", "--config", str(cfg_path)) == 0
    out = tmp_path / "train"
    assert run_cli(
        "train", "--width", "4", "--height", "1", "--dataset", str(tmp_path / "exp" / "dataset.csv"),
        "--method", "mc", "--seed", "0", "--steps", "30", "--batch-size", "8",
        "--learning-rate", "0.25", "--log-every", "7", "--out-dir", str(out),
    ) == 0
    swept = tmp_path / "exp" / "runs" / "mc_seed0"
    for name in ("loss.csv", "table.bin"):
        assert (out / name).read_bytes() == (swept / name).read_bytes(), name
    metas = [json.loads((d / "meta.json").read_text()) for d in (out, swept)]
    for meta in metas:
        assert set(meta) == {"config_hash", "method", "seed", "wall_time_s"}
        del meta["wall_time_s"]
    assert metas[0] == metas[1]


def test_log_period_changes_the_loss_log_and_the_config_hash_only(tmp_path):
    """Two `gclab train` runs that differ only in --log-every write the same
    table, different loss logs, and different config hashes in meta.json."""
    ds_path = _gen_dataset(tmp_path)
    runs = [tmp_path / "every5", tmp_path / "every7"]
    for run, period in zip(runs, ("5", "7")):
        assert run_cli(
            "train", "--width", "3", "--height", "1", "--dataset", str(ds_path), "--method",
            "mc", "--seed", "0", "--steps", "20", "--batch-size", "8", "--log-every", period,
            "--out-dir", str(run),
        ) == 0
    a, b = ({name: (run / name).read_bytes() for name in ("table.bin", "loss.csv")}
            for run in runs)
    assert a["table.bin"] == b["table.bin"]
    assert a["loss.csv"] != b["loss.csv"]
    hashes = [json.loads((run / "meta.json").read_text())["config_hash"] for run in runs]
    assert hashes[0] != hashes[1]


def test_relabel_mixture_flags_change_the_gciql_table_and_the_config_hash(tmp_path):
    """`gclab train --p-traj 0.1` moves a tenth of gciql's goals from
    dataset states to later states of their own trajectory: its table and
    its config hash differ from the default run's."""
    ds_path = _gen_dataset(tmp_path)
    runs = [tmp_path / "default", tmp_path / "traj"]
    for run, extra in zip(runs, ([], ["--p-traj", "0.1"])):
        assert run_cli(
            "train", "--width", "3", "--height", "1", "--dataset", str(ds_path), "--method",
            "gciql", "--seed", "0", "--steps", "20", "--batch-size", "8", *extra,
            "--out-dir", str(run),
        ) == 0
    tables = [(run / "table.bin").read_bytes() for run in runs]
    assert tables[0] != tables[1]
    hashes = [json.loads((run / "meta.json").read_text())["config_hash"] for run in runs]
    assert hashes[0] != hashes[1]


@pytest.mark.parametrize("extraction", ["greedy", "rejection"])
def test_eval_matches_the_sweep_run(tmp_path, extraction):
    """`gclab eval` of a sweep run's table, on the sweep's dataset with the
    run's seed and the sweep's eval block, writes the run's eval.csv byte
    for byte."""
    eval_spec = {"num_tasks": 4, "episodes": 3, "max_steps_factor": 2,
                 "extraction": extraction, "rejection_n": 2, "min_task_distance": 1}
    config = _sweep_config(tmp_path, **eval_spec)
    config.update(seeds=[3], learner={"steps": 30, "batch_size": 8, "learning_rate": 0.5})
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    assert run_cli("sweep", "--config", str(cfg_path)) == 0
    swept = tmp_path / "exp" / "runs" / "mc_seed3"
    flags = [token for key, value in eval_spec.items()
             for token in ("--" + key.replace("_", "-"), str(value))]
    out = tmp_path / "eval.csv"
    assert run_cli(
        "eval", "--width", "4", "--height", "1", "--table", str(swept / "table.bin"),
        "--dataset", str(tmp_path / "exp" / "dataset.csv"), *flags, "--seed", "3",
        "--out", str(out),
    ) == 0
    assert out.read_bytes() == (swept / "eval.csv").read_bytes()
