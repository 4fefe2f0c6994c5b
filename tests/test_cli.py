import importlib.util
import json
import re
from pathlib import Path

import numpy as np
import pytest

from gclab import analysis, learners
from gclab.cli import main
from gclab.harness import _MINIMUMS
from gclab.learners import ValueTable, save_table

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
    assert "--env-file takes no --width, --height or --walls" in capsys.readouterr().err
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


@pytest.mark.parametrize("walls", ["1", "a,b", "1,2,3", "1,1;2"])
def test_gen_bad_walls_exit_code(tmp_path, capsys, walls):
    code = run_cli(
        "gen", "--width", "4", "--height", "4", "--walls", walls, "--num-traj", "2",
        "--T", "4", "--seed", "0", "--out", str(tmp_path / "ds.csv"),
    )
    assert code == 2
    err = capsys.readouterr().err
    assert "config error" in err and "bad wall cell" in err


def test_gen_walls_flag(tmp_path, capsys):
    code = run_cli(
        "gen", "--width", "3", "--height", "3", "--walls", "1,1; 0,2", "--num-traj", "2",
        "--T", "4", "--seed", "0", "--out", str(tmp_path / "ds.csv"),
    )
    assert code == 0
    assert "wrote" in capsys.readouterr().out


@pytest.mark.parametrize("walls", [[[1]], [["a", "b"]], [[1, 1.5]], [1, 2], 7])
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
    assert "wall" in capsys.readouterr().err


def _gen_dataset(tmp_path):
    ds_path = tmp_path / "ds.csv"
    assert run_cli("gen", "--width", "3", "--height", "1", "--num-traj", "2", "--T", "4",
                   "--seed", "0", "--out", str(ds_path)) == 0
    return ds_path


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
     ("rejection_n", 0), ("min_task_distance", -1), ("episodes", 2.5),
     ("extraction", "softmax")],
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
    assert f"'{flag[2:].replace('-', '_')}' must be finite" in capsys.readouterr().err
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
    assert "100" in capsys.readouterr().err
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
    assert "seed must be >= 0, got -1" in capsys.readouterr().err


@pytest.mark.parametrize(
    "overrides, key",
    [({"methods": ["bogus"]}, "methods"), ({"methods": ["td_n"], "n_values": [0]}, "n_values"),
     ({"n_values": ["a"]}, "n_values"), ({"n_values": 0}, "n_values"),
     ({"n_values": {}}, "n_values"), ({"log_every": 0}, "log_every"),
     ({"log_every": 1.5}, "log_every"), ({"seeds": ["a"]}, "seeds"), ({"seeds": [-1]}, "seeds"),
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
     ({"learner": {"ratios": {"p_cur": float("nan")}}}, "p_cur"),
     ({"env": {"kind": "grid", "width": "8", "height": 1}}, "env.width"),
     ({"env": {"kind": "grid", "width": 2.5, "height": 1}}, "env.width"),
     ({"env": {"kind": "grid", "width": True, "height": 1}}, "env.width"),
     ({"env": {"kind": "grid", "width": 4, "height": 0}}, "env.height"),
     ({"env": {"kind": "file", "path": 3}}, "env.path"),
     ({"methods": ["mc", "mc"]}, "methods"), ({"seeds": [0, 1, 0]}, "seeds"),
     ({"methods": ["mc", "mc"], "seeds": [0, 0]}, "methods"),
     ({"methods": ["td_n"], "n_values": [1, 5, 1]}, "n_values"),
     ({"learner": {"ratios": 5}}, "ratios"),
     ({"methods": ["gciql"], "learner": {"ratios": 5}}, "ratios"),
     ({"learner": {"ratios": {"p_cur": True, "p_geom": 0.0, "p_rand": 0.0}}}, "p_cur"),
     ({"learner": {"ratios": {"p_cur": "0.2"}}}, "p_cur"),
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
     ({"out_dir": ""}, "out_dir")],
)
def test_sweep_bad_run_setting_exit_code(tmp_path, capsys, overrides, key):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({**_sweep_config(tmp_path), **overrides}))
    assert run_cli("sweep", "--config", str(cfg_path)) == 2
    assert f"'{key}'" in capsys.readouterr().err
    assert not (tmp_path / "exp").exists()  # rejected before any work


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


def _set_setting(config: dict, key: str, value) -> dict:
    """``config`` with the setting at dotted ``key`` set to ``value`` (the one
    entry of a list setting)."""
    from gclab.harness import _LISTS

    value = [value] if key in _LISTS else value
    block, _, name = key.rpartition(".")
    if not block:
        return {**config, key: value, "methods": ["td_n"] if key == "n_values" else ["mc"]}
    return {**config, block: {**config.get(block, {}), name: value}}


@pytest.mark.parametrize("key", sorted(_MINIMUMS))
@pytest.mark.parametrize("bad", ["below", "bool", "float"])
def test_sweep_setting_below_its_minimum_or_not_an_integer_exit_code(tmp_path, capsys, key, bad):
    """Every integer setting with a smallest value, set one below it, to
    true or to a float, exits 2 naming the key before anything is written."""
    value = {"below": _MINIMUMS[key] - 1, "bool": True, "float": _MINIMUMS[key] + 0.5}[bad]
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(_set_setting(_sweep_config(tmp_path), key, value)))
    assert run_cli("sweep", "--config", str(cfg_path)) == 2
    assert f"'{key}'" in capsys.readouterr().err
    assert not (tmp_path / "exp").exists()


def test_recursion_duplicate_sim_size_exit_code(tmp_path, capsys):
    code = run_cli(
        "recursion", "--n-max", "64", "--sim", "8", "--sim", "8", "--trials", "10",
        "--out", str(tmp_path / "rec.csv"),
    )
    assert code == 2
    assert "given twice: [8, 8]" in capsys.readouterr().err
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
    """Every LearnerConfig field but the relabel ratios is a `gclab train`
    flag, typed and defaulted by the field; every eval and recursion setting
    is a `gclab eval` or `gclab recursion` flag defaulted by the sweep
    config's default."""
    from dataclasses import fields

    from gclab.cli import build_parser
    from gclab.harness import _BLOCKS
    from gclab.learners import LearnerConfig

    args = build_parser().parse_args(
        ["train", "--dataset", "d", "--out-dir", "o", "--method", "mc", "--seed", "3"]
    )
    for f in fields(LearnerConfig):
        if f.name in ("ratios", "method", "seed"):
            continue
        assert getattr(args, f.name) == f.default and type(getattr(args, f.name)) is type(f.default)
    assert not hasattr(args, "ratios")
    assert (args.method, args.seed) == ("mc", 3)
    with pytest.raises(SystemExit):  # --seed stays required
        build_parser().parse_args(["train", "--dataset", "d", "--out-dir", "o", "--method", "mc"])
    args = build_parser().parse_args(["eval", "--table", "t", "--dataset", "d", "--out", "o"])
    assert {key: getattr(args, key) for key in _BLOCKS["eval"]} == _BLOCKS["eval"]
    args = build_parser().parse_args(["recursion", "--out", "o"])
    assert {key: getattr(args, key) for key in _BLOCKS["recursion"]} == _BLOCKS["recursion"]


def test_recursion_help_shows_the_defaults(capsys):
    with pytest.raises(SystemExit):
        run_cli("recursion", "--help")
    out = capsys.readouterr().out
    for flag, default in (("--n-max", 10**6), ("--trials", 100_000), ("--seed", 0)):
        assert re.search(rf"{flag} \S+ +default: {default}\n", out), flag


def test_train_bad_log_every_exit_code(tmp_path, capsys):
    ds_path = _gen_dataset(tmp_path)
    code = run_cli(
        "train", "--width", "3", "--height", "1", "--dataset", str(ds_path), "--method", "mc",
        "--seed", "0", "--log-every", "0", "--out-dir", str(tmp_path / "r"),
    )
    assert code == 2
    assert "log_every" in capsys.readouterr().err


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
    assert "config error" in err and "seed must be >= 0, got -1" in err


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


def test_train_refuses_a_diverged_table(tmp_path, capsys, nan_mc_step):
    ds_path = _gen_dataset(tmp_path)
    code = run_cli(
        "train", "--width", "3", "--height", "1", "--dataset", str(ds_path), "--method", "mc",
        "--seed", "0", "--steps", "10", "--batch-size", "8", "--out-dir", str(tmp_path / "r"),
    )
    assert code == 1
    assert "mc seed 0" in capsys.readouterr().err
    assert not (tmp_path / "r" / "table.bin").exists()


def test_train_matches_the_sweep_run(tmp_path):
    """`gclab train` on a sweep's dataset and learner settings writes the
    sweep run's loss log and table, byte for byte, and the same meta.json
    but for the wall time."""
    config = _sweep_config(tmp_path)
    config["learner"] = {"steps": 30, "batch_size": 8, "learning_rate": 0.25}
    config["log_every"] = 7
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
