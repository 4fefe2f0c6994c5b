"""Property tests: random sweep configs and random input files are refused
with a ConfigError and nothing else.

The leaves are the values that broke the config and file checks before:
None, bools, -1, 0, +-2^70, 10**400, 1e308, NaN, +-inf, "" and a method
name, inside lists and objects. The example counts are capped so that the
file runs in a few seconds.
"""

from __future__ import annotations

import copy
import math
import os
import tempfile

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from gclab.dataset import load_dataset
from gclab.env import ConfigError, build_grid_env, load_env
from gclab import harness
from gclab.harness import validate_experiment_config
from gclab.learners import load_table

LEAVES = st.sampled_from(
    [None, True, False, -1, 0, 2**70, -(2**70), 10**400, 1e308, math.nan, math.inf,
     -math.inf, "", "trl"]
)

BASE = {
    "out_dir": "runs/fuzz",
    "env": {"kind": "grid", "width": 4, "height": 4},
    "dataset": {"num_traj": 5, "T": 8, "seed": 0},
    "methods": ["trl", "exact"],
    "seeds": [0, 1],
    "learner": {"steps": 10, "p_cur": 0.2, "p_geom": 0.5},
    "eval": {"num_tasks": 3},
    "recursion": {"n_max": 64, "sim_sizes": [4], "trials": 10},
}

# Every key a sweep config reads, as a path from the top, so that a mutation
# reaches each check and not only the unknown-key refusal: each top-level key
# and block, each env key of each kind, and each setting.
PATHS = list(dict.fromkeys([
    *((key,) for key in sorted(harness._TOP_KEYS)),
    ("env", "kind"),
    *(("env", key) for keys in harness._ENV_KEYS.values() for key in keys),
    *(tuple(key.split(".")) for key in harness._SETTINGS),
]))
KEYS = sorted({key for path in PATHS for key in path} | {"unknown"})

VALUES = st.recursive(
    LEAVES,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(KEYS), inner, max_size=3),
    max_leaves=6,
)


def _set(config: dict, path: tuple, value) -> None:
    node = config
    for key in path[:-1]:
        if not isinstance(node.get(key), dict):
            node[key] = {}
        node = node[key]
    node[path[-1]] = value


def _delete(config: dict, path: tuple) -> None:
    node = config
    for key in path[:-1]:
        node = node.get(key)
        if not isinstance(node, dict):
            return
    node.pop(path[-1], None)


@st.composite
def configs(draw):
    """The base config with a few keys set to fuzz values or deleted, or a
    fuzz object in its place."""
    if draw(st.integers(0, 9)) == 0:
        return draw(st.dictionaries(st.sampled_from(KEYS), VALUES, max_size=6) | VALUES)
    config = copy.deepcopy(BASE)
    for path, value, delete in draw(
        st.lists(st.tuples(st.sampled_from(PATHS), VALUES, st.booleans()), min_size=1, max_size=3)
    ):
        if delete:
            _delete(config, path)
        else:
            _set(config, path, value)
    return config


@settings(max_examples=300, deadline=None)
@given(config=configs())
def test_random_configs_raise_config_error_only(config):
    try:
        validate_experiment_config(config)
    except ConfigError:
        pass


TOKENS = st.sampled_from(
    ["0", "1", "2", "3", "4", "-1", str(2**70), "1" + "0" * 400, "1e308", "nan", "inf", "",
     "trl", "#", "1.5", "x"]
)
LINES = st.lists(
    st.tuples(st.lists(TOKENS, max_size=6), st.sampled_from([" ", ",", "\t"])).map(
        lambda parts: parts[1].join(parts[0])
    ),
    max_size=8,
)
FILE_BYTES = (
    LINES.map(lambda lines: "\n".join(lines).encode())
    | st.binary(max_size=120)
    # A table header of int64 fields and a float64 gamma, then a body.
    | st.tuples(
        st.lists(st.sampled_from([-1, 0, 1, 2, 3, 2**62, -(2**63)]), min_size=4, max_size=4),
        st.sampled_from([0.9, 0.0, math.nan, math.inf]),
        st.binary(max_size=96),
    ).map(lambda h: np.array(h[0], dtype=np.int64).tobytes() + np.float64(h[1]).tobytes() + h[2])
)
LOADERS = {"load_dataset": lambda path: load_dataset(path, env=build_grid_env(4, 4)),
           "load_env": load_env, "load_table": load_table}


@pytest.mark.parametrize("loader", list(LOADERS))
@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=FILE_BYTES)
def test_random_files_raise_config_error_only(loader, data):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "input")
        with open(path, "wb") as fh:
            fh.write(data)
        try:
            LOADERS[loader](path)
        except ConfigError:
            pass
