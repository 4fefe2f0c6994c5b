"""The oracle agreement equals scipy.stats.spearmanr bit for bit over the
reachable pairs, and importing the CLI loads no scipy module."""

import os
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

from gclab.env import GraphEnv, build_grid_env
from gclab.harness import _average_ranks, spearman_to_oracle
from gclab.learners import ValueTable
from gclab.oracle import UNREACHABLE, all_pairs_distances, implied_distances, oracle_q_table
from gclab.policy import greedy_action_batch
from reference_helpers import _average_ranks as average_ranks_repeated
from reference_helpers import spearman_to_oracle_stacked


def scipy_rho(a, b) -> float:
    stats = pytest.importorskip("scipy.stats")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # ConstantInputWarning
        return float(stats.spearmanr(a, b).statistic)


def scipy_to_oracle(q, d) -> float:
    """The oracle agreement by scipy: ``spearmanr`` over the ``np.nonzero``
    pairs of the greedy action's gathered value, 0.0 where it is not
    finite."""
    starts, goals = np.nonzero(d != UNREACHABLE)
    actions = greedy_action_batch(q, starts, goals)
    implied = implied_distances(q.values_at((starts, actions, goals)), q.gamma)
    rho = scipy_rho(implied, d[starts, goals])
    return rho if np.isfinite(rho) else 0.0


def _oracle_cases():
    rng = np.random.default_rng(5)
    grid = build_grid_env(9, 7, walls=[(4, y) for y in range(6)])
    shape = (grid.num_states, grid.num_actions, grid.num_states)
    yield "random logits", grid, ValueTable(rng.normal(0.0, 3.0, shape), 0.9)
    yield "random values", grid, ValueTable(rng.uniform(0.01, 0.99, shape), 0.99, space="value")
    yield "oracle values", grid, ValueTable(oracle_q_table(grid, 0.95), 0.95, space="value")
    # A 3-state corridor beside a 3-state ring: no pair across.
    split = GraphEnv(6, 2, np.array([[0, 1], [0, 2], [1, 2], [4, 5], [5, 3], [3, 4]]))
    yield "disconnected", split, ValueTable(rng.normal(0.0, 2.0, (6, 2, 6)), 0.9)
    nan = rng.normal(0.0, 2.0, shape)
    nan[0, :, 1] = np.nan
    yield "nan", grid, ValueTable(nan, 0.9)
    yield "constant", grid, ValueTable(np.full(shape, 0.5), 0.9, space="value")
    yield "one state", GraphEnv(1, 2, np.zeros((1, 2), dtype=np.int64)), ValueTable.create(1, 2, 0.9)
    # Values of 1 or more read as distance 0: the clamp ties many pairs.
    yield "values above 1", grid, ValueTable(rng.uniform(0.0, 3.0, shape), 0.9, space="value")
    # 331 776 pairs: the rank products' sum is no longer exact in float64,
    # so the summation order of the correlation could move its last bit.
    big = build_grid_env(24, 24)
    big_shape = (big.num_states, big.num_actions, big.num_states)
    yield "24x24 random logits", big, ValueTable(rng.normal(0.0, 3.0, big_shape), 0.99)


@pytest.mark.parametrize("name, env, q", list(_oracle_cases()), ids=[c[0] for c in _oracle_cases()])
def test_spearman_to_oracle_equals_the_nonzero_path(name, env, q):
    d = all_pairs_distances(env)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no warning on any edge case
        got = spearman_to_oracle(q, d)
    assert isinstance(got, float)
    assert np.array([got]).tobytes() == np.array([scipy_to_oracle(q, d)]).tobytes()
    if name in ("nan", "constant", "one state"):
        assert got == 0.0
    else:
        assert got != 0.0


def _tied_cases():
    """Rounded logits: long runs of ties among the learned values."""
    rng = np.random.default_rng(8)
    for w, h in ((9, 7), (24, 24)):
        env = build_grid_env(w, h, walls=[(w // 2, y) for y in range(h - 1)])
        shape = (env.num_states, env.num_actions, env.num_states)
        yield f"tied {w}x{h}", env, ValueTable(np.round(rng.normal(0.0, 1.0, shape)), 0.95)


REFERENCE_CASES = [*_oracle_cases(), *_tied_cases()]


@pytest.mark.parametrize("name, env, q", REFERENCE_CASES, ids=[c[0] for c in REFERENCE_CASES])
def test_spearman_to_oracle_equals_the_stacked_copy(name, env, q):
    """Ranks written straight into one (2, N) array, with each full-size
    array dropped once read, give the bits of the np.vstack form."""
    d = all_pairs_distances(env)
    got = np.array([spearman_to_oracle(q, d)])
    assert got.tobytes() == np.array([spearman_to_oracle_stacked(q, d)]).tobytes()


def _rank_cases():
    rng = np.random.default_rng(11)
    yield "all distinct", rng.normal(0.0, 3.0, 1000)
    yield "all tied", np.full(257, 2.5)
    yield "tie runs at both ends", np.array([0.0, 0.0, 0.0, 1.0, 2.0, 2.0, 3.0, 5.0, 5.0, 5.0, 5.0])
    yield "two entries", np.array([2.0, 1.0])
    yield "two tied entries", np.array([7.0, 7.0])
    # implied_distances clamps values of 1 or more to distance 0.0.
    yield "values clamped to 0.0", np.maximum(np.round(rng.normal(0.0, 2.0, 5000)), 0.0)


@pytest.mark.parametrize("name, x", list(_rank_cases()), ids=[c[0] for c in _rank_cases()])
def test_average_ranks_equal_the_repeated_runs(name, x):
    """The running-extreme runs give the np.repeat form's ranks bit for bit;
    ``x`` is scratch and ``out`` holds the ranks."""
    expected = average_ranks_repeated(x)
    scratch, out = x.copy(), np.full(x.size, np.nan)
    _average_ranks(scratch, out=out)
    assert out.tobytes() == expected.tobytes()


def _table_kinds():
    env = build_grid_env(24, 24)
    shape = (env.num_states, env.num_actions, env.num_states)
    rng = np.random.default_rng(12)
    yield "oracle values", env, ValueTable(oracle_q_table(env, 0.95), 0.95, space="value")
    yield "random logits", env, ValueTable(rng.normal(0.0, 3.0, shape), 0.99)
    yield "rounded logits", env, ValueTable(np.round(rng.normal(0.0, 1.0, shape)), 0.95)


@pytest.mark.parametrize("name, env, q", list(_table_kinds()), ids=[c[0] for c in _table_kinds()])
def test_spearman_holds_one_rank_array(name, env, q):
    """On 24x24 (331 776 pairs) the traced peak is the (2, n) rank array, the
    argsort order and one-byte masks: 25.0 bytes per pair as measured, for
    distinct, tied and oracle values alike. Ranking into separate arrays and
    np.corrcoef's two copies peaked at 56-88 bytes per pair; the bound is
    28."""
    d = all_pairs_distances(env)
    spearman_to_oracle(q, d)
    tracemalloc.start()
    try:
        spearman_to_oracle(q, d)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 28 * d.size


def test_import_cli_leaves_scipy_stats_out():
    """Not scipy.stats only: no scipy module at all, so gclab runs on numpy."""
    code = (
        "import sys, gclab.cli; "
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    assert out.stdout.strip() == "[]"
