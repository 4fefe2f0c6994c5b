"""The numpy rank correlation equals scipy.stats.spearmanr bit for bit, and
importing the CLI loads no scipy module."""

import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from gclab.harness import spearman_rho


def scipy_rho(a, b) -> float:
    stats = pytest.importorskip("scipy.stats")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # ConstantInputWarning
        return float(stats.spearmanr(a, b).statistic)


def _cases():
    rng = np.random.default_rng(0)
    yield "floats", rng.random(500), rng.random(500)
    x = rng.standard_normal(400)
    yield "correlated floats", x, x + 0.3 * rng.standard_normal(400)
    yield "ints", rng.integers(-1000, 1000, 300), rng.integers(0, 10**6, 300)
    yield "int and float", rng.integers(0, 20, 300), rng.random(300)
    # Oracle-like: few distinct distances against implied distances with
    # clamped zeros, so both sides are tie-heavy.
    d = rng.integers(1, 12, 2000)
    yield "heavy ties", d, np.maximum(d + rng.integers(-3, 4, 2000), 0).astype(float)
    yield "two values", rng.integers(0, 2, 64), rng.integers(0, 2, 64)
    yield "signed zeros and inf", np.array([0.0, -0.0, 1.0, np.inf, 2.0, 0.0]), np.arange(6.0)
    yield "all tied", np.full(10, 3.0), rng.random(10)
    yield "all tied second", rng.random(10), np.full(10, 7)
    yield "size 0", np.array([]), np.array([])
    yield "size 1", np.array([1.0]), np.array([2.0])
    yield "size 2", np.array([1.0, 2.0]), np.array([5.0, 3.0])
    yield "size 2 tied", np.array([1.0, 1.0]), np.array([5.0, 3.0])
    yield "nan", np.array([1.0, np.nan, 3.0, 4.0]), np.array([1.0, 2.0, 3.0, 5.0])
    yield "nan second", np.arange(5.0), np.array([np.nan] * 5)


@pytest.mark.parametrize("name, a, b", list(_cases()), ids=[c[0] for c in _cases()])
def test_matches_scipy_spearmanr_bit_for_bit(name, a, b):
    expected = scipy_rho(a, b)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no warning on any edge case
        got = spearman_rho(a, b)
    assert isinstance(got, float)
    assert np.array([got]).tobytes() == np.array([expected]).tobytes(), (got, expected)


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
