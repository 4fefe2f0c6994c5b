import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gclab.analysis import (
    c_sequence,
    expected_recursions,
    recursion_bound,
    recursion_report_rows,
    simulate_recursions,
)
from gclab.env import ConfigError


def expected_recursions_direct(n_max: int) -> np.ndarray:
    """O(n^2) reference evaluation with the literal pairwise maximum."""
    b = np.zeros(n_max + 1)
    for n in range(2, n_max + 1):
        k = np.arange(1, n)
        b[n] = 1.0 + np.maximum(b[k], b[n - k]).sum() / (n - 1)
    return b


def c_sequence_direct(n: int) -> float:
    """Direct summation used to cross-check the closed forms."""
    k = np.arange(1, n)
    return float(np.maximum(k, n - k).sum() / (n - 1))


def test_spot_values_exact():
    b = expected_recursions(4).b
    assert b[1] == 0.0
    assert abs(b[2] - 1.0) <= 1e-12
    assert abs(b[3] - 2.0) <= 1e-12
    assert abs(b[4] - 8.0 / 3.0) <= 1e-12


def test_monotone_up_to_hundred_thousand():
    table = expected_recursions(100_000)
    assert table.monotone
    assert np.all(np.diff(table.b[1:]) >= 0)


def test_fast_path_agrees_with_direct_evaluation():
    fast = expected_recursions(2000).b
    direct = expected_recursions_direct(2000)
    assert np.abs(fast - direct).max() <= 1e-9


def test_bound_holds_up_to_hundred_thousand():
    table = expected_recursions(100_000)
    n = np.arange(1, table.n_max + 1)
    bound = np.log(n) / np.log(4.0 / 3.0)
    assert np.all(table.b[1:] <= bound + 1e-12)


def test_recursion_bound_values():
    assert recursion_bound(1) == 0.0
    assert recursion_bound(4) == pytest.approx(4.8188, abs=1e-4)
    assert recursion_bound(10**6) == pytest.approx(48.02, abs=0.01)


def test_c_sequence_spot_values():
    assert c_sequence(2) == pytest.approx(1.0)
    assert c_sequence(3) == pytest.approx(2.0)
    assert c_sequence(4) == pytest.approx(8.0 / 3.0)
    assert c_sequence(2) <= 1.5
    assert c_sequence(3) <= 2.25
    assert c_sequence(4) <= 3.0


def test_c_sequence_rejects_small_n():
    with pytest.raises(ValueError):
        c_sequence(1)


@settings(max_examples=200, deadline=None)
@given(n=st.integers(2, 10_000))
def test_c_sequence_matches_direct_summation(n):
    assert c_sequence(n) == pytest.approx(c_sequence_direct(n), rel=1e-12)
    assert c_sequence(n) <= 0.75 * n


def test_simulation_degenerate_sizes():
    mean, stderr = simulate_recursions(2, 500, seed=0)
    assert mean == 1.0 and stderr == 0.0
    mean, stderr = simulate_recursions(3, 500, seed=0)
    assert mean == 2.0 and stderr == 0.0
    mean, _ = simulate_recursions(1, 10, seed=0)
    assert mean == 0.0


def test_simulation_matches_recurrence_at_four():
    mean, stderr = simulate_recursions(4, 100_000, seed=1)
    assert abs(mean - 8.0 / 3.0) < 4 * max(stderr, 1e-12)


def test_simulation_matches_recurrence_midsize():
    table = expected_recursions(256)
    for idx, n in enumerate((16, 64, 256)):
        mean, stderr = simulate_recursions(n, 100_000, seed=10 + idx)
        assert abs(mean - table.b[n]) < 4 * stderr, (n, mean, table.b[n])


def test_simulation_seeded_determinism():
    a = simulate_recursions(64, 2000, seed=42)
    b = simulate_recursions(64, 2000, seed=42)
    assert a == b


def test_validation_errors():
    with pytest.raises(ConfigError):
        expected_recursions(0)
    with pytest.raises(ConfigError):
        simulate_recursions(4, 0, seed=0)
    with pytest.raises(ConfigError):
        recursion_bound(0)


def test_report_rows_schema():
    rows = recursion_report_rows(64, sim_sizes=(4, 16), trials=2000, seed=0)
    ns = [row["n"] for row in rows]
    assert ns == sorted(set(ns))
    assert 64 in ns and 1 in ns
    by_n = {row["n"]: row for row in rows}
    assert by_n[4]["sim_mean"] is not None
    assert by_n[8]["sim_mean"] is None
    for row in rows:
        assert row["B_n"] <= row["bound"] + 1e-12
