import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from gclab.analysis import (
    _BLOCK,
    c_sequence,
    expected_recursions,
    recursion_bound,
    recursion_depths,
    recursion_report_rows,
    simulate_recursions,
    split_points,
)
from gclab.cli import main
from gclab.env import ConfigError
from reference_helpers import expected_recursions_gathered, recursion_depths_of_sizes


def expected_recursions_direct(n_max: int) -> np.ndarray:
    """O(n^2) reference evaluation with the literal pairwise maximum."""
    b = np.zeros(n_max + 1)
    for n in range(2, n_max + 1):
        k = np.arange(1, n)
        b[n] = 1.0 + np.maximum(b[k], b[n - k]).sum() / (n - 1)
    return b


def expected_recursions_sequential(n_max: int, kahan_from: int = 100_000) -> np.ndarray:
    """The upper-half prefix-sum identity one n at a time in float64, with
    compensated (Kahan) summation of the prefix from n = kahan_from on."""
    b = np.zeros(n_max + 1).tolist()
    prefix = np.zeros(n_max + 1).tolist()  # prefix[m] = sum_{t <= m} b[t]
    comp = 0.0
    b_last = p_last = 0.0
    for n in range(2, n_max + 1):
        total = 2.0 * (p_last - prefix[n // 2]) + (b[n // 2] if n % 2 == 0 else 0.0)
        bn = 1.0 + total / (n - 1)
        assert bn >= b_last, n  # the identity needs B nondecreasing
        b[n] = b_last = bn
        if n >= kahan_from:
            y = bn - comp
            t = p_last + y
            comp = (t - p_last) - y
            p_last = t
        else:
            p_last = p_last + bn
        prefix[n] = p_last
    return np.array(b)


def c_sequence_direct(n: int) -> float:
    """Direct summation used to cross-check the closed forms."""
    k = np.arange(1, n)
    return float(np.maximum(k, n - k).sum() / (n - 1))


def test_spot_values_exact():
    b = expected_recursions(4)
    assert b[1] == 0.0
    assert abs(b[2] - 1.0) <= 1e-12
    assert abs(b[3] - 2.0) <= 1e-12
    assert abs(b[4] - 8.0 / 3.0) <= 1e-12


def test_monotone_up_to_hundred_thousand():
    b = expected_recursions(100_000)
    assert np.all(np.diff(b[1:]) >= 0)


def test_fast_path_agrees_with_direct_evaluation():
    fast = expected_recursions(2000)
    direct = expected_recursions_direct(2000)
    assert np.abs(fast - direct).max() <= 1e-9


def test_blocks_agree_with_direct_evaluation_at_block_edges():
    """Tables that end on either side of a block edge (powers of two up to
    _BLOCK, then its multiples), and the shortest ones, match the literal
    pairwise maximum."""
    edges = [2**k for k in range(2, _BLOCK.bit_length())] + [2 * _BLOCK, 3 * _BLOCK]
    direct = expected_recursions_direct(max(edges))
    for n_max in (1, 2, 3, 5, 6, *(e + j for e in edges for j in (-1, 0))):
        b = expected_recursions(n_max)
        assert b.shape == (n_max + 1,)
        assert np.abs(b - direct[: n_max + 1]).max() <= 1e-12, n_max


@pytest.mark.parametrize("n_max", [2, 3, 4, 4097, 8193, 12289, 200_001, 10**6])
def test_in_place_blocks_equal_the_gathered_blocks(n_max):
    """Slices, np.repeat and in-place passes give the bits of the gathered
    form, on tables that end just past a block edge and at 10^6."""
    assert expected_recursions(n_max).tobytes() == expected_recursions_gathered(n_max).tobytes()


@pytest.mark.parametrize("kahan_from, tol", [(100_000, 1e-11), (2, 1e-12)])
def test_blocks_agree_with_sequential_evaluation_at_a_million(kahan_from, tol):
    """Compensated from 10^5 on, the sequential sum is within 1.4e-12 of a
    long-double evaluation at 10^6; compensated from the start, within
    3e-14. Short blocks keep the table within 3e-13 of the latter; whole
    blocks [m, 2m), one cumsum each, drift to 7e-12."""
    block = expected_recursions(10**6)
    assert np.abs(block - expected_recursions_sequential(10**6, kahan_from)).max() <= tol


def test_bound_holds_up_to_hundred_thousand():
    b = expected_recursions(100_000)
    n = np.arange(1, b.size)
    bound = np.log(n) / np.log(4.0 / 3.0)
    assert np.all(b[1:] <= bound + 1e-12)


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
    b = expected_recursions(256)
    for idx, n in enumerate((16, 64, 256)):
        mean, stderr = simulate_recursions(n, 100_000, seed=10 + idx)
        assert abs(mean - b[n]) < 4 * stderr, (n, mean, b[n])


def recursion_depths_all_trials(n: int, trials: int, seed: int) -> np.ndarray:
    """The simulated depths in trial order, advancing every trial on each
    step, finished or not, with a mask of the unfinished ones, and the split
    k = 1 + floor(u (size - 1)) in integers."""
    rng = np.random.default_rng(seed)
    sizes = np.full(trials, n, dtype=np.int64)
    depth = np.zeros(trials, dtype=np.int64)
    while True:
        active = sizes > 1
        if not active.any():
            break
        cur = sizes[active]
        k = 1 + np.floor(rng.random(cur.size) * (cur - 1)).astype(np.int64)
        sizes[active] = np.maximum(k, cur - k)
        depth[active] += 1
    return depth


@pytest.mark.parametrize("n", [1, 2, 3, 4, 64, 1024, 65536])
@pytest.mark.parametrize("trials", [1, 2, 10_000])
def test_simulation_of_live_trials_matches_the_all_trials_loop(n, trials):
    """Keeping only the unfinished sizes changes neither the draws nor the
    depths (which come out sorted), and the estimate is the mean and
    standard error of those depths."""
    new = recursion_depths(n, trials, seed=n + trials)
    old = np.sort(recursion_depths_all_trials(n, trials, seed=n + trials))
    assert new.dtype == old.dtype and new.tobytes() == old.tobytes()
    stderr = float(old.std(ddof=1) / np.sqrt(trials)) if trials > 1 else 0.0
    assert simulate_recursions(n, trials, seed=n + trials) == (float(old.mean()), stderr)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 64, 1025, 65536])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_depths_over_r_equal_the_depths_over_sizes(n, seed):
    """Tracking r = size - 1 in one reused buffer of uniforms draws the same
    uniforms and gives the same depths as tracking the sizes."""
    new = recursion_depths(n, 10_000, seed)
    old = recursion_depths_of_sizes(n, 10_000, seed)
    assert new.dtype == old.dtype and new.tobytes() == old.tobytes()


@pytest.mark.parametrize("size", [2, 3, 5, 17])
def test_split_points_are_uniform(size):
    """The first-level split of a size-``size`` chunk takes every value in
    1..size-1, with counts that pass a chi-square test at the 0.1% level."""
    draws = 200_000
    k = 1 + split_points(np.random.default_rng(size).random(draws), np.full(draws, size - 1.0))
    counts = np.bincount(k.astype(np.int64), minlength=size)
    assert counts[0] == 0 and counts.size == size and (counts[1:] > 0).all()
    if size > 2:
        expected = draws / (size - 1)
        chi2 = ((counts[1:] - expected) ** 2 / expected).sum()
        assert chi2 < stats.chi2.ppf(0.999, size - 2), (size, counts)


def test_split_points_stay_below_size():
    """At the largest double below 1 the split is size - 1, not size, and at
    0 it is 1, for chunk sizes up to 10^9."""
    sizes = np.array(
        [2, 3, 5, 17, 1000, 65536, 65537, 2**20 + 1, 999_999_937, 2**30 - 1, 10**9], dtype=float
    )
    top = 1 + split_points(np.full(sizes.size, np.nextafter(1.0, 0.0)), sizes - 1)
    assert (top == sizes - 1).all()
    assert (1 + split_points(np.zeros(sizes.size), sizes - 1) == 1).all()


@pytest.mark.parametrize("n, seed", [(1024, 3), (65536, 4)])
def test_simulation_matches_recurrence_at_benchmark_sizes(n, seed):
    b = expected_recursions(n)
    mean, stderr = simulate_recursions(n, 100_000, seed=seed)
    assert abs(mean - b[n]) < 4 * stderr, (n, mean, b[n], stderr)


def test_simulation_seeded_determinism():
    a = simulate_recursions(64, 2000, seed=42)
    b = simulate_recursions(64, 2000, seed=42)
    assert a == b


def test_validation_errors(tmp_path, capsys):
    """The recursion settings are checked where they enter, so `gclab
    recursion` exits 2 naming the key; the bound keeps its domain guard."""
    with pytest.raises(ConfigError):
        recursion_bound(0)
    for flag, key in (("--n-max", "recursion.n_max"), ("--trials", "recursion.trials")):
        assert main(["recursion", flag, "0", "--out", str(tmp_path / "rec.csv")]) == 2
        assert f"config key '{key}' must lie in [1, 10000000], got 0" in capsys.readouterr().err
        assert not (tmp_path / "rec.csv").exists()


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


def test_report_rows_past_the_block_edges():
    """A table that ends past the block edges at 4096 and 8192 keeps every
    B(n) below its bound, and the rows simulated at 4097 and 8193 with the
    default trials and seed lie within 4 standard errors of B(n)."""
    rows = recursion_report_rows(8193, sim_sizes=(4097, 8193), trials=100_000, seed=0)
    assert all(row["B_n"] <= row["bound"] for row in rows)
    sims = [row for row in rows if row["sim_mean"] is not None]
    assert [row["n"] for row in sims] == [4097, 8193]
    for row in sims:
        assert abs(row["sim_mean"] - row["B_n"]) < 4 * row["sim_stderr"], row


def test_report_rows_hold_every_power_of_two():
    n_max = 3 * 2**20
    ns = {row["n"] for row in recursion_report_rows(n_max, sim_sizes=(), trials=1, seed=0)}
    assert {1 << p for p in range(22)} <= ns
    assert 1 << 22 not in ns and n_max in ns
