import math
import re
import tracemalloc
import warnings
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import expit, logit

from gclab import harness, learners
from gclab.cli import main
from gclab.dataset import collect_dataset
from gclab.env import MAX_TABLE_ENTRIES, ConfigError, GraphEnv, build_grid_env
from gclab.harness import check_run, train_run
from gclab.learners import (
    LOGIT_CLAMP,
    LearnerConfig,
    PolyakTarget,
    ValueTable,
    _apply_logit_updates,
    _bce_loss,
    _coe_state,
    _flat,
    _sigmoid,
    asymmetric_loss,
    coe_update_step,
    expectile_weight,
    gciql_update_step,
    load_table,
    mc_update_step,
    reweight_factor,
    save_table,
    sgt_update_step,
    target_sync,
    td_n_compute_targets,
    td_n_update_step,
    transitive_sweeps,
    trl_update_step,
)
from gclab.oracle import (
    UNREACHABLE,
    all_pairs_distances,
    optimal_value_table,
    oracle_q_table,
)
from env_helpers import random_graph_env
from target_helpers import (
    EagerTarget,
    eager_sync,
    step_batch,
    target_params,
    target_with_params,
)
from reference_helpers import table_file_bytes
from sweep_helpers import finite_diameter, run_transitive_fixed_point


def right_only_chain(n, absorbing=True):
    """Directed chain with a single action; final state self-loops."""
    transition = np.minimum(np.arange(n) + 1, n - 1).reshape(-1, 1)
    return GraphEnv(n, 1, transition)


# ---------------------------------------------------------------------------
# The sigmoid every logit table is read through


def assert_near_expit(got: np.ndarray, x: np.ndarray) -> None:
    """Within one ulp of 1.0 (2.2e-16) of scipy's expit, and within 4 ulps
    of the value's own size, which bounds the error of tiny outputs too.
    numpy's exp may round 1 ulp away from the C library's exp that expit
    calls, and 1 / (1 + exp(-x)) carries that into the sigmoid."""
    want = expit(x)
    assert np.abs(got - want).max() <= np.finfo(np.float64).eps
    assert (np.abs(got - want) <= 4 * np.spacing(want)).all()


def test_sigmoid_within_one_ulp_of_scipy_expit():
    x = np.random.default_rng(0).uniform(-40.0, 40.0, size=10**6)
    assert_near_expit(_sigmoid(x), x)


def test_sigmoid_exact_at_the_edges_without_a_warning():
    x = np.array([0.0, -0.0, 30.0, -30.0, 800.0, -800.0, np.inf, -np.inf, np.nan])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _sigmoid(x)
    want = expit(x)
    assert got[:-1].tobytes() == want[:-1].tobytes()
    assert list(got[:-1]) == [0.5, 0.5, want[2], want[3], 1.0, 0.0, 1.0, 0.0]
    assert np.isnan(got[-1])


def test_sigmoid_leaves_the_table_untouched_through_a_view():
    q = ValueTable(np.random.default_rng(1).uniform(-30.0, 30.0, size=(6, 4, 6)), 0.9)
    before = q.params.copy()
    idx = (2, slice(None), 5)  # basic indices: params[idx] is a view
    assert np.shares_memory(q.params[idx], q.params)
    got = q.values_at(idx)
    assert q.params.tobytes() == before.tobytes()
    assert not np.shares_memory(got, q.params)
    assert_near_expit(got, before[idx])


# ---------------------------------------------------------------------------
# Losses: asymmetric_loss (squared, value space) and the BCE logit kernel


def expectile_bce(z, y, kappa):
    """Expectile BCE as the logit learners form it: loss and gradient wrt the
    logit z."""
    pred = expit(z)
    w = expectile_weight(pred, y, kappa)
    return w * _bce_loss(pred, y), w * (pred - y)


def test_squared_loss_above_target():
    # prediction two above target: weight |0.7 - 1| = 0.3, loss 0.3 * 4.
    loss, grad = asymmetric_loss(3.0, 1.0, kappa=0.7)
    assert loss == pytest.approx(1.2)
    assert grad == pytest.approx(0.3 * 2 * 2.0)


def test_squared_loss_symmetric_at_half():
    rng = np.random.default_rng(0)
    for _ in range(20):
        x, y = rng.normal(size=2)
        loss, _ = asymmetric_loss(x, y, kappa=0.5)
        assert loss == pytest.approx(0.5 * (x - y) ** 2)


def test_bce_loss_frozen_value():
    # weight 0.3; D = -(0.5 ln 0.9 + 0.5 ln 0.1) = 1.2039728; loss = 0.3611918.
    loss, _ = expectile_bce(logit(0.9), 0.5, kappa=0.7)
    assert loss == pytest.approx(0.3611918, abs=1e-6)


def test_kappa_validation(tmp_path, capsys):
    """kappa is checked where a config enters, not by the losses: outside
    [0.5, 1) LearnerConfig raises, and `gclab train` exits 2 naming it
    before it reads a file."""
    for kappa in (0.4, 1.0):
        with pytest.raises(ConfigError, match=re.escape("'learner.kappa' must lie in [0.5, 1)")):
            LearnerConfig(kappa=kappa)
    argv = ["train", "--width", "2", "--height", "1", "--dataset", str(tmp_path / "none.csv"),
            "--method", "gciql", "--seed", "0", "--kappa", "1.0", "--out-dir", str(tmp_path / "r")]
    assert main(argv) == 2
    assert "config key 'learner.kappa' must lie in [0.5, 1), got 1.0" in capsys.readouterr().err


def _below(x: float) -> float:
    return float(np.nextafter(x, -np.inf))


def _above(x: float) -> float:
    return float(np.nextafter(x, np.inf))


# Every entry of the LearnerConfig interval table: values just inside each
# end, and just outside each finite end.
_INTERVAL_CASES = [
    ("gamma", "(0, 1)", [_above(0.0), _below(1.0)], [0.0, 1.0]),
    ("kappa", "[0.5, 1)", [0.5, _below(1.0)], [_below(0.5), 1.0]),
    ("lambda_reweight", "[0, inf)", [0.0, 1e308], [_below(0.0)]),
    ("learning_rate", "(0, inf)", [_above(0.0), 1e308], [0.0]),
    ("tau_target", "(0, 1]", [_above(0.0), 1.0], [0.0, _above(1.0)]),
    ("batch_size", "[1, 65536]", [1, 65536], [0, 65537, 10**12]),
    ("steps", "[0, inf)", [0], [-1]),
    ("log_every", "[1, inf)", [1], [0]),
    ("n_step", "[1, 10000000]", [1, 10**7], [0, 10**7 + 1, 10**21]),
    ("M_subgoals", "[1, inf)", [1], [0]),
    ("P_random_distance", "[1, 10000000]", [1, 10**7], [0, 10**7 + 1, 10**21]),
    ("beta_goal_reg", "[0, inf)", [0.0, 1e308], [_below(0.0)]),
    # Each weight's inside ends keep the mixture's sum at most 1 beside the
    # other two weights' defaults (0.2, 0.5, 0.0).
    ("p_cur", "[0, 1]", [0.0, 0.5], [_below(0.0), _above(1.0)]),
    ("p_geom", "[0, 1]", [0.0, 0.8], [_below(0.0), _above(1.0)]),
    ("p_traj", "[0, 1]", [0.0, 0.3], [_below(0.0), _above(1.0)]),
    ("geom_param", "(0, 1)", [_above(0.0), _below(1.0)], [0.0, 1.0]),
    ("seed", "[0, inf)", [0], [-1]),
]


def test_interval_cases_cover_every_number_field():
    numbers = {f.name for f in fields(LearnerConfig) if f.type in ("int", "float")}
    assert {case[0] for case in _INTERVAL_CASES} == set(learners._INTERVALS) == numbers


@pytest.mark.parametrize(
    "field, interval, inside, outside", _INTERVAL_CASES, ids=[c[0] for c in _INTERVAL_CASES]
)
def test_config_interval_ends(field, interval, inside, outside):
    for value in inside:
        assert getattr(LearnerConfig(**{field: value}), field) == value
    for value in outside:
        message = f"config key 'learner.{field}' must lie in {interval}, got {value!r}"
        with pytest.raises(ConfigError, match=re.escape(message)):
            LearnerConfig(**{field: value})


def test_subgoal_draw_bound_joins_batch_size_and_candidates():
    """sgt and coe draw 16 * batch_size * M_subgoals candidates per chunk, at
    most 2^20: the config refuses more, naming both keys, and accepts the
    bound itself; a method that draws no candidates takes the same fields."""
    message = ("config keys 'learner.batch_size' and 'learner.M_subgoals' for method 'sgt': "
               "candidates per draw 16 * batch_size * M_subgoals must lie in [1, 1048576], "
               "got 1179648")
    with pytest.raises(ConfigError, match=re.escape(message)):
        LearnerConfig(method="sgt", batch_size=8192, M_subgoals=9)
    for method, m in (("sgt", 8), ("coe", 8), ("trl", 9)):
        LearnerConfig(method=method, batch_size=8192, M_subgoals=m)


@pytest.mark.parametrize("method", ["nonsense", ["mc"], {"mc": 1}])
def test_unknown_method_is_a_config_error(method):
    """A method that is no name of METHODS, hashable or not, is refused as
    a config error: a sweep no longer turns a TypeError into one."""
    methods = tuple(learners.METHODS)
    message = f"config key 'learner.method' must be one of {methods}, got {method!r}"
    with pytest.raises(ConfigError, match=re.escape(message)):
        LearnerConfig(method=method)


def test_relabel_mixture_sums_to_at_most_one():
    """The three weights may fill the whole mass, up to float rounding
    (0.34 + 0.56 + 0.1 is 1.0000000000000002), and no more; the rest draws
    dataset states. A larger sum is refused, naming the three keys."""
    assert 0.34 + 0.56 + 0.1 == 1.0000000000000002
    for probs in ((0.34, 0.56, 0.1), (0.1, 0.2, 0.7), (0.0, 0.0, 1.0)):
        LearnerConfig(p_cur=probs[0], p_geom=probs[1], p_traj=probs[2])
    message = ("config keys 'learner.p_cur' + 'learner.p_geom' + 'learner.p_traj' must sum "
               "to at most 1, got 1.1")
    with pytest.raises(ConfigError, match=re.escape(message)):
        LearnerConfig(p_cur=0.6, p_geom=0.5)


def test_gradients_match_central_differences():
    """100 random (x, y, kappa) points per loss, relative error <= 1e-6; the
    BCE is differenced in the logit of x."""
    rng = np.random.default_rng(12345)
    h = 1e-7
    checked = 0
    while checked < 100:
        kappa = float(rng.choice([0.5, 0.6, 0.7, 0.9, rng.uniform(0.5, 0.99)]))
        for kind in ("squared", "bce"):
            if kind == "bce":
                x, y = rng.uniform(0.02, 0.98, size=2)
            else:
                x, y = rng.uniform(-2, 2, size=2)
            if abs(x - y) < 1e-3:  # keep the kink out of the FD stencil
                continue
            if kind == "bce":
                x, fn = logit(x), expectile_bce
            else:
                fn = asymmetric_loss
            _, grad = fn(x, y, kappa)
            lp, _ = fn(x + h, y, kappa)
            lm, _ = fn(x - h, y, kappa)
            fd = (lp - lm) / (2 * h)
            denom = max(abs(fd), 1e-8)
            assert abs(grad - fd) / denom <= 1e-6, (kind, x, y, kappa)
        checked += 1


@settings(max_examples=100, deadline=None)
@given(
    x=st.floats(0.01, 0.99),
    y=st.floats(0.01, 0.99),
    kappa=st.floats(0.5, 0.99),
)
def test_loss_nonnegative_and_weight_sides(x, y, kappa):
    for loss, grad in (asymmetric_loss(x, y, kappa), expectile_bce(logit(x), y, kappa)):
        assert loss >= 0
        if x > y:
            assert grad >= 0
        elif x < y:
            assert grad <= 0


def trl_single_sample(pred, target, lam=0.0):
    """Tables and a one-sample batch whose trl target is ``target`` (a
    length-1 segment s_i -> s_k supplies gamma, the target-table half
    Qbar(s_k, a_k, s_j) the rest) and whose online entry Q(0, 0, 2) reads
    ``pred``."""
    gamma = 0.9
    q = ValueTable.create(3, 1, gamma)
    q.params[0, 0, 2] = logit(pred)
    qt_params = ValueTable.create(3, 1, gamma).params
    qt_params[1, 0, 2] = logit(target / gamma)
    qt = target_with_params(q, qt_params)
    cfg = LearnerConfig(method="trl", gamma=gamma, kappa=0.7, lambda_reweight=lam)
    batch = step_batch(
        cfg, q.params.shape, s_i=[0], a_i=[0], s_k=[1], a_k=[0], s_j=[2], gap_ik=[1], gap_kj=[5]
    )
    return q, qt, batch, cfg


@pytest.mark.parametrize("pred, target", [(0.8, 0.3), (0.2, 0.6)])
def test_trl_single_sample_step(pred, target):
    """One sample moves its logit by exactly -lr * w * weight * (pred - target)."""
    q, qt, batch, cfg = trl_single_sample(pred, target, lam=1.0)
    pred_read = expit(q.params[0, 0, 2])
    target_read = cfg.gamma * expit(target_params(qt)[1, 0, 2])
    w = reweight_factor(pred_read, cfg.gamma, cfg.lambda_reweight)
    weight = 1.0 - cfg.kappa if pred > target else cfg.kappa
    before = q.params.copy()
    stats = trl_update_step(qt, None, batch, cfg)()
    assert stats["max_target"] == target_read
    step = -cfg.learning_rate * w * weight * (pred_read - target_read)
    assert q.params[0, 0, 2] - before[0, 0, 2] == pytest.approx(step, rel=1e-12)
    changed = q.params != before
    changed[0, 0, 2] = False
    assert not changed.any()


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_trl_step_on_saturated_table(sign):
    """A table saturated at +-LOGIT_CLAMP keeps the sigmoid strictly inside
    (0, 1), so the BCE kernel gives a finite loss and the step stays in the
    clamp."""
    q, _, batch, cfg = trl_single_sample(0.5, 0.5)
    q.params[:] = sign * LOGIT_CLAMP
    qt = target_with_params(q, np.full_like(q.params, sign * LOGIT_CLAMP))
    cfg.learning_rate = 100.0
    stats = trl_update_step(qt, None, batch, cfg)()
    assert np.isfinite(stats["loss"])
    assert np.all(np.abs(q.params) <= LOGIT_CLAMP)


# ---------------------------------------------------------------------------
# reweight_factor


def test_reweight_lambda_zero_is_one():
    assert reweight_factor(0.3, 0.99, 0.0) == 1.0


def test_reweight_zero_distance():
    assert reweight_factor(1.0, 0.99, 1.7) == 1.0


def test_reweight_distance_three():
    assert reweight_factor(0.99**3, 0.99, 1.0) == pytest.approx(0.25)


def inline_reweight_factor(q_value, gamma, lam):
    """reweight_factor as first written, with its own log_gamma inline."""
    dist = np.log(np.maximum(q_value, 1e-300)) / np.log(gamma)
    dist = np.clip(dist, 0.0, 4.0 / (1.0 - gamma))
    return np.power(1.0 + dist, -lam)


@pytest.mark.parametrize("lam", [0.5, 1.0, 2.0])
def test_reweight_equals_the_inline_formula_bit_for_bit(lam):
    rng = np.random.default_rng(0)
    edges = [0.0, 1e-320, 1e-300, 1e-10, 0.5, 1.0 - 1e-16, 1.0, 1.5, 3.0, np.nan]
    q_value = np.concatenate((rng.random(100_000), edges))
    for gamma in (0.5, 0.9, 0.99):
        got = reweight_factor(q_value, gamma, lam)
        assert got.tobytes() == inline_reweight_factor(q_value, gamma, lam).tobytes()


def test_reweight_clamps_tiny_q():
    # Implied distance of q = 1e-300 would be astronomical; clamp at 4/(1-gamma).
    w = reweight_factor(1e-300, 0.9, 1.0)
    assert w == pytest.approx(1.0 / (1.0 + 40.0))


# ---------------------------------------------------------------------------
# exact (min, +) sweeps


def test_base_table_initialization():
    """The first sweep reads the base table (0 on the diagonal, 1 on edges,
    no path elsewhere), so it holds exactly the pairs within two steps."""
    env = right_only_chain(5)
    d, shortened = next(transitive_sweeps(env))
    assert d[0, 0] == 0 and d[1, 1] == 0
    assert d[0, 1] == 1 and d[1, 2] == 1
    assert d[0, 2] == 2 and d[2, 4] == 2
    assert d[0, 3] == UNREACHABLE and d[1, 0] == UNREACHABLE
    assert shortened == 3  # (0, 2), (1, 3), (2, 4)


def test_sweep_doubles_known_distance():
    env = right_only_chain(4)
    sweeps = transitive_sweeps(env)
    d1, shortened1 = next(sweeps)
    assert shortened1 > 0
    assert d1[0, 2] == 2
    assert d1[1, 3] == 2
    assert d1[0, 3] == UNREACHABLE
    d2, _ = next(sweeps)
    assert d2[0, 3] == 3


def test_sweep_count_and_exactness_on_grid():
    env = build_grid_env(5, 5)
    d, sweeps = run_transitive_fixed_point(env)
    dist = all_pairs_distances(env)
    assert finite_diameter(dist) == 8
    assert sweeps <= 3  # ceil(log2(8))
    np.testing.assert_array_equal(d, dist)  # so the values are gamma^d* bit for bit


def test_sweep_monotone_and_matches_oracle_on_random_graphs():
    for seed in range(6):
        env = random_graph_env(40, 3, seed)
        prev = None
        for d, _ in transitive_sweeps(env):
            if prev is not None:  # a reached pair stays reached and never lengthens
                reached = prev != UNREACHABLE
                assert (d[reached] != UNREACHABLE).all()
                assert (d[reached] <= prev[reached]).all()
            prev = d.copy()  # the next sweep overwrites the yielded table
        fp, sweeps = run_transitive_fixed_point(env)
        dist = all_pairs_distances(env)
        np.testing.assert_array_equal(fp, dist)
        diam = finite_diameter(dist)
        bound = int(np.ceil(np.log2(diam))) if diam > 1 else 0
        assert sweeps <= bound


def test_sweeps_hand_out_unreachable_on_a_disconnected_graph():
    """Two one-way chains with no edge between them: every yielded table
    is signed and marks the pairs across them UNREACHABLE."""
    env = GraphEnv(6, 1, np.array([[1], [2], [2], [4], [5], [5]]))
    for d, _ in transitive_sweeps(env):
        assert d.dtype == np.int8 and d.min() == UNREACHABLE
        assert (d[:3, 3:] == UNREACHABLE).all() and (d[3:, :3] == UNREACHABLE).all()
    np.testing.assert_array_equal(d, all_pairs_distances(env))


@pytest.mark.parametrize("diameter, widened_at", [(63, None), (64, 6), (129, 6)])
def test_sweeps_yield_one_live_table_widened_once(diameter, widened_at):
    """A one-way chain's table stays int8 while twice its largest entry is
    at most 127, and is widened to int16 once, before the sweep that
    follows the first entry of 64. Between widenings every sweep yields
    the same live table."""
    tables = [d for d, _ in transitive_sweeps(right_only_chain(diameter + 1))]
    dtypes = [d.dtype for d in tables]
    narrow = len(tables) if widened_at is None else widened_at
    assert dtypes == [np.int8] * narrow + [np.int16] * (len(tables) - narrow)
    assert all(d is tables[0] for d in tables[:narrow])
    assert all(d is tables[-1] for d in tables[narrow:])
    assert int(tables[-1].max()) == diameter


def test_sweeps_refuse_more_states_than_the_table_dtype_holds():
    """A chain of 16385 states would let a finite sum, twice its largest
    distance, pass int16's maximum. The GraphEnv's table bound refuses that
    env when it is built, before the S x S sweep table (268 MB here) could
    exist."""
    refusal = (r"environment: table entries states \* actions \* states must lie in "
               r"\[1, 33554432\], got 268468225")
    tracemalloc.start()
    try:
        with pytest.raises(ConfigError, match=refusal):
            right_only_chain(2**14 + 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_the_table_bound_keeps_every_finite_sum_within_int16():
    """S * A * S <= MAX_TABLE_ENTRIES with A >= 1 keeps S at most the bound's
    square root, so twice any distance of a GraphEnv, the largest sum a
    sweep forms, fits an int16 table below its sign bit."""
    assert 2 * (math.isqrt(MAX_TABLE_ENTRIES) - 1) <= np.iinfo(np.int16).max


# ---------------------------------------------------------------------------
# trl updates


def make_tables(num_states, num_actions, gamma=0.99):
    q = ValueTable.create(num_states, num_actions, gamma)
    return q, PolyakTarget(q)


def test_trl_double_base_case_target_is_exact():
    q, qt = make_tables(4, 2)
    cfg = LearnerConfig(method="trl", learning_rate=0.1, kappa=0.5)
    batch = step_batch(
        cfg, q.params.shape, s_i=[0], a_i=[0], s_j=[2], s_k=[1], a_k=[1], gap_ik=[1], gap_kj=[1]
    )
    stats = trl_update_step(qt, None, batch, cfg)()
    assert stats["max_target"] == cfg.gamma * cfg.gamma


def test_trl_converges_to_constant_target():
    """kappa = 0.5 with a frozen target: the logit settles at the target's logit."""
    q, qt = make_tables(4, 2)
    cfg = LearnerConfig(method="trl", learning_rate=0.5, kappa=0.5, lambda_reweight=0.0)
    batch = step_batch(
        cfg, q.params.shape, s_i=[0], a_i=[0], s_j=[2], s_k=[1], a_k=[1], gap_ik=[1], gap_kj=[1]
    )
    for _ in range(4000):
        trl_update_step(qt, None, batch, cfg)
    target = cfg.gamma**2
    assert expit(q.params[0, 0, 2]) == pytest.approx(target, abs=1e-6)
    assert q.params[0, 0, 2] == pytest.approx(logit(target), abs=1e-4)


def expectile_fixed_point(targets, weights, kappa):
    """Closed-form stationary point of sum_i w_i |kappa - I(x > y_i)| (x - y_i)."""
    lo, hi = min(targets), max(targets)

    def h(x):
        return sum(
            w * (kappa if x <= y else 1 - kappa) * (x - y) for w, y in zip(weights, targets)
        )

    for _ in range(200):  # bisection
        mid = 0.5 * (lo + hi)
        if h(mid) > 0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def two_target_trl_batch(cfg, shape):
    """One entry (0,0,2) trained against targets {gamma^2, gamma^5} alternately."""
    return step_batch(
        cfg, shape, s_i=[0, 0], a_i=[0, 0], s_j=[2, 2], s_k=[1, 3], a_k=[0, 0],
        gap_ik=[2, 2], gap_kj=[2, 2],  # both > 1: factors come from the target table
    )


def fit_trl_two_targets(kappa, gamma=0.99, steps=60_000):
    q = ValueTable.create(5, 1, gamma)
    qt_params = ValueTable.create(5, 1, gamma).params
    # Freeze target-table factors so the two samples produce gamma^2 and gamma^5.
    qt_params[0, 0, 1] = logit(gamma**1)
    qt_params[1, 0, 2] = logit(gamma**1)
    qt_params[0, 0, 3] = logit(gamma**2)
    qt_params[3, 0, 2] = logit(gamma**3)
    qt = target_with_params(q, qt_params)
    cfg = LearnerConfig(method="trl", learning_rate=0.3, kappa=kappa)
    batch = two_target_trl_batch(cfg, q.params.shape)
    for _ in range(steps):
        trl_update_step(qt, None, batch, cfg)
    return float(expit(q.params[0, 0, 2]))


def test_trl_expectile_monotone_in_kappa():
    gamma = 0.99
    targets = [gamma**1 * gamma**1, gamma**2 * gamma**3]
    fit_05 = fit_trl_two_targets(0.5)
    fit_07 = fit_trl_two_targets(0.7)
    assert fit_07 > fit_05 + 1e-4  # strictly higher under the higher expectile
    # Closed form: stationarity of the weighted BCE logit gradient is linear.
    assert fit_05 == pytest.approx(expectile_fixed_point(targets, [1, 1], 0.5), abs=1e-5)
    assert fit_07 == pytest.approx(expectile_fixed_point(targets, [1, 1], 0.7), abs=1e-5)


def test_trl_targets_stay_in_unit_interval():
    rng = np.random.default_rng(0)
    q, _ = make_tables(6, 3)
    qt = target_with_params(q, rng.uniform(-LOGIT_CLAMP, LOGIT_CLAMP, size=q.params.shape))
    cfg = LearnerConfig(method="trl", learning_rate=0.1)
    for _ in range(50):
        i = rng.integers(0, 5, size=16)
        gap1 = rng.integers(0, 4, size=16)
        gap2 = rng.integers(1, 4, size=16)
        batch = step_batch(
            cfg, q.params.shape,
            s_i=rng.integers(0, 6, size=16),
            a_i=rng.integers(0, 3, size=16),
            s_j=rng.integers(0, 6, size=16),
            s_k=rng.integers(0, 6, size=16),
            a_k=rng.integers(0, 3, size=16),
            gap_ik=gap1,
            gap_kj=gap2,
        )
        stats = trl_update_step(qt, None, batch, cfg)()
        assert 0.0 < stats["max_target"] <= 1.0


# ---------------------------------------------------------------------------
# mc updates


def test_mc_single_target_convergence():
    q, qt = make_tables(8, 1)
    cfg = LearnerConfig(method="mc", learning_rate=0.5)
    batch = step_batch(cfg, q.params.shape, s_i=[0], a_i=[0], s_j=[4], gap=[4])
    for _ in range(20_000):
        mc_update_step(qt, None, batch, cfg)
    assert expit(q.params[0, 0, 4]) == pytest.approx(0.99**4, abs=1e-6)
    assert expit(q.params[0, 0, 4]) == pytest.approx(0.96060, abs=1e-5)


def test_mc_two_targets_converge_to_mean():
    q, qt = make_tables(8, 1)
    cfg = LearnerConfig(method="mc", learning_rate=0.5)
    batch = step_batch(cfg, q.params.shape, s_i=[0, 0], a_i=[0, 0], s_j=[4, 4], gap=[2, 6])
    for _ in range(40_000):
        mc_update_step(qt, None, batch, cfg)
    expected = 0.5 * (0.99**2 + 0.99**6)
    assert expit(q.params[0, 0, 4]) == pytest.approx(expected, abs=1e-6)


# ---------------------------------------------------------------------------
# td-n updates


def test_td_n_fully_clipped_matches_mc_targets():
    q, _ = make_tables(6, 2)
    # would corrupt the target if the bootstrap were used
    qt = target_with_params(q, np.full_like(q.params, 3.0))
    cfg = LearnerConfig(method="td_n", n_step=10)
    gaps = np.array([1, 2, 3])
    batch = step_batch(
        cfg, q.params.shape, s_i=[0, 0, 1], a_i=[0, 1, 0], g=[1, 2, 4], s_b=[1, 2, 4],
        a_b=[0, 0, 0], n_eff=gaps, clipped=[True, True, True],
    )
    targets = td_n_compute_targets(qt.read(batch["reads"], 2)[1][2], batch)
    np.testing.assert_allclose(targets, np.power(cfg.gamma, gaps), rtol=0, atol=0)


def test_td_1_joint_fixed_point_reaches_gamma():
    """L0 anchors the goal entry near 1, so the one-step pair value settles at gamma.

    The absorbed pair (1, 1) appears in the batch exactly as random-walk data
    would produce it; its bootstrap leg shifts the anchor by ~(1 - gamma) / 2,
    which stays inside the tolerance at gamma = 0.999.
    """
    gamma = 0.999
    q, qt = make_tables(2, 1, gamma)
    cfg = LearnerConfig(
        method="td_n", gamma=gamma, n_step=1, learning_rate=0.5, kappa=0.5, tau_target=0.5
    )
    batch = step_batch(
        cfg, q.params.shape, s_i=[0, 1], a_i=[0, 0], g=[1, 1], s_b=[1, 1], a_b=[0, 0],
        n_eff=[1, 1], clipped=[False, False],
    )
    for _ in range(20_000):
        td_n_update_step(qt, None, batch, cfg)
        target_sync(qt, cfg.tau_target)
    assert expit(q.params[1, 0, 1]) == pytest.approx(1.0, abs=1e-3)
    assert expit(q.params[0, 0, 1]) == pytest.approx(gamma, abs=1e-3)


def chain_td_batch(env, cfg):
    """Every reachable (s, g) pair of the right-only chain as one fixed batch."""
    n_step = cfg.n_step
    last = env.num_states - 1
    s_i, goals, s_b = [], [], []
    for s in range(env.num_states):
        for g in range(s + 1, env.num_states):
            s_i.append(s)
            goals.append(g)
            s_b.append(min(s + n_step, g))
    s_i.append(last)  # absorbing tail pair (3, 3) anchors the final state
    goals.append(last)
    s_b.append(last)
    s_i, goals, s_b = np.array(s_i), np.array(goals), np.array(s_b)
    n_eff = np.minimum(n_step, np.maximum(goals - s_i, 1))
    clipped = n_step > np.maximum(goals - s_i, 1)
    shape = (env.num_states, env.num_actions, env.num_states)
    return step_batch(
        cfg, shape, s_i=s_i, a_i=np.zeros_like(s_i), g=goals, s_b=s_b,
        a_b=np.zeros_like(s_i), n_eff=n_eff, clipped=clipped,
    )


def test_td_1_chain_fixed_point_matches_oracle():
    gamma = 0.999
    env = right_only_chain(4)
    q, qt = make_tables(4, 1, gamma)
    cfg = LearnerConfig(
        method="td_n", gamma=gamma, n_step=1, learning_rate=0.5, kappa=0.5, tau_target=0.5
    )
    batch = chain_td_batch(env, cfg)
    for _ in range(30_000):
        td_n_update_step(qt, None, batch, cfg)
        target_sync(qt, cfg.tau_target)
    oracle = oracle_q_table(env, gamma)
    learned = expit(q.params)
    for s in range(4):
        for g in range(s, 4):
            assert learned[s, 0, g] == pytest.approx(oracle[s, 0, g], abs=1e-3), (s, g)


# ---------------------------------------------------------------------------
# gciql updates


def value_table_pair(num_states, num_actions, gamma=0.99, fill=0.0):
    q = ValueTable(np.full((num_states, num_actions, num_states), fill), gamma, space="value")
    return q, PolyakTarget(q)


def test_gciql_indicator_targets():
    # lr = 0.5 turns one squared-loss step into an exact jump onto the target.
    v = np.zeros((3, 3))
    q, qt = value_table_pair(3, 2)
    cfg = LearnerConfig(method="gciql", learning_rate=0.25, kappa=0.5)
    batch = step_batch(cfg, q.params.shape, s=[1, 0], a=[0, 1], s2=[2, 1], g=[1, 2])
    gciql_update_step(qt, v, batch, cfg)
    # q step: q -= lr * 2 * (q - target) = 0.5 * (q - target); from 0 -> 0.5 * target.
    assert q.params[1, 0, 1] == pytest.approx(0.5 * 1.0)  # s == g, V(s', g) = 0
    assert q.params[0, 1, 2] == pytest.approx(0.0)  # s != g, target gamma * 0


def test_gciql_residuals_vanish_on_single_policy_chain():
    env = right_only_chain(4)
    n = env.num_states
    gamma = 0.9
    v = np.zeros((n, n))
    q, qt = value_table_pair(n, 1, gamma)
    cfg = LearnerConfig(
        method="gciql", gamma=gamma, learning_rate=0.25, kappa=0.5, tau_target=0.5
    )
    s_all, g_all = np.divmod(np.arange(n * n), n)
    batch = step_batch(
        cfg, q.params.shape, s=s_all, a=np.zeros_like(s_all), s2=env.transition[s_all, 0], g=g_all
    )
    for _ in range(30_000):
        gciql_update_step(qt, v, batch, cfg)
        target_sync(qt, cfg.tau_target)
    qv = q.params[:, 0, :]
    r_q = qv - (np.eye(n) + gamma * v[env.transition[:, 0], :])
    r_v = v - target_params(qt)[:, 0, :]
    assert np.abs(r_q).max() <= 1e-6
    assert np.abs(r_v).max() <= 1e-6
    # Independent linear solve of the coupled system (single action: V = Q).
    # V(s, g) = I(s = g) + gamma * V(step(s), g), unknowns per goal column.
    for g in range(n):
        A = np.eye(n)
        b = np.zeros(n)
        for s in range(n):
            b[s] = 1.0 if s == g else 0.0
            A[s, env.transition[s, 0]] -= gamma
        ref = np.linalg.solve(A, b)
        np.testing.assert_allclose(v[:, g], ref, atol=1e-5)


# ---------------------------------------------------------------------------
# sgt updates


def oracle_table(env, gamma):
    return ValueTable(np.array(oracle_q_table(env, gamma)), gamma, space="value")


def oracle_target(q, oracle):
    """The target of the logit table ``q``, set to read the oracle's values."""
    return target_with_params(q, logit(oracle.params))


def sgt_prior(cfg):
    """sgt's per-run state: the prior gamma^P its random goals move toward."""
    return learners.METHODS["sgt"].state(None, None, cfg)


def test_sgt_prior_is_the_scalar_power_within_one_ulp():
    distances = range(1, 3000, 7)
    for gamma in (0.9, 0.95, 0.99, 0.995, 0.999):
        priors = [sgt_prior(LearnerConfig(gamma=gamma, P_random_distance=p)) for p in distances]
        scalar = [np.power(gamma, p) for p in distances]
        np.testing.assert_array_max_ulp(np.array(priors), np.array(scalar), maxulp=1)


def test_sgt_prior_has_the_oracle_tables_bits_in_constant_memory():
    """The prior equals optimal_value_table's gamma^P bit for bit over a grid
    of gamma and P, and at P's upper end it is read without a table of the
    P + 1 powers (80 MB)."""
    for gamma in np.linspace(0.5, 0.999, 40):
        for p in (1, 2, 7, 8, 9, 100, 500, 1000, 12345):
            prior = sgt_prior(LearnerConfig(gamma=float(gamma), P_random_distance=p))
            table = optimal_value_table(np.array(p), float(gamma))
            assert type(prior) is type(table) and prior.tobytes() == table.tobytes()
    cfg = LearnerConfig(gamma=0.999999, P_random_distance=10**7)
    tracemalloc.start()
    try:
        prior = sgt_prior(cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 16 and prior == pytest.approx(0.999999**10**7, rel=1e-9)


def test_sgt_single_candidate_target():
    env = build_grid_env(5, 1)
    gamma = 0.99
    oracle = oracle_table(env, gamma)
    q = ValueTable.create(5, 4, gamma)
    qt = oracle_target(q, oracle)
    cfg = LearnerConfig(method="sgt", M_subgoals=1, P_random_distance=500, learning_rate=0.1)
    batch = step_batch(
        cfg, q.params.shape, s=[0], a=[3], s2=[1], g=[4], g_rand=[2],  # a = 3: right
        w_states=[[2]], w_actions=[[3]],
    )
    stats = sgt_update_step(qt, sgt_prior(cfg), batch, cfg)()
    expected = oracle.params[0, 3, 2] * oracle.params[2, 3, 4]
    assert stats["max_target"] == pytest.approx(expected)


def test_sgt_midpoint_candidate_bounds_target():
    """With oracle targets and a true midpoint in W, the triangle target
    reaches at least gamma^4 for a distance-4 pair."""
    env = build_grid_env(5, 1)
    gamma = 0.99
    q = ValueTable.create(5, 4, gamma)
    qt = oracle_target(q, oracle_table(env, gamma))
    cfg = LearnerConfig(method="sgt", M_subgoals=3, learning_rate=0.1)
    batch = step_batch(
        cfg, q.params.shape, s=[0], a=[3], s2=[1], g=[4], g_rand=[0],
        w_states=[[2, 0, 1]],  # includes the shortest-path midpoint 2
        w_actions=[[3, 3, 3]],
    )
    stats = sgt_update_step(qt, sgt_prior(cfg), batch, cfg)()
    assert stats["max_target"] >= gamma**4


def test_sgt_random_goal_prior_value():
    gamma, P = 0.99, 500
    target = gamma**P
    assert target == pytest.approx(6.5705e-3, abs=1e-6)
    env = build_grid_env(3, 1)
    q, qt = make_tables(3, 4, gamma)
    cfg = LearnerConfig(method="sgt", M_subgoals=1, P_random_distance=P, learning_rate=0.5)
    batch = step_batch(
        cfg, q.params.shape, s=[0], a=[0],
        s2=[0],  # self-loop: the one-step term is masked out
        g=[1], g_rand=[2], w_states=[[1]], w_actions=[[0]],
    )
    for _ in range(5000):
        sgt_update_step(qt, sgt_prior(cfg), batch, cfg)
    assert expit(q.params[0, 0, 2]) == pytest.approx(target, abs=1e-5)


# ---------------------------------------------------------------------------
# coe updates


def greedy_policy_fn(table):
    vals = table.values()

    def fn(states, goals):
        return vals[states, :, goals].argmax(axis=1)

    return fn


def test_coe_generator_picks_shortest_path_waypoint():
    env = build_grid_env(7, 1)
    gamma = 0.95
    oracle = oracle_table(env, gamma)
    q = ValueTable.create(7, 4, gamma)
    qt = oracle_target(q, oracle)
    gen = np.zeros((7, 4, 7), dtype=np.int64)  # incumbent far from optimal
    cfg = LearnerConfig(method="coe", beta_goal_reg=0.0, learning_rate=0.1)
    batch = step_batch(
        cfg, q.params.shape, s=[0], a=[3], s2=[1], g=[6], g_rand=[0],
        w_states=np.arange(7)[None, :],  # all states offered
    )
    coe_update_step(qt, (gen, greedy_policy_fn(oracle), env.state_coords), batch, cfg)
    w = int(gen[0, 3, 6])
    dist = all_pairs_distances(env)
    s_next = 1  # step(0, right)
    assert dist[s_next, w] + dist[w, 6] == dist[s_next, 6]


def test_coe_huge_beta_prefers_candidate_near_random_goal():
    env = build_grid_env(7, 1)
    gamma = 0.95
    oracle = oracle_table(env, gamma)
    q = ValueTable.create(7, 4, gamma)
    qt = oracle_target(q, oracle)
    gen = np.full((7, 4, 7), 6, dtype=np.int64)
    cfg = LearnerConfig(method="coe", beta_goal_reg=1e9, learning_rate=0.1)
    batch = step_batch(
        cfg, q.params.shape, s=[0], a=[3], s2=[1], g=[6], g_rand=[2],
        w_states=[[0, 2, 5]],  # candidate 2 sits on the random goal
    )
    coe_update_step(qt, (gen, greedy_policy_fn(oracle), env.state_coords), batch, cfg)
    assert int(gen[0, 3, 6]) == 2


def test_coe_single_candidate_replaces_only_if_better():
    env = build_grid_env(5, 1)
    gamma = 0.95
    oracle = oracle_table(env, gamma)
    q = ValueTable.create(5, 4, gamma)
    qt = oracle_target(q, oracle)
    cfg = LearnerConfig(method="coe", beta_goal_reg=0.0, learning_rate=0.1)
    policy = greedy_policy_fn(oracle)

    def run(incumbent, candidate):
        gen = np.full((5, 4, 5), incumbent, dtype=np.int64)
        batch = step_batch(
            cfg, q.params.shape, s=[0], a=[3], s2=[1], g=[4], g_rand=[0], w_states=[[candidate]]
        )
        coe_update_step(qt, (gen, policy, env.state_coords), batch, cfg)
        return int(gen[0, 3, 4])

    # Candidate 2 (on the path) outscores incumbent 0; incumbent 2 beats candidate 0.
    assert run(incumbent=0, candidate=2) == 2
    assert run(incumbent=2, candidate=0) == 2


def test_coe_requires_coords_when_beta_positive():
    """harness.check_run refuses a coe run with beta > 0 on an environment
    without grid coordinates; the state builder and the step check nothing."""
    env = right_only_chain(3)
    ds = collect_dataset(env, 2, 4, seed=0)
    with pytest.raises(ConfigError, match="'learner.beta_goal_reg' must be 0 for coe"):
        check_run(env, ds, LearnerConfig(method="coe", beta_goal_reg=1.0))
    check_run(env, ds, LearnerConfig(method="coe", beta_goal_reg=0.0))
    q, _ = make_tables(3, 1)
    _, _, coords = _coe_state(env, q, LearnerConfig(method="coe", beta_goal_reg=0.0))
    assert coords is None


def test_coe_hill_climb_reads_the_pre_step_tables():
    """The generator's options take their actions from the greedy policy of
    the table before the step's Q write: a policy frozen at the pre-step
    table gives the same generator and the same table, byte for byte."""
    env = build_grid_env(4, 1)
    shape = (4, 4, 4)
    cfg = LearnerConfig(method="coe", beta_goal_reg=0.0, learning_rate=50.0, M_subgoals=4)
    rng = np.random.default_rng(3)
    params = rng.uniform(-3.0, 3.0, size=shape)
    named = {
        "s": rng.integers(0, 4, size=32), "a": rng.integers(0, 4, size=32),
        "s2": rng.integers(0, 4, size=32), "g": rng.integers(0, 4, size=32),
        "g_rand": rng.integers(0, 4, size=32), "w_states": rng.integers(0, 4, size=(32, 4)),
    }
    results = []
    for frozen in (False, True):
        q = ValueTable(params.copy(), cfg.gamma)
        generator, live_policy, coords = _coe_state(env, q, cfg)
        policy = greedy_policy_fn(ValueTable(params.copy(), cfg.gamma)) if frozen else live_policy
        coe_update_step(
            PolyakTarget(q), (generator, policy, coords), step_batch(cfg, shape, **named), cfg
        )
        results.append((q.params.tobytes(), generator.tobytes()))
    assert results[0] == results[1]


# ---------------------------------------------------------------------------
# target sync


def test_target_sync_full_copy():
    q, _ = make_tables(3, 2)
    q.params[:] = 1.5
    qt = target_with_params(q, np.full_like(q.params, -3.0))
    target_sync(qt, tau=1.0)
    np.testing.assert_array_equal(target_params(qt), q.params)


def test_target_sync_geometric_convergence():
    q, _ = make_tables(2, 1)
    q.params[:] = 2.0
    tau = 0.005
    for k in (1, 2, 10):
        qtk = target_with_params(q, np.zeros_like(q.params))
        for _ in range(k):
            target_sync(qtk, tau)
        expected = 2.0 * (1 - (1 - tau) ** k)
        assert target_params(qtk)[0, 0, 0] == pytest.approx(expected, rel=1e-12)


def test_target_sync_writes_no_entry_until_renormalization():
    """A sync only scales; the lag is written when the scale is folded in."""
    q, qt = make_tables(3, 2)
    qt.lag.flags.writeable = False
    syncs = 0
    with pytest.raises(ValueError, match="read-only"):
        while True:
            target_sync(qt, 0.5)
            syncs += 1
    assert syncs == 332  # 0.5^332 >= 1e-100 > 0.5^333


def test_target_sync_tau_zero_rejected_by_config():
    with pytest.raises(ConfigError):
        LearnerConfig(tau_target=0.0)


@pytest.mark.parametrize(
    "field", ["gamma", "kappa", "lambda_reweight", "learning_rate", "tau_target", "beta_goal_reg"]
)
@pytest.mark.parametrize(
    "value",
    [float("nan"), float("inf"), -float("inf"),
     pytest.param(10**400, id="10**400"), pytest.param(-(10**400), id="-10**400")],
)
def test_config_rejects_non_finite_floats(field, value):
    with pytest.raises(ConfigError, match=f"config key 'learner.{field}' must be finite"):
        LearnerConfig(**{field: value})


# The lazy target against the eager reference: the two sum the same terms in
# another order, so their logits (gciql: raw values, relative to the largest
# one) may differ by rounding only.
TARGET_TOLERANCE = 1e-12


@pytest.mark.parametrize("space", ["logit", "value"])
def test_polyak_target_matches_eager_reference(space):
    """Duplicate indices, clipped writes and renormalization keep values_flat
    equal to the eager target; untouched entries stay as they were."""
    rng = np.random.default_rng(5)
    shape = (6, 3, 6)
    q = ValueTable(rng.uniform(-5.0, 5.0, size=shape), 0.9, space=space)
    qt = target_with_params(q, rng.uniform(-5.0, 5.0, size=shape))
    eager = EagerTarget(q)
    eager.params[...] = target_params(qt)
    every = np.arange(q.params.size)
    renormalized = 0
    for tau in (0.5,) * 700 + (1.0, 0.05, 0.05):
        idx = tuple(rng.integers(0, n, size=24) for n in shape)
        idx = tuple(np.concatenate([i, i[:8]]) for i in idx)  # duplicates
        untouched = np.ones(shape, dtype=bool)
        untouched[idx] = False
        before = target_params(qt)
        flat = _flat(shape, *idx)
        logits = q.params.reshape(-1)[flat]
        _apply_logit_updates(qt, flat, logits, rng.normal(size=32), 40.0)  # often past the clamp
        assert (target_params(qt)[untouched] == before[untouched]).all()
        np.testing.assert_allclose(target_params(qt), before, rtol=0, atol=TARGET_TOLERANCE)
        scale = qt.scale
        target_sync(qt, tau)
        eager_sync(eager, tau)
        renormalized += qt.scale > scale
        np.testing.assert_allclose(
            qt.read(every, 0)[1], eager.read(every, 0)[1], rtol=0, atol=TARGET_TOLERANCE
        )
    if space == "logit":
        assert np.abs(q.params).max() == LOGIT_CLAMP
    assert renormalized == 3  # two at tau = 0.5, one at tau = 1


def per_term_writes(target, terms, lr):
    """The reference for a step's one write: one ``_apply_logit_updates``
    call per term, each with its own clip and lag move."""
    for flat, grads in terms:
        before = target.online.params.reshape(-1)[flat]
        _apply_logit_updates(target, flat, before, grads.copy(), lr)


def test_one_merged_write_matches_per_term_writes():
    """One write of every term's entries, term after term, leaves the online
    table byte for byte as the per-term writes do (no entry crosses the
    clamp between two terms) and the lag within rounding. Entries repeat
    within a term and across terms: term 1 starts with term 0's first
    entries, as td_n's goal entry equals its anchor when g = s_i."""
    rng = np.random.default_rng(11)
    shape = (16, 4, 16)
    for _ in range(20):
        params = rng.uniform(-5.0, 5.0, size=shape)
        lag = rng.normal(size=shape)
        terms = [(rng.integers(0, 1024, size=256), rng.normal(size=256)) for _ in range(4)]
        terms[1][0][:16] = terms[0][0][:16]
        tables = []
        for merged in (False, True):
            qt = PolyakTarget(ValueTable(params.copy(), 0.99))
            qt.lag[...] = lag
            qt.scale = 0.37
            if merged:
                flat, grads = (np.concatenate(parts) for parts in zip(*terms))
                _apply_logit_updates(qt, flat, qt.online.params.reshape(-1)[flat], grads, 0.5)
            else:
                per_term_writes(qt, terms, 0.5)
            tables.append(qt)
        assert np.abs(tables[0].online.params).max() < LOGIT_CLAMP
        assert tables[1].online.params.tobytes() == tables[0].online.params.tobytes()
        np.testing.assert_allclose(tables[1].lag, tables[0].lag, rtol=0, atol=1e-12)


@pytest.mark.parametrize("method", ["trl", "mc", "td_n", "gciql", "sgt", "coe"])
def test_every_step_writes_q_once(monkeypatch, method):
    """Each learner's step makes exactly one PolyakTarget.read call, one
    sigmoid call on a logit table (none on gciql's value table) and one
    _apply_logit_updates call, with a 1-D index block; coe's step also asks
    its greedy policy once, which reads the table through one sigmoid."""
    env = build_grid_env(4, 4)
    ds = collect_dataset(env, num_traj=20, T=16, seed=0)
    cfg = LearnerConfig(method=method, steps=20, batch_size=16, M_subgoals=4, n_step=3)
    reads, sigmoids, writes, policy_calls = [], [], [], []
    read, sigmoid, write = PolyakTarget.read, learners._sigmoid, learners._apply_logit_updates

    def counting_read(target, flat, online):
        reads.append(1)
        return read(target, flat, online)

    def counting_sigmoid(x):
        sigmoids.append(1)
        return sigmoid(x)

    def counting_write(target, flat, before, grads, lr):
        writes.append(flat.ndim)
        write(target, flat, before, grads, lr)

    coe_state = learners._coe_state

    def counting_coe_state(env, q, cfg):
        generator, policy_fn, coords = coe_state(env, q, cfg)

        def counting_policy(states, goals):
            policy_calls.append(1)
            return policy_fn(states, goals)

        return generator, counting_policy, coords

    monkeypatch.setattr(PolyakTarget, "read", counting_read)
    monkeypatch.setattr(learners, "_sigmoid", counting_sigmoid)
    monkeypatch.setattr(learners, "_apply_logit_updates", counting_write)
    monkeypatch.setitem(
        learners.METHODS, "coe", replace(learners.METHODS["coe"], state=counting_coe_state)
    )
    train_run(env, ds, cfg)
    assert len(reads) == cfg.steps
    assert writes == [1] * cfg.steps
    assert len(policy_calls) == (cfg.steps if method == "coe" else 0)
    # gciql's one sigmoid makes its value table (ValueTable.create).
    assert len(sigmoids) == (1 if method == "gciql" else cfg.steps) + len(policy_calls)


@pytest.mark.parametrize(
    "method, tau",
    [("trl", 0.005), ("td_n", 0.005), ("gciql", 0.005), ("sgt", 0.005), ("coe", 0.005),
     ("trl", 0.2), ("gciql", 0.2), ("td_n", 1.0), ("coe", 1.0)],
)
def test_lazy_target_training_matches_eager_sync(monkeypatch, method, tau):
    """2000 fixed-seed steps of train_run with the lazy target and with the
    eager sync give the same online table and target within
    TARGET_TOLERANCE. tau = 0.2 renormalizes once in that run; tau = 1
    renormalizes every step."""
    env = build_grid_env(4, 4)
    ds = collect_dataset(env, num_traj=20, T=16, seed=0)
    cfg = LearnerConfig(
        method=method, steps=2000, learning_rate=0.5, batch_size=32, M_subgoals=4,
        n_step=3, tau_target=tau, seed=1,
    )

    def train(make_target):
        """train_run building its target with ``make_target``; returns the
        online table and that target."""
        built = []

        def capture(q):
            built.append(make_target(q))
            return built[-1]

        monkeypatch.setattr(harness, "PolyakTarget", capture)
        q, _ = train_run(env, ds, cfg)
        return q, built[0]

    q_lazy, t_lazy = train(PolyakTarget)
    monkeypatch.setattr(harness, "target_sync", eager_sync)
    q_eager, t_eager = train(EagerTarget)
    atol = TARGET_TOLERANCE * max(1.0, np.abs(q_eager.params).max())
    np.testing.assert_allclose(q_lazy.params, q_eager.params, rtol=0, atol=atol)
    np.testing.assert_allclose(target_params(t_lazy), t_eager.params, rtol=0, atol=atol)
    renormalized = t_lazy.scale > 2 * (1 - tau) ** cfg.steps
    assert renormalized == (tau >= 0.2)


def test_mc_writes_through_its_target_as_a_direct_write_would():
    """mc writes through its Polyak target like every other learner. Its
    table and loss log are byte for byte those of the direct write: a
    scatter-add into the online table, then a clip of the touched entries.
    The learning rate is large enough to drive entries onto the clamp."""
    env = build_grid_env(4, 4)
    ds = collect_dataset(env, num_traj=20, T=16, seed=0)
    cfg = LearnerConfig(
        method="mc", steps=300, batch_size=32, learning_rate=500.0, log_every=50, seed=2
    )
    q_run, log_run = train_run(env, ds, cfg)

    q = ValueTable.create(env.num_states, env.num_actions, cfg.gamma)
    log = []
    batches = learners.step_batches(ds, q.params.shape, cfg)
    for step_idx, batch in zip(range(cfg.steps), batches):
        idx = np.unravel_index(batch["ij"], q.params.shape)
        pred = expit(q.params[idx])
        y = batch["target"]
        diff = pred - y
        grad_logit = 2.0 * diff * pred * (1.0 - pred)
        np.add.at(q.params, idx, -cfg.learning_rate * grad_logit)
        q.params[idx] = np.clip(q.params[idx], -LOGIT_CLAMP, LOGIT_CLAMP)
        if step_idx % 50 == 0 or step_idx == cfg.steps - 1:
            stats = {"loss": float(np.mean(diff * diff)), "mean_q": float(pred.mean()),
                     "max_target": float(y.max())}
            log.append({"step": step_idx, "method": "mc", **stats})
    assert (np.abs(q.params) == LOGIT_CLAMP).any()
    assert q_run.params.tobytes() == q.params.tobytes()
    assert log_run == log


# ---------------------------------------------------------------------------
# boundedness fuzz and serialization


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10**6), lr=st.floats(0.01, 1.0))
def test_logit_methods_keep_values_bounded(seed, lr):
    rng = np.random.default_rng(seed)
    S, A = 5, 2
    q, qt = make_tables(S, A)
    cfg_trl = LearnerConfig(method="trl", learning_rate=lr)
    cfg_mc = LearnerConfig(method="mc", learning_rate=lr)
    cfg_td = LearnerConfig(method="td_n", learning_rate=lr, n_step=2)
    shape = q.params.shape
    for _ in range(30):
        b = 8
        s_i, s_j, s_k = (rng.integers(0, S, size=b) for _ in range(3))
        a_i, a_k = (rng.integers(0, A, size=b) for _ in range(2))
        gaps = rng.integers(0, 3, size=b)
        trl_update_step(
            qt,
            None,
            step_batch(
                cfg_trl, shape, s_i=s_i, a_i=a_i, s_j=s_j, s_k=s_k, a_k=a_k,
                gap_ik=gaps, gap_kj=gaps + 1,
            ),
            cfg_trl,
        )
        mc_update_step(
            qt, None, step_batch(cfg_mc, shape, s_i=s_i, a_i=a_i, s_j=s_j, gap=gaps), cfg_mc
        )
        td_n_update_step(
            qt,
            None,
            step_batch(
                cfg_td, shape, s_i=s_i, a_i=a_i, g=s_j, s_b=s_k, a_b=a_k,
                n_eff=gaps + 1, clipped=gaps == 0,
            ),
            cfg_td,
        )
        target_sync(qt, 0.01)
    assert np.isfinite(q.params).all()
    assert np.abs(q.params).max() <= LOGIT_CLAMP
    vals = q.values()
    assert ((vals > 0) & (vals < 1)).all()


def test_table_save_load_round_trip(tmp_path):
    q = ValueTable.create(4, 3, 0.97)
    q.params[:] = np.random.default_rng(0).normal(size=q.params.shape)
    path = tmp_path / "table.bin"
    save_table(q, str(path))
    loaded = load_table(str(path))
    assert loaded.gamma == q.gamma
    assert loaded.space == q.space
    np.testing.assert_array_equal(loaded.params, q.params)

    v = ValueTable(np.random.default_rng(1).normal(size=(2, 2, 2)), 0.9, space="value")
    save_table(v, str(path))
    loaded = load_table(str(path))
    assert loaded.space == "value"
    np.testing.assert_array_equal(loaded.params, v.params)


@pytest.mark.parametrize("space", ["logit", "value"])
@pytest.mark.parametrize("order", ["C", "F"])
def test_save_table_writes_the_tobytes_bytes(tmp_path, space, order):
    """The file holds the header, gamma and the table's bytes in C order,
    whether or not the table is stored C-contiguous."""
    params = np.asarray(np.random.default_rng(2).normal(size=(5, 3, 7)), order=order)
    table = ValueTable(params, 0.93, space=space)
    path = tmp_path / "table.bin"
    save_table(table, str(path))
    assert path.read_bytes() == table_file_bytes(table)


def test_save_table_makes_no_table_sized_copy(tmp_path):
    """The table's own buffer goes to the file: the traced peak stays below
    1% of the table (a tobytes() copy would be 100%)."""
    table = ValueTable(np.random.default_rng(3).normal(size=(128, 4, 128)), 0.99)
    path = str(tmp_path / "table.bin")
    save_table(table, path)
    tracemalloc.start()
    try:
        save_table(table, path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < table.params.nbytes / 100
