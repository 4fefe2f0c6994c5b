"""Golden bit-identity hashes for every learner and both policy extractions.

Each entry is the sha256 of one run's output bytes on a 5x5 grid with fixed
seeds: the trained ``params`` plus its loss log, the greedy and rejection
``evaluate_policy`` rows, and ``spearman_to_oracle``. The exact path is
pinned on graphs with unreachable pairs (a walled 8x8 grid split in two, a
one-way chain and a random directed graph): the ``exact`` method's params
(which must equal ``oracle_q_table`` byte for byte) plus loss log, and the
oracle distances. ``expected_recursions`` is pinned at n_max = 200 000,
past 45 of its fixed-width blocks and ending inside one.
A change that is meant to be behaviour-preserving (a faster read path, say)
must leave every hash as it is. A change that alters numbers on purpose
updates the hashes and says so in CHANGES.md.

The bytes depend on numpy's float64 kernels, so the hashes are pinned to
the numpy version, the machine and whether numpy dispatches its AVX-512
(SKX) kernels: its AVX-512 exp, which the learners' sigmoid runs, rounds
about 2% of outputs 1 ulp away from the scalar exp. Elsewhere the test
skips. Recapture with
``python -c "import tests.test_golden as t; t.print_digests()"``.
"""

from __future__ import annotations

import hashlib
import platform
from dataclasses import replace

import numpy as np
import pytest

from gclab.dataset import collect_dataset
from gclab.analysis import expected_recursions
from gclab.env import GraphEnv, build_grid_env
from gclab.harness import (
    block_settings,
    evaluate_policy,
    select_tasks,
    spearman_to_oracle,
    train_run,
)
from gclab.learners import LearnerConfig
from gclab.oracle import all_pairs_distances, oracle_q_table
from gclab.policy import estimate_behavior_policy
from env_helpers import random_graph_env

try:
    from numpy._core._multiarray_umath import __cpu_features__
except ImportError:  # numpy < 2
    from numpy.core._multiarray_umath import __cpu_features__

CAPTURED_ON = ("2.4.6", True, "x86_64")

EXPECTED = {
    "train.trl": "f4c134d477f0992ca667520d496da775b0ef3c1a2528c235716bc39dd95e881a",
    "train.mc": "5b303ad7f64296e17c82ef5ddedf11dfe8b5ca84a89efc0d841ac32a18e4e913",
    "train.td_n": "15629dd5ca6b7a268ba8218f4a8280c497e0b7ffdcaa271193568eac3932332b",
    "train.gciql": "85f92a8057c889d86fab24c6a6cc9528930e1ad951868d31b3da2dc88d4aac29",
    "train.sgt": "51cad999e78ad6e122eb63022a334a31c0d3d40618db4ff3984eb8ec60f19141",
    "train.coe": "160925c2c21ade84b7ee1dad92ca1c0f4831de6f286d20f903bbda13873c997b",
    "train.trl_saturated": "5349a86585e353849ae5a6f9d40274e9e80844678191c3a945edb97703df7eab",
    "eval.greedy.trl": "ba5e5eaecca0caf15fd17253ac2414e90eb106bfa7490cce23907f26624c73b9",
    "eval.rejection.trl": "eeb06b48e2c0741877f7bfdde0c91e0e965fc4c4ebbc950cf91664ca239aa65a",
    "eval.greedy.gciql": "89f11867337eb6824329d7c73838f953ee0f36f2412d7cfd717ff212d634ffa3",
    "eval.rejection.gciql": "b452b694caff93e188e84843eece3f237ec3b1e44b359637e2bce6beac305e97",
    "spearman.sgt": "78974b4a0dd5579ccba7ce8c8b36b04cdf3d376b8e6e9041ab446debbc2bef1d",
    "spearman.coe": "feaf598ed240701d058a06cccfbc55c3997e8dc3535d5e144cac859cbc0d68f5",
    "exact.train.grid8_walled": "3bc168feafc7b82c087df873c84b508fea3f916cc77c101450682ca648c1fc0f",
    "exact.train.one_way": "f0fec4de6b64429a6f4f7a36d0d448f01acdbe9a0e61de9e06d1f487d29b00dd",
    "exact.train.random_directed": "f1169c8fcae4496986edb4987ad41a2ed8d569197039f466fd09c69c12c42819",
    "exact.dist.grid8_walled": "52f909ff38722ddd521cf86ca477ff0754e0e03316b313376d0429b3dabf3129",
    "exact.dist.one_way": "c168271f97679925a9b212402e107e55bb2bc475099f51e578004c009dfe7d16",
    "exact.dist.random_directed": "982606acf20899832c3b3ea181c64da6a68830ea58f4196ca87865191012804d",
    "recursion.b_200000": "db2037745a32b37ba535ab77c1c0c6e1e52904397191864f5b905e465ea015df",
}

BASE = LearnerConfig(
    learning_rate=0.5, kappa=0.9, tau_target=0.01, batch_size=64, steps=40, log_every=10, seed=1
)
RUNS = {
    "trl": replace(BASE, method="trl"),
    "mc": replace(BASE, method="mc"),
    "td_n": replace(BASE, method="td_n", n_step=3),
    "gciql": replace(BASE, method="gciql"),
    "sgt": replace(BASE, method="sgt", M_subgoals=4),
    "coe": replace(BASE, method="coe", M_subgoals=4),
    # A huge step drives touched logits into the +-LOGIT_CLAMP saturation.
    "trl_saturated": replace(BASE, method="trl", learning_rate=200.0),
}


def _exact_envs() -> dict:
    """Graphs whose distance tables include unreachable pairs."""
    # A fully walled column x = 3 splits the grid into two components.
    walls = {(3, y) for y in range(8)} | {(5, 2), (6, 5)}
    n = 12
    one_way = GraphEnv(n, 2, np.stack([np.minimum(np.arange(n) + 1, n - 1), np.arange(n)], 1))
    return {
        "grid8_walled": build_grid_env(8, 8, walls),
        "one_way": one_way,
        "random_directed": random_graph_env(40, 2, seed=3),
    }


def _sha(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else repr(part).encode())
    return h.hexdigest()


def golden_digests() -> dict[str, str]:
    env = build_grid_env(5, 5)
    ds = collect_dataset(env, num_traj=20, T=16, seed=0)
    dist = all_pairs_distances(env)
    beh = estimate_behavior_policy(ds, env)
    tasks = select_tasks(dist, 5)

    out, tables = {}, {}
    for name, cfg in RUNS.items():
        q, log = train_run(env, ds, cfg)
        tables[name] = q
        out[f"train.{name}"] = _sha(q.params.tobytes(), log)
    for name in ("trl", "gciql"):
        for extraction in ("greedy", "rejection"):
            spec = {"episodes": 3, "max_steps_factor": 2, "extraction": extraction,
                    "rejection_n": 2}
            report = evaluate_policy(
                env, tables[name], beh, dist, tasks, block_settings("eval", spec), 1
            )
            out[f"eval.{extraction}.{name}"] = _sha(report.tasks, report.spearman_to_oracle)
    for name in ("sgt", "coe"):
        out[f"spearman.{name}"] = _sha(spearman_to_oracle(tables[name], dist))
    for name, exact_env in _exact_envs().items():
        q, log = train_run(exact_env, None, replace(BASE, method="exact", gamma=0.95))
        assert q.params.tobytes() == oracle_q_table(exact_env, 0.95).tobytes()
        out[f"exact.train.{name}"] = _sha(q.params.tobytes(), log)
        out[f"exact.dist.{name}"] = _sha(all_pairs_distances(exact_env).tobytes())
    out["recursion.b_200000"] = _sha(expected_recursions(200_000).tobytes())
    return out


def running_on() -> tuple:
    """numpy version, AVX-512 (SKX) dispatch and machine, as in CAPTURED_ON."""
    return (np.__version__, __cpu_features__.get("AVX512_SKX", False), platform.machine())


def print_digests() -> None:
    print(f"CAPTURED_ON = {running_on()!r}")
    for key, digest in golden_digests().items():
        print(f'    "{key}": "{digest}",')


@pytest.mark.skipif(
    running_on() != CAPTURED_ON,
    reason=f"golden hashes were captured with numpy/AVX-512 SKX/machine {CAPTURED_ON}",
)
def test_golden_hashes_unchanged():
    assert golden_digests() == EXPECTED
