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
from gclab.harness import evaluate_policy, select_tasks, spearman_to_oracle, train_run
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
    "train.trl": "de31fee6c1b4e2a9030ece3b041421018b3f14ee043fa0baee3b90a147dfb1c8",
    "train.mc": "ccabb795f0085ec1f9b338b06e9ae246aa0919e1eb6db88075bcc5c393a1481b",
    "train.td_n": "18f2d3e7e9f7a0ac5d84a388cfe6fa7d7f66b9a29dd91f02b9b328458213d4d7",
    "train.gciql": "092e469379851329913037ae08b4aee7a98fd854c41271405c8dfe7051e169df",
    "train.sgt": "c6a9eb9936fb835f177960e482a3f5151ee8dc56b58dcd45e95f1a7eeb045661",
    "train.coe": "fe801f57953e31865f4b16c54a8e24389e2693619f0ff8153d8cf886ba535cf0",
    "train.trl_saturated": "b60afd12c4db1c62b242d2ec429fdbc7db574f5cf71b1bcad6a44f4dadfa0397",
    "eval.greedy.trl": "31afc14a2b487e5e8b067cedcdc0be27390b891e4824e0693ac9fbf8d6b06bde",
    "eval.rejection.trl": "cf1e0268278d76e9330d124df395adacf4f98d55e6f54baa62db494d694564ba",
    "eval.greedy.gciql": "b192b437d3b45bee57f6a0568e5f27fb444fa1c377ffbdf019e11cafa3563f0d",
    "eval.rejection.gciql": "90155dd8e28064a796d6ad31b5618cbac43e2f569b44649f310d1735457f8fe0",
    "spearman.sgt": "820d29f7d274934b90e3a10be2ff31de9d4189136223b337ffa213cd73e949dd",
    "spearman.coe": "6ee6b070e6135d95b576cab9b1a175d596e364d9f720a33108404c3d7bd67b9b",
    "exact.train.grid8_walled": "3bc168feafc7b82c087df873c84b508fea3f916cc77c101450682ca648c1fc0f",
    "exact.train.one_way": "f0fec4de6b64429a6f4f7a36d0d448f01acdbe9a0e61de9e06d1f487d29b00dd",
    "exact.train.random_directed": "f1169c8fcae4496986edb4987ad41a2ed8d569197039f466fd09c69c12c42819",
    "exact.dist.grid8_walled": "52f909ff38722ddd521cf86ca477ff0754e0e03316b313376d0429b3dabf3129",
    "exact.dist.one_way": "c168271f97679925a9b212402e107e55bb2bc475099f51e578004c009dfe7d16",
    "exact.dist.random_directed": "982606acf20899832c3b3ea181c64da6a68830ea58f4196ca87865191012804d",
    "recursion.b_200000": "db2037745a32b37ba535ab77c1c0c6e1e52904397191864f5b905e465ea015df",
}

BASE = LearnerConfig(
    learning_rate=0.5, kappa=0.9, tau_target=0.01, batch_size=64, steps=40, seed=1
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
    budgets = [2 * int(dist[s, g]) for s, g in tasks]

    out, tables = {}, {}
    for name, cfg in RUNS.items():
        q, log = train_run(env, ds, cfg, log_every=10)
        tables[name] = q
        out[f"train.{name}"] = _sha(q.params.tobytes(), log)
    for name in ("trl", "gciql"):
        for extraction in ("greedy", "rejection"):
            report = evaluate_policy(
                env, tables[name], beh, tasks, 3, budgets, extraction=extraction,
                rng=np.random.default_rng([1, 2025]), rejection_n=2, dist=dist,
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
