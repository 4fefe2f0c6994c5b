"""Span tracing around calls into gclab's public functions.

The tracer rebinds every reference to each listed function in every loaded
``gclab.*`` module (plus ``ValueTable.values``) to a wrapper that records a
span: name, start, end, parent span and run id (workload/label/seed). Spans
stay in memory until :meth:`Tracer.write`. Nothing inside ``src/`` changes;
the spans sit at the boundaries between gclab's modules.

:func:`layer_metrics` turns the spans into the per-layer metrics.
"""

from __future__ import annotations

import functools
import json
import sys
import time

# module -> public functions whose calls become spans.
LISTED = {
    "env": ("build_grid_env", "load_env"),
    "oracle": ("all_pairs_distances",),
    "dataset": (
        "collect_dataset",
        "save_dataset",
        "sample_index_pairs",
        "sample_triplet_batch",
        "sample_relabeled_goal_batch",
        "sample_flat_states",
    ),
    "learners": (
        "trl_update_step",
        "mc_update_step",
        "td_n_update_step",
        "gciql_update_step",
        "sgt_update_step",
        "coe_update_step",
        "target_sync",
        "exact_transitive_sweep",
        "save_table",
    ),
    "policy": ("estimate_behavior_policy", "greedy_action_batch", "rejection_sample_action"),
    "analysis": ("recursion_report_rows", "expected_recursions", "simulate_recursions"),
    "harness": (
        "run_experiment",
        "build_env_from_spec",
        "run_single",
        "train_run",
        "evaluate_policy",
        "spearman_to_oracle",
        "aggregate_summary",
        "write_loss_log",
        "write_eval_csv",
        "write_recursion_csv",
    ),
    "cli": ("main",),
}
VALUES = "learners.ValueTable.values"

# Span fields, by position: name, start, end, parent index, run id, extra.
NAME, START, END, PARENT, RUN, EXTRA = range(6)


class TracerError(RuntimeError):
    """A listed function is missing, so its metrics would silently read 0."""


class Tracer:
    def __init__(self, workload: str):
        self.workload = workload
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.run_id = f"{workload}/sweep"
        self._undo: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        """Wrap every listed function wherever a gclab module binds it."""
        import gclab.cli  # noqa: F401  (loads every gclab module)
        from gclab.learners import ValueTable

        wrappers = {}
        for mod_name, names in LISTED.items():
            module = sys.modules[f"gclab.{mod_name}"]
            for name in names:
                original = getattr(module, name, None)
                if not callable(original):
                    raise TracerError(f"gclab.{mod_name}.{name} is not defined")
                wrappers[id(original)] = self._wrap(f"{mod_name}.{name}", original)
        for mod_name, module in sorted(sys.modules.items()):
            if mod_name != "gclab" and not mod_name.startswith("gclab."):
                continue
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers:
                    self._rebind(module, attr, wrappers[id(value)])
        values = ValueTable.__dict__.get("values")
        if not callable(values):
            raise TracerError("gclab.learners.ValueTable.values is not defined")
        self._rebind(ValueTable, "values", self._wrap(VALUES, values))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _rebind(self, owner, attr, wrapper) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            if name == "harness.run_single":
                label, cfg = args[4], args[5]
                self.run_id = f"{self.workload}/{label}/{cfg.seed}"
            span = [name, 0.0, 0.0, parent, self.run_id, None]
            index = len(spans)
            spans.append(span)
            stack.append(index)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
                if name == "harness.run_single":
                    self.run_id = f"{self.workload}/sweep"
            span[EXTRA] = _extra(name, args, result, spans[parent][NAME] if parent >= 0 else None)
            return result

        return wrapper

    # -- output ---------------------------------------------------------------

    def write(self, path: str) -> None:
        fields = ("name", "start", "end", "parent", "run")
        with open(path, "w") as fh:
            for span in self.spans:
                record = dict(zip(fields, span))
                if span[EXTRA] is not None:
                    record["extra"] = span[EXTRA]
                fh.write(json.dumps(record) + "\n")


def _extra(name: str, args, result, parent: str | None):
    """The few facts a metric needs beyond timing, taken from a call."""
    if name == "learners.exact_transitive_sweep":
        return {"delta": result[1]}
    if name == "harness.train_run":
        cfg = args[2]
        return {"steps": 0 if cfg.method == "exact" else cfg.steps}
    if name == "policy.greedy_action_batch" and parent == "harness.evaluate_policy":
        return {"pairs": [[int(s), int(g)] for s, g in zip(args[1], args[2])]}
    return None


_SAMPLERS = {
    "dataset.sample_index_pairs",
    "dataset.sample_triplet_batch",
    "dataset.sample_relabeled_goal_batch",
    "dataset.sample_flat_states",
}
_UPDATE_METHODS = ("trl", "mc", "td_n", "gciql", "sgt", "coe")
_STEP_LABELS = ("trl", "td-1", "td-10", "mc", "gciql", "sgt", "coe")
_WRITERS = {
    "harness.write_loss_log",
    "harness.write_eval_csv",
    "harness.write_recursion_csv",
    "harness.aggregate_summary",
}


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer metrics from one traced sweep: span counts, total and mean
    durations, and the ratios the counts give. Durations are in seconds
    unless the name ends in _us or _ms. Names whose spans never occurred
    read 0."""
    dur = [s[END] - s[START] for s in spans]
    child_time = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s[PARENT] >= 0:
            child_time[s[PARENT]] += dur[i]

    def parent_name(i: int):
        p = spans[i][PARENT]
        return spans[p][NAME] if p >= 0 else None

    def ancestor(i: int, names) -> int:
        p = spans[i][PARENT]
        while p >= 0 and spans[p][NAME] not in names:
            p = spans[p][PARENT]
        return p

    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s[NAME], []).append(i)

    def count(name):
        return len(by_name.get(name, ()))

    def total(name):
        return sum(dur[i] for i in by_name.get(name, ()))

    def mean_us(name):
        n = count(name)
        return 1e6 * total(name) / n if n else 0.0

    train_runs = by_name.get("harness.train_run", [])
    train_steps = sum(spans[i][EXTRA]["steps"] for i in train_runs)

    def per_step(x):
        return x / train_steps if train_steps else 0.0

    m: dict[str, float] = {}
    for method in _UPDATE_METHODS:
        m[f"learners.update_us.{method}"] = mean_us(f"learners.{method}_update_step")
    m["learners.target_sync_us"] = mean_us("learners.target_sync")
    m["learners.values_calls"] = count(VALUES)
    m["learners.values_us"] = mean_us(VALUES)
    values_in_train = sum(
        1 for i in by_name.get(VALUES, ()) if ancestor(i, {"harness.train_run"}) >= 0
    )
    m["learners.full_table_passes_per_step"] = per_step(
        values_in_train + count("learners.target_sync")
    )

    m["policy.rejection_calls"] = count("policy.rejection_sample_action")
    m["policy.rejection_us"] = mean_us("policy.rejection_sample_action")
    evals = by_name.get("harness.evaluate_policy", [])
    m["harness.eval_s"] = total("harness.evaluate_policy")
    m["harness.eval_s_per_run"] = m["harness.eval_s"] / len(evals) if evals else 0.0

    greedy = by_name.get("policy.greedy_action_batch", [])
    in_train = [i for i in greedy if ancestor(i, {"harness.train_run"}) >= 0]
    in_eval = [i for i in greedy if parent_name(i) == "harness.evaluate_policy"]
    m["policy.greedy_calls.train"] = len(in_train)
    m["policy.greedy_calls.eval"] = len(in_eval)
    m["policy.greedy_us"] = mean_us("policy.greedy_action_batch")
    queries = 0
    distinct: set = set()
    for i in in_eval:
        pairs = spans[i][EXTRA]["pairs"]
        queries += len(pairs)
        distinct.update((spans[i][RUN], s, g) for s, g in pairs)
    m["policy.greedy_distinct_ratio"] = len(distinct) / queries if queries else 0.0

    m["harness.train_s"] = total("harness.train_run")
    m["harness.train_self_s"] = sum(dur[i] - child_time[i] for i in train_runs)
    for label in _STEP_LABELS:
        runs = [i for i in train_runs if spans[i][RUN].split("/")[1] == label]
        steps = sum(spans[i][EXTRA]["steps"] for i in runs)
        m[f"harness.step_us.{label}"] = 1e6 * sum(dur[i] for i in runs) / steps if steps else 0.0
    samples = [
        i
        for name in _SAMPLERS
        for i in by_name.get(name, ())
        if parent_name(i) not in _SAMPLERS
        and ancestor(i, {"harness.train_run"}) >= 0
    ]
    m["dataset.sample_calls"] = len(samples)
    m["dataset.sample_us_per_step"] = 1e6 * per_step(sum(dur[i] for i in samples))

    sweeps = by_name.get("learners.exact_transitive_sweep", [])
    changed = sum(1 for i in sweeps if spans[i][EXTRA]["delta"] > 1e-13)
    m["learners.exact_sweeps"] = len(sweeps)
    m["learners.exact_sweeps_changed"] = changed
    m["learners.exact_useful_ratio"] = changed / len(sweeps) if sweeps else 0.0
    m["learners.exact_sweep_ms"] = mean_us("learners.exact_transitive_sweep") / 1e3

    m["analysis.recursion_s"] = total("analysis.expected_recursions")
    m["analysis.simulate_s"] = total("analysis.simulate_recursions")
    m["oracle.distances_s"] = total("oracle.all_pairs_distances")
    m["env.build_s"] = total("env.build_grid_env") + total("env.load_env")
    m["dataset.collect_s"] = total("dataset.collect_dataset")
    m["dataset.save_s"] = total("dataset.save_dataset")
    m["learners.save_table_s"] = total("learners.save_table")
    m["harness.spearman_s"] = total("harness.spearman_to_oracle")
    m["harness.write_s"] = sum(total(name) for name in _WRITERS)
    return m
