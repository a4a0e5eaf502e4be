"""Instrumentation of the matchfrontier modules and the per-layer metrics
derived from it.

Every wrapper replaces the name the caller actually looks up: `train`
calls `backward`, `adam_step`, `sample_profile` and friends through its own
namespace; `train` and `NetworkMechanism` both reach `net.forward_batch`
through the `net` module; `cmd_eval` reaches `read_profiles` and
`load_checkpoint` through `cli` and `evaluate` through `metrics`.  The
train module is taken from `sys.modules`, because the attribute
`matchfrontier.train` is the re-exported `train` *function*.  `oracle` is
the correctness reference and is never timed.
"""
from __future__ import annotations

import importlib
import time
from collections import Counter

import numpy as np

EVAL_LABELS = ("learned", "wda", "fda", "rsd")

# (name, unit).  Unless a name says otherwise, times and counts are per
# step: one SGD iteration on the train workloads, one `eval` command on
# desk-eval.
PER_LAYER = [
    ("prefs.sample_ms", "ms"),
    ("prefs.sample_calls", "count"),
    ("prefs.read_profiles_ms", "ms"),
    ("prefs.with_order_calls", "count"),
    ("train.batch_ms", "ms"),
    ("train.search_ms", "ms"),
    ("train.search_rows", "count"),
    ("train.tape_forward_ms", "ms"),
    ("train.loss_build_ms", "ms"),
    ("train.truth_forwards_per_iter", "count"),
    ("net.forward_ms", "ms"),
    ("net.forward_calls", "count"),
    ("net.forward_rows", "count"),
    ("net.forward_flops", "flop"),
    ("net.forward_gflops", "GFLOP/s"),
    ("net.matmul_floor_ms", "ms"),
    ("net.elementwise_ms", "ms"),
    ("net.checkpoint_load_ms", "ms"),
    ("autodiff.backward_ms", "ms"),
    ("autodiff.adam_ms", "ms"),
    ("autodiff.tape_nodes", "count"),
    ("mechanisms.da_calls", "count"),
    ("mechanisms.da_ms", "ms"),
    ("mechanisms.rsd_exact_calls", "count"),
    ("mechanisms.rsd_exact_ms", "ms"),
] + [(f"metrics.evaluate_ms.{label}", "ms") for label in EVAL_LABELS] + [
    ("metrics.mech_evals_per_profile", "count"),
    ("metrics.cumulative_prob_calls", "count"),
    ("cli.eval_overhead_ms", "ms"),
    ("cli.eval_learned_profiles_per_s", "profiles/s"),
    ("cli.eval_da_profiles_per_s", "profiles/s"),
    ("cli.eval_rsd_profiles_per_s", "profiles/s"),
    ("trace.overhead_pct", "%"),
]

# Spans a traced run must record at least once, per workload kind.
TRAIN_SPANS = ("prefs.profile_stream", "prefs.sample_profile", "train.batch",
               "train.search", "train.tape_forward", "train.loss_build",
               "net.forward_batch", "autodiff.backward", "autodiff.adam_step")
EVAL_SPANS = ("cli.eval", "prefs.read_profiles", "net.load_checkpoint",
              "net.forward_batch", "mechanisms.da", "mechanisms.rsd_exact") \
    + tuple(f"metrics.evaluate.{label}" for label in EVAL_LABELS)
EVAL_COUNTERS = ("prefs.with_order", "metrics.cumulative_prob", "metrics.mech_evals")


def modules():
    """The package modules by layer name."""
    importlib.import_module("matchfrontier")
    return {name: importlib.import_module(f"matchfrontier.{name}")
            for name in ("prefs", "mechanisms", "metrics", "net", "autodiff",
                         "train", "cli")}


class Instruments:
    """Installs the layer wrappers on a tracer and keeps the side tables
    the wrappers fill (forward shapes for the matmul floor)."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.forward_shapes = Counter()  # (rows, weight shapes) -> calls
        self._truth_x = None             # X of the newest training batch

    def install(self) -> None:
        mods = modules()
        t = self.tracer
        prefs, mechanisms, metrics = mods["prefs"], mods["mechanisms"], mods["metrics"]
        net, train, cli = mods["net"], mods["train"], mods["cli"]

        # prefs
        t.wrap(train, "profile_stream", "prefs.profile_stream")
        t.wrap(train, "sample_profile", "prefs.sample_profile")
        t.wrap(cli, "read_profiles", "prefs.read_profiles")
        t.wrap_counter(prefs.PreferenceProfile, "with_order", "prefs.with_order")

        # train
        def batch_payload(args, kwargs, batch):
            self._truth_x = batch.X
            return len(batch.profiles)

        t.wrap(train, "_Batch", "train.batch", batch_payload)
        t.wrap(train, "_search_defeating", "train.search")

        def tape_payload(args, kwargs, out):
            self._count_truth(args[3])
            return out.value.shape[0]

        t.wrap(train, "_forward_tape", "train.tape_forward", tape_payload)
        t.wrap(train, "_loss_from_batch", "train.loss_build")

        # net
        def forward_payload(args, kwargs, out):
            params, x = args[0], args[2]
            rows = x.shape[0]
            shapes = tuple(w.shape for w, _ in params)
            self.forward_shapes[(rows, shapes)] += 1
            t.count("net.forward_flops", 2 * rows * sum(a * b for a, b in shapes))
            self._count_truth(x)
            return rows

        t.wrap(net, "forward_batch", "net.forward_batch", forward_payload)
        t.wrap(cli, "load_checkpoint", "net.load_checkpoint")

        # autodiff
        t.wrap(train, "backward", "autodiff.backward",
               lambda args, kwargs, out: len(args[0].nodes))
        t.wrap(train, "adam_step", "autodiff.adam_step")

        # mechanisms: DA is reached from the lifted mechanism and from
        # metrics.similarity, each through its own module namespace
        t.wrap(mechanisms, "da", "mechanisms.da")
        t.wrap(metrics, "da", "mechanisms.da")
        t.wrap(mechanisms, "rsd_exact", "mechanisms.rsd_exact")

        # metrics
        original_evaluate = metrics.evaluate

        def evaluate(mech, profiles, *args, **kwargs):
            idx = t.open(f"metrics.evaluate.{getattr(mech, 'label', 'mechanism')}")
            try:
                return original_evaluate(mech, profiles, *args, **kwargs)
            finally:
                t.close(idx, len(profiles))

        t.patch(metrics, "evaluate", original_evaluate, evaluate)
        t.wrap_counter(metrics, "cumulative_prob", "metrics.cumulative_prob")
        t.wrap_counter(mechanisms.LiftedMechanism, "evaluate", "metrics.mech_evals")
        t.wrap_counter(net.NetworkMechanism, "evaluate", "metrics.mech_evals")
        t.wrap_counter(net.NetworkMechanism, "evaluate_many", "metrics.mech_evals",
                       lambda args: len(args[1]))

    def _count_truth(self, x) -> None:
        """Counts a forward over the newest training batch's truth inputs
        (the array itself or a chunk view of it)."""
        truth = self._truth_x
        if truth is not None and (x is truth or getattr(x, "base", None) is truth):
            self.tracer.count("train.truth_forwards")

    def matmul_floor_s(self, repeats: int = 3) -> float:
        """Computed floor: every recorded forward's matmul shapes timed
        alone on random data (median of `repeats`), summed over calls."""
        rng = np.random.default_rng(0)
        total = 0.0
        for (rows, shapes), calls in self.forward_shapes.items():
            operands = [(rng.standard_normal((rows, w_in)), rng.standard_normal((out, w_in)))
                        for out, w_in in shapes]
            times = []
            for _ in range(repeats):
                start = time.perf_counter()
                for h, w in operands:
                    h @ w.T
                times.append(time.perf_counter() - start)
            total += float(np.median(times)) * calls
        return total


def missing_spans(tracer, kind: str) -> list:
    """Named spans and counters the workload kind should reach but that
    recorded zero calls: a wrapper that wraps nothing shows up here."""
    summary = tracer.summary()
    if kind == "train":
        return [name for name in TRAIN_SPANS if name not in summary]
    missing = [name for name in EVAL_SPANS if name not in summary]
    return missing + [name for name in EVAL_COUNTERS if not tracer.counts.get(name)]


def per_layer_metrics(tracer, instruments, steps: int, profiles: int,
                      overhead_pct: float, eval_rates: dict) -> dict:
    """Per-layer values, in PER_LAYER order, from one traced phase of
    `steps` steps that evaluated `profiles` profiles (0 on the train
    workloads).  `eval_rates` come from the untraced phase."""
    summary = tracer.summary()
    counts = tracer.counts
    blank = {"calls": 0, "total_s": 0.0, "self_s": 0.0, "payload": 0}

    def span(name):
        return summary.get(name, blank)

    def per_step(x):
        return x / steps if steps else 0.0

    def ratio(a, b):
        return a / b if b else 0.0

    def ms(name, field="total_s"):
        return per_step(span(name)[field] * 1e3)

    forward_s = span("net.forward_batch")["total_s"]
    floor_s = instruments.matmul_floor_s()
    backward = span("autodiff.backward")
    load = span("net.load_checkpoint")
    values = {
        "prefs.sample_ms": ms("prefs.sample_profile") + ms("prefs.profile_stream"),
        "prefs.sample_calls": per_step(span("prefs.sample_profile")["calls"]),
        "prefs.read_profiles_ms": ms("prefs.read_profiles"),
        "prefs.with_order_calls": per_step(counts["prefs.with_order"]),
        "train.batch_ms": ms("train.batch"),
        "train.search_ms": ms("train.search"),
        "train.search_rows": per_step(tracer.payload_under("net.forward_batch",
                                                           "train.search")),
        "train.tape_forward_ms": ms("train.tape_forward"),
        # self time: loss assembly without the search and the tape forward
        "train.loss_build_ms": ms("train.loss_build", "self_s"),
        "train.truth_forwards_per_iter": per_step(counts["train.truth_forwards"]),
        "net.forward_ms": per_step(forward_s * 1e3),
        "net.forward_calls": per_step(span("net.forward_batch")["calls"]),
        "net.forward_rows": per_step(span("net.forward_batch")["payload"]),
        "net.forward_flops": per_step(counts["net.forward_flops"]),
        "net.forward_gflops": ratio(counts["net.forward_flops"], forward_s) / 1e9,
        "net.matmul_floor_ms": per_step(floor_s * 1e3),
        "net.elementwise_ms": per_step((forward_s - floor_s) * 1e3),
        "net.checkpoint_load_ms": ratio(load["total_s"] * 1e3, load["calls"]),
        "autodiff.backward_ms": ms("autodiff.backward"),
        "autodiff.adam_ms": ms("autodiff.adam_step"),
        "autodiff.tape_nodes": ratio(backward["payload"], backward["calls"]),
        "mechanisms.da_calls": per_step(span("mechanisms.da")["calls"]),
        "mechanisms.da_ms": ms("mechanisms.da"),
        "mechanisms.rsd_exact_calls": per_step(span("mechanisms.rsd_exact")["calls"]),
        "mechanisms.rsd_exact_ms": ms("mechanisms.rsd_exact"),
        "metrics.mech_evals_per_profile": ratio(counts["metrics.mech_evals"], profiles),
        "metrics.cumulative_prob_calls": per_step(counts["metrics.cumulative_prob"]),
        # our own span around cli.main; its children are the profile read,
        # the checkpoint load and metrics.evaluate
        "cli.eval_overhead_ms": ratio(span("cli.eval")["self_s"] * 1e3,
                                      span("cli.eval")["calls"]),
        "trace.overhead_pct": overhead_pct,
    }
    for label in EVAL_LABELS:
        entry = span(f"metrics.evaluate.{label}")
        values[f"metrics.evaluate_ms.{label}"] = ratio(entry["total_s"] * 1e3, entry["calls"])
    for group in ("learned", "da", "rsd"):
        values[f"cli.eval_{group}_profiles_per_s"] = eval_rates.get(group, 0.0)
    return {name: values[name] for name, _ in PER_LAYER}
