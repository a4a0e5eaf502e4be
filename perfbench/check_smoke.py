"""Smoke test of the benchmark at tiny sizes.

    python3 -m pytest -q perfbench/check_smoke.py

Every workload runs with `--smoke`, untraced and traced.  The result line
must name every metric of BENCHMARK.json with its unit, the readable lines
must name the workload's own metrics with a unit, the span self-test must
catch wrappers that recorded nothing, a failed correctness check must give
a non-zero exit, and a directory without the program's sources must give a
non-zero exit and no result.
"""
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())

READABLE = {
    "desk-train": ("setup_s", "train_iter_ms_p50", "train_iter_ms_p90",
                   "train_profiles_per_s", "peak_rss_mb", "error_rate"),
    "paper-train": ("setup_s", "train_iter_ms_p50", "train_iter_ms_p90",
                    "train_profiles_per_s", "peak_rss_mb", "error_rate"),
    "desk-eval": ("setup_s", "eval_learned_profiles_per_s", "eval_da_profiles_per_s",
                  "eval_rsd_profiles_per_s", "peak_rss_mb", "error_rate"),
}


def _bench(cwd, workload, trace):
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
            "--seconds", "0.5", "--trace", str(trace), "--smoke"]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_every_metric_printed_with_unit(workload, trace):
    done = _bench(ROOT, workload, trace)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in
                BENCHMARK["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(isinstance(v["value"], float) for v in result["metrics"].values())
    names = READABLE[workload] if not trace else tuple(expected) + ("error_rate",)
    for name in names:
        pattern = rf"^metric {re.escape(name)}( \(\S+\))? = \S+ \S+"
        assert any(re.match(pattern, line) for line in lines), name


def _instrumented():
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import layers
    import spans
    tracer = spans.Tracer()
    layers.Instruments(tracer).install()
    return layers, tracer


def test_self_test_reports_spans_that_recorded_nothing():
    layers, tracer = _instrumented()
    try:
        assert set(layers.missing_spans(tracer, "train")) == set(layers.TRAIN_SPANS)
        from dataclasses import replace
        import workloads
        workload = workloads.make("desk-train", 1, smoke=True)
        train = sys.modules["matchfrontier.train"]
        train.train(replace(workload.config, iterations=2))
        assert layers.missing_spans(tracer, "train") == []
    finally:
        tracer.restore()


def test_failed_check_exits_non_zero(monkeypatch, capsys):
    sys.path[:0] = [str(HERE)]
    import run
    import workloads
    monkeypatch.setattr(workloads, "_check_row", lambda *args: "forced failure")
    assert run.main(["--workload", "desk-eval", "--seconds", "0.1", "--smoke"]) == 1
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] is False and result["failed"] >= 1


def test_rejects_directory_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _bench(tmp_path, "desk-train", 0)
    assert done.returncode != 0
    assert done.stdout == ""
