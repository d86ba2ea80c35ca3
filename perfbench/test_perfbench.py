"""Smoke test of the verdict benchmark at reduced size.

Runs ``run.py --smoke`` (small catalog slice, spinlock only, wide(3,2),
two set-up samples) on every workload with tracing off and on, and
checks the output format: every metric named in ``BENCHMARK.json`` is
emitted with its unit, the known-answer checks ran and passed, and the
traced run wrote its spans.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "0.1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    result = result_of(bench(workload, 0))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for name, metric in result["metrics"].items():
        assert metric["value"] > 0, name
    assert result["metrics"]["verdict_ok_rate"]["value"] == 1.0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics_and_spans(workload):
    spans = ROOT / ".bench_build" / "perfbench" / f"spans-{workload}-seed7.json"
    spans.unlink(missing_ok=True)
    result = result_of(bench(workload, 1))
    assert result["correct"] is True and result["failed"] == 0
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["engine.explore_calls"] > 0 and metrics["engine.states"] > 0
    assert metrics["trace.overhead"] > 0
    assert metrics["host.speed"] > 0 and metrics["wall.verdicts_per_sec"] > 0
    doc = json.loads(spans.read_text())
    assert doc["workload"] == workload
    assert len(doc["spans"]) == metrics["trace.spans"] > 0
    for name, start, end, parent in doc["spans"]:
        assert 0 <= start <= end and parent < len(doc["spans"])
    if workload == "litmus":
        assert metrics["witness.calls"] > 0 and metrics["analysis.calls"] > 0
    if workload == "library":
        assert metrics["sim.calls"] > 0 and metrics["traces.calls"] > 0
        assert metrics["logic.calls"] > 0
    if workload == "wide-w2":
        assert metrics["pipeline.batches"] > 0 and metrics["w2.speedup"] > 0


def test_predictions_cover_every_metric_and_workload():
    predictions = json.loads((ROOT / "perfbench" / "predictions.json").read_text())
    assert set(predictions["workloads"]) == set(WORKLOADS)
    named = [m for layer in predictions["layers"].values() for m in layer["metrics"]]
    assert sorted(named) == sorted(m["name"] for m in SPEC["per_layer"])
    end_to_end = {m["name"] for m in SPEC["end_to_end"]}
    for layer in predictions["layers"].values():
        for metric, workload in layer["moves"]:
            assert metric in end_to_end and workload in WORKLOADS


def test_refuses_a_tree_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("litmus", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
