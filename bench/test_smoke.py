"""Smoke test of the benchmark at toy sizes; asserts no timings.

Run from the repository root: python3 -m pytest bench/test_smoke.py
"""

import json
import sys
import time
from pathlib import Path

import run
import spans

sys.path.insert(0, str(run.SRC))

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())

TOY_SYNTHETIC = run.Workload(
    "toy-synthetic",
    "toy",
    {
        "dataset.per_cluster": "20",
        "dataset.test_per_cluster": "10",
        "train.hidden": "16",
        "train.epochs": "2",
        "train.batch_size": "16",
        "train.validation_size": "20",
    },
    ("train",),
)

TOY_SWEEP = run.Workload(
    "toy-sweep",
    "toy",
    {
        **run.DIGITS_CONFIG,
        "train.hidden": "16",
        "train.epochs": "1",
        "train.batch_size": "32",
        "train.validation_size": "20",
        "scenario.mode": "inter-parent",
    },
    ("train", "eval", "export-graph", "scenarios", "baseline"),
    digits=(200, 100),
)


def _measure(workload, trace, work: Path):
    lines = []
    result = run.measure(workload, 1, 0.0, trace, work, lines, time.monotonic() + run.DEADLINE_S)
    assert result["correct"], "\n".join(lines)
    assert result["failed"] == 0 and result["attempted"] >= 1
    return result


def _declared(kind):
    return {m["name"]: m["unit"] for m in BENCHMARK[kind]}


def test_untraced_run_reports_every_end_to_end_metric(tmp_path):
    result = _measure(TOY_SYNTHETIC, False, tmp_path)
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == _declared("end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_run_reports_every_per_layer_metric(tmp_path):
    result = _measure(TOY_SWEEP, True, tmp_path)
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == _declared("per_layer")
    for name in ("network.train_steps", "evaluation.kmeans_calls", "network.checkpoint_read_calls",
                 "datasets.pool_to_dataset_calls", "cli.commands"):
        assert result["metrics"][name]["value"] > 0, name


def test_missing_hook_is_reported_absent(tmp_path):
    tracer = spans.Tracer("toy")
    hooks = (spans.Hook("network.renamed", ("network.no_such_function",)),)
    assert tracer.install("acol", hooks) == {"network.renamed": ["acol.network.no_such_function"]}


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)
    assert BENCHMARK["paths"] == ["bench"]


def test_exits_nonzero_without_the_program(monkeypatch, tmp_path):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    assert run.main(["--workload", "digits-train", "--seed", "1", "--seconds", "1"]) == 2
