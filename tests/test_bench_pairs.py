"""The paired-run summary of tools/bench_pairs.py, checked against the
committed BENCH_21.json, whose figures were computed before the tool existed."""

import importlib.util
import json
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)
METRICS = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["end_to_end"]


def test_summary_recomputes_bench_21_from_its_runs():
    recorded = json.loads((ROOT / "BENCH_21.json").read_text(encoding="utf-8"))
    summary = bench_pairs.end_to_end(recorded["runs"], METRICS)
    assert summary == recorded["end_to_end"]
    assert bench_pairs.checks(recorded["runs"], summary) == recorded["checks"]


def run(side, seed, ops_per_s, correct=True):
    metrics = {m["name"]: {"value": 1.0} for m in METRICS}
    metrics["ops_per_s"] = {"value": ops_per_s}
    return {"side": side, "workload": "refute", "seed": seed, "trace": 0,
            "exit": 0 if correct else 1,
            "result": {"correct": correct, "failed": 0 if correct else 2,
                       "metrics": metrics}}


def test_one_whole_pair_and_a_loss_past_the_bound():
    runs = [run("parent", 1, 100.0), run("change", 1, 70.0, correct=False),
            run("parent", 2, 100.0)]
    summary = bench_pairs.end_to_end(runs, METRICS)
    ops = summary["refute"]["ops_per_s"]
    assert ops["parent_iqr"] == [100.0, 100.0] and ops["pairs"] == 1
    assert ops["change_better_pairs"] == 0
    assert ops["change_worse_by"] == pytest.approx(0.3) and not ops["within_bound"]
    assert summary["refute"]["setup_s"]["within_bound"]
    assert bench_pairs.checks(runs, summary) == {
        "all_correct": False, "failed_ops": 2, "nonzero_exits": 1, "runs": 3,
        "all_within_bounds": False}


def test_a_workload_without_a_whole_pair_gets_no_metrics():
    assert bench_pairs.end_to_end([run("change", 1, 70.0)], METRICS) == {"refute": {}}
