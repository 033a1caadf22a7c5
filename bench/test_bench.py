"""Tests of the benchmark itself; run from the repository root with

    python3 -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import gen  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402

ROOT = os.path.dirname(HERE)


@pytest.fixture(autouse=True)
def _at_root(monkeypatch):
    monkeypatch.chdir(ROOT)


def _text(workload: str, seed: int) -> bytes:
    return json.dumps(run.make_items(workload, seed), sort_keys=True).encode()


@pytest.mark.parametrize("workload", ["translate", "refute", "check", "probe"])
def test_same_seed_gives_byte_identical_inputs(workload, monkeypatch):
    # Shorter plans keep the test quick; generation is per item anyway.
    monkeypatch.setattr(gen, "TRANSLATE_SLOTS", 24)
    monkeypatch.setattr(gen, "CHECK_ROUNDS", 20)
    monkeypatch.setattr(gen, "REFUTE_OPS", 50)
    monkeypatch.setattr(gen, "PROBE_OPS", 20)
    first = _text(workload, 7)
    assert first == _text(workload, 7)
    assert first != _text(workload, 8)


def test_every_planned_item_has_a_recorded_digest():
    with open(os.path.join(HERE, "golden.json"), encoding="utf-8") as handle:
        golden = json.load(handle)
    for workload in run.WORKLOADS:
        for seed in (0, 1, 12345):
            missing = {str(i) for i in gen.plan(workload, seed)} - set(golden[workload])
            assert not missing, (workload, seed, sorted(missing)[:5])


def test_generated_text_parses_to_the_intended_length():
    imred = worker.import_imred()
    rng = gen.item_rng("test", 0)
    for _ in range(200):
        tree = gen.random_tree(rng, 4, 9)
        phi = imred.parse_formula(gen.to_text(tree))
        assert imred.length(phi) == gen.symbols(tree)
        assert imred.print_formula(phi) == gen.to_text(tree)


def test_generated_models_are_valid():
    imred = worker.import_imred()
    rng = gen.item_rng("test", 1)
    for kind in ("fs", "mipc"):
        for _ in range(100):
            model = imred.parse_model(gen.model_text(rng, 6, 5, 4, kind))
            assert model.kind == kind


def test_percentile():
    assert run.percentile([5.0], 95) == 5.0
    assert run.percentile([3.0, 1.0, 2.0, 4.0, 5.0], 50) == 3.0
    assert run.percentile([1.0, 2.0, 3.0, 4.0], 50) == 2.5
    values = [float(v) for v in range(1, 101)]
    assert run.percentile(values, 95) == pytest.approx(95.05)
    assert run.percentile(values, 0) == 1.0
    assert run.percentile(values, 100) == 100.0


def test_self_times_add_up_to_op_time():
    spans = [
        (0, 0, None, "harness.op", 0, 100),
        (0, 1, 0, "syntax.parse_formula", 10, 40),
        (0, 2, 0, "search.check_translation_consistency", 50, 90),
        (0, 3, 2, "search.probe.input", 60, 80),
        (1, 4, None, "harness.op", 200, 210),
        (1, 5, 4, "semantics.truth_table", 201, 209),
    ]
    got = run.self_times(spans)
    assert got == {"harness": 30 + 2, "syntax": 30, "search": 20 + 20, "semantics": 8}
    assert sum(got.values()) == 100 + 10
    assert run.busy_by_name(spans)["harness.op"] == 110


def test_corrupted_digest_fails_the_run():
    with open(os.path.join(HERE, "golden.json"), encoding="utf-8") as handle:
        golden = json.load(handle)["refute"]
    line, report = run.run("refute", 3, 0.3, False, golden)
    assert line["correct"] and line["failed"] == 0 and report["fail_ratio"] == 0
    first = str(gen.plan("refute", 3)[0])
    corrupted = {**golden, first: "0" * 16}
    line, report = run.run("refute", 3, 0.3, False, corrupted)
    assert not line["correct"]
    assert line["failed"] >= 1 and report["fail_ratio"] > 0


def test_metrics_match_benchmark_json_and_self_times_add_up():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    with open(os.path.join(HERE, "golden.json"), encoding="utf-8") as handle:
        golden = json.load(handle)["refute"]
    for trace, key in ((False, "end_to_end"), (True, "per_layer")):
        line, _ = run.run("refute", 5, 0.4, trace, golden)
        assert line["correct"]
        assert {k: v["unit"] for k, v in line["metrics"].items()} == \
            {m["name"]: m["unit"] for m in spec[key]}
    metrics = {k: v["value"] for k, v in line["metrics"].items()}
    layers = sum(metrics[f"{layer}.self_ms"]
                 for layer in ("syntax", "reduction", "semantics", "search"))
    assert layers + metrics["harness.other_ms"] == pytest.approx(metrics["trace.op_ms"])


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "refute",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_host_factors_and_whole_passes():
    nominal = run.reference.NOMINAL_NS
    # References before op 0, before op 2 and after op 3: ops 0-1 sit
    # between the first two, ops 2-3 between the last two.
    refs = [[0, nominal], [2, 3 * nominal], [4, nominal]]
    assert run.host_factors(refs) == [0.5, 0.5, 0.5, 0.5]
    result = {"references": refs,
              "records": [[i, 4_000_000, "", {}] for i in range(4)]}
    assert run.normalized_ms(result) == [2.0, 2.0, 2.0, 2.0]
    assert run.whole_passes(list(range(7)), 3) == [0, 1, 2, 3, 4, 5]
    assert run.whole_passes(list(range(2)), 3) == [0, 1]


def test_reference_workload_is_fixed():
    assert run.reference.reference_ns() > 0
    assert run.reference._work() == run.reference._EXPECTED
