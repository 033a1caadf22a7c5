"""Benchmark of imred's four workloads: translate, check, refute, probe.

    python3 bench/run.py --workload translate --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout; ``imred`` is imported from
``src/``.  The command generates the workload's inputs from the seed as
text (``gen.py``), then starts fresh single-threaded worker processes
(``worker.py``): a few that only set up, for ``setup_s``, and one that
runs a closed loop of ops, one at a time, until the ops have taken
``--seconds``.  Every op's output digest is compared with ``golden.json``
(recorded by ``record.py``); an op fails if it raises, if its digest
differs, or if its independent re-check fails.  Timing metrics come from
the whole passes over the run's items, with each op's time normalized
for the host's speed by the reference workload (``reference.py``); the
report also gives the plain wall-clock figures.

With ``--trace 0`` the metrics are the end-to-end ones; with
``--trace 1`` the command runs one untraced and one traced worker on the
same inputs and reports per-layer metrics from the traced one's spans
and counters, plus the tracing overhead.  Spans go to ``.bench_out/``.
The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it is a JSON
report naming the machine, the seed and the sample counts.  Exit code 0
means every op was correct.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import gen  # noqa: E402
import reference  # noqa: E402
import worker  # noqa: E402

WORKLOADS = ("translate", "check", "refute", "probe")
SETUP_SAMPLES = 7  # the measuring worker and three fresh ones on each side
TIME_LIMIT_S = 170.0
OUT_DIR = ".bench_out"


# ---------------------------------------------------------------------------
# Arithmetic helpers.


def percentile(values: list[float], q: float) -> float:
    """Linear interpolation between closest ranks (numpy's default)."""
    if not values:
        raise ValueError("percentile of no values")
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def self_times(spans: list[list]) -> dict[str, int]:
    """Self time per layer in ns: each span's duration minus its children's.

    A span is ``[op, span_id, parent_id, name, start_ns, end_ns]`` with
    ``span_id`` its index in ``spans``; the layer is the name up to the
    first dot.  Root spans are the ops (layer ``harness``), so the values
    add up to the summed op time.
    """
    own = [end - start for _, _, _, _, start, end in spans]
    for _, _, parent, _, start, end in spans:
        if parent is not None:
            own[parent] -= end - start
    out: dict[str, int] = {}
    for (_, _, _, name, _, _), t in zip(spans, own):
        layer = name.split(".", 1)[0]
        out[layer] = out.get(layer, 0) + t
    return out


def busy_by_name(spans: list[list]) -> dict[str, int]:
    out: dict[str, int] = {}
    for _, _, _, name, start, end in spans:
        out[name] = out.get(name, 0) + end - start
    return out


# ---------------------------------------------------------------------------
# Inputs.


def make_items(workload: str, seed: int) -> list[dict]:
    """The run's items in plan order, as the worker receives them."""
    return items_for(workload, gen.plan(workload, seed))


def items_for(workload: str, order: list) -> list[dict]:
    """Pool items by id, in the given order."""
    if workload == "translate":
        return [gen.translate_item(i) for i in order]
    if workload == "refute":
        return [gen.refute_item(i) for i in order]
    imred = worker.import_imred()
    if workload == "check":
        def positive_text(text: str) -> str:
            phi = imred.parse_formula(text)
            return imred.print_formula(imred.positive_embed(phi).positive_form)

        by_id = {}
        for index in sorted({int(key.split(".")[0]) for key in order}):
            for item in gen.check_item(index, positive_text):
                by_id[item["id"]] = item
        return [by_id[key] for key in order]
    budget = imred.SearchBudget(**worker.PROBE_IN)

    def refuted(text: str) -> bool:
        return imred.find_countermodel(imred.parse_formula(text), budget, "fs").refuted

    return [gen.probe_item(i, refuted) for i in order]


def machine() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"python": platform.python_version(), "cpu": cpu,
            "nproc": os.cpu_count(), "platform": platform.platform()}


# ---------------------------------------------------------------------------
# Workers.


def start_worker(job: dict, deadline: float) -> dict:
    """Run one worker to completion; its per-op records come back under
    "records", read from the file it wrote them to."""
    env = {k: v for k, v in os.environ.items() if k != "IMRED_TIME_CAP_MS"}
    env["PYTHONHASHSEED"] = "0"
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"records-{os.getpid()}.jsonl")
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "worker.py")],
            input=json.dumps({**job, "records_path": path}), capture_output=True,
            text=True, env=env, timeout=max(1.0, deadline - time.monotonic()))
        if proc.returncode != 0:
            raise RuntimeError(f"worker exited with {proc.returncode}: "
                               f"{proc.stderr.strip()[-2000:]}")
        result = json.loads(proc.stdout)
        if not job.get("setup_only"):
            with open(path, encoding="utf-8") as handle:
                result["records"] = [json.loads(line) for line in handle]
    finally:
        if os.path.exists(path):
            os.remove(path)
    return result


def score(records: list, golden: dict) -> list[list]:
    """[op index, message] for each op whose digest differs from the recorded one."""
    return [[k, f"{op_id}: digest {got} != recorded {golden.get(str(op_id))}"]
            for k, (op_id, _, got, _) in enumerate(records)
            if golden.get(str(op_id)) != got]


# ---------------------------------------------------------------------------
# Metrics.


def host_factors(refs: list) -> list[float]:
    """Per op: ``reference.NOMINAL_NS`` over the mean reference time taken
    just before and just after the op's block."""
    factors: list[float] = []
    for (first, before), (last, after) in zip(refs, refs[1:]):
        factors += [2 * reference.NOMINAL_NS / (before + after)] * (last - first)
    return factors


def normalized_ms(result: dict) -> list[float]:
    """Each op's time in ms on a host that runs the reference in NOMINAL_NS."""
    factors = host_factors(result["references"])
    return [ns * f / 1e6 for (_, ns, _, _), f in zip(result["records"], factors)]


def whole_passes(values: list, n_items: int) -> list:
    """The values of the run's whole passes over its item list, so that
    every item weighs the same however many passes fit in the run; all
    values when the run made less than one pass."""
    whole = len(values) // n_items * n_items
    return values[:whole] if whole else values


def timings(lat_ms: list[float]) -> dict:
    return {
        "ops_per_s": (len(lat_ms) / (sum(lat_ms) / 1e3), "1/s"),
        "latency_ms.p50": (percentile(lat_ms, 50), "ms"),
        "latency_ms.p95": (percentile(lat_ms, 95), "ms"),
    }


def end_to_end(result: dict, setups: list[float], n_items: int) -> dict:
    return {
        **timings(whole_passes(normalized_ms(result), n_items)),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
    }


def wall_clock(result: dict, n_items: int) -> dict:
    """The end-to-end timings from plain wall-clock op times, for the report."""
    lat_ms = whole_passes([ns / 1e6 for _, ns, _, _ in result["records"]], n_items)
    return {name: value for name, (value, _) in timings(lat_ms).items()}


def per_layer(traced: dict, untraced: dict, n_items: int) -> dict:
    records, spans = traced["records"], traced["spans"]
    n = len(records)
    busy = busy_by_name(spans)
    layer = self_times(spans)

    def total(key: str) -> float:
        return sum(c.get(key, 0) for _, _, _, c in records)

    def ms(ns: float) -> float:
        return ns / 1e6 / n

    searches = [c for _, _, _, c in records if "search_ms" in c]
    calls = sum(1 for c in searches if "refuted" in c)
    search_ms = total("search_ms")
    candidates = total("candidates") + sum(
        total(f"{s}_candidates") for s in ("input", "positive", "one_var"))
    probe_searches = sum(busy.get(f"search.probe.{s}", 0)
                         for s in ("input", "positive", "one_var"))
    # Both rates from host-normalized op times of whole passes: the two
    # workers run at different times, and the host's speed may differ.
    traced_rate = timings(whole_passes(normalized_ms(traced), n_items))["ops_per_s"][0]
    untraced_rate = timings(whole_passes(normalized_ms(untraced), n_items))["ops_per_s"][0]
    return {
        "syntax.parse_formula.busy_ms": (ms(busy.get("syntax.parse_formula", 0)), "ms/op"),
        "syntax.parse_formula.symbols": (total("symbols") / n, "count/op"),
        "syntax.parse_model.busy_ms": (ms(busy.get("syntax.parse_model", 0)), "ms/op"),
        "syntax.print_formula.busy_ms": (ms(busy.get("syntax.print_formula", 0)), "ms/op"),
        "syntax.print_certificate.busy_ms": (ms(busy.get("syntax.print_certificate", 0)), "ms/op"),
        "syntax.self_ms": (ms(layer.get("syntax", 0)), "ms/op"),
        "formula.live_nodes": (traced["live_nodes"], "count"),
        "reduction.positive_embed.busy_ms": (ms(busy.get("reduction.positive_embed", 0)), "ms/op"),
        "reduction.star.busy_ms": (ms(busy.get("reduction.star", 0)), "ms/op"),
        "reduction.star.output_dag_nodes": (total("output_dag_nodes") / n, "count/op"),
        "reduction.star.output_length": (total("output_length") / n, "count/op"),
        "reduction.self_ms": (ms(layer.get("reduction", 0)), "ms/op"),
        "semantics.TableContext.busy_ms": (ms(busy.get("semantics.TableContext", 0)), "ms/op"),
        "semantics.truth_table.busy_ms": (ms(busy.get("semantics.truth_table", 0)), "ms/op"),
        "semantics.truth_table.node_pairs": (total("node_pairs") / n, "count/op"),
        "semantics.self_ms": (ms(layer.get("semantics", 0)), "ms/op"),
        "search.find_countermodel.busy_ms": (ms(busy.get("search.find_countermodel", 0)), "ms/op"),
        "search.find_countermodel.candidates": (total("candidates") / n, "count/op"),
        "search.find_countermodel.frames": (total("frames") / n, "count/op"),
        "search.find_countermodel.capped": (total("capped") / calls if calls else 0.0, "ratio"),
        "search.find_countermodel.refuted_ratio": (total("refuted") / calls if calls else 0.0, "ratio"),
        "search.probe.input.busy_ms": (ms(busy.get("search.probe.input", 0)), "ms/op"),
        "search.probe.input.candidates": (total("input_candidates") / n, "count/op"),
        "search.probe.positive.busy_ms": (ms(busy.get("search.probe.positive", 0)), "ms/op"),
        "search.probe.positive.candidates": (total("positive_candidates") / n, "count/op"),
        "search.probe.one_var.busy_ms": (ms(busy.get("search.probe.one_var", 0)), "ms/op"),
        "search.probe.one_var.candidates": (total("one_var_candidates") / n, "count/op"),
        "search.probe.translate_ms": (ms(busy.get("search.check_translation_consistency", 0)
                                         - probe_searches), "ms/op"),
        "search.probe.soft_misses": (total("soft_misses") / n, "count/op"),
        "search.probe.contradictions": (total("contradictions") / n, "count/op"),
        "search.table_cache.entries": (traced["table_cache_entries"], "count"),
        "search.candidates_per_s": (candidates / (search_ms / 1e3) if searches else 0.0, "1/s"),
        "search.self_ms": (ms(layer.get("search", 0)), "ms/op"),
        "harness.other_ms": (ms(layer.get("harness", 0)), "ms/op"),
        "trace.op_ms": (ms(busy.get("harness.op", 0)), "ms/op"),
        "trace.ops_per_s": (traced_rate, "1/s"),
        "trace.overhead_ratio": (untraced_rate / traced_rate, "ratio"),
    }


def decades(result: dict, n_items: int) -> dict:
    """translate latency by input-size decade centred on 100, 1k and 10k symbols."""
    bins: dict[int, list] = {}
    ops = whole_passes(list(zip(result["records"], normalized_ms(result))), n_items)
    for (_, _, _, c), ms in ops:
        if "symbols" in c:  # ops that raised have no counters
            decade = min(max(round(math.log10(c["symbols"])), 2), 4)
            bins.setdefault(decade, []).append((c["symbols"], ms))
    return {f"1e{d}": {"ops": len(v),
                       "median_symbols": statistics.median(s for s, _ in v),
                       "p50_ms": percentile([t for _, t in v], 50),
                       "p95_ms": percentile([t for _, t in v], 95)}
            for d, v in sorted(bins.items())}


# ---------------------------------------------------------------------------


def run(workload: str, seed: int, seconds: float, trace: bool,
        golden: dict) -> tuple[dict, dict]:
    """One benchmark invocation; returns (result line, report)."""
    deadline = time.monotonic() + TIME_LIMIT_S
    items = make_items(workload, seed)
    # A traced invocation splits its seconds between an untraced and a
    # traced worker, so every invocation measures for ``seconds``.
    job = {"workload": workload, "seconds": seconds / 2 if trace else seconds,
           "items": items, "trace": False, "seed": seed}
    # Set-up samples come from fresh workers before and after the measuring
    # one, so their median spans the whole run rather than its first second.
    setup_only = {**job, "setup_only": True}
    setups = []
    if not trace:
        setups += [start_worker(setup_only, deadline)["setup_s"]
                   for _ in range(SETUP_SAMPLES // 2)]
    results = [start_worker(job, deadline)]
    if trace:
        results.append(start_worker({**job, "trace": True}, deadline))
    else:
        setups += [start_worker(setup_only, deadline)["setup_s"]
                   for _ in range(SETUP_SAMPLES // 2)]
    failures = []
    failed_ops = set()  # an op can fail both its digest and its re-check
    for n, result in enumerate(results):
        setups.append(result["setup_s"])
        for k, message in result["failures"] + score(result["records"], golden):
            failures.append(message)
            failed_ops.add((n, k))
    attempted = sum(len(r["records"]) for r in results)
    if trace:
        metrics = per_layer(results[1], results[0], len(items))
    else:
        metrics = end_to_end(results[0], setups, len(items))
    line = {"correct": not failures, "attempted": attempted, "failed": len(failed_ops),
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    counts = [len(r["records"]) for r in results]
    samples = len(whole_passes(results[0]["records"], len(items)))
    report = {"workload": workload, "seed": seed, "seconds": seconds,
              "trace": trace, "machine": machine(),
              "ops": counts, "distinct_items": len({i["id"] for i in items}),
              "list_passes": [c / len(items) for c in counts],
              "latency_samples": samples, "samples_beyond_p95": int(samples * 0.05),
              "wall_clock": wall_clock(results[0], len(items)),
              "reference_ms": statistics.median(ns for _, ns in results[0]["references"]) / 1e6,
              "setup_samples": len(setups), "fail_ratio": len(failed_ops) / attempted,
              "failures": failures[:20]}
    if workload == "translate":
        report["latency_by_decade"] = decades(results[0], len(items))
    if trace:
        os.makedirs(OUT_DIR, exist_ok=True)
        path = os.path.join(OUT_DIR, f"spans-{workload}-{seed}.jsonl")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(["op", "span", "parent", "name", "start_ns", "end_ns"]) + "\n")
            for span in results[1]["spans"]:
                handle.write(json.dumps(span) + "\n")
        report["spans_file"] = path
    return line, report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join("src", "imred", "__init__.py")):
        print("error: run from the root of an imred checkout (no src/imred)",
              file=sys.stderr)
        return 2
    with open(os.path.join(HERE, "golden.json"), encoding="utf-8") as handle:
        golden = json.load(handle)[args.workload]
    line, report = run(args.workload, args.seed, args.seconds, bool(args.trace), golden)
    for name, metric in line["metrics"].items():
        print(f"{name:42s} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({"report": report}))
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
