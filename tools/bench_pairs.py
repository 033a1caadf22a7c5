"""Run the benchmark on a parent revision and on the working tree, in pairs.

    python3 tools/bench_pairs.py --parent HEAD~1 --workload refute \\
        --pairs 10 --seconds 28 --out BENCH_28.json

Run from anywhere inside an imred checkout.  The parent revision and the
working tree (tracked and untracked files, ignored ones left out) are
exported with ``git archive`` into temporary directories, and the
unchanged ``bench/run.py`` of each side runs there with ``--trace 0``.
Pair i of a workload uses seed ``--seed + i`` on both sides; even pairs
run the parent first and odd pairs the change.  ``--workload`` may be
given more than once.

The output file holds ``description``, ``command``, ``machine``,
``seeds``, ``checks``, ``end_to_end`` and ``runs``.  Per workload and
end-to-end metric of ``BENCHMARK.json``, ``end_to_end`` gives each
side's median, inclusive-method quartiles and runs, the pairs the
change won (ties count for neither side), the metric's bound, and
``change_worse_by``, the relative loss of the change's median against
the parent's (negative is a gain), which is ``within_bound`` when it is
at most the bound.  Exit code 0 means every run was correct with no
failed op and every metric is within its bound; 1 means some run was
not correct, failed an op or exited nonzero; 3 means only that some
metric is outside its bound.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile

WORKLOADS = ("translate", "check", "refute", "probe")
COMMAND = ("python3 bench/run.py --workload {workload} --seed {seed} "
           "--seconds {seconds:g} --trace 0")


def git(*args: str, cwd: str, env: dict | None = None) -> str:
    return subprocess.run(["git", *args], cwd=cwd, env=env, check=True,
                          capture_output=True, text=True).stdout.strip()


def working_tree(root: str) -> str:
    """The tree object of the working tree, written through a scratch
    index so that the repository's own index stays as it is."""
    with tempfile.TemporaryDirectory() as tmp:
        env = {**os.environ, "GIT_INDEX_FILE": os.path.join(tmp, "index")}
        git("add", "--all", cwd=root, env=env)
        return git("write-tree", cwd=root, env=env)


def export(root: str, tree: str, into: str) -> None:
    os.makedirs(into)
    archive = subprocess.Popen(["git", "archive", "--format=tar", tree],
                               cwd=root, stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", into], stdin=archive.stdout, check=True)
    archive.stdout.close()
    if archive.wait() != 0:
        raise RuntimeError(f"git archive {tree} exited with {archive.returncode}")


def bench_run(side: str, where: str, workload: str, seed: int,
              seconds: float) -> dict:
    """One ``bench/run.py`` invocation; ``report`` and ``result`` are
    None when the run printed no result line."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=where, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    report = result = None
    try:
        report = json.loads(lines[-2])["report"]
        result = json.loads(lines[-1])
    except (IndexError, ValueError, KeyError):
        sys.stderr.write(proc.stderr)
    return {"side": side, "workload": workload, "seed": seed, "trace": 0,
            "exit": proc.returncode, "report": report, "result": result}


def quartiles(values: list[float]) -> list[float]:
    """First and third quartiles, inclusive method (one value is its own
    quartiles)."""
    if len(values) == 1:
        return [values[0], values[0]]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [q1, q3]


def end_to_end(runs: list[dict], metrics: list[dict]) -> dict:
    """Per workload and metric, the two sides' untraced runs compared
    pair by pair.  A pair is the two sides' runs at one seed; a pair
    with a side that printed no result is left out, and a workload with
    no whole pair gets no metrics."""
    out: dict = {}
    for run in runs:
        if run["trace"] == 0 and run["result"] is not None:
            by_seed = out.setdefault(run["workload"], {})
            by_seed.setdefault(run["seed"], {})[run["side"]] = \
                run["result"]["metrics"]
    for workload, by_seed in out.items():
        pairs = [sides for sides in by_seed.values() if len(sides) == 2]
        out[workload] = {}
        for metric in metrics if pairs else ():
            name, higher = metric["name"], metric["better"] == "higher"
            parent = [sides["parent"][name]["value"] for sides in pairs]
            change = [sides["change"][name]["value"] for sides in pairs]
            p_med, c_med = statistics.median(parent), statistics.median(change)
            ratio = c_med / p_med
            worse_by = 1 - ratio if higher else ratio - 1
            out[workload][name] = {
                "parent_median": p_med, "parent_iqr": quartiles(parent),
                "change_median": c_med, "change_iqr": quartiles(change),
                "change_over_parent": ratio,
                "change_better_pairs": sum(c > p if higher else c < p
                                           for p, c in zip(parent, change)),
                "pairs": len(pairs), "bound": metric["bound"],
                "change_worse_by": worse_by,
                "within_bound": worse_by <= metric["bound"],
                "parent_runs": parent, "change_runs": change}
    return out


def checks(runs: list[dict], summary: dict) -> dict:
    return {
        "all_correct": all(r["result"] is not None and r["result"]["correct"]
                           for r in runs),
        "failed_ops": sum(r["result"]["failed"] for r in runs
                          if r["result"] is not None),
        "nonzero_exits": sum(r["exit"] != 0 for r in runs),
        "runs": len(runs),
        "all_within_bounds": all(m["within_bound"] for per in summary.values()
                                 for m in per.values())}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="git revision")
    parser.add_argument("--workload", required=True, action="append",
                        choices=WORKLOADS)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--seed", type=int, default=1, help="seed of pair 0")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    root = git("rev-parse", "--show-toplevel", cwd=os.getcwd())
    parent = git("rev-parse", "--verify", f"{args.parent}^{{commit}}", cwd=root)
    head = git("rev-parse", "HEAD", cwd=root)
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as f:
        metrics = json.load(f)["end_to_end"]
    seeds = {w: [args.seed + i for i in range(args.pairs)]
             for w in dict.fromkeys(args.workload)}
    runs = []
    with tempfile.TemporaryDirectory() as tmp:
        where = {"parent": os.path.join(tmp, "parent"),
                 "change": os.path.join(tmp, "change")}
        export(root, parent, where["parent"])
        export(root, working_tree(root), where["change"])
        for workload in seeds:
            for i, seed in enumerate(seeds[workload]):
                for side in ("parent", "change")[::1 if i % 2 == 0 else -1]:
                    run = bench_run(side, where[side], workload, seed, args.seconds)
                    runs.append(run)
                    got = run["result"]["metrics"] if run["result"] else {}
                    print(f"{workload} seed {seed} {side}: exit {run['exit']}",
                          *(f"{name}={m['value']:.6g}" for name, m in got.items()),
                          file=sys.stderr)
    summary = end_to_end(runs, metrics)
    verdict = checks(runs, summary)
    machine = next((r["report"]["machine"] for r in runs if r["report"]), None)
    command = COMMAND.format(workload="{workload}", seed="{seed}",
                             seconds=args.seconds)
    out = {
        "description": (
            f"Parent {parent} ({args.parent}) against the working tree on "
            f"{head}. Each run is one `{command}` from a fresh `git archive` "
            "export of each side; pairs alternate which side runs first. "
            "Medians and quartiles (inclusive method) over each side's runs. "
            "`change_worse_by` is the relative loss of the change's median "
            "against the parent's (negative is a gain)."),
        "command": command, "machine": machine, "seeds": seeds,
        "checks": verdict, "end_to_end": summary, "runs": runs}
    with open(args.out, "w", encoding="utf-8") as f:
        json.dump(out, f, indent=1)
        f.write("\n")
    for workload, per in summary.items():
        for name, m in per.items():
            print(f"{workload:9s} {name:15s} {m['parent_median']:.6g} -> "
                  f"{m['change_median']:.6g} ({m['change_better_pairs']}/"
                  f"{m['pairs']} better, worse by {m['change_worse_by']:+.3f}, "
                  f"bound {m['bound']})")
    if not verdict["all_correct"] or verdict["failed_ops"] or verdict["nonzero_exits"]:
        return 1
    return 0 if verdict["all_within_bounds"] else 3


if __name__ == "__main__":
    sys.exit(main())
