"""Record the expected output digest of every pool item into golden.json.

    python3 bench/record.py [workload ...]

Run from the root of a checkout whose outputs are the reference.  Each
item runs once, untimed, through the same op code as the benchmark; an
item whose independent re-check fails is reported and the recording
stops with exit code 1.  Recording all four pools takes a few minutes.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import gen  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402

GOLDEN = os.path.join(HERE, "golden.json")


def pool(workload: str) -> list[dict]:
    if workload == "translate":
        ids = range(gen.TRANSLATE_SLOTS * gen.TRANSLATE_VARIANTS)
    elif workload == "check":
        ids = [f"{i}.{v}" for i in range(gen.CHECK_POOL)
               for v in ("plain", "positive", "one_var")]
    elif workload == "refute":
        ids = range(gen.REFUTE_POOL + 2 * len(gen.ACCEPTANCE_09))
    else:
        ids = range(gen.PROBE_POOL)
    return run.items_for(workload, list(ids))


def record(workload: str) -> dict[str, str]:
    imred = worker.import_imred()
    items = pool(workload)
    ops = worker.Ops(imred, worker.Calls(traced=False))
    ops.prepare(workload, items)
    op, out_of, verify = (getattr(ops, workload), getattr(ops, workload + "_out"),
                          getattr(ops, workload + "_verify"))
    digests = {}
    for item in items:
        out = op(item)
        material, _ = out_of(item, out, False)
        problem = verify(item, out, material)
        if problem:
            raise SystemExit(f"{workload} item {item['id']}: {problem}")
        digests[str(item["id"])] = worker.digest(material)
        del out
        if workload == "translate":
            imred.clear_caches()  # keeps memory flat; outputs do not depend on it
    return digests


def main() -> int:
    workloads = sys.argv[1:] or list(run.WORKLOADS)
    golden = {}
    if os.path.exists(GOLDEN):
        with open(GOLDEN, encoding="utf-8") as handle:
            golden = json.load(handle)
    for workload in workloads:
        golden[workload] = record(workload)
        print(f"{workload}: {len(golden[workload])} digests", file=sys.stderr)
    with open(GOLDEN, "w", encoding="utf-8") as handle:
        json.dump(golden, handle, indent=0, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
