"""A fixed reference workload that tracks how fast the host runs Python.

The host this benchmark runs on is shared: for tens of seconds at a time
it runs the same interpreter code up to twice as slowly, which no run of
30 seconds can average away.  ``reference_ns`` times a fixed workload
written here, with nothing from ``imred``, that does the kinds of work
the program does: tokenizing, hash-consing tree nodes in a dict, bitmask
truth tables over the nodes, recursion, and printing back to text.  The
worker runs it between blocks of ops; an op's time divided by the
reference time of its block, times ``NOMINAL_NS``, is its time on a host
that runs the reference in ``NOMINAL_NS``.  A change to the program
moves the op times and not the reference, so it shows in full.
"""

from __future__ import annotations

import gc
import random
import re
import time

# About the reference's time on a 2-vCPU Xeon VM when its host is quiet;
# any fixed value would do, this one keeps normalized times near the
# wall-clock times of a quiet host.
NOMINAL_NS = 1_500_000
REPEATS = 3

_TOKEN = re.compile(r"\s*(<>|\[\]|->|[()&|]|p\d+|false)")


def _text(rng: random.Random, depth: int) -> str:
    if depth == 0 or rng.random() < 0.05:
        return "false" if rng.random() < 0.1 else f"p{rng.randint(1, 3)}"
    op = rng.choice(("&", "|", "->", "<>", "[]"))
    if op in ("<>", "[]"):
        return op + _text(rng, depth - 1)
    return f"({_text(rng, depth - 1)} {op} {_text(rng, depth - 1)})"


_INPUTS = [t for t in (_text(random.Random(k), 10) for k in range(40))
           if len(t) > 1000][:4]
_VALS = {f"p{v}": random.Random(v).getrandbits(64) for v in (1, 2, 3)}
_FULL = (1 << 64) - 1


def _work() -> int:
    table: dict = {}
    total = 0
    for text in _INPUTS:
        tokens = _TOKEN.findall(text)
        pos = 0

        def node(key):
            return table.setdefault(key, key)

        def parse():
            nonlocal pos
            tok = tokens[pos]
            pos += 1
            if tok == "(":
                left = parse()
                op = tokens[pos]
                pos += 1
                right = parse()
                pos += 1  # ")"
                return node((op, left, right))
            if tok in ("<>", "[]"):
                return node((tok, parse()))
            return node((tok,))

        root = parse()
        masks: dict = {}

        def mask(n) -> int:
            hit = masks.get(id(n))
            if hit is not None:
                return hit
            op = n[0]
            if op == "false":
                m = 0
            elif len(n) == 1:
                m = _VALS[op]
            elif op == "<>":
                m = ((mask(n[1]) << 1) | (mask(n[1]) >> 63)) & _FULL
            elif op == "[]":
                m = mask(n[1]) & (mask(n[1]) >> 1)
            elif op == "&":
                m = mask(n[1]) & mask(n[2])
            elif op == "|":
                m = mask(n[1]) | mask(n[2])
            else:
                m = (~mask(n[1]) | mask(n[2])) & _FULL
            masks[id(n)] = m
            return m

        def show(n) -> str:
            if len(n) == 1:
                return n[0]
            if len(n) == 2:
                return n[0] + show(n[1])
            return f"({show(n[1])} {n[0]} {show(n[2])})"

        total += bin(mask(root)).count("1") + len(show(root))
    return total


_EXPECTED = _work()


def reference_ns() -> int:
    """Least time of ``REPEATS`` runs of the reference workload, with the
    garbage collector paused so a collection of the program's heap is not
    charged to it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        best = None
        for _ in range(REPEATS):
            start = time.perf_counter_ns()
            if _work() != _EXPECTED:
                raise RuntimeError("reference workload gave a different result")
            ns = time.perf_counter_ns() - start
            best = ns if best is None else min(best, ns)
        return best
    finally:
        if enabled:
            gc.enable()
