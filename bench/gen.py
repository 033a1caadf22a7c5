"""Seeded inputs for the benchmark, produced as text.

Every workload draws from a fixed pool of items.  Item ``i`` of a
workload is generated from its own ``random.Random`` seeded with
``"<workload>:<i>"``, so it is the same text in every run and its
expected output digest can be recorded once (``golden.json``).  The
``--seed`` of a run only chooses which pool items run and in what order
(see ``plan``), so any seed can be checked against the recorded digests.

Formulas and models are generated here, not by ``imred.corpus``, so the
inputs stay fixed when the program's own generators change.  The only
program calls made while generating are the ones that define an item:
the positive form of a ``check`` formula, and the refutation filter of
the ``probe`` corpus.
"""

from __future__ import annotations

import random

# Binding strength as in the imred grammar: <> and [] bind tightest,
# then &, then |, then right-associative ->.
_PREC = {"imp": 1, "or": 2, "and": 3, "dia": 4, "box": 4, "var": 5, "bot": 5}
_INFIX = {"imp": " -> ", "or": " | ", "and": " & "}
_WEIGHTS = (("and", 3), ("or", 3), ("imp", 3), ("dia", 2), ("box", 2))

# Translate inputs: symbol lengths log-uniform over 10^1.5..10^4.5, three
# decades centred on 100, 1k and 10k.  The lengths are a fixed grid of
# TRANSLATE_SLOTS points of equal log spacing, the same in every run; each
# slot has TRANSLATE_VARIANTS random formulas of its length, and the seed
# picks one per slot.  The slots form TRANSLATE_STRATA strata of equal log
# width, and a run's first pass goes in rounds that take one slot from
# each stratum, so a run shorter than one pass sees nearly the same size
# mix.  Inputs near 10^5
# symbols take 0.5-1 s each and would leave too few ops in a run.
TRANSLATE_DECADES = (1.5, 4.5)
TRANSLATE_STRATA = 12
TRANSLATE_SLOTS = 240
TRANSLATE_VARIANTS = 3
# Run lists: distinct pool items; the worker makes passes over the list.
CHECK_POOL = 1200
CHECK_MODELS = 4
CHECK_ROUNDS = 600
REFUTE_POOL = 6000
REFUTE_OPS = 3000
PROBE_POOL = 2000
PROBE_OPS = 240

# The four acceptance-09 formulas, each under both logics, join every
# refute run at seeded places among the random pool items.
ACCEPTANCE_09 = ("<>(p1 | p2) -> <>p1 | <>p2", "p1 -> p1", "<>p1 -> []p1",
                 "((p1 -> p2) -> p1) -> p1")


def item_rng(workload: str, index: int) -> random.Random:
    return random.Random(f"{workload}:{index}")


def random_tree(rng: random.Random, max_depth: int, n_vars: int) -> tuple:
    """A random formula as nested tuples: ("var", i), ("bot",), (op, a[, b])."""
    kinds = [k for k, _ in _WEIGHTS]
    weights = [w for _, w in _WEIGHTS]

    def go(depth: int) -> tuple:
        if depth <= 0 or rng.random() < 0.25:
            if rng.random() < 0.2:
                return ("bot",)
            return ("var", rng.randint(1, n_vars))
        kind = rng.choices(kinds, weights=weights)[0]
        if kind in ("dia", "box"):
            return (kind, go(depth - 1))
        return (kind, go(depth - 1), go(depth - 1))

    return go(max_depth)


def symbols(tree: tuple) -> int:
    """imred's length measure: 1 per connective or false, 1 + bits per variable."""
    stack, total = [tree], 0
    while stack:
        node = stack.pop()
        if node[0] == "var":
            total += 1 + node[1].bit_length()
        else:
            total += 1
            stack.extend(node[1:])
    return total


def to_text(tree: tuple) -> str:
    """Formula text with minimal parentheses under the imred grammar."""
    out: list[str] = []
    stack: list = [(tree, 0)]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            out.append(item)
            continue
        node, floor = item
        kind = node[0]
        if _PREC[kind] < floor:
            out.append("(")
            stack.append(")")
        if kind == "var":
            out.append(f"p{node[1]}")
        elif kind == "bot":
            out.append("false")
        elif kind in ("dia", "box"):
            out.append("<>" if kind == "dia" else "[]")
            stack.append((node[1], 4))
        else:
            # Right operand of -> and left operands of & and | may sit at
            # their own level; the other side needs one level tighter.
            prec = _PREC[kind]
            left_floor, right_floor = (prec + 1, prec) if kind == "imp" else (prec, prec + 1)
            stack.append((node[2], right_floor))
            stack.append(_INFIX[kind])
            stack.append((node[1], left_floor))
    return "".join(out)


def sized_tree(rng: random.Random, target: int, n_vars: int = 8) -> tuple:
    """Depth-4 chunks joined pairwise by binary connectives until the
    length reaches ``target``; depth stays logarithmic in the chunk count."""
    chunks = [random_tree(rng, 4, n_vars)]
    total = symbols(chunks[0])
    while total < target:
        chunks.append(random_tree(rng, 4, n_vars))
        total += symbols(chunks[-1]) + 1
    while len(chunks) > 1:
        joined = [(rng.choice(("and", "or", "imp")), chunks[k], chunks[k + 1])
                  for k in range(0, len(chunks) - 1, 2)]
        if len(chunks) % 2:
            joined.append(chunks[-1])
        chunks = joined
    return chunks[0]


def model_text(rng: random.Random, max_worlds: int, max_points: int,
               n_vars: int, kind: str) -> str:
    """A random valid model file; point sets, relations and valuations
    grow along the order by construction, MIPC relations are total."""
    n = rng.randint(1, max_worlds)
    up = [{w} for w in range(n)]
    lines = [f"kind {kind}"] + [f"world w{w}" for w in range(n)]
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < 0.4:
                up[u].add(v)
                lines.append(f"le w{u} w{v}")
    for w in reversed(range(n)):
        for v in list(up[w]):
            up[w] |= up[v]

    def below(w: int) -> list[int]:
        return [u for u in range(w) if w in up[u]]

    points: list[set[int]] = []
    pool = 0
    for w in range(n):
        mine = set().union(*(points[u] for u in below(w)))
        for x in range(pool):
            if len(mine) >= max_points:
                break
            if x not in mine and rng.random() < 0.3:
                mine.add(x)
        while not mine or (len(mine) < max_points and rng.random() < 0.4):
            mine.add(pool)
            pool += 1
        points.append(mine)
        lines += [f"point w{w} x{x}" for x in sorted(mine)]
    rels: list[set[tuple[int, int]]] = []
    for w in range(n):
        rel = set().union(*(rels[u] for u in below(w)))
        for x in sorted(points[w]):
            for y in sorted(points[w]):
                if kind == "mipc" or rng.random() < 0.35:
                    rel.add((x, y))
        rels.append(rel)
        lines += [f"s w{w} x{x} x{y}" for x, y in sorted(rel)]
    for p in range(1, n_vars + 1):
        vals: list[set[int]] = []
        for w in range(n):
            mine = set().union(*(vals[u] for u in below(w)))
            for x in sorted(points[w]):
                if x not in mine and rng.random() < 0.4:
                    mine.add(x)
            vals.append(mine)
            lines += [f"val w{w} p{p} x{x}" for x in sorted(mine)]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Pool items.  Each returns a JSON-ready dict with the item id under "id".


def translate_item(index: int) -> dict:
    """Variant ``index % TRANSLATE_VARIANTS`` of slot ``index // TRANSLATE_VARIANTS``."""
    rng = item_rng("translate", index)
    slot = index // TRANSLATE_VARIANTS
    lo, hi = TRANSLATE_DECADES
    exponent = lo + (hi - lo) * (slot + 0.5) / TRANSLATE_SLOTS
    return {"id": index, "text": to_text(sized_tree(rng, round(10 ** exponent)))}


def check_item(index: int, positive_text) -> list[dict]:
    """Three ops over one random formula: the formula itself, its positive
    form, and its one-variable output (built by the worker before timing).
    ``positive_text`` maps formula text to the text of its positive form."""
    rng = item_rng("check", index)
    text = to_text(random_tree(rng, 4, 3))
    out = []
    for variant, formula in (("plain", text), ("positive", positive_text(text)),
                             ("one_var", text)):
        kind = rng.choice(("fs", "mipc"))
        models = [model_text(rng, 6, 5, 4, kind) for _ in range(CHECK_MODELS)]
        out.append({"id": f"{index}.{variant}", "variant": variant,
                    "text": formula, "models": models})
    return out


def refute_item(index: int) -> dict:
    if index >= REFUTE_POOL:
        k = index - REFUTE_POOL
        return {"id": index, "text": ACCEPTANCE_09[k // 2],
                "kind": ("fs", "mipc")[k % 2]}
    rng = item_rng("refute", index)
    text = to_text(random_tree(rng, 4, 2))
    return {"id": index, "text": text, "kind": rng.choice(("fs", "mipc"))}


def probe_item(index: int, refuted) -> dict:
    """First depth-3 formula of the item's stream that ``refuted`` accepts
    (the input budget of the consistency probe refutes it)."""
    rng = item_rng("probe", index)
    while True:
        text = to_text(random_tree(rng, 3, 2))
        if refuted(text):
            return {"id": index, "text": text}


# ---------------------------------------------------------------------------
# Run plans: which pool items a seed runs, in order.


def plan(workload: str, seed: int) -> list:
    """Pool indices of one run, in the order of its first pass.

    translate: every length slot once, as one variant the seed picks, in
    rounds of one slot per size stratum in shuffled order.  check: rounds
    of the three variants of one pool formula.  refute and probe: a
    shuffled sample of the pool; refute then inserts the eight
    acceptance-09 items at seeded places.
    """
    rng = random.Random(f"plan:{workload}:{seed}")
    if workload == "translate":
        per_stratum = TRANSLATE_SLOTS // TRANSLATE_STRATA
        picks = [rng.sample(range(s * per_stratum, (s + 1) * per_stratum), per_stratum)
                 for s in range(TRANSLATE_STRATA)]
        order = []
        for r in range(per_stratum):
            round_ = [picks[s][r] * TRANSLATE_VARIANTS + rng.randrange(TRANSLATE_VARIANTS)
                      for s in range(TRANSLATE_STRATA)]
            rng.shuffle(round_)
            order += round_
        return order
    if workload == "check":
        order = []
        for index in rng.sample(range(CHECK_POOL), CHECK_ROUNDS):
            variants = ["plain", "positive", "one_var"]
            rng.shuffle(variants)
            order += [f"{index}.{v}" for v in variants]
        return order
    if workload == "refute":
        order = rng.sample(range(REFUTE_POOL), REFUTE_OPS)
        for k in range(len(ACCEPTANCE_09) * 2):
            order.insert(rng.randrange(len(order) + 1), REFUTE_POOL + k)
        return order
    if workload == "probe":
        return rng.sample(range(PROBE_POOL), PROBE_OPS)
    raise ValueError(f"unknown workload {workload!r}")
