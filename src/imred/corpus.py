"""Seeded random formulas and models for audits, benchmarks and tests.

Everything here draws from a caller-supplied ``random.Random``, so runs
are reproducible from a seed.  Formula shape is controlled by a maximum
depth and a variable count; the share of false leaves and the mix of
connectives are fixed.  Sized generation joins random chunks of depth 4
until a target symbol length is reached.
"""

from __future__ import annotations

import random

from .formula import (And, BOTTOM, Box, Diamond, Formula, Implies, Or, Var,
                      length)
from .search import SearchBudget, find_countermodel
from .semantics import FS, FiniteFSModel, build_model, transitive_up

# The connectives of random_formula and their relative weights.
_KINDS = ("and", "or", "imp", "dia", "box")
_WEIGHTS = (3, 3, 3, 2, 2)


def random_formula(rng: random.Random, *, max_depth: int = 4,
                   n_vars: int = 2) -> Formula:
    """One random formula of depth at most ``max_depth``."""

    def leaf() -> Formula:
        if rng.random() < 0.2:
            return BOTTOM
        return Var(rng.randint(1, n_vars))

    def go(depth: int) -> Formula:
        if depth <= 0 or rng.random() < 0.25:
            return leaf()
        kind = rng.choices(_KINDS, weights=_WEIGHTS)[0]
        if kind == "and":
            return And(go(depth - 1), go(depth - 1))
        if kind == "or":
            return Or(go(depth - 1), go(depth - 1))
        if kind == "imp":
            return Implies(go(depth - 1), go(depth - 1))
        if kind == "dia":
            return Diamond(go(depth - 1))
        return Box(go(depth - 1))

    return go(max_depth)


def formula_with_length(rng: random.Random, target: int, *,
                        n_vars: int = 8) -> Formula:
    """A random formula whose length is at least ``target``.

    Joins independently drawn chunks with binary connectives, so the
    result overshoots by at most one chunk; depth stays logarithmic in
    the chunk count because the joins are balanced pairwise.
    """
    if target < 1:
        raise ValueError("target length must be >= 1")
    chunks = [random_formula(rng, n_vars=n_vars)]
    total = length(chunks[0])
    while total < target:
        nxt = random_formula(rng, n_vars=n_vars)
        chunks.append(nxt)
        total += length(nxt) + 1
    while len(chunks) > 1:
        joined = []
        for k in range(0, len(chunks) - 1, 2):
            join = rng.choice((And, Or, Implies))
            joined.append(join(chunks[k], chunks[k + 1]))
        if len(chunks) % 2:
            joined.append(chunks[-1])
        chunks = joined
    return chunks[0]


def random_model(rng: random.Random, *, max_worlds: int = 3,
                 max_points: int = 3, n_vars: int = 2,
                 kind: str = FS) -> FiniteFSModel:
    """One random valid model; monotonicity holds by construction."""
    n = rng.randint(1, max_worlds)
    order = [(u, v) for u in range(n) for v in range(u + 1, n)
             if rng.random() < 0.4]
    up = transitive_up(n, order)
    points: dict[int, set[int]] = {}
    pool = 0
    for w in range(n):
        mine = set()
        for u in range(w):
            if (up[u] >> w) & 1:
                mine |= points[u]
        for x in range(pool):
            if len(mine) >= max_points:
                break
            if x not in mine and rng.random() < 0.3:
                mine.add(x)
        while (not mine) or (len(mine) < max_points and rng.random() < 0.4):
            mine.add(pool)
            pool += 1
        points[w] = mine
    srel: dict[int, set[tuple[int, int]]] = {}
    for w in range(n):
        rel = set()
        for u in range(w):
            if (up[u] >> w) & 1:
                rel |= srel[u]
        if kind == "mipc":
            rel = {(x, y) for x in points[w] for y in points[w]}
        else:
            for x in points[w]:
                for y in points[w]:
                    if rng.random() < 0.35:
                        rel.add((x, y))
        srel[w] = rel
    val: dict[int, dict[int, set[int]]] = {}
    for p in range(1, n_vars + 1):
        per_world: dict[int, set[int]] = {}
        for w in range(n):
            mine = set()
            for u in range(w):
                if (up[u] >> w) & 1:
                    mine |= per_world[u]
            for x in points[w]:
                if x not in mine and rng.random() < 0.4:
                    mine.add(x)
            per_world[w] = mine
        val[p] = per_world
    return build_model(kind=kind, n_worlds=n, order=order, points=points,
                       srel=srel, val=val, nvars=n_vars)


def refutable_corpus(seed: int, count: int, budget: SearchBudget,
                     kind: str = FS) -> list[Formula]:
    """``count`` random formulas each refuted within ``budget``.

    Draws up to ``200 * count`` formulas of depth at most 3 over the
    budget's variable bound and keeps the ones the bounded search
    refutes; deterministic for a fixed seed and budget.
    """
    rng = random.Random(seed)
    attempts_left = count * 200
    out: list[Formula] = []
    while len(out) < count:
        if attempts_left <= 0:
            raise RuntimeError(
                f"could not collect {count} refutable formulas; "
                f"only {len(out)} found")
        attempts_left -= 1
        phi = random_formula(rng, max_depth=3, n_vars=budget.var_bound)
        if find_countermodel(phi, budget, kind).refuted:
            out.append(phi)
    return out
