"""Seeded random formulas for the size audit and the tests.

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
