"""Model builders, seeded generators and references that only the tests use.

``build_model`` assembles a model from explicit sets, and ``random_model``
draws a random valid one; ``refutable_corpus`` collects random formulas
that the bounded search refutes.  ``enumerate_models`` materialises the
search's own candidate stream one model at a time, ``true_in_model``
reads a formula's validity off its truth table,
``structurally_equal`` compares formulas across cache generations, and
``code_three_pass`` is the reference for ``imred.formula._code``.
"""

from __future__ import annotations

import itertools
import random
from typing import Iterable, Iterator, Mapping

from imred.corpus import random_formula
from imred.formula import VAR, Formula, _check, subformulas
from imred.search import (SearchBudget, _frames, _materialise, _srel_stream,
                          find_countermodel)
from imred.semantics import (FS, KINDS, FiniteFSModel, TableContext,
                             monotone_masks, transitive_up, truth_table)


def build_model(*, kind: str = FS, n_worlds: int,
                order: Iterable[tuple[int, int]] = (),
                points: Mapping[int, Iterable[int]],
                srel: Mapping[int, Iterable[tuple[int, int]]] | None = None,
                val: Mapping[int, Mapping[int, Iterable[int]]] | None = None,
                nvars: int | None = None,
                world_names: tuple[str, ...] | None = None,
                point_names: tuple[str, ...] | None = None) -> FiniteFSModel:
    """Assemble a model from explicit sets; no validity checks are made.

    ``order`` lists declared pairs (u, v) meaning u <= v; the reflexive-
    transitive closure is taken.  ``val`` maps variable index to a
    per-world iterable of points.
    """
    if kind not in KINDS:
        raise ValueError(f"unknown model kind {kind!r}")
    up = transitive_up(n_worlds, order)
    delta = [0] * n_worlds
    for w, pts in points.items():
        for x in pts:
            delta[w] |= 1 << x
    max_point = -1
    for m in delta:
        if m:
            max_point = max(max_point, m.bit_length() - 1)
    srel_in = srel or {}
    for w, rel in srel_in.items():
        for x, y in rel:
            max_point = max(max_point, x, y)
    val_in = val or {}
    for p, per_world in val_in.items():
        for w, pts in per_world.items():
            for x in pts:
                max_point = max(max_point, x)
    n_points = max(1, max_point + 1)
    srel_masks = [0] * n_worlds
    for w, rel in srel_in.items():
        for x, y in rel:
            srel_masks[w] |= 1 << (x * n_points + y)
    if nvars is None:
        nvars = max(val_in, default=0)
    val_masks = [[0] * n_worlds for _ in range(nvars)]
    for p, per_world in val_in.items():
        if not 1 <= p <= nvars:
            raise ValueError(f"valuation variable p{p} outside 1..{nvars}")
        for w, pts in per_world.items():
            for x in pts:
                val_masks[p - 1][w] |= 1 << x
    if world_names is None:
        world_names = tuple(f"w{w}" for w in range(n_worlds))
    if point_names is None:
        point_names = tuple(f"x{x}" for x in range(n_points))
    return FiniteFSModel(
        kind=kind, n_worlds=n_worlds, n_points=n_points, up=up,
        delta=tuple(delta), srel=tuple(srel_masks), nvars=nvars,
        val=tuple(tuple(row) for row in val_masks),
        world_names=world_names, point_names=point_names)


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


def enumerate_models(budget: SearchBudget, kind: str = FS) -> Iterator[FiniteFSModel]:
    """Every model within the frame/point/variable budget, canonical order.

    Candidate and time caps are ignored here; callers wanting a bounded
    prefix can slice the stream.  Every yielded model is valid by
    construction.
    """
    if kind not in KINDS:
        raise ValueError(f"unknown model kind {kind!r}")
    for n in range(1, budget.max_worlds + 1):
        for frame in _frames(n, budget.max_points):
            for srel in _srel_stream(frame, kind):
                for val in itertools.product(
                        monotone_masks(frame.n_worlds, frame.up, frame.delta),
                        repeat=budget.var_bound):
                    yield _materialise(frame, srel, val, kind, budget.var_bound)


def true_in_model(model: FiniteFSModel, phi: Formula,
                  ctx: TableContext | None = None) -> bool:
    """True iff ``phi`` holds at every (world, point) pair of the model."""
    if ctx is None:
        ctx = TableContext.for_model(model)
    tables = truth_table(model, phi, ctx)
    return tables[phi] & ctx.space == ctx.space


def structurally_equal(a: Formula, b: Formula) -> bool:
    """Structural comparison that also works across cache generations."""
    _check(a)
    _check(b)
    done: set[tuple[Formula, Formula]] = set()
    stack = [(a, b)]
    while stack:
        x, y = stack.pop()
        if x is y or (x, y) in done:
            continue
        if x.kind != y.kind or x.var != y.var or x.length != y.length:
            return False
        done.add((x, y))
        if x.left is not None:
            stack.append((x.left, y.left))
        if x.right is not None:
            stack.append((x.right, y.right))
    return True


def code_three_pass(phi: Formula) -> tuple[tuple[Formula, ...],
                                           tuple[tuple[str, int, int], ...]]:
    """``imred.formula._code`` as it was built in three passes: the
    subterm tuple, a position dict over it, then the instructions, with
    a leaf's missing children read as position 0."""
    nodes = tuple(subformulas(phi))
    position = {node: k for k, node in enumerate(nodes)}
    return nodes, tuple((node.kind, node.var, 0) if node.kind == VAR else
                        (node.kind, position.get(node.left, 0),
                         position.get(node.right, 0)) for node in nodes)
