"""Finite birelational Kripke models and the FS/MIPC truth relation.

A model is a finite partial order of worlds; world w carries a point set
delta[w] and a binary relation srel[w] on it, and both grow along the
order, as does the valuation.  In MIPC models srel[w] is total on
delta[w].  Point sets are integer bitmasks (bit x set iff point x lives
at w) and relations pack pair (x, y) at bit x * P + y, where P is the
size of the point pool; this keeps the quantifier loops of the truth
relation cheap.

Truth at (w, x) follows the intuitionistic clauses: variables read the
valuation, false never holds, & and | are pointwise, a -> b quantifies
over all order-successors of w at the same point, <> looks one relation
step sideways inside w, and [] quantifies over order-successors and
their relation steps.  Truth of a compound at a pair depends only on
truth of its parts at pairs, so three evaluators of one model are
provided: a memoized recursive one (``eval_formula``), a plain
recursive one kept as the independent reference (``eval_formula_plain``),
and a bottom-up bitmask one (``truth_table``) that scales to formulas
with huge expanded trees but small DAGs.  The countermodel search has
its own evaluator, which checks many valuations at once (see
``imred.search``).
"""

from __future__ import annotations

import dataclasses
import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping

from .formula import (AND, BOT, BOX, DIA, IMP, OR, VAR, Formula, subformulas,
                      varset)

FS = "fs"
MIPC = "mipc"
KINDS = (FS, MIPC)

_MISS = object()


def bits_of(mask: int) -> Iterator[int]:
    """Indices of the set bits of ``mask``, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def supersets_asc(lower: int, space: int) -> Iterator[int]:
    """All masks m with lower <= m <= space (as sets), ascending as ints."""
    free = space & ~lower
    sub = 0
    while True:
        yield lower | sub
        if sub == free:
            return
        sub = (sub - free) & free


@dataclass(frozen=True)
class FiniteFSModel:
    """A finite FS- or MIPC-model over interned world and point ids.

    ``up[w]`` is the bitmask of worlds v with w <= v (including w itself);
    world ids are required to respect the order (w <= v implies w's id is
    not larger), so ascending id order is a topological order.
    ``val[p - 1][w]`` is the bitmask of points where variable p holds
    at w; variables above ``nvars`` are false everywhere (the empty
    valuation).  Instances are immutable; build them with
    :func:`build_model`, the syntax-module reader, or the search
    enumerator.
    """

    kind: str
    n_worlds: int
    n_points: int
    up: tuple[int, ...]
    delta: tuple[int, ...]
    srel: tuple[int, ...]
    nvars: int
    val: tuple[tuple[int, ...], ...]
    world_names: tuple[str, ...]
    point_names: tuple[str, ...]

    def worlds(self) -> range:
        return range(self.n_worlds)

    def points_of(self, w: int) -> Iterator[int]:
        return bits_of(self.delta[w])

    def pairs(self) -> Iterator[tuple[int, int]]:
        for w in range(self.n_worlds):
            for x in bits_of(self.delta[w]):
                yield w, x

    def succ(self, w: int, x: int) -> int:
        """Bitmask of points y with (x, y) in srel[w]."""
        return (self.srel[w] >> (x * self.n_points)) & ((1 << self.n_points) - 1)

    def leq(self, w: int, v: int) -> bool:
        return bool((self.up[w] >> v) & 1)

    def has_point(self, w: int, x: int) -> bool:
        return bool((self.delta[w] >> x) & 1)

    def value_mask(self, p: int, w: int) -> int:
        return self.val[p - 1][w] if 1 <= p <= self.nvars else 0

    def encoding(self) -> tuple:
        """Hashable canonical encoding (used for ordering and caching)."""
        return (self.kind, self.n_worlds, self.up, self.delta, self.srel,
                self.val)


def transitive_up(n_worlds: int, order: Iterable[tuple[int, int]]) -> tuple[int, ...]:
    """Reflexive-transitive up-set masks from declared order pairs."""
    up = [1 << w for w in range(n_worlds)]
    for u, v in order:
        up[u] |= 1 << v
    changed = True
    while changed:
        changed = False
        for w in range(n_worlds):
            acc = up[w]
            for v in bits_of(acc):
                acc |= up[v]
            if acc != up[w]:
                up[w] = acc
                changed = True
    return tuple(up)


def pair_space(delta_mask: int, n_points: int) -> int:
    """Bitmask of all pairs (x, y) with x and y in ``delta_mask``."""
    out = 0
    for x in bits_of(delta_mask):
        out |= delta_mask << (x * n_points)
    return out


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


@dataclass(frozen=True)
class Violation:
    """One failed model condition with a human-readable witness."""

    condition: str
    witness: str

    def __str__(self) -> str:
        return f"{self.condition}: {self.witness}"


def validate_model(model: FiniteFSModel) -> list[Violation]:
    """Check every frame and valuation condition; empty list means valid.

    Violations are data, not exceptions; each names the condition and a
    witnessing world/point.  Conditions: order reflexivity, transitivity
    and antisymmetry; non-empty, monotone point sets; relations inside
    and monotone over the point sets; valuations inside and monotone over
    the point sets; and totality of the relations for MIPC models.
    """
    out: list[Violation] = []
    m = model
    wn = m.world_names
    pn = m.point_names

    def pair_names(mask: int) -> str:
        pairs = [(x, y) for x in range(m.n_points) for y in range(m.n_points)
                 if (mask >> (x * m.n_points + y)) & 1]
        return ", ".join(f"({pn[x]},{pn[y]})" for x, y in pairs) or "nothing"

    for w in m.worlds():
        if not (m.up[w] >> w) & 1:
            out.append(Violation("order reflexivity", f"world {wn[w]}"))
    for w in m.worlds():
        for v in bits_of(m.up[w]):
            if m.up[v] & ~m.up[w]:
                out.append(Violation(
                    "order transitivity",
                    f"{wn[w]} <= {wn[v]} but successors of {wn[v]} escape"))
    for w in m.worlds():
        for v in bits_of(m.up[w]):
            if v != w and (m.up[v] >> w) & 1:
                if w < v:
                    out.append(Violation(
                        "order antisymmetry", f"worlds {wn[w]} and {wn[v]}"))
    for w in m.worlds():
        if m.delta[w] == 0:
            out.append(Violation("point-set non-empty", f"world {wn[w]}"))
    for w in m.worlds():
        for v in bits_of(m.up[w]):
            missing = m.delta[w] & ~m.delta[v]
            if missing:
                pts = ", ".join(pn[x] for x in bits_of(missing))
                out.append(Violation(
                    "point-set monotonicity",
                    f"{wn[w]} <= {wn[v]} but {pts} missing at {wn[v]}"))
    for w in m.worlds():
        stray = m.srel[w] & ~pair_space(m.delta[w], m.n_points)
        if stray:
            out.append(Violation(
                "relation domain",
                f"world {wn[w]} relates {pair_names(stray)} outside its points"))
    for w in m.worlds():
        for v in bits_of(m.up[w]):
            lost = m.srel[w] & ~m.srel[v]
            if lost:
                out.append(Violation(
                    "relation monotonicity",
                    f"{wn[w]} <= {wn[v]} but {pair_names(lost)} missing at {wn[v]}"))
    for p in range(1, m.nvars + 1):
        for w in m.worlds():
            stray = m.val[p - 1][w] & ~m.delta[w]
            if stray:
                pts = ", ".join(pn[x] for x in bits_of(stray))
                out.append(Violation(
                    "valuation domain",
                    f"V({wn[w]}, p{p}) contains {pts} outside the point set"))
    for p in range(1, m.nvars + 1):
        for w in m.worlds():
            for v in bits_of(m.up[w]):
                lost = m.val[p - 1][w] & ~m.val[p - 1][v]
                if lost:
                    pts = ", ".join(pn[x] for x in bits_of(lost))
                    out.append(Violation(
                        "valuation monotonicity",
                        f"{wn[w]} <= {wn[v]} but {pts} leaves V(., p{p})"))
    if m.kind == MIPC:
        for w in m.worlds():
            want = pair_space(m.delta[w], m.n_points)
            if m.srel[w] != want:
                out.append(Violation(
                    "MIPC totality",
                    f"world {wn[w]} misses {pair_names(want & ~m.srel[w])}"))
    return out


def _require_point(model: FiniteFSModel, w: int, x: int) -> None:
    if not (0 <= w < model.n_worlds):
        raise ValueError(f"world index {w} out of range")
    if not model.has_point(w, x):
        raise ValueError(
            f"point {x} is not in the point set of world index {w}")


def eval_formula(model: FiniteFSModel, w: int, x: int, phi: Formula,
                 memo: dict | None = None) -> bool:
    """Truth of ``phi`` at world ``w``, point ``x``; memoized per subterm.

    The memo is keyed by (subterm, world, point), so evaluation cost is
    bounded by DAG size times pair count even for heavily shared terms.
    A memo dict may be passed in to share work across queries on the
    same model.
    """
    _require_point(model, w, x)
    if memo is None:
        memo = {}
    return _eval_memo(model, w, x, phi, memo)


def _eval_memo(m: FiniteFSModel, w: int, x: int, phi: Formula, memo: dict) -> bool:
    key = (id(phi), w, x)
    hit = memo.get(key, _MISS)
    if hit is not _MISS:
        return hit
    kind = phi.kind
    if kind == VAR:
        res = bool((m.value_mask(phi.var, w) >> x) & 1)
    elif kind == BOT:
        res = False
    elif kind == AND:
        res = _eval_memo(m, w, x, phi.left, memo) and _eval_memo(m, w, x, phi.right, memo)
    elif kind == OR:
        res = _eval_memo(m, w, x, phi.left, memo) or _eval_memo(m, w, x, phi.right, memo)
    elif kind == IMP:
        res = True
        for v in bits_of(m.up[w]):
            if _eval_memo(m, v, x, phi.left, memo) and \
                    not _eval_memo(m, v, x, phi.right, memo):
                res = False
                break
    elif kind == DIA:
        res = False
        for y in bits_of(m.succ(w, x)):
            if _eval_memo(m, w, y, phi.left, memo):
                res = True
                break
    else:
        res = True
        for v in bits_of(m.up[w]):
            for y in bits_of(m.succ(v, x)):
                if not _eval_memo(m, v, y, phi.left, memo):
                    res = False
                    break
            if not res:
                break
    memo[key] = res
    return res


def eval_formula_plain(model: FiniteFSModel, w: int, x: int, phi: Formula) -> bool:
    """Reference evaluator without memoization.

    Cost follows the expanded tree (and multiplies under nested
    implications), and recursion depth follows the nesting depth, so
    this is only for small formulas; it exists to cross-check the other
    evaluators, including the search's, on certificates.
    """
    _require_point(model, w, x)
    return _eval_plain(model, w, x, phi)


def _eval_plain(m: FiniteFSModel, w: int, x: int, phi: Formula) -> bool:
    kind = phi.kind
    if kind == VAR:
        return bool((m.value_mask(phi.var, w) >> x) & 1)
    if kind == BOT:
        return False
    if kind == AND:
        return _eval_plain(m, w, x, phi.left) and _eval_plain(m, w, x, phi.right)
    if kind == OR:
        return _eval_plain(m, w, x, phi.left) or _eval_plain(m, w, x, phi.right)
    if kind == IMP:
        return all(not _eval_plain(m, v, x, phi.left) or _eval_plain(m, v, x, phi.right)
                   for v in bits_of(m.up[w]))
    if kind == DIA:
        return any(_eval_plain(m, w, y, phi.left) for y in bits_of(m.succ(w, x)))
    return all(_eval_plain(m, v, y, phi.left)
               for v in bits_of(m.up[w]) for y in bits_of(m.succ(v, x)))


class TableContext:
    """Frame-derived quantifier masks shared across valuations.

    ``srow[w][x]`` is the relation row of x at w; ``req[w][x]`` collects
    the (v, x) pair bits for all order-successors v of w, which is what
    the implication clause quantifies over; ``space`` is the bitmask of
    all legal (world, point) pairs, with pair (w, x) at bit w * P + x.
    """

    __slots__ = ("n_worlds", "n_points", "pmask", "space", "pairs", "ups",
                 "srow", "req")

    def __init__(self, n_worlds: int, n_points: int, up: tuple[int, ...],
                 delta: tuple[int, ...], srel: tuple[int, ...]):
        P = n_points
        pmask = (1 << P) - 1
        self.n_worlds = n_worlds
        self.n_points = P
        self.pmask = pmask
        self.ups = [tuple(bits_of(up[w])) for w in range(n_worlds)]
        self.srow = [[(srel[w] >> (x * P)) & pmask for x in range(P)]
                     for w in range(n_worlds)]
        req = []
        for w in range(n_worlds):
            row = []
            for x in range(P):
                need = 0
                for v in self.ups[w]:
                    need |= 1 << (v * P + x)
                row.append(need)
            req.append(row)
        self.req = req
        space = 0
        pairs = []
        for w in range(n_worlds):
            space |= delta[w] << (w * P)
            for x in bits_of(delta[w]):
                pairs.append((w, x))
        self.space = space
        self.pairs = pairs

    @classmethod
    def for_model(cls, model: FiniteFSModel) -> "TableContext":
        return cls(model.n_worlds, model.n_points, model.up, model.delta,
                   model.srel)


def truth_table(model: FiniteFSModel, phi: Formula,
                ctx: TableContext | None = None) -> dict[Formula, int]:
    """Bottom-up truth masks for every distinct subterm of ``phi``.

    The mask of a subterm has bit w * P + x set iff the subterm holds at
    (w, x); only bits inside ``ctx.space`` are meaningful.  One pass over
    the DAG in children-first order, so cost is DAG size times pair
    count regardless of expanded tree size.
    """
    if ctx is None:
        ctx = TableContext.for_model(model)
    tables: dict[Formula, int] = {}
    for node in subformulas(phi):
        tables[node] = _node_mask(model, node, ctx, tables)
    return tables


def _node_mask(model: FiniteFSModel, node: Formula, ctx: TableContext,
               tables: Mapping[Formula, int]) -> int:
    P = ctx.n_points
    kind = node.kind
    if kind == VAR:
        mask = 0
        p = node.var
        if p <= model.nvars:
            row = model.val[p - 1]
            for w in range(ctx.n_worlds):
                mask |= row[w] << (w * P)
        return mask
    if kind == BOT:
        return 0
    if kind == AND:
        return tables[node.left] & tables[node.right]
    if kind == OR:
        return tables[node.left] | tables[node.right]
    if kind == IMP:
        holds = ~tables[node.left] | tables[node.right]
        mask = 0
        for w, x in ctx.pairs:
            need = ctx.req[w][x]
            if holds & need == need:
                mask |= 1 << (w * P + x)
        return mask
    child = tables[node.left]
    mask = 0
    if kind == DIA:
        for w, x in ctx.pairs:
            if (child >> (w * P)) & ctx.srow[w][x]:
                mask |= 1 << (w * P + x)
        return mask
    for w, x in ctx.pairs:  # box
        ok = True
        for v in ctx.ups[w]:
            if ctx.srow[v][x] & ~(child >> (v * P)):
                ok = False
                break
        if ok:
            mask |= 1 << (w * P + x)
    return mask


def true_in_model(model: FiniteFSModel, phi: Formula,
                  ctx: TableContext | None = None) -> bool:
    """True iff ``phi`` holds at every (world, point) pair of the model."""
    if ctx is None:
        ctx = TableContext.for_model(model)
    tables = truth_table(model, phi, ctx)
    return tables[phi] & ctx.space == ctx.space


def monotone_assignments(n_worlds: int, up: tuple[int, ...],
                         delta: tuple[int, ...]) -> list[tuple[int, ...]]:
    """All monotone valuations of one variable, ascending.

    Each is a per-world bitmask of points, with V(w) inside delta[w] and
    contained in V(v) for every order-successor v; ascending means
    lexicographic with world 0 most significant.
    """
    out: list[tuple[int, ...]] = []
    masks = [0] * n_worlds

    def go(w: int) -> None:
        if w == n_worlds:
            out.append(tuple(masks))
            return
        lower = 0
        for u in range(w):
            if (up[u] >> w) & 1:
                lower |= masks[u]
        for m in supersets_asc(lower, delta[w]):
            masks[w] = m
            go(w + 1)
        masks[w] = 0

    go(0)
    return out


def iter_monotone_valuations(n_worlds: int, up: tuple[int, ...],
                             delta: tuple[int, ...],
                             var_bound: int) -> Iterator[tuple[tuple[int, ...], ...]]:
    """All monotone valuations of ``var_bound`` variables, ascending.

    Yields one tuple per valuation: per variable, one assignment of
    :func:`monotone_assignments`.  Order is lexicographic, variable-major.
    """
    return itertools.product(monotone_assignments(n_worlds, up, delta),
                             repeat=var_bound)


class ValuationBudgetError(Exception):
    """Raised when a frame admits more valuations than the caller allows."""


def valid_on_frame(model: FiniteFSModel, phi: Formula, var_bound: int,
                   max_valuations: int = 200_000) -> bool:
    """Brute-force validity of ``phi`` on the frame part of ``model``.

    Enumerates every monotone valuation of ``var_bound`` variables over
    the frame (the model's own valuation is ignored) and checks truth in
    each induced model.  Exponential; refuses frames whose valuation
    count exceeds ``max_valuations``.
    """
    top = max(varset(phi), default=0)
    if top > var_bound:
        raise ValueError(
            f"formula uses p{top} but the variable bound is {var_bound}")
    assignments = monotone_assignments(model.n_worlds, model.up, model.delta)
    if len(assignments) ** var_bound > max_valuations:
        raise ValuationBudgetError(
            f"frame admits more than {max_valuations} valuations of "
            f"{var_bound} variables")
    ctx = TableContext.for_model(model)
    for val in itertools.product(assignments, repeat=var_bound):
        candidate = dataclasses.replace(model, nvars=var_bound, val=val)
        if not true_in_model(candidate, phi, ctx):
            return False
    return True
