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
truth of its parts at pairs, so one bitmask evaluator serves every
caller: it compiles the formula DAG children-first and computes one
mask per subterm, with & and | as one integer operation and ->, <> and
[] as shifted copies of operand masks, one shift per offset between a
pair and the pairs it quantifies over.  [] reuses the -> and <> moves:
[]a fails at (w, x) exactly when <> of a's complement holds at (v, x)
for some v >= w.  ``truth_table`` runs it with one lane per pair (bit
w * P + x); the countermodel search runs it on up to 256 (relation,
valuation) candidates of a frame at once (see ``imred.search``);
``eval_formula`` reads one bit of a ``truth_table`` mask.
``eval_formula_plain`` is the independent reference: it follows the
clauses pointwise and shares no code with the masks.
"""

from __future__ import annotations

import collections
import functools
from dataclasses import dataclass
from typing import Generator, Iterable, Iterator, Mapping, Sequence

from .formula import (AND, BOT, BOX, DIA, IMP, OR, VAR, Formula, _code,
                      register_cache_clearer, varset)

FS = "fs"
MIPC = "mipc"
KINDS = (FS, MIPC)


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
    world ids may run in any order relative to it (a model file's worlds
    are numbered in declaration order, whatever its ``le`` lines say).
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
    """Reflexive-transitive up-set masks from declared order pairs.

    One Warshall pass: for each world k in turn, every up-set holding k
    takes in the up-set of k.
    """
    up = [1 << w for w in range(n_worlds)]
    for u, v in order:
        up[u] |= 1 << v
    for k, row in enumerate(up):
        bit = 1 << k
        for w, mask in enumerate(up):
            if mask & bit:
                up[w] = mask | row
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
    witnessing world/point.  Conditions, in the order they are reported:
    order reflexivity, transitivity and antisymmetry; non-empty, monotone
    point sets; relations inside and monotone over the point sets;
    valuations inside and monotone over the point sets; and totality of
    the relations for MIPC models.  Each world's up-set and pair space
    are computed once, and witness text is built only for a failed
    condition, so a valid model costs a few integer operations per
    (world, successor) pair and condition.
    """
    out: list[Violation] = []
    n_points, up, delta, srel = model.n_points, model.up, model.delta, model.srel
    wn, pn = model.world_names, model.point_names
    worlds = range(model.n_worlds)
    ups = [list(bits_of(up[w])) for w in worlds]
    spaces = [pair_space(delta[w], n_points) for w in worlds]

    def points(mask: int) -> str:
        return ", ".join(pn[x] for x in bits_of(mask))

    def pair_names(mask: int) -> str:
        pairs = [(x, y) for x in range(n_points) for y in range(n_points)
                 if (mask >> (x * n_points + y)) & 1]
        return ", ".join(f"({pn[x]},{pn[y]})" for x, y in pairs) or "nothing"

    for w in worlds:
        if not (up[w] >> w) & 1:
            out.append(Violation("order reflexivity", f"world {wn[w]}"))
    for w in worlds:
        for v in ups[w]:
            if up[v] & ~up[w]:
                out.append(Violation(
                    "order transitivity",
                    f"{wn[w]} <= {wn[v]} but successors of {wn[v]} escape"))
    for w in worlds:
        for v in ups[w]:
            if v > w and (up[v] >> w) & 1:
                out.append(Violation(
                    "order antisymmetry", f"worlds {wn[w]} and {wn[v]}"))
    for w in worlds:
        if delta[w] == 0:
            out.append(Violation("point-set non-empty", f"world {wn[w]}"))
    for w in worlds:
        for v in ups[w]:
            if missing := delta[w] & ~delta[v]:
                out.append(Violation(
                    "point-set monotonicity",
                    f"{wn[w]} <= {wn[v]} but {points(missing)} missing at {wn[v]}"))
    for w in worlds:
        if stray := srel[w] & ~spaces[w]:
            out.append(Violation(
                "relation domain",
                f"world {wn[w]} relates {pair_names(stray)} outside its points"))
    for w in worlds:
        for v in ups[w]:
            if lost := srel[w] & ~srel[v]:
                out.append(Violation(
                    "relation monotonicity",
                    f"{wn[w]} <= {wn[v]} but {pair_names(lost)} missing at {wn[v]}"))
    for p, row in enumerate(model.val[:model.nvars], 1):
        for w in worlds:
            if stray := row[w] & ~delta[w]:
                out.append(Violation(
                    "valuation domain",
                    f"V({wn[w]}, p{p}) contains {points(stray)} outside the point set"))
    for p, row in enumerate(model.val[:model.nvars], 1):
        for w in worlds:
            for v in ups[w]:
                if lost := row[w] & ~row[v]:
                    out.append(Violation(
                        "valuation monotonicity",
                        f"{wn[w]} <= {wn[v]} but {points(lost)} leaves V(., p{p})"))
    if model.kind == MIPC:
        for w in worlds:
            if srel[w] != spaces[w]:
                out.append(Violation(
                    "MIPC totality",
                    f"world {wn[w]} misses {pair_names(spaces[w] & ~srel[w])}"))
    return out


def _require_point(model: FiniteFSModel, w: int, x: int) -> None:
    if not (0 <= w < model.n_worlds):
        raise ValueError(f"world index {w} out of range")
    if not model.has_point(w, x):
        raise ValueError(
            f"point {x} is not in the point set of world index {w}")


def eval_formula(model: FiniteFSModel, w: int, x: int, phi: Formula) -> bool:
    """Truth of ``phi`` at world ``w``, point ``x``, read off the root
    mask of :func:`truth_table`."""
    _require_point(model, w, x)
    mask = truth_table(model, phi)[phi]
    return bool((mask >> (w * model.n_points + x)) & 1)


def eval_formula_plain(model: FiniteFSModel, w: int, x: int, phi: Formula) -> bool:
    """Reference evaluator: the truth clauses read pointwise.

    Independent of the bitmask evaluator, it follows the clauses over
    ``up``, ``succ`` and the valuation one (subterm, world, point) goal
    at a time, stops a quantifier at its first witness, and memoizes
    every goal, so cost is at most DAG size times pair count times the
    quantifier fan-out.  A goal waits for its subgoals on an explicit
    stack, so nesting depth is not bounded by Python recursion.
    """
    _require_point(model, w, x)
    memo: dict[tuple[Formula, int, int], bool] = {}
    goal = (phi, w, x)
    stack = [(goal, _clause(model, *goal))]
    value = None
    while stack:
        goal, clause = stack[-1]
        try:
            sub = clause.send(value)
        except StopIteration as done:
            value = memo[goal] = done.value
            stack.pop()
            continue
        value = memo.get(sub)
        if value is None:
            stack.append((sub, _clause(model, *sub)))
    return value


def _clause(m: FiniteFSModel, phi: Formula, w: int,
            x: int) -> Generator[tuple[Formula, int, int], bool, bool]:
    """Truth of ``phi`` at (w, x) by its clause; yields each (subterm,
    world, point) goal it reads and is sent that goal's truth."""
    kind = phi.kind
    if kind == VAR:
        return bool((m.value_mask(phi.var, w) >> x) & 1)
    if kind == BOT:
        return False
    if kind == AND:
        return (yield phi.left, w, x) and (yield phi.right, w, x)
    if kind == OR:
        return (yield phi.left, w, x) or (yield phi.right, w, x)
    if kind == IMP:
        for v in bits_of(m.up[w]):
            if (yield phi.left, v, x) and not (yield phi.right, v, x):
                return False
        return True
    if kind == DIA:
        for y in bits_of(m.succ(w, x)):
            if (yield phi.left, w, y):
                return True
        return False
    for v in bits_of(m.up[w]):
        for y in bits_of(m.succ(v, x)):
            if not (yield phi.left, v, y):
                return False
    return True


# The distinct subterms of a formula and one instruction per subterm
# (:func:`imred.formula._code`), memoized per formula node in a
# least-recently-used cache of 256 entries, emptied by
# :func:`imred.formula.clear_caches`; the results are tuples, since every
# caller of a formula shares them.
_compile = functools.lru_cache(maxsize=256)(_code)


register_cache_clearer(_compile.cache_clear)


def _moves(edges: Iterable[tuple[int, int]],
           copies: int = 1) -> list[tuple[int, int, int]]:
    """Quantifier edges grouped by offset, as lane-mask moves.

    Slot s is bit s; an edge (s, t) says that slot s quantifies over
    slot t.  For each offset d = t - s that occurs, returns (right
    shift, left shift, selector): shifting a mask right, then left,
    moves slot s + d onto slot s, and the selector covers every slot
    with an edge at offset d.  The search's masks stack copies of an
    n-slot table, bit c * n + i being slot i of copy c, and ``copies``,
    with bit c * n set for each copy c, repeats each selector in every copy.
    """
    groups: dict[int, int] = {}
    for s, t in edges:
        d = t - s
        groups[d] = groups.get(d, 0) | 1 << s
    return _shifts(groups, copies)


def _shifts(groups: Mapping[int, int],
            copies: int = 1) -> list[tuple[int, int, int]]:
    """The moves of :func:`_moves` from its selectors keyed by offset."""
    return [(d if d > 0 else 0, -d if d < 0 else 0, sel * copies)
            for d, sel in sorted(groups.items())]


def _evaluate(code: Sequence[tuple[str, int, int]],
              var_masks: Sequence[int] | Mapping[int, int],
              space: int, imp: list[tuple[int, int, int]],
              dia: list[tuple[int, int, int]]) -> list[int]:
    """Truth masks of every instruction of ``code`` in one pass.

    ``space`` covers the lanes of the legal (world, point) slots and
    ``var_masks[p]``, inside ``space``, is variable p's mask.  ``imp``
    holds the moves from each slot to its strict order-successors at
    the same point, ``dia`` those to its relation successors in the same
    world (see :func:`_moves`).  Every mask stays inside ``space``.
    """
    masks: list[int] = []
    push = masks.append
    imp_, or_, and_, var_, dia_, box_ = IMP, OR, AND, VAR, DIA, BOX
    for kind, a, b in code:
        if kind is imp_:
            # a -> b fails where some v >= w has a without b
            bad = masks[a] & ~masks[b]
            fails = bad
            for right, left, sel in imp:
                fails |= (bad >> right << left) & sel
            mask = space ^ fails
        elif kind is or_:
            mask = masks[a] | masks[b]
        elif kind is and_:
            mask = masks[a] & masks[b]
        elif kind is var_:
            mask = var_masks[a]
        elif kind is dia_:
            child = masks[a]
            mask = 0
            for right, left, sel in dia:
                mask |= (child >> right << left) & sel
        elif kind is box_:
            # []a fails where some v >= w has <> of a's complement
            child = ~masks[a]
            bad = 0
            for right, left, sel in dia:
                bad |= (child >> right << left) & sel
            fails = bad
            for right, left, sel in imp:
                fails |= (bad >> right << left) & sel
            mask = space ^ fails
        else:  # false
            mask = 0
        push(mask)
    return masks


class TableContext:
    """Frame-derived quantifier tables shared across valuations.

    ``space`` is the bitmask of all legal (world, point) pairs, with
    pair (w, x) at bit w * P + x, and ``pairs`` lists them world-major;
    ``imp`` and ``dia`` are the evaluator's implication and diamond
    moves in that layout, one lane per slot.
    """

    __slots__ = ("n_worlds", "n_points", "space", "pairs", "imp", "dia")

    def __init__(self, n_worlds: int, n_points: int, up: tuple[int, ...],
                 delta: tuple[int, ...], srel: tuple[int, ...]):
        P = n_points
        pmask = (1 << P) - 1
        self.n_worlds = n_worlds
        self.n_points = P
        self.pairs = pairs = []
        space = 0
        imp: dict[int, int] = {}
        dia: dict[int, int] = {}
        for w in range(n_worlds):
            points = delta[w]
            if not points:
                continue
            # -> moves per order pair (w, v): offset (v - w) * P
            sel = points << w * P
            space |= sel
            later = up[w] & ~(1 << w)
            while later:
                low = later & -later
                later ^= low
                d = (low.bit_length() - 1 - w) * P
                imp[d] = imp.get(d, 0) | sel
            # <> moves per relation row (w, x): offset y - x per successor y
            rel = srel[w]
            while points:
                low = points & -points
                points ^= low
                x = low.bit_length() - 1
                pairs.append((w, x))
                bit = low << w * P
                row = rel >> x * P & pmask
                while row:
                    step = row & -row
                    row ^= step
                    d = step.bit_length() - 1 - x
                    dia[d] = dia.get(d, 0) | bit
        self.space = space
        self.imp = _shifts(imp)
        self.dia = _shifts(dia)

    @classmethod
    def for_model(cls, model: FiniteFSModel) -> "TableContext":
        return cls(model.n_worlds, model.n_points, model.up, model.delta,
                   model.srel)


def truth_table(model: FiniteFSModel, phi: Formula,
                ctx: TableContext | None = None) -> dict[Formula, int]:
    """Bottom-up truth masks for every distinct subterm of ``phi``.

    The mask of a subterm has bit w * P + x set iff the subterm holds at
    (w, x); only bits inside ``ctx.space`` are meaningful.  One pass over
    the DAG in children-first order, so cost is DAG size times the
    quantifier moves regardless of expanded tree size.  The compiled
    DAG comes from a bounded per-formula memo (the last 256 formulas
    compiled in the process), so checking one formula on many models
    compiles it once.
    """
    if ctx is None:
        ctx = TableContext.for_model(model)
    nodes, code = _compile(phi)
    P = ctx.n_points
    # variables above the model's nvars are false everywhere
    var_masks: dict[int, int] = collections.defaultdict(int)
    for p, row in enumerate(model.val[:max(varset(phi), default=0)], 1):
        mask = 0
        for w in range(ctx.n_worlds):
            mask |= row[w] << (w * P)
        var_masks[p] = mask & ctx.space
    return dict(zip(nodes, _evaluate(code, var_masks, ctx.space, ctx.imp,
                                     ctx.dia)))


def true_in_model(model: FiniteFSModel, phi: Formula,
                  ctx: TableContext | None = None) -> bool:
    """True iff ``phi`` holds at every (world, point) pair of the model."""
    if ctx is None:
        ctx = TableContext.for_model(model)
    tables = truth_table(model, phi, ctx)
    return tables[phi] & ctx.space == ctx.space


def monotone_masks(n_worlds: int, up: tuple[int, ...],
                   bounds: Sequence[int]) -> Iterator[tuple[int, ...]]:
    """Every monotone tuple of per-world masks, ascending and lazily.

    The mask of world w lies inside bounds[w] and contains the masks of
    w's order-predecessors; ascending means lexicographic with world 0
    most significant.  Bounded by point sets it walks the monotone
    valuations of one variable, by pair spaces the monotone relations.
    World ids must respect the order (w <= v implies w's id is not
    larger), as in the search's generated frames: otherwise a world's
    mask is chosen before its predecessors' and may miss them, so
    ``up=(1, 3)`` yields the non-monotone ``(0, 1)``.
    """
    masks = [0] * n_worlds

    def go(w: int) -> Iterator[tuple[int, ...]]:
        if w == n_worlds:
            yield tuple(masks)
            return
        lower = 0
        for u in range(w):
            if (up[u] >> w) & 1:
                lower |= masks[u]
        for m in supersets_asc(lower, bounds[w]):
            masks[w] = m
            yield from go(w + 1)

    return go(0)

