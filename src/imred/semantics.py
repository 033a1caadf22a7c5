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
from typing import (Generator, Iterable, Iterator, Mapping, NamedTuple,
                    Sequence)

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


class FiniteFSModel(NamedTuple):
    """A finite FS- or MIPC-model over interned world and point ids.

    ``up[w]`` is the bitmask of worlds v with w <= v (including w itself);
    world ids may run in any order relative to it (a model file's worlds
    are numbered in declaration order, whatever its ``le`` lines say).
    ``val[p - 1][w]`` is the bitmask of points where variable p holds
    at w; variables above ``nvars`` are false everywhere (the empty
    valuation).  Instances are immutable; the model-file reader
    (``imred.syntax.parse_model``) and the countermodel search build them.
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

    def has_point(self, w: int, x: int) -> bool:
        return bool((self.delta[w] >> x) & 1)

    def value_mask(self, p: int, w: int) -> int:
        return self.val[p - 1][w] if 1 <= p <= self.nvars else 0

    def encoding(self) -> tuple:
        """Hashable key of the model without its world and point names,
        for comparing models."""
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
    out, rest = 0, delta_mask
    while rest:
        low = rest & -rest
        out |= delta_mask << (low.bit_length() - 1) * n_points
        rest ^= low
    return out


class Violation(NamedTuple):
    """One failed model condition with a human-readable witness."""

    condition: str
    witness: str

    def __str__(self) -> str:
        return f"{self.condition}: {self.witness}"


# The conditions of validate_model in their reported order, each with
# its witness text: {w} and {v} name worlds, {p} is a variable index,
# and {points} or {pairs} name the failing mask's points or pairs.
_CONDITIONS = (
    ("order reflexivity", "world {w}"),
    ("order transitivity", "{w} <= {v} but successors of {v} escape"),
    ("order antisymmetry", "worlds {w} and {v}"),
    ("point-set non-empty", "world {w}"),
    ("point-set monotonicity", "{w} <= {v} but {points} missing at {v}"),
    ("relation domain", "world {w} relates {pairs} outside its points"),
    ("relation monotonicity", "{w} <= {v} but {pairs} missing at {v}"),
    ("valuation domain", "V({w}, p{p}) contains {points} outside the point set"),
    ("valuation monotonicity", "{w} <= {v} but {points} leaves V(., p{p})"),
    ("MIPC totality", "world {w} misses {pairs}"),
)
(_REFLEXIVE, _TRANSITIVE, _ANTISYMMETRIC, _NON_EMPTY, _POINTS_GROW,
 _RELATION_INSIDE, _RELATION_GROWS, _VALUATION_INSIDE, _VALUATION_GROWS,
 _TOTAL) = range(len(_CONDITIONS))


def validate_model(model: FiniteFSModel) -> list[Violation]:
    """Check every frame and valuation condition; empty list means valid.

    Violations are data, not exceptions; each names the condition and a
    witnessing world/point.  Conditions, in the order they are reported:
    order reflexivity, transitivity and antisymmetry; non-empty, monotone
    point sets; relations inside and monotone over the point sets;
    valuations inside and monotone over the point sets; and totality of
    the relations for MIPC models.  Within a condition, violations run
    world-major with successors ascending; the valuation conditions run
    variable-major.  One pass over the worlds tests each condition once:
    a world's own conditions, then those of each pair (w, v) with v a
    strict order-successor of w, since the pair (w, w) fails none.  A
    failure records only a key, so a valid model costs a few integer
    operations per world, per such pair and per variable, and witness
    text is built from the keys after the pass.
    """
    n_points, up, delta, srel = model.n_points, model.up, model.delta, model.srel
    rows = tuple(enumerate(model.val[:model.nvars], 1))  # (p, V(., p))
    mipc = model.kind == MIPC
    keys = []
    for w, (up_w, delta_w, srel_w) in enumerate(zip(up, delta, srel)):
        if not up_w >> w & 1:
            keys.append((_REFLEXIVE, 0, w, 0, 0))
        if not delta_w:
            keys.append((_NON_EMPTY, 0, w, 0, 0))
        space = pair_space(delta_w, n_points)
        if srel_w & ~space:
            keys.append((_RELATION_INSIDE, 0, w, 0, srel_w & ~space))
        if mipc and srel_w != space:
            keys.append((_TOTAL, 0, w, 0, space & ~srel_w))
        for p, row in rows:
            if row[w] & ~delta_w:
                keys.append((_VALUATION_INSIDE, p, w, 0, row[w] & ~delta_w))
        strict = up_w & ~(1 << w)
        while strict:
            low = strict & -strict
            strict ^= low
            v = low.bit_length() - 1
            if up[v] & ~up_w:
                keys.append((_TRANSITIVE, 0, w, v, 0))
            if v > w and up[v] >> w & 1:
                keys.append((_ANTISYMMETRIC, 0, w, v, 0))
            if delta_w & ~delta[v]:
                keys.append((_POINTS_GROW, 0, w, v, delta_w & ~delta[v]))
            if srel_w & ~srel[v]:
                keys.append((_RELATION_GROWS, 0, w, v, srel_w & ~srel[v]))
            for p, row in rows:
                if row[w] & ~row[v]:
                    keys.append((_VALUATION_GROWS, p, w, v, row[w] & ~row[v]))
    return _violations(model, keys) if keys else []


def _violations(model: FiniteFSModel,
                keys: list[tuple[int, int, int, int, int]]) -> list[Violation]:
    """The violations of :func:`validate_model`'s failure keys
    (condition, variable, world, successor, failing mask), in reported
    order."""
    wn, pn, n_points = model.world_names, model.point_names, model.n_points

    def pair_names(mask: int) -> str:
        # pair (x, y) is bit x * P + y, so the set bits ascend as the pairs do
        return ", ".join(f"({pn[x]},{pn[y]})" for x, y in
                         (divmod(bit, n_points) for bit in bits_of(mask))
                         if x < n_points) or "nothing"

    out = []
    for rank, p, w, v, mask in sorted(keys):
        condition, template = _CONDITIONS[rank]
        names = {}
        if "{points}" in template:
            names["points"] = ", ".join(pn[x] for x in bits_of(mask))
        elif "{pairs}" in template:
            names["pairs"] = pair_names(mask)
        out.append(Violation(condition, template.format(
            w=wn[w], v=wn[v], p=p, **names)))
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

