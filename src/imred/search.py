"""Bounded enumeration of finite FS/MIPC models and countermodel search.

The candidate stream is deterministic and canonical: models are ordered
by world count, then total point count, then lexicographically by the
integer encodings of the order relation, the point sets, the relations
and the valuation (in that significance order).  Duplicate isomorphs
are partly avoided by construction: world ids respect the order, and
point ids appear in first-use order; no general graph canonicalisation
is attempted.

The search evaluates candidates in lanes.  The valuations of one frame
are cut into chunks of up to 64 in canonical order, and one pass over
the compiled formula DAG evaluates a whole chunk under one relation
assignment.  A truth mask holds bit ``pair_index * width + lane`` for
every legal (world, point) pair and every lane, so & and | are one
integer operation for the whole chunk, while ->, <> and [] combine
shifted copies of their operand masks, one shift per index offset
between a pair and the pairs it quantifies over.

The search is sound for refutation only.  A returned certificate is
re-validated and re-evaluated through an independent evaluator (the
plain recursive one, or ``truth_table`` for large or deep formulas)
before being handed out; an exhausted result only means no countermodel exists
within the budget (including any candidate or time cap) and never
claims validity.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import os
import sys
import time
from dataclasses import dataclass
from typing import Iterator

from .formula import AND, BOX, DIA, IMP, OR, VAR, Formula, subformulas, varset
from .reduction import PositiveEmbedding, OneVarSubstitution, positive_embed, star
from .semantics import (FS, KINDS, MIPC, FiniteFSModel, bits_of,
                        eval_formula_plain, iter_monotone_valuations,
                        monotone_assignments, pair_space, supersets_asc,
                        truth_table, validate_model)

TIME_CAP_ENV = "IMRED_TIME_CAP_MS"

# Certificates are re-checked by the plain (non-memoized) evaluator when
# the expanded tree is at most this big; anything larger would multiply
# under nested implications, so truth_table is used instead.
_PLAIN_RECHECK_LIMIT = 20_000

# Valuations evaluated together in one pass over the formula DAG.
_LANES = 64


@dataclass(frozen=True)
class SearchBudget:
    """Bounds for model enumeration.

    ``max_worlds``/``max_points`` bound the frame, ``var_bound`` the
    number of enumerated variables.  ``max_candidates`` and
    ``time_cap_ms`` stop the search early; both are optional, and a
    missing time cap falls back to the IMRED_TIME_CAP_MS environment
    variable at search time.
    """

    max_worlds: int
    max_points: int
    var_bound: int
    max_candidates: int | None = None
    time_cap_ms: float | None = None

    def __post_init__(self) -> None:
        if self.max_worlds < 1 or self.max_points < 1:
            raise ValueError("budgets need at least one world and one point")
        if self.var_bound < 0:
            raise ValueError("variable bound must be >= 0")
        for cap in (self.max_candidates, self.time_cap_ms):
            if cap is not None and cap <= 0:
                raise ValueError("caps must be positive when present")


@dataclass(frozen=True)
class SearchStats:
    """What a search actually did; carried by every result."""

    models_tested: int
    frames_tested: int
    elapsed_ms: float
    stop: str  # "countermodel" | "exhausted" | "candidate-cap" | "time-cap"
    budget: SearchBudget


@dataclass(frozen=True)
class RefutationResult:
    """Countermodel certificate or an exhaustion marker.

    ``refuted`` distinguishes the two outcomes; a certificate always
    re-validates and re-evaluates to false at (world, point).
    """

    countermodel: FiniteFSModel | None
    world: int | None
    point: int | None
    stats: SearchStats

    @property
    def refuted(self) -> bool:
        return self.countermodel is not None


def _posets(n_worlds: int) -> list[tuple[int, ...]]:
    """All partial orders on 0..n-1 whose ids respect the order, as up-masks.

    Edges only point from smaller to larger ids, so every poset shows up
    in at least one such labelling and antisymmetry holds by
    construction.  Distinct edge sets with the same closure are merged.
    """
    slots = [(u, v) for u in range(n_worlds) for v in range(u + 1, n_worlds)]
    seen: set[tuple[int, ...]] = set()
    for choice in range(1 << len(slots)):
        up = [1 << w for w in range(n_worlds)]
        for bit, (u, v) in enumerate(slots):
            if (choice >> bit) & 1:
                up[u] |= 1 << v
        for w in reversed(range(n_worlds)):  # successors already closed
            acc = up[w]
            for v in bits_of(acc):
                if v != w:
                    acc |= up[v]
            up[w] = acc
        seen.add(tuple(up))
    return sorted(seen)


def _delta_assignments(n_worlds: int, up: tuple[int, ...],
                       max_points: int) -> list[tuple[tuple[int, ...], int]]:
    """All monotone point-set assignments with canonical first-use ids.

    Returns (delta masks, pool size) pairs.  Every world holds the union
    of its predecessors' points, any subset of previously introduced
    points, and a block of fresh consecutive ids, capped at
    ``max_points`` points per world and never empty.
    """
    out: list[tuple[tuple[int, ...], int]] = []
    masks = [0] * n_worlds

    def go(w: int, used: int) -> None:
        if w == n_worlds:
            out.append((tuple(masks), used))
            return
        lower = 0
        for u in range(w):
            if (up[u] >> w) & 1:
                lower |= masks[u]
        base_count = lower.bit_count()
        if base_count > max_points:
            return
        old_free = ((1 << used) - 1) & ~lower
        for extra in supersets_asc(0, old_free):
            count = base_count + extra.bit_count()
            if count > max_points:
                continue
            for fresh in range(max_points - count + 1):
                mask = lower | extra | (((1 << fresh) - 1) << used)
                if mask == 0:
                    continue
                masks[w] = mask
                go(w + 1, used + fresh)
        masks[w] = 0

    go(0, 0)
    return out


@dataclass(frozen=True)
class _Frame:
    n_worlds: int
    n_points: int
    total_points: int
    up: tuple[int, ...]
    delta: tuple[int, ...]
    spaces: tuple[int, ...]  # per-world full pair mask over delta
    pairs: tuple[tuple[int, int], ...]  # legal (world, point) pairs, w-major


@functools.lru_cache(maxsize=32)
def _frames(n_worlds: int, max_points: int) -> tuple[_Frame, ...]:
    frames = []
    for up in _posets(n_worlds):
        for delta, used in _delta_assignments(n_worlds, up, max_points):
            n_points = max(1, used)
            frames.append(_Frame(
                n_worlds=n_worlds, n_points=n_points,
                total_points=sum(m.bit_count() for m in delta), up=up,
                delta=delta,
                spaces=tuple(pair_space(m, n_points) for m in delta),
                pairs=tuple((w, x) for w in range(n_worlds)
                            for x in bits_of(delta[w]))))
    frames.sort(key=lambda f: (f.total_points, f.up, f.delta))
    return tuple(frames)


def _srel_stream(frame: _Frame, kind: str) -> Iterator[tuple[int, ...]]:
    """Monotone relation assignments, ascending; MIPC forces totality."""
    if kind == MIPC:
        return iter((frame.spaces,))
    n = frame.n_worlds
    masks = [0] * n

    def go(w: int) -> Iterator[tuple[int, ...]]:
        if w == n:
            yield tuple(masks)
            return
        lower = 0
        for u in range(w):
            if (frame.up[u] >> w) & 1:
                lower |= masks[u]
        for m in supersets_asc(lower, frame.spaces[w]):
            masks[w] = m
            yield from go(w + 1)
        masks[w] = 0

    return go(0)


def _materialise(frame: _Frame, srel: tuple[int, ...],
                 val: tuple[tuple[int, ...], ...], kind: str,
                 var_bound: int) -> FiniteFSModel:
    return FiniteFSModel(
        kind=kind, n_worlds=frame.n_worlds, n_points=frame.n_points,
        up=frame.up, delta=frame.delta, srel=srel, nvars=var_bound, val=val,
        world_names=tuple(f"w{w}" for w in range(frame.n_worlds)),
        point_names=tuple(f"x{x}" for x in range(frame.n_points)))


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
                for val in iter_monotone_valuations(
                        frame.n_worlds, frame.up, frame.delta,
                        budget.var_bound):
                    yield _materialise(frame, srel, val, kind, budget.var_bound)


def _offsets(succ: list[list[int]], width: int) -> list[tuple[int, int, int]]:
    """Successor lists grouped by index offset, as lane-mask shifts.

    ``succ[i]`` lists the pair indices that pair i quantifies over.  For
    each offset d = j - i that occurs, returns (right shift, left shift,
    selector): shifting an operand mask right, then left, moves pair
    i + d's lanes onto pair i, and the selector covers the lanes of the
    pairs i that have a successor at offset d.
    """
    full = (1 << width) - 1
    groups: dict[int, int] = {}
    for i, js in enumerate(succ):
        for j in js:
            groups[j - i] = groups.get(j - i, 0) | full << (i * width)
    return [(d * width if d > 0 else 0, -d * width if d < 0 else 0, sel)
            for d, sel in sorted(groups.items())]


class _Valuations(list):
    """One frame's valuations in lane chunks, built as the search needs them.

    A valuation is a tuple of indices into ``assignments``, the frame's
    monotone one-variable assignments, one index per variable; their
    canonical order is that of ``itertools.product``.  Item k is
    (valuations, var_masks) for valuations k * width up to
    (k + 1) * width - 1; var_masks[p] has bit i * width + lane set iff
    variable p holds at frame pair i under the lane's valuation.
    ``width`` is _LANES, or the frame's whole valuation count when that
    is smaller.  ``imp`` lists (right shift, complement selector) for the
    implication clause: pair (w, x) also quantifies over (v, x) for its
    strict order-successors v.
    """

    def __init__(self, frame: _Frame, var_bound: int):
        super().__init__()
        self.assignments = monotone_assignments(frame.n_worlds, frame.up,
                                                frame.delta)
        count = len(self.assignments)
        self.width = width = min(_LANES, count ** var_bound)
        self.space = (1 << (len(frame.pairs) * width)) - 1
        self.spread = [sum(1 << (i * width) for i, (w, x) in enumerate(frame.pairs)
                           if (row[w] >> x) & 1) for row in self.assignments]
        self.var_bound = var_bound
        self.more = itertools.product(range(count), repeat=var_bound)
        index = {pair: i for i, pair in enumerate(frame.pairs)}
        succ = [[index[v, x] for v in bits_of(frame.up[w]) if v != w]
                for w, x in frame.pairs]
        self.imp = [(right, ~sel) for right, _, sel in _offsets(succ, width)]

    def chunks(self) -> Iterator[tuple[list[tuple[int, ...]], list[int]]]:
        k = 0
        while True:
            if k == len(self):
                vals = list(itertools.islice(self.more, self.width))
                if not vals:
                    return
                spread = self.spread
                masks = [0] * (self.var_bound + 1)
                for lane, val in enumerate(vals):
                    for p, a in enumerate(val, 1):
                        masks[p] |= spread[a] << lane
                self.append((vals, masks))
            yield self[k]
            k += 1

    def valuation(self, val: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
        return tuple(self.assignments[a] for a in val)


def _modal_offsets(frame: _Frame, srel: tuple[int, ...],
                   width: int) -> tuple[list, list]:
    """Diamond selectors and box complement selectors of one relation.

    Pair (w, x) looks at (w, y) for <> and at (v, y) for [], for every
    order-successor v of w and every y related to x at that world.
    """
    P = frame.n_points
    pmask = (1 << P) - 1
    index = {pair: i for i, pair in enumerate(frame.pairs)}
    dia = []
    box = []
    for w, x in frame.pairs:
        dia.append([index[w, y] for y in bits_of((srel[w] >> (x * P)) & pmask)])
        box.append([index[v, y] for v in bits_of(frame.up[w])
                    for y in bits_of((srel[v] >> (x * P)) & pmask)])
    return (_offsets(dia, width),
            [(right, left, ~sel) for right, left, sel in _offsets(box, width)])


def _passes(budget: SearchBudget, kind: str,
            table_cache: dict | None) -> Iterator[tuple]:
    """Every (frame, relation, valuation chunk) in canonical order.

    Per-frame tables are kept for the whole search, in ``table_cache``
    when given; per-relation tables only in ``table_cache``, since one
    search meets each relation once.
    """
    if kind not in KINDS:
        raise ValueError(f"unknown model kind {kind!r}")
    tables = {} if table_cache is None else table_cache
    for n in range(1, budget.max_worlds + 1):
        for frame in _frames(n, budget.max_points):
            key = (frame.up, frame.delta, budget.var_bound)
            vals = tables.get(key)
            if vals is None:
                vals = tables[key] = _Valuations(frame, budget.var_bound)
            for srel in _srel_stream(frame, kind):
                skey = (frame.up, frame.delta, srel, vals.width)
                modal = None if table_cache is None else table_cache.get(skey)
                if modal is None:
                    modal = _modal_offsets(frame, srel, vals.width)
                    if table_cache is not None:
                        table_cache[skey] = modal
                for chunk in vals.chunks():
                    yield frame, srel, vals, modal, chunk


def _compile(phi: Formula) -> list[tuple[str, int, int]]:
    """Children-first instructions (kind, left or variable, right); the
    root is last."""
    nodes = list(subformulas(phi))
    position = {id(node): k for k, node in enumerate(nodes)}
    return [(node.kind, node.var, 0) if node.kind == VAR else
            (node.kind, position.get(id(node.left), 0),
             position.get(id(node.right), 0)) for node in nodes]


def _evaluate(code: list[tuple[str, int, int]], var_masks: list[int],
              space: int, imp: list, dia: list, box: list) -> int:
    """Root truth mask of every lane of one chunk in one pass over the DAG."""
    masks: list[int] = []
    push = masks.append
    imp_, or_, and_, var_, dia_, box_ = IMP, OR, AND, VAR, DIA, BOX
    for kind, a, b in code:
        if kind is imp_:
            holds = ~masks[a] | masks[b]
            mask = holds & space
            for right, keep in imp:
                mask &= (holds >> right) | keep
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
            child = masks[a]
            mask = space
            for right, left, keep in box:
                mask &= (child >> right << left) | keep
        else:  # false
            mask = 0
        push(mask)
    return masks[-1]


def _recheck_certificate(model: FiniteFSModel, w: int, x: int, phi: Formula) -> None:
    violations = validate_model(model)
    if violations:
        raise RuntimeError(
            "enumerator produced an invalid model: "
            + "; ".join(str(v) for v in violations))
    # The plain evaluator recurses at most two frames per nesting level,
    # and nesting depth is at most the tree size.
    if phi.tree_size <= min(_PLAIN_RECHECK_LIMIT, sys.getrecursionlimit() // 4):
        holds = eval_formula_plain(model, w, x, phi)
    else:
        holds = bool((truth_table(model, phi)[phi] >> (w * model.n_points + x)) & 1)
    if holds:
        raise RuntimeError(
            "certificate failed the independent re-evaluation; the lane "
            "evaluator and the reference evaluator disagree")


def find_countermodel(phi: Formula, budget: SearchBudget, kind: str = FS,
                      table_cache: dict | None = None) -> RefutationResult:
    """First model in canonical order falsifying ``phi`` somewhere.

    The formula's variables must fit the budget's variable bound.  The
    returned certificate names the least (world, point) pair at which
    the formula fails and has been re-validated and re-evaluated.  An
    exhausted result carries statistics including whether a candidate or
    time cap stopped the search early.

    ``table_cache`` may be shared between searches, whatever their
    formulas, budgets and kinds: it keeps the formula-independent tables
    of every frame and relation met (valuation lane chunks and the
    quantifier shift tables), keyed by frame shape, so later searches
    over the same frames skip building them.  Every value supports
    ``len()``.  Results never depend on the cache.
    """
    top = max(varset(phi), default=0)
    if top > budget.var_bound:
        raise ValueError(
            f"formula uses p{top} but the budget allows {budget.var_bound} variables")
    time_cap = budget.time_cap_ms
    if time_cap is None:
        env = os.environ.get(TIME_CAP_ENV)
        if env:
            time_cap = float(env)
    cap = budget.max_candidates
    code = _compile(phi)
    started = time.perf_counter()
    tested = 0
    frames = 0
    last_frame = None
    stop = "exhausted"
    for frame, srel, vals, (dia, box), (chunk, var_masks) in _passes(
            budget, kind, table_cache):
        if cap is not None and tested >= cap:
            stop = "candidate-cap"
            break
        if time_cap is not None and \
                (time.perf_counter() - started) * 1000.0 > time_cap:
            stop = "time-cap"
            break
        if frame is not last_frame:
            frames += 1
            last_frame = frame
        lanes = len(chunk) if cap is None else min(len(chunk), cap - tested)
        failed = vals.space & ~_evaluate(code, var_masks, vals.space,
                                         vals.imp, dia, box)
        width = vals.width
        missing = 0
        for i in range(len(frame.pairs)):
            missing |= failed >> (i * width)
        missing &= (1 << lanes) - 1
        if not missing:
            tested += lanes
            if lanes < len(chunk):
                stop = "candidate-cap"
                break
            continue
        lane = (missing & -missing).bit_length() - 1
        i = 0
        while not (failed >> (i * width + lane)) & 1:
            i += 1
        w, x = frame.pairs[i]
        model = _materialise(frame, srel, vals.valuation(chunk[lane]), kind,
                             budget.var_bound)
        _recheck_certificate(model, w, x, phi)
        elapsed = (time.perf_counter() - started) * 1000.0
        return RefutationResult(
            countermodel=model, world=w, point=x,
            stats=SearchStats(models_tested=tested + lane + 1,
                              frames_tested=frames, elapsed_ms=elapsed,
                              stop="countermodel", budget=budget))
    elapsed = (time.perf_counter() - started) * 1000.0
    return RefutationResult(
        countermodel=None, world=None, point=None,
        stats=SearchStats(models_tested=tested, frames_tested=frames,
                          elapsed_ms=elapsed, stop=stop, budget=budget))


CONSISTENT = "consistent"
SOFT_MISS = "soft-miss"
CONTRADICTION = "contradiction"


def classify_pair(input_result: RefutationResult,
                  output_result: RefutationResult) -> str:
    """Directional agreement of an input/output search pair.

    consistent: both refuted, or input not refuted and output not
    refuted.  soft-miss: input refuted but the output search came back
    empty-handed (a budget artefact, not a translation failure).
    contradiction: output refuted although the input search found
    nothing; still only soft evidence, because an exhausted input search
    is not a validity proof.
    """
    if input_result.refuted:
        return CONSISTENT if output_result.refuted else SOFT_MISS
    return CONTRADICTION if output_result.refuted else CONSISTENT


@dataclass(frozen=True)
class ConsistencyReport:
    """Outcome of one translation-consistency probe."""

    input: Formula
    embedding: PositiveEmbedding
    substitution: OneVarSubstitution
    input_result: RefutationResult
    positive_result: RefutationResult
    one_var_result: RefutationResult
    positive_outcome: str
    one_var_outcome: str

    @property
    def contradiction(self) -> bool:
        return CONTRADICTION in (self.positive_outcome, self.one_var_outcome)


def check_translation_consistency(phi: Formula, budget_in: SearchBudget,
                                  budget_out: SearchBudget, kind: str = FS,
                                  table_cache: dict | None = None) -> ConsistencyReport:
    """Probe both translation stages against the bounded oracle.

    Searches for countermodels of the input (under ``budget_in``), of
    its positive form and of the one-variable form (both under
    ``budget_out``, with the variable bound adjusted to each target
    formula).  Classification is per :func:`classify_pair`; bounded
    search being refutation-only, no outcome here can establish a
    translation failure by itself.
    """
    embedding = positive_embed(phi)
    subst = star(embedding.positive_form)
    input_result = find_countermodel(phi, budget_in, kind)
    positive_budget = dataclasses.replace(
        budget_out, var_bound=max(varset(embedding.positive_form), default=0))
    positive_result = find_countermodel(embedding.positive_form,
                                        positive_budget, kind,
                                        table_cache=table_cache)
    one_var_budget = dataclasses.replace(
        budget_out, var_bound=max(varset(subst.result), default=0))
    one_var_result = find_countermodel(subst.result, one_var_budget, kind,
                                       table_cache=table_cache)
    return ConsistencyReport(
        input=phi, embedding=embedding, substitution=subst,
        input_result=input_result, positive_result=positive_result,
        one_var_result=one_var_result,
        positive_outcome=classify_pair(input_result, positive_result),
        one_var_outcome=classify_pair(input_result, one_var_result))
