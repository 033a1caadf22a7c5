"""Bounded enumeration of finite FS/MIPC models and countermodel search.

The candidate stream is deterministic and canonical: models are ordered
by world count, then total point count, then lexicographically by the
integer encodings of the order relation, the point sets, the relations
and the valuation (in that significance order).  Duplicate isomorphs
are partly avoided by construction: world ids respect the order, and
point ids appear in first-use order; no general graph canonicalisation
is attempted.

The search evaluates up to 256 candidates of a frame per pass of the
bitmask evaluator of ``imred.semantics`` over the compiled formula DAG.
A chunk holds up to 256 of a frame's valuations in canonical order; a
pass takes one relation under a chunk or, when a frame has at most 128
valuations, a group of consecutive relations under its one chunk, and
candidate ``c = r * block + v`` of the pass is relation r of the group
under valuation v, ``block`` being the chunk size.  The masks are laid
out candidate-major: bit ``c * n + i`` is frame pair i (of n legal
(world, point) pairs) under candidate c, so a pass is stacked copies of
the frame's one-lane table.  & and | are one integer operation for the
whole pass, while ->, <> and [] combine shifted copies of their operand
masks, from one -> table per frame and one <> table per relation group.
Each group takes the next relations its frame's lanes hold, so only a
frame's last group may hold fewer.

The stream of passes depends on the budget's shape and the model kind,
never on the formula, so searches in one process share it: one module
memo keeps, per (max_worlds, max_points, var_bound, kind), the passes
of the first _KEEP candidates with their frame tables, chunks and <>
moves.  A search replays them, then reads a fresh stream past them and
keeps its passes while fewer than _KEEP candidates are kept, so a long
search keeps no more than a short one.  Compiled formulas come from the
bounded compile memo of ``imred.semantics``.

The consistency probe searches its one-variable output through the
substitution: it evaluates the positive form on the truth masks of the
images A_r | B_r, by compositionality the output's masks, and each kept
pass keeps its images' masks in a dict of its own.  ``clear_caches``
empties the pass memo with those dicts and the compile memo.

The search is sound for refutation only.  A returned certificate is
re-validated and re-evaluated at its (world, point) by the independent
pointwise reference ``eval_formula_plain`` before being handed out; an
exhausted result only means no countermodel exists within the budget
(including any candidate or time cap) and never claims validity.
"""

from __future__ import annotations

import itertools
import threading
import time
from typing import Iterable, Iterator, NamedTuple

from .formula import Formula, _Checked, register_cache_clearer, varset
from .reduction import (OneVarSubstitution, PositiveEmbedding,
                        reduce_to_one_var)
from .semantics import (FS, KINDS, MIPC, FiniteFSModel, _compile, _evaluate,
                        _moves, bits_of, eval_formula_plain, monotone_masks,
                        pair_space, supersets_asc, validate_model)

# Candidates per pass over the formula DAG; masks are integers of any width.
_LANES = 256


class _BudgetFields(NamedTuple):
    max_worlds: int
    max_points: int
    var_bound: int
    max_candidates: int | None = None
    time_cap_ms: float | None = None


class SearchBudget(_Checked, _BudgetFields):
    """Bounds for model enumeration.

    ``max_worlds``/``max_points`` bound the frame, ``var_bound`` the
    number of enumerated variables.  ``max_candidates`` and
    ``time_cap_ms`` stop the search early; both are optional and must
    be positive when given.  Every bound but the time cap is an int (a
    bool is not).
    """

    __slots__ = ()

    def _check_fields(self) -> None:
        for name, least in (("max_worlds", 1), ("max_points", 1),
                            ("var_bound", 0), ("max_candidates", 1)):
            value = getattr(self, name)
            if value is None and name == "max_candidates":
                continue
            if not isinstance(value, int) or isinstance(value, bool) \
                    or value < least:
                raise ValueError(f"{name} must be an int >= {least}, got {value!r}")
        if self.time_cap_ms is not None and not self.time_cap_ms > 0:
            raise ValueError("caps must be positive when present")  # NaN too


class SearchStats(NamedTuple):
    """What a search actually did; carried by every result."""

    models_tested: int
    frames_tested: int
    elapsed_ms: float
    stop: str  # "countermodel" | "exhausted" | "candidate-cap" | "time-cap"


class RefutationResult(NamedTuple):
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

    Built world by world: the orders on k + 1 worlds are the orders on k
    worlds with a top world k added above a down-closed set of the old
    worlds.  A set s is down-closed when ``cover[s] == s``, the union of
    the down-masks of its worlds, so each of the 2^k sets is one lookup.
    Every poset shows up in at least one such labelling, and antisymmetry
    and transitivity hold by construction.
    """
    orders: list[tuple[int, ...]] = [()]
    for k in range(n_worlds):
        top = 1 << k
        grown = []
        for up in orders:
            down = [sum(1 << v for v in range(k) if (up[v] >> u) & 1)
                    for u in range(k)]
            cover = [0] * top
            for below in range(1, top):
                low = below & -below
                cover[below] = cover[below ^ low] | down[low.bit_length() - 1]
            grown.extend(tuple(m | top if (below >> w) & 1 else m
                               for w, m in enumerate(up)) + (top,)
                         for below in range(top) if cover[below] == below)
        orders = grown
    return sorted(orders)


def _delta_assignments(n_worlds: int, up: tuple[int, ...], max_points: int,
                       total: int) -> list[tuple[tuple[int, ...], int]]:
    """All monotone point-set assignments of ``total`` points in all with
    canonical first-use ids.

    Returns (delta masks, pool size) pairs.  Every world holds the union
    of its predecessors' points, any subset of previously introduced
    points, and a block of fresh consecutive ids, capped at
    ``max_points`` points per world and never empty.  A world's choice
    is kept only while the worlds after it, 1 to ``max_points`` points
    each, can still bring the count to ``total``.
    """
    out: list[tuple[tuple[int, ...], int]] = []
    masks = [0] * n_worlds

    def go(w: int, used: int, now: int) -> None:
        if w == n_worlds:
            out.append((tuple(masks), used))
            return
        rest = n_worlds - w - 1
        lower = 0
        for u in range(w):
            if (up[u] >> w) & 1:
                lower |= masks[u]
        base_count = lower.bit_count()
        old_free = ((1 << used) - 1) & ~lower
        for extra in supersets_asc(0, old_free):
            count = base_count + extra.bit_count()
            for fresh in range(max_points - count + 1):
                placed = now + count + fresh
                if placed + rest > total:
                    break
                mask = lower | extra | (((1 << fresh) - 1) << used)
                if mask == 0 or total > placed + rest * max_points:
                    continue
                masks[w] = mask
                go(w + 1, used + fresh, placed)
        masks[w] = 0

    go(0, 0, 0)
    return out


class _Frame(NamedTuple):
    n_worlds: int
    n_points: int
    up: tuple[int, ...]
    delta: tuple[int, ...]
    spaces: tuple[int, ...]  # per-world full pair mask over delta
    pairs: tuple[tuple[int, int], ...]  # legal (world, point) pairs, w-major


def _frames(n_worlds: int, max_points: int) -> Iterator[_Frame]:
    """The frames of ``n_worlds`` worlds and 1 to ``max_points`` points
    per world, ordered by total point count, then order, then point
    sets.  Only one (total, order) bucket is held at a time."""
    posets = _posets(n_worlds)
    for total in range(n_worlds, n_worlds * max_points + 1):
        for up in posets:
            for delta, used in sorted(_delta_assignments(n_worlds, up,
                                                         max_points, total)):
                n_points = max(1, used)
                yield _Frame(
                    n_worlds=n_worlds, n_points=n_points, up=up, delta=delta,
                    spaces=tuple(pair_space(m, n_points) for m in delta),
                    pairs=tuple((w, x) for w in range(n_worlds)
                                for x in bits_of(delta[w])))


def _srel_stream(frame: _Frame, kind: str) -> Iterator[tuple[int, ...]]:
    """Monotone relation assignments, ascending; MIPC forces totality."""
    if kind == MIPC:
        return iter((frame.spaces,))
    return monotone_masks(frame.n_worlds, frame.up, frame.spaces)


def _materialise(frame: _Frame, srel: tuple[int, ...],
                 val: tuple[tuple[int, ...], ...], kind: str,
                 var_bound: int) -> FiniteFSModel:
    return FiniteFSModel(
        kind=kind, n_worlds=frame.n_worlds, n_points=frame.n_points,
        up=frame.up, delta=frame.delta, srel=srel, nvars=var_bound, val=val,
        world_names=tuple(f"w{w}" for w in range(frame.n_worlds)),
        point_names=tuple(f"x{x}" for x in range(frame.n_points)))


def _layers(k: int, bits: int) -> int:
    """The integer with bit r * bits set for every r < k, so a product
    repeats a ``bits``-bit mask k times."""
    return ((1 << (k * bits)) - 1) // ((1 << bits) - 1)


class _Valuations:
    """One frame's valuation tables for the passes over it.

    A valuation is a tuple of indices into ``assignments``, the frame's
    monotone one-variable assignments, one index per variable; their
    canonical order is that of ``itertools.product``.  :meth:`chunks`
    yields (valuations, var_masks) for ``block`` consecutive valuations
    at a time, ``block`` being the valuation count capped at _LANES;
    var_masks[p] has bit v * n + i set iff variable p holds at frame
    pair i (of n) under valuation v, ``bits`` = n * block bits in all.
    When ``per`` = _LANES // block exceeds 1 there is one chunk, and a
    pass over k <= per relations repeats its masks k times, so bit
    c * n + i is pair i under candidate c = r * block + v.  ``imp``
    holds the evaluator's implication moves for every candidate: pair
    (w, x) also quantifies over (v, x) for its strict order-successors v.
    """

    def __init__(self, frame: _Frame, var_bound: int):
        self.assignments = list(monotone_masks(frame.n_worlds, frame.up,
                                               frame.delta))
        count = len(self.assignments) ** var_bound
        self.block = block = min(_LANES, count)
        self.n_chunks = -(-count // block)
        self.per = per = _LANES // block
        n = len(frame.pairs)
        self.bits = n * block
        self.spread = [sum(1 << i for i, (w, x) in enumerate(frame.pairs)
                           if (row[w] >> x) & 1) for row in self.assignments]
        self.var_bound = var_bound
        self.frame = frame
        self.index = index = {pair: i for i, pair in enumerate(frame.pairs)}
        self.imp = _moves(((i, index[v, x])
                           for i, (w, x) in enumerate(frame.pairs)
                           for v in bits_of(frame.up[w]) if v != w),
                          _layers(per * block, n))

    def chunks(self) -> Iterator[tuple[list[tuple[int, ...]], list[int]]]:
        """The frame's valuations in canonical order, ``block`` at a time,
        each chunk with its variable masks."""
        more = itertools.product(range(len(self.assignments)),
                                 repeat=self.var_bound)
        spread, n = self.spread, len(self.frame.pairs)
        while vals := list(itertools.islice(more, self.block)):
            masks = [0] * (self.var_bound + 1)
            for lane, val in enumerate(vals):
                for p, a in enumerate(val, 1):
                    masks[p] |= spread[a] << lane * n
            yield vals, masks

    def valuation(self, val: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
        return tuple(self.assignments[a] for a in val)

    def dia(self, group: tuple[tuple[int, ...], ...]) -> list[tuple[int, int, int]]:
        """The evaluator's diamond moves under a relation group: under
        every candidate of relation r, pair (w, x) looks at (w, y) for
        every y related to x at w by relation r."""
        P = self.frame.n_points
        pmask = (1 << P) - 1
        pairs, index, bits = self.frame.pairs, self.index, self.bits
        return _moves(((r * bits + i, r * bits + index[w, y])
                       for r, srel in enumerate(group)
                       for i, (w, x) in enumerate(pairs)
                       for y in bits_of((srel[w] >> (x * P)) & pmask)),
                      _layers(self.block, len(pairs)))


def _passes(budget: SearchBudget, kind: str) -> Iterator[tuple]:
    """Every pass in canonical order: (first, vals, group, dia, chunk,
    space, var_masks, memo), for whether it is its frame's first pass,
    the frame's tables ``vals``, a relation group, its diamond moves, the
    valuations of a chunk, the space and variable masks repeated once
    per relation of the group, and a fresh dict in which a search may
    keep masks of the pass: kept with the pass in _PASSES, dropped with
    it past them.

    A group holds the next ``per`` relations of its frame, fewer only
    for the frame's last group, so the stream depends on the budget's
    shape and ``kind`` only.
    """
    for n in range(1, budget.max_worlds + 1):
        for frame in _frames(n, budget.max_points):
            vals = _Valuations(frame, budget.var_bound)
            chunks: list[tuple[list[tuple[int, ...]], list[int]]] = []
            more = vals.chunks()
            srels = _srel_stream(frame, kind)
            first = True
            while group := tuple(itertools.islice(srels, vals.per)):
                dia = vals.dia(group)
                space = (1 << len(group) * vals.bits) - 1
                for k in range(vals.n_chunks):
                    if k == len(chunks):
                        chunks.append(next(more))
                    chunk, var_masks = chunks[k]
                    if len(group) > 1:
                        copies = _layers(len(group), vals.bits)
                        var_masks = [m * copies for m in var_masks]
                    yield first, vals, group, dia, chunk, space, var_masks, {}
                    first = False


# Candidates whose passes a budget's memo entry keeps.
_KEEP = 8192

# The passes of the first _KEEP candidates of each budget shape, by
# (max_worlds, max_points, var_bound, kind): a prefix of the shape's
# stream.  One search at a time reads and extends them, under _LOCK.
_PASSES: dict[tuple[int, int, int, str], list[tuple]] = {}
_LOCK = threading.Lock()
register_cache_clearer(_PASSES.clear)


def _memo_passes(budget: SearchBudget, kind: str) -> Iterator[tuple]:
    """The passes of ``_passes(budget, kind)``: those kept in ``_PASSES``,
    then the rest of a fresh stream, each kept while fewer than _KEEP
    candidates are.  A pass is kept only once the stream has built it, so
    a stream that raises leaves a prefix of the stream behind."""
    if kind not in KINDS:
        raise ValueError(f"unknown model kind {kind!r}")
    kept = _PASSES.setdefault(
        (budget.max_worlds, budget.max_points, budget.var_bound, kind), [])
    yield from kept
    seen = sum(len(step[2]) * len(step[4]) for step in kept)
    for step in itertools.islice(_passes(budget, kind), len(kept), None):
        if seen < _KEEP:
            kept.append(step)
            seen += len(step[2]) * len(step[4])
        yield step


def _recheck_certificate(model: FiniteFSModel, w: int, x: int, phi: Formula) -> None:
    violations = validate_model(model)
    if violations:
        raise RuntimeError(
            "enumerator produced an invalid model: "
            + "; ".join(str(v) for v in violations))
    if eval_formula_plain(model, w, x, phi):
        raise RuntimeError(
            "certificate failed the independent re-evaluation; the lane "
            "evaluator and the reference evaluator disagree")


def find_countermodel(phi: Formula, budget: SearchBudget,
                      kind: str = FS) -> RefutationResult:
    """First model in canonical order falsifying ``phi`` somewhere.

    The formula's variables must fit the budget's variable bound.  The
    returned certificate names the least (world, point) pair at which
    the formula fails and has been re-validated and re-evaluated.  An
    exhausted result carries statistics including whether a candidate or
    time cap stopped the search early: a search cut by the candidate cap
    tests exactly the candidates below it, and the time cap is checked
    before each pass of up to 256 candidates.

    Searches in one process share their passes, frame tables and
    compiled formulas, as the module docstring describes, and the
    one-variable search of :func:`check_translation_consistency` runs
    the same loop.  ``imred.formula.clear_caches`` empties those caches;
    results never depend on them.
    """
    top = max(varset(phi), default=0)
    if top > budget.var_bound:
        raise ValueError(
            f"formula uses p{top} but the budget allows {budget.var_bound} variables")
    return _search(_compile(phi)[1], phi, budget, kind,
                   _memo_passes(budget, kind))


def _search(code: tuple[tuple[str, int, int], ...], phi: Formula,
            budget: SearchBudget, kind: str,
            passes: Iterable[tuple]) -> RefutationResult:
    """The search loop: the first candidate of ``passes`` (in the layout
    of :func:`_passes`, read under _LOCK) at which the root of ``code``
    fails, its certificate re-checked against ``phi``.  ``code`` is
    evaluated on each pass's own variable masks, so it may be a formula
    other than ``phi`` that has phi's truth masks on them."""
    time_cap = budget.time_cap_ms
    cap = budget.max_candidates
    with _LOCK:
        started = time.perf_counter()
        tested = 0
        frames = 0
        stop = "exhausted"
        for first, vals, group, dia, chunk, space, var_masks, _ in passes:
            if cap is not None and tested >= cap:
                stop = "candidate-cap"
                break
            if time_cap is not None and \
                    (time.perf_counter() - started) * 1000.0 > time_cap:
                stop = "time-cap"
                break
            frames += first
            n = len(vals.frame.pairs)
            count = len(group) * len(chunk)
            lanes = count if cap is None else min(count, cap - tested)
            root = _evaluate(code, var_masks, space, vals.imp, dia)[-1]
            failed = ~root & (1 << lanes * n) - 1
            if not failed:
                tested += lanes
                if lanes < count:
                    stop = "candidate-cap"
                    break
                continue
            c, i = divmod((failed & -failed).bit_length() - 1, n)
            r, v = divmod(c, vals.block)
            w, x = vals.frame.pairs[i]
            model = _materialise(vals.frame, group[r], vals.valuation(chunk[v]),
                                 kind, budget.var_bound)
            _recheck_certificate(model, w, x, phi)
            elapsed = (time.perf_counter() - started) * 1000.0
            return RefutationResult(
                countermodel=model, world=w, point=x,
                stats=SearchStats(models_tested=tested + c + 1,
                                  frames_tested=frames, elapsed_ms=elapsed,
                                  stop="countermodel"))
        elapsed = (time.perf_counter() - started) * 1000.0
        return RefutationResult(
            countermodel=None, world=None, point=None,
            stats=SearchStats(models_tested=tested, frames_tested=frames,
                              elapsed_ms=elapsed, stop=stop))


def _search_images(phi: Formula, images: tuple[Formula, ...], output: Formula,
                   budget: SearchBudget, kind: str) -> tuple[RefutationResult, int]:
    """``find_countermodel(output, budget, kind)`` for ``output``, the
    substitution of ``images[r - 1]`` for each variable p_r of ``phi``,
    searched by evaluating ``phi`` on the images' truth masks, and the
    count of candidates tested at which every image held everywhere.

    Truth is compositional, so on every pass the mask of ``phi`` over the
    image masks is the mask of ``output``: verdicts, counts, stop reasons
    and certificates are those of the full search, and a certificate is
    still re-checked against ``output``.  Each pass keeps, in its own
    memo under the image, the image's truth mask and the mask with bit
    c * n set for each candidate c under which the image holds at every
    pair; the kept passes keep theirs for later searches.
    """
    codes = [(image, _compile(image)[1]) for image in images]
    # candidates and held candidates of the passes before the last one
    # read, which a search reads on from only once it has tested all
    # their candidates, then the last pass's count, n and held mask
    tested = held = count = n = last = 0

    def passes() -> Iterator[tuple]:
        nonlocal tested, held, count, n, last
        for first, vals, group, dia, chunk, space, var_masks, memo in \
                _memo_passes(budget, kind):
            tested += count
            held += last.bit_count()
            n = len(vals.frame.pairs)
            count = len(group) * len(chunk)
            last = -1
            layers = 0
            masks = [0]
            for image, code in codes:
                hit = memo.get(image)
                if hit is None:
                    layers = layers or _layers(count, n)
                    mask = _evaluate(code, var_masks, space, vals.imp, dia)[-1]
                    fails = folded = space & ~mask
                    for j in range(1, n):
                        folded |= fails >> j
                    hit = memo[image] = mask, layers & ~folded
                masks.append(hit[0])
                last &= hit[1]
            yield first, vals, group, dia, chunk, space, masks, memo

    result = _search(_compile(phi)[1], output, budget, kind, passes())
    part = (result.stats.models_tested - tested) * n
    return result, held + (last & (1 << part) - 1).bit_count()


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


class ConsistencyReport(NamedTuple):
    """Outcome of one translation-consistency probe.

    ``images_held`` counts the one-variable candidates tested at which
    every substitution image A_r | B_r held at every (world, point), so
    that the output had the truth of the positive form with every
    variable true.  The probed formula is not kept (the caller holds
    it), and the one-variable output is ``substitution.result``.
    """

    embedding: PositiveEmbedding
    substitution: OneVarSubstitution
    input_result: RefutationResult
    positive_result: RefutationResult
    one_var_result: RefutationResult
    positive_outcome: str
    one_var_outcome: str
    images_held: int

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
    translation failure by itself.  The three searches share the
    library's pass memo and compile memo (see
    :func:`find_countermodel`); ``table_cache`` is accepted and ignored.

    The one-variable search evaluates the renumbered positive form, not
    the output DAG: the mask of its variable p_r on each pass is the
    truth mask of the image A_r | B_r of ``substitution.images``,
    memoized on the kept passes.
    Truth is compositional, so its result is that of
    ``find_countermodel`` on the output, and a certificate is re-checked
    against the full output.
    """
    report = reduce_to_one_var(phi)
    positive, one_var = report.embedding.positive_form, report.output
    sub = report.substitution
    input_result = find_countermodel(phi, budget_in, kind)
    positive_result = find_countermodel(positive, budget_out._replace(
        var_bound=max(varset(positive), default=0)), kind)
    budget_one = budget_out._replace(var_bound=max(varset(one_var), default=0))
    one_var_result, held = _search_images(sub.renumbered, sub.images, one_var,
                                          budget_one, kind)
    return ConsistencyReport(
        embedding=report.embedding, substitution=sub,
        input_result=input_result, positive_result=positive_result,
        one_var_result=one_var_result,
        positive_outcome=classify_pair(input_result, positive_result),
        one_var_outcome=classify_pair(input_result, one_var_result),
        images_held=held)
