import gc
import itertools
import os
import pathlib
import pickle
import random
import resource
import subprocess
import sys
import threading
import time
import types
from collections.abc import Iterator

import pytest

from imred import search
from imred.corpus import random_formula
from imred.formula import (BOTTOM, Box, Implies, Or, Var, clear_caches,
                           substitute, varset)
from imred.reduction import (family_formula, positive_embed,
                             reduce_to_one_var, star)
from imred.search import (CONSISTENT, CONTRADICTION, SOFT_MISS, SearchBudget,
                          SearchStats, RefutationResult, classify_pair,
                          check_translation_consistency, find_countermodel)
from imred.semantics import (FS, MIPC, _compile, bits_of, eval_formula_plain,
                             pair_space, supersets_asc, transitive_up,
                             truth_table, validate_model)
from imred.syntax import SourceSpan, parse_formula, print_formula
from support import (build_model, enumerate_models, refutable_corpus,
                     true_in_model)


def canonical_key(model):
    return (model.n_worlds,
            sum(m.bit_count() for m in model.delta),
            model.up, model.delta, model.srel, model.val)


def test_budget_validation():
    with pytest.raises(ValueError):
        SearchBudget(0, 1, 1)
    with pytest.raises(ValueError):
        SearchBudget(1, 0, 1)
    with pytest.raises(ValueError):
        SearchBudget(1, 1, -1)
    with pytest.raises(ValueError):
        SearchBudget(1, 1, 1, max_candidates=0)


@pytest.mark.parametrize("bounds,cap", [
    ((2, 2, 1), 1.5), ((2, 2, 1), 2.0), ((2, 2, 1), True),
    ((2.5, 2, 1), None), ((2, 2.0, 1), None), ((2, 2, 1.0), None),
    ((True, 2, 1), None), ((2, 2, False), None), ((None, 2, 1), None)])
def test_budget_bounds_must_be_ints(bounds, cap):
    with pytest.raises(ValueError, match="must be an int >= "):
        SearchBudget(*bounds, max_candidates=cap)


def test_budget_time_cap_may_be_a_float():
    budget = SearchBudget(1, 1, 1, max_candidates=3, time_cap_ms=2.5)
    assert find_countermodel(parse_formula("p1"), budget, FS).refuted


def test_budget_replace_and_unpickling_run_the_checks():
    with pytest.raises(ValueError, match="max_worlds must be an int >= 1, got 0"):
        SearchBudget(2, 2, 1)._replace(max_worlds=0)
    unchecked = tuple.__new__(SearchBudget, (2, 0, 1, None, None))
    with pytest.raises(ValueError, match="max_points must be an int >= 1, got 0"):
        pickle.loads(pickle.dumps(unchecked))


def every_record() -> list:
    """One instance of each record type of the package."""
    phi = parse_formula("<>p1 -> []p1")
    budget = SearchBudget(2, 2, 1, max_candidates=50)
    refuted = find_countermodel(phi, budget, FS)
    report = reduce_to_one_var(phi)
    records = [budget, refuted, refuted.stats, refuted.countermodel,
               validate_model(refuted.countermodel._replace(up=(0,)))[0],
               SourceSpan(1, 2), report, report.embedding, report.substitution,
               check_translation_consistency(phi, budget, budget, FS),
               next(search._frames(1, 1))]
    assert len({type(record) for record in records}) == 11
    return records


def test_records_pickle_to_equal_records():
    budget, refuted, _, model = every_record()[:4]
    assert refuted.refuted
    for record in (budget, model, refuted):
        back = pickle.loads(pickle.dumps(record))
        assert back == record and type(back) is type(record)


def test_records_are_immutable():
    for record in every_record():
        for name in (record._fields[0], "extra"):
            with pytest.raises(AttributeError):
                setattr(record, name, None)


@pytest.mark.parametrize("value", ["0", "-5", "nan"])
def test_time_caps_must_be_positive(monkeypatch, value):
    with pytest.raises(ValueError, match="caps must be positive"):
        SearchBudget(1, 1, 1, time_cap_ms=float(value))
    # Only the budget caps search time; the environment is not read.
    monkeypatch.setenv("IMRED_TIME_CAP_MS", value)
    result = find_countermodel(parse_formula("p1 -> p1"), SearchBudget(1, 1, 1), FS)
    assert result.stats.stop == "exhausted"


def test_minimal_budget_counts():
    budget = SearchBudget(1, 1, 0)
    fs_models = list(enumerate_models(budget, FS))
    assert len(fs_models) == 2
    assert [m.srel for m in fs_models] == [(0,), (1,)]
    mipc_models = list(enumerate_models(budget, MIPC))
    assert len(mipc_models) == 1
    assert mipc_models[0].srel == (1,)


def test_enumerated_models_validate_and_are_canonically_ordered():
    budget = SearchBudget(2, 2, 1)
    keys = []
    for model in itertools.islice(enumerate_models(budget, FS), 4000):
        assert validate_model(model) == []
        keys.append(canonical_key(model))
    assert keys == sorted(keys)
    assert len(keys) == len(set(keys))


def test_enumeration_is_deterministic():
    budget = SearchBudget(2, 2, 1)
    first = [m.encoding() for m in itertools.islice(
        enumerate_models(budget, FS), 500)]
    second = [m.encoding() for m in itertools.islice(
        enumerate_models(budget, FS), 500)]
    assert first == second


def test_mipc_stream_is_total_relation_slice():
    budget = SearchBudget(2, 2, 1)
    for model in itertools.islice(enumerate_models(budget, MIPC), 300):
        assert validate_model(model) == []


def test_growing_worlds_or_points_extends_the_stream():
    small = [m.encoding() for m in enumerate_models(SearchBudget(1, 1, 1), FS)]
    more_points = [m.encoding() for m in
                   enumerate_models(SearchBudget(1, 2, 1), FS)]
    more_worlds = [m.encoding() for m in
                   enumerate_models(SearchBudget(2, 1, 1), FS)]
    assert more_points[:len(small)] == small
    assert more_worlds[:len(small)] == small


def closed_posets(n_worlds):
    """The orders ``search._posets`` once built by closing every edge set
    from smaller to larger ids, kept as the reference for the extension."""
    slots = [(u, v) for u in range(n_worlds) for v in range(u + 1, n_worlds)]
    return sorted({transitive_up(n_worlds, (slot for bit, slot in enumerate(slots)
                                            if (choice >> bit) & 1))
                   for choice in range(1 << len(slots))})


@pytest.mark.parametrize("n_worlds", range(7))
def test_orders_by_extension_equal_the_closed_edge_sets(n_worlds):
    assert search._posets(n_worlds) == closed_posets(n_worlds)


def test_orders_on_seven_worlds_are_counted_quickly():
    started = time.perf_counter()
    orders = search._posets(7)
    assert time.perf_counter() - started < 5
    assert len(orders) == 96428  # OEIS A006455


def list_frames(n_worlds, max_points):
    """The frame list that ``search._frames`` once built and sorted whole,
    kept as the reference for the streamed walk."""
    frames = []
    for up in search._posets(n_worlds):
        masks = [0] * n_worlds

        def go(w, used):
            if w == n_worlds:
                frames.append((sum(m.bit_count() for m in masks), up,
                               tuple(masks), max(1, used)))
                return
            lower = 0
            for u in range(w):
                if (up[u] >> w) & 1:
                    lower |= masks[u]
            base_count = lower.bit_count()
            if base_count > max_points:
                return
            for extra in supersets_asc(0, ((1 << used) - 1) & ~lower):
                count = base_count + extra.bit_count()
                if count > max_points:
                    continue
                for fresh in range(max_points - count + 1):
                    mask = lower | extra | (((1 << fresh) - 1) << used)
                    if mask:
                        masks[w] = mask
                        go(w + 1, used + fresh)
            masks[w] = 0

        go(0, 0)
    frames.sort(key=lambda frame: frame[:3])
    return tuple(search._Frame(
        n_worlds=n_worlds, n_points=n_points, up=up, delta=delta,
        spaces=tuple(pair_space(m, n_points) for m in delta),
        pairs=tuple((w, x) for w in range(n_worlds) for x in bits_of(delta[w])))
        for _, up, delta, n_points in frames)


# Up to 6 worlds: 7 worlds hold 96,428 orders.
@pytest.mark.parametrize("n_worlds,max_points", [
    (n, p) for n in range(1, 7) for p in range(1, 10) if n * p <= 9] + [(3, 4)])
def test_streamed_frames_equal_the_sorted_list(n_worlds, max_points):
    stream = search._frames(n_worlds, max_points)
    assert isinstance(stream, Iterator)
    assert tuple(stream) == list_frames(n_worlds, max_points)


def capped_child(*argv):
    """Python run with ``argv`` in a child process whose address space is
    capped at 512 MB; the cap acts on the child only."""
    src = pathlib.Path(search.__file__).resolve().parent.parent
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    cap = 512 << 20
    return subprocess.run(
        [sys.executable, *argv], capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": path},
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)))


def test_first_frames_of_a_large_world_count_arrive_in_little_memory():
    # (5, 3) holds 6,349,082 frames; the whole list does not fit the cap
    proc = capped_child("-c", "import itertools\n"
                        "from imred.search import _frames\n"
                        "print(sum(1 for _ in itertools.islice(_frames(5, 3), 10_000)))")
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "10000\n", "")


def test_a_large_point_bound_refutes_at_its_first_candidate():
    proc = capped_child("-m", "imred.cli", "refute", "--max-worlds", "1",
                        "--max-points", "3000", "--max-candidates", "10", "p1")
    assert (proc.returncode, proc.stderr) == (1, "")
    assert proc.stdout == "kind fs\nworld w0\npoint w0 x0\nrefutes w0 x0\n"


def test_theorem_exhausts():
    result = find_countermodel(parse_formula("p1 -> p1"),
                               SearchBudget(2, 2, 1), FS)
    assert not result.refuted
    assert result.stats.stop == "exhausted"
    assert result.stats.models_tested > 0


def test_diamond_to_box_has_minimal_countermodel():
    result = find_countermodel(parse_formula("<>p1 -> []p1"),
                               SearchBudget(2, 2, 1), FS)
    assert result.refuted
    model = result.countermodel
    assert model.n_worlds == 1
    assert sum(m.bit_count() for m in model.delta) == 2
    assert validate_model(model) == []
    assert not eval_formula_plain(model, result.world, result.point,
                                  parse_formula("<>p1 -> []p1"))


@pytest.mark.parametrize("kind,text,refuted,tested", [
    (MIPC, "[]p1 -> p1", False, 136),  # total relations make [] reflexive
    (FS, "[]p1 -> p1", True, 1),
    (MIPC, "<>p1 -> p1", True, None),
    (FS, "<>p1", True, 1),
])
def test_frame_facts_at_the_smallest_budget(kind, text, refuted, tested):
    result = find_countermodel(parse_formula(text), SearchBudget(2, 2, 1),
                               kind)
    assert result.refuted == refuted
    if tested is not None:
        assert result.stats.models_tested == tested


def test_certificates_are_sound_and_deterministic():
    phi = parse_formula("((p1 -> p2) -> p1) -> p1")
    first = find_countermodel(phi, SearchBudget(2, 2, 2), FS)
    second = find_countermodel(phi, SearchBudget(2, 2, 2), FS)
    assert first.refuted and second.refuted
    assert first.countermodel.encoding() == second.countermodel.encoding()
    assert (first.world, first.point) == (second.world, second.point)
    assert not eval_formula_plain(first.countermodel, first.world,
                                  first.point, phi)


def test_budget_growth_never_flips_to_exhausted():
    phi = parse_formula("<>p1 -> []p1")
    small = find_countermodel(phi, SearchBudget(1, 2, 1), FS)
    grown_worlds = find_countermodel(phi, SearchBudget(3, 2, 1), FS)
    grown_points = find_countermodel(phi, SearchBudget(1, 3, 1), FS)
    assert small.refuted and grown_worlds.refuted and grown_points.refuted
    # growth only appends to the canonical stream, so the certificate and
    # its position are stable
    assert grown_worlds.countermodel.encoding() == small.countermodel.encoding()
    assert grown_points.countermodel.encoding() == small.countermodel.encoding()
    assert grown_worlds.stats.models_tested == small.stats.models_tested


def test_candidate_cap_reports_stop_reason():
    result = find_countermodel(parse_formula("p1 -> p1"),
                               SearchBudget(3, 3, 2, max_candidates=50), FS)
    assert not result.refuted
    assert result.stats.stop == "candidate-cap"
    assert result.stats.models_tested == 50


def test_variable_bound_is_enforced():
    with pytest.raises(ValueError):
        find_countermodel(parse_formula("p2"), SearchBudget(1, 1, 1), FS)


def test_time_cap_environment_variable(monkeypatch):
    """A search's result depends on its arguments only: IMRED_TIME_CAP_MS
    set to 1 ms neither cuts a search short nor stands in for a cap."""
    monkeypatch.setenv("IMRED_TIME_CAP_MS", "1")
    result = find_countermodel(parse_formula("p1 -> p1"),
                               SearchBudget(3, 3, 2, max_candidates=100_000), FS)
    assert not result.refuted
    assert result.stats.stop == "candidate-cap"
    assert result.stats.models_tested == 100_000
    # The candidate cap bounds the run should the time cap ever fail.
    explicit = find_countermodel(
        parse_formula("p1 -> p1"),
        SearchBudget(4, 4, 2, max_candidates=10 ** 8, time_cap_ms=1.0), FS)
    assert explicit.stats.stop == "time-cap"


def test_mipc_certificates_also_refute_as_fs_models():
    for text in ("<>p1 -> []p1", "((p1 -> p2) -> p1) -> p1"):
        phi = parse_formula(text)
        result = find_countermodel(phi, SearchBudget(2, 2, 2), MIPC)
        assert result.refuted
        as_fs = result.countermodel._replace(kind=FS)
        assert validate_model(as_fs) == []
        assert not eval_formula_plain(as_fs, result.world, result.point, phi)


def _result(refuted: bool) -> RefutationResult:
    stats = SearchStats(models_tested=1, frames_tested=1, elapsed_ms=0.0,
                        stop="countermodel" if refuted else "exhausted")
    if refuted:
        model = next(iter(enumerate_models(SearchBudget(1, 1, 1), FS)))
        return RefutationResult(countermodel=model, world=0, point=0,
                                stats=stats)
    return RefutationResult(countermodel=None, world=None, point=None,
                            stats=stats)


def test_classification_matrix():
    refuted, empty = _result(True), _result(False)
    assert classify_pair(refuted, refuted) == CONSISTENT
    assert classify_pair(refuted, empty) == SOFT_MISS
    assert classify_pair(empty, empty) == CONSISTENT
    assert classify_pair(empty, refuted) == CONTRADICTION


def test_consistency_probe_on_theorem():
    report = check_translation_consistency(
        parse_formula("p1 -> p1"),
        SearchBudget(2, 2, 1, max_candidates=2000),
        SearchBudget(2, 2, 1, max_candidates=500), FS)
    assert report.positive_outcome == CONSISTENT
    assert report.one_var_outcome == CONSISTENT
    assert not report.contradiction


def test_consistency_probe_on_refutable_formula():
    cache = {}
    report = check_translation_consistency(
        parse_formula("<>p1 -> []p1"),
        SearchBudget(2, 2, 1, max_candidates=4000),
        SearchBudget(2, 2, 3, max_candidates=4000), FS, table_cache=cache)
    assert report.input_result.refuted
    # the positive form is refutable within this budget; the one-variable
    # form generally needs a larger frame, so soft misses are acceptable
    assert report.positive_outcome == CONSISTENT
    assert report.one_var_outcome in (CONSISTENT, SOFT_MISS)
    assert not report.contradiction


def cold_search(phi, budget, kind):
    """A search that finds no cached frame tables or compiled code."""
    clear_caches()
    return find_countermodel(phi, budget, kind)


def test_table_cache_does_not_change_results():
    phi = parse_formula("<>p1 -> []p1")
    out = star(positive_embed(phi).positive_form).result
    assert varset(out) == {1}
    budget = SearchBudget(2, 2, 1, max_candidates=800)
    cold = cold_search(out, budget, FS)
    warm = find_countermodel(out, budget, FS)
    assert warm.refuted == cold.refuted
    assert warm.stats.models_tested == cold.stats.models_tested
    assert warm.stats.stop == cold.stats.stop
    assert search._PASSES  # the substituted output reuses the kept passes


def test_refutable_corpus_is_deterministic_and_refutable():
    budget = SearchBudget(2, 2, 2, max_candidates=2000)
    first = refutable_corpus(99, 5, budget)
    second = refutable_corpus(99, 5, budget)
    assert first == second
    for phi in first:
        assert find_countermodel(phi, budget, FS).refuted


def reference_search(phi, budget, kind):
    """First falsifying model of the plain enumeration, checked pair by pair
    with the plain evaluator; returns the fields a search reports."""
    cap = budget.max_candidates
    frames = set()
    tested = 0
    for model in enumerate_models(budget, kind):
        if cap is not None and tested >= cap:
            return tested, len(frames), "candidate-cap", None, None, None
        tested += 1
        frames.add((model.up, model.delta))
        for w, x in model.pairs():
            if not eval_formula_plain(model, w, x, phi):
                return (tested, len(frames), "countermodel", w, x,
                        model.encoding())
    return tested, len(frames), "exhausted", None, None, None


def reported(result):
    st = result.stats
    return (st.models_tested, st.frames_tested, st.stop, result.world,
            result.point,
            result.countermodel.encoding() if result.refuted else None)


# First refuted after the first lane chunk: FS candidates 109 and 102.
LATE_REFUTATIONS = ("[](p2 | p1 | []p2 | ([]p1 -> p1))",
                    "p1 | (p1 -> <>(p1 -> p1))")


@pytest.mark.parametrize("kind", [FS, MIPC])
@pytest.mark.parametrize("shape", [(2, 2, 2), (3, 2, 1)])
def test_lane_search_matches_naive_reference(kind, shape):
    rng = random.Random(f"lanes:{kind}:{shape}")
    formulas = [random_formula(rng, max_depth=3, n_vars=shape[2])
                for _ in range(10)]
    formulas += [phi for phi in map(parse_formula, LATE_REFUTATIONS)
                 if max(varset(phi)) <= shape[2]]
    for phi in formulas:
        for cap in (1, 63, 65, 130):
            budget = SearchBudget(*shape, max_candidates=cap)
            assert reported(find_countermodel(phi, budget, kind)) == \
                reference_search(phi, budget, kind), (print_formula(phi), cap)


def test_valuation_chunks_match_naive_reference():
    # At (2, 2, 3) MIPC the first frame with more valuations than a pass
    # has lanes (512, two chunks) starts at candidate 227, so caps 482, 483
    # and 484 cut at and across its chunk boundary.  The refutable formula
    # first fails at candidate 19,793, in the second chunk of a frame.
    runs = [("p3 -> p3", cap) for cap in (482, 483, 484)]
    runs.append(("[](((p3 -> p1) -> p1 -> p2) | (<>p1 -> p1))", None))
    for text, cap in runs:
        phi, budget = parse_formula(text), SearchBudget(2, 2, 3, max_candidates=cap)
        assert reported(find_countermodel(phi, budget, MIPC)) == \
            reference_search(phi, budget, MIPC), (text, cap)


@pytest.mark.parametrize("shape,kind", [((1, 2, 1), FS), ((2, 1, 2), FS),
                                        ((2, 2, 1), MIPC)])
def test_cap_equal_to_stream_length_reports_exhausted(shape, kind):
    phi = parse_formula("p1 -> p1")
    length = sum(1 for _ in enumerate_models(SearchBudget(*shape), kind))
    exact = find_countermodel(
        phi, SearchBudget(*shape, max_candidates=length), kind)
    assert (exact.stats.stop, exact.stats.models_tested) == ("exhausted", length)
    short = find_countermodel(
        phi, SearchBudget(*shape, max_candidates=length - 1), kind)
    assert (short.stats.stop, short.stats.models_tested) == \
        ("candidate-cap", length - 1)


def test_shared_table_cache_matches_cold_searches():
    rng = random.Random(17)
    runs = []
    for shape in ((2, 2, 2), (3, 2, 1), (2, 2, 1)):
        for kind in (FS, MIPC):
            for _ in range(4):
                phi = random_formula(rng, max_depth=3, n_vars=shape[2])
                runs.append((phi, SearchBudget(*shape, max_candidates=300), kind))
    out = star(positive_embed(parse_formula("<>p1 -> []p1")).positive_form).result
    runs.append((out, SearchBudget(2, 2, 1, max_candidates=800), FS))
    cold = [reported(cold_search(*run)) for run in runs]
    clear_caches()
    for (phi, budget, kind), want in zip(runs + runs[::-1], cold + cold[::-1]):
        assert reported(find_countermodel(phi, budget, kind)) == want
    assert search._PASSES
    assert all(search._PASSES.values())
    assert_memo_matches_fresh_passes()


@pytest.mark.parametrize("depth", [1_500, 30_000])
def test_deep_certificate_is_rechecked_without_recursion(depth):
    deep = BOTTOM
    for _ in range(depth):
        deep = Box(deep)
    result = find_countermodel(Implies(Var(1), deep), SearchBudget(1, 1, 1), FS)
    assert result.refuted
    assert (result.world, result.point) == (0, 0)
    assert result.countermodel.srel == (1,)
    assert result.stats.models_tested == 4


# First refuted at a non-first relation of a packed group: FS candidates
# 1493 and 1457 at (2, 2, 1) and (3, 2, 1), relations 17 and 11 of a
# 24-relation group, every relation of a frame whose ``per`` is 42; 169 at
# (2, 3, 1), relation 12 of a full 32-relation group.
PACKED_REFUTATIONS = ("[]((p1 -> []p1) | p1)", "p1 | (<>p1 & p1 -> <>[]p1)",
                      "<><>p1 -> p1 | <>p1")


@pytest.mark.parametrize("shape", [(2, 2, 1), (3, 2, 1), (2, 3, 1)])
def test_packed_relation_lanes_match_naive_reference(shape):
    rng = random.Random(f"packed:{shape}")
    formulas = [random_formula(rng, max_depth=3, n_vars=1) for _ in range(6)]
    packed = [parse_formula(text) for text in PACKED_REFUTATIONS]
    # caps 7, 8 and 9 cut inside, at the end of and inside the next
    # relation block of the first two-point frame, whose block is 4 lanes;
    # 255, 256, 257 and 513 cut at and across the 256-lane pass width
    caps = (1, 7, 8, 9, 49, 64, 65, 130, 255, 256, 257, 513, 700)
    runs = [(phi, cap) for phi in formulas + packed for cap in caps]
    runs += [(phi, 2000) for phi in packed]
    # a cap just below the first countermodel cuts its pass
    for phi in formulas + packed:
        first = find_countermodel(phi, SearchBudget(*shape, max_candidates=2000), FS)
        if first.refuted and first.stats.models_tested > 1:
            runs.append((phi, first.stats.models_tested - 1))
    for phi, cap in runs:
        budget = SearchBudget(*shape, max_candidates=cap)
        assert reported(find_countermodel(phi, budget, FS)) == \
            reference_search(phi, budget, FS), (print_formula(phi), cap)


def kept_pass_at(key, candidate):
    """The kept pass of memo entry ``key`` that holds candidate number
    ``candidate`` (counted from 1)."""
    seen = 0
    for step in search._PASSES[key]:
        seen += len(step[2]) * len(step[4])
        if seen >= candidate:
            return step
    raise AssertionError(f"candidate {candidate} is not kept")


def test_packed_refutations_sit_inside_full_groups():
    for text, shapes, tested, at, full in (
            (PACKED_REFUTATIONS[0], ((2, 2, 1), (3, 2, 1)), 1493, 17, False),
            (PACKED_REFUTATIONS[1], ((2, 2, 1), (3, 2, 1)), 1457, 11, False),
            (PACKED_REFUTATIONS[2], ((2, 3, 1),), 169, 12, True)):
        for shape in shapes:
            result = find_countermodel(parse_formula(text), SearchBudget(*shape), FS)
            assert result.stats.models_tested == tested
            _, vals, group, _, _, _, _, _ = kept_pass_at((*shape, FS), tested)
            assert len(group) > 1
            assert (len(group) == vals.per) == full
            assert group.index(result.countermodel.srel) == at


def test_packed_passes_fill_the_lanes(monkeypatch):
    calls = []
    evaluate = search._evaluate

    def counting(*args):
        calls.append(1)
        return evaluate(*args)

    monkeypatch.setattr(search, "_evaluate", counting)
    out = star(positive_embed(parse_formula("<>p1 -> []p1")).positive_form).result
    result = find_countermodel(out, SearchBudget(2, 2, 1, max_candidates=1500), FS)
    assert result.stats.models_tested == 1500
    assert len(calls) < result.stats.models_tested / 64


@pytest.mark.parametrize("kind", [FS, MIPC])
@pytest.mark.parametrize("shape", [(2, 2, 1), (3, 2, 1), (2, 2, 2)])
def test_relation_groups_are_full_but_each_frames_last(shape, kind):
    frames = []
    for first, vals, group, *_ in search._passes(SearchBudget(*shape), kind):
        if first:
            frames.append((vals, []))
        groups = frames[-1][1]
        if not groups or groups[-1] is not group:
            groups.append(group)
    for vals, groups in frames:
        assert all(len(group) == vals.per for group in groups[:-1])
        assert 0 < len(groups[-1]) <= vals.per
        assert sum(groups, ()) == tuple(search._srel_stream(vals.frame, kind))


def test_unknown_kind_leaves_no_memo_entry():
    keys = set(search._PASSES)
    with pytest.raises(ValueError, match="unknown model kind"):
        find_countermodel(parse_formula("p1"), SearchBudget(1, 1, 1), "FS")
    assert set(search._PASSES) == keys


def test_shared_table_cache_across_group_sizes_matches_cold_searches():
    # A frame's relation groups hold as many relations as its lanes hold,
    # and that depends on the variable bound: a two-world frame with 8
    # one-variable assignments has room for 32 relations a pass at one
    # variable, 4 at two and 1 at three.  MIPC passes hold the total
    # relation alone.  The memo then holds distinct, overlapping groups of
    # one frame under different budgets.
    rng = random.Random(29)
    runs = []
    for shape in ((2, 1, 1), (2, 2, 1), (3, 2, 1), (2, 2, 2), (2, 1, 3),
                  (2, 2, 3)):
        for kind in (FS, MIPC):
            for _ in range(3):
                phi = random_formula(rng, max_depth=3, n_vars=shape[2])
                runs.append((phi, SearchBudget(*shape, max_candidates=400), kind))
    for shape in ((2, 2, 2), (2, 3, 2)):
        for kind in (FS, MIPC):
            runs.append((parse_formula("p1 -> p2 -> p1"),
                         SearchBudget(*shape, max_candidates=40_000), kind))
    runs.append((parse_formula(PACKED_REFUTATIONS[0]), SearchBudget(2, 2, 1), FS))
    cold = [reported(cold_search(*run)) for run in runs]
    clear_caches()
    for (phi, budget, kind), want in zip(runs + runs[::-1], cold + cold[::-1]):
        assert reported(find_countermodel(phi, budget, kind)) == want
    groups = {}
    for (_, _, _, kind), kept in search._PASSES.items():
        for _, vals, group, _, _, _, _, _ in kept:
            frame = vals.frame
            groups.setdefault((frame.up, frame.delta, kind), set()).add(group)
    assert any(a != b and set(a) & set(b) for met in groups.values()
               for a in met for b in met)
    assert_memo_matches_fresh_passes()


def retained():
    """The passes the memo holds."""
    return sum(map(len, search._PASSES.values()))


def pass_fields(step):
    """A pass with its frame tables spelled out field by field, less its
    memo: a kept pass's may hold image masks, a fresh one's is empty."""
    first, vals, *rest, _ = step
    return (first, vals.frame, vals.var_bound, vals.assignments, vals.block,
            vals.n_chunks, vals.per, vals.bits, vals.spread, vals.index,
            vals.imp, *rest)


def assert_memo_matches_fresh_passes():
    """Every memo entry is a list of passes, a prefix of its shape's
    stream: each kept pass equals, field by field, the pass a fresh
    stream gives at its place, and none is kept after _KEEP candidates
    are."""
    for (worlds, points, var_bound, kind), kept in search._PASSES.items():
        assert type(kept) is list
        fresh = list(itertools.islice(
            search._passes(SearchBudget(worlds, points, var_bound), kind),
            len(kept)))
        assert len(fresh) == len(kept)
        seen = 0
        for step, want in zip(kept, fresh):
            assert seen < search._KEEP
            assert pass_fields(step) == pass_fields(want)
            seen += len(step[2]) * len(step[4])


@pytest.mark.parametrize("kind", [FS, MIPC])
def test_table_cache_stops_growing_after_keep_candidates(kind):
    phi = parse_formula("p1 -> p1")
    clear_caches()
    short = find_countermodel(
        phi, SearchBudget(3, 3, 2, max_candidates=2 * search._KEEP), kind)
    assert short.stats.stop == "candidate-cap"
    kept = retained()
    assert kept > 0
    long = find_countermodel(
        phi, SearchBudget(3, 3, 2, max_candidates=500_000), kind)
    assert long.stats.stop == "candidate-cap"
    assert long.stats.models_tested == 500_000
    assert retained() == kept
    again = find_countermodel(
        phi, SearchBudget(3, 3, 2, max_candidates=500_000), kind)
    assert retained() == kept
    assert reported(again) == reported(long)
    assert_memo_matches_fresh_passes()
    # a search that reads past the kept prefix counts as a cold one does
    assert reported(long) == reported(cold_search(
        phi, SearchBudget(3, 3, 2, max_candidates=500_000), kind))


def test_clear_caches_empties_frame_tables_and_compile_memo():
    phi = parse_formula("<>p1 -> []p1")
    find_countermodel(phi, SearchBudget(2, 2, 1), FS)
    model = next(enumerate_models(SearchBudget(1, 1, 1), FS))
    truth_table(model, phi)
    assert search._PASSES
    assert _compile.cache_info().currsize > 0
    clear_caches()
    assert not search._PASSES
    assert _compile.cache_info().currsize == 0


def test_compile_memo_shares_immutable_code():
    phi = parse_formula("(p1 -> <>p2) & []p1")
    nodes, code = _compile(phi)
    assert _compile(phi) is _compile(phi)
    assert isinstance(nodes, tuple) and isinstance(code, tuple)
    assert all(isinstance(instruction, tuple) for instruction in code)
    assert nodes[-1] is phi


def test_concurrent_searches_share_the_cache_safely():
    # Threads interleave searches that read and extend the same budgets'
    # kept passes and image masks; a lost or reordered append would change
    # a candidate count or a certificate.
    rng = random.Random(41)
    runs = [(random_formula(rng, max_depth=3, n_vars=shape[2]),
             SearchBudget(*shape, max_candidates=3000), kind)
            for shape in ((2, 2, 1), (2, 2, 2), (3, 2, 1))
            for kind in (FS, MIPC) for _ in range(2)]
    plain = len(runs)
    images = varying_images()
    bindings = dict(enumerate(images, 1))
    runs += [(random_formula(rng, max_depth=3, n_vars=3),
              SearchBudget(*shape, max_candidates=3000), kind)
             for shape in ((2, 2, 1), (3, 2, 1)) for kind in (FS, MIPC)]
    outputs = [phi if i < plain else substitute(phi, bindings)
               for i, (phi, _, _) in enumerate(runs)]
    want = [reported(cold_search(output, budget, kind))
            for output, (_, budget, kind) in zip(outputs, runs)]
    errors = []

    def run(i):
        phi, budget, kind = runs[i]
        if i < plain:
            return find_countermodel(phi, budget, kind)
        return search._search_images(phi, images, outputs[i], budget, kind)[0]

    def worker(offset):
        try:
            for k in range(len(runs)):
                i = (k + offset) % len(runs)
                if reported(run(i)) != want[i]:
                    errors.append(i)
        except Exception as err:  # reported through ``errors``
            errors.append(err)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        clear_caches()
        threads = [threading.Thread(target=worker, args=(3 * n,))
                   for n in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert_memo_matches_fresh_passes()
    assert_image_memo_matches_kept_passes()


# Searches that end inside the kept passes, exhaust a stream shorter or
# longer than them, or read past them.
@pytest.mark.parametrize("shape,caps", [((1, 2, 2), (None,)),
                                        ((2, 2, 1), (100, None)),
                                        ((2, 3, 2), (100, 3 * search._KEEP)),
                                        ((3, 2, 1), (100, 3 * search._KEEP))])
@pytest.mark.parametrize("kind", [FS, MIPC])
def test_kept_passes_equal_fresh_passes(shape, caps, kind):
    clear_caches()
    for cap in caps:
        find_countermodel(parse_formula("p1 -> p1"),
                          SearchBudget(*shape, max_candidates=cap), kind)
    assert search._PASSES
    assert_memo_matches_fresh_passes()


def test_frames_are_counted_once_across_the_kept_boundary():
    phi = parse_formula("p1 -> p1")
    budget = SearchBudget(3, 3, 2, max_candidates=3 * search._KEEP)
    cold = reported(cold_search(phi, budget, FS))
    # each fresh stream builds its own frames, so the passes past the kept
    # ones hold new frame objects equal to the kept ones
    assert reported(find_countermodel(phi, budget, FS)) == cold


def test_a_failed_extension_leaves_a_prefix_of_the_stream(monkeypatch):
    phi = parse_formula("p1 -> p1")
    budget = SearchBudget(2, 2, 1)
    cold = reported(cold_search(phi, budget, FS))
    stream = search._srel_stream

    def interrupted(frame, kind):
        if frame.n_worlds == 2:
            raise KeyboardInterrupt
        return stream(frame, kind)

    clear_caches()
    find_countermodel(phi, SearchBudget(1, 2, 1), FS)
    monkeypatch.setattr(search, "_srel_stream", interrupted)
    with pytest.raises(KeyboardInterrupt):
        find_countermodel(phi, budget, FS)
    monkeypatch.setattr(search, "_srel_stream", stream)
    # the entry keeps the one-world passes built before the interrupt
    left = search._PASSES[2, 2, 1, FS]
    assert left and all(vals.frame.n_worlds == 1 for _, vals, *_ in left)
    assert (1, 2, 1, FS) in search._PASSES
    assert_memo_matches_fresh_passes()
    # the next search replays that prefix and reads on past it
    assert reported(find_countermodel(phi, budget, FS)) == cold
    assert_memo_matches_fresh_passes()


def test_a_cold_search_past_the_kept_passes_builds_one_stream(monkeypatch):
    budgets = []
    passes = search._passes

    def spy(budget, kind):
        budgets.append(budget)
        return passes(budget, kind)

    clear_caches()
    monkeypatch.setattr(search, "_passes", spy)
    result = find_countermodel(parse_formula("p1 -> p1"), SearchBudget(2, 2, 1), FS)
    assert result.stats.stop == "exhausted"
    assert result.stats.models_tested > search._KEEP
    assert len(budgets) == 1


@pytest.mark.parametrize("kind", [FS, MIPC])
def test_growing_caps_on_one_shape_match_cold_searches(kind):
    # each search reads past the passes the one before it kept
    phi = parse_formula("p1 -> p2 -> p1")
    budgets = [SearchBudget(2, 3, 2, max_candidates=cap)
               for cap in (100, 3000, 20_000)]
    cold = [reported(cold_search(phi, budget, kind)) for budget in budgets]
    clear_caches()
    kept = []
    for budget, want in zip(budgets, cold):
        assert reported(find_countermodel(phi, budget, kind)) == want
        kept.append(retained())
        assert_memo_matches_fresh_passes()
    assert kept[0] < kept[1] < kept[2]


def test_the_memo_holds_no_generator():
    clear_caches()
    phi = parse_formula("p1 -> p2 -> p1")
    for shape, cap in (((2, 3, 2), 100), ((2, 3, 2), 20_000),
                       ((1, 2, 2), None), ((2, 2, 2), 500)):
        for kind in (FS, MIPC):
            find_countermodel(phi, SearchBudget(*shape, max_candidates=cap), kind)
    seen, todo = set(), [search._PASSES]
    while todo:
        obj = todo.pop()
        if id(obj) in seen or isinstance(obj, (type, types.ModuleType)):
            continue
        seen.add(id(obj))
        assert not isinstance(obj, (types.GeneratorType, Iterator)), obj
        todo.extend(gc.get_referents(obj))
    assert len(seen) > len(search._PASSES)


def image_budget_boundaries(budget, kind, count):
    """The candidate counts at which the first ``count`` passes end."""
    ends = itertools.accumulate(len(step[2]) * len(step[4])
                                for step in search._passes(budget, kind))
    return list(itertools.islice(ends, count))


def assert_image_memo_matches_kept_passes():
    """Some kept pass keeps image masks, and each kept pass's memo holds
    each of its images' masks on that pass."""
    kept = [step for steps in search._PASSES.values() for step in steps]
    assert any(memo for *_, memo in kept)
    for _, vals, _, dia, _, space, var_masks, memo in kept:
        for image, (mask, _) in memo.items():
            assert mask == search._evaluate(_compile(image)[1], var_masks,
                                            space, vals.imp, dia)[-1]


def varying_images():
    """One-variable images that do not hold everywhere on every model."""
    return (parse_formula("<>p1"), parse_formula("p1 -> []p1"),
            Or(family_formula("A", 0, 1), family_formula("B", 0, 1)))


def images_held_reference(images, budget, kind, tested):
    """Among the first ``tested`` candidates, those at which every image
    holds at every (world, point)."""
    return sum(all(true_in_model(model, image) for image in images)
               for model in itertools.islice(enumerate_models(budget, kind),
                                             tested))


@pytest.mark.parametrize("kind", [FS, MIPC])
@pytest.mark.parametrize("shape", [(2, 3, 1), (3, 2, 1)])
def test_image_search_matches_the_substituted_search(kind, shape):
    rng = random.Random(f"images:{kind}:{shape}")
    formulas = [random_formula(rng, max_depth=3, n_vars=3) for _ in range(8)]
    formulas.append(parse_formula("p2 -> p2 | p3"))
    # caps at, just below and just above the first pass ends
    caps = {1, 700}
    for end in image_budget_boundaries(SearchBudget(*shape), kind, 8):
        caps |= {end - 1, end, end + 1}
    runs = [(phi, cap) for phi in formulas for cap in sorted(caps)]
    # a search that reads past the kept passes, where masks are computed fresh
    runs.append((formulas[-1], 3 * search._KEEP))
    clear_caches()
    images = varying_images()
    for phi, cap in runs + runs[::-1]:
        budget = SearchBudget(*shape, max_candidates=cap)
        output = substitute(phi, dict(enumerate(images, 1)))
        result, held = search._search_images(phi, images, output, budget, kind)
        assert reported(result) == reported(
            find_countermodel(output, budget, kind)), (print_formula(phi), cap)
        assert 0 <= held <= result.stats.models_tested
        if cap <= 700:
            assert held == images_held_reference(
                images, budget, kind, result.stats.models_tested)
    assert_image_memo_matches_kept_passes()
    # some image is kept on every kept pass of the search's shape
    kept = search._PASSES[(*shape, kind)]
    assert any(all(image in memo for *_, memo in kept) for image in images)
    clear_caches()
    assert not search._PASSES


def test_image_search_across_valuation_chunks():
    # At (2, 2, 3) MIPC, frames of 512 valuations start at candidate 227,
    # so caps 482, 483 and 484 cut at and across a chunk boundary; the
    # images use all three variables.
    images = tuple(map(parse_formula, ("<>p1 & p2", "p3 -> []p1", "p2 | <>p3")))
    bindings = dict(enumerate(images, 1))
    rng = random.Random("image chunks")
    formulas = [random_formula(rng, max_depth=3, n_vars=3) for _ in range(6)]
    formulas.append(parse_formula("p1 -> p1"))
    for phi in formulas:
        for cap in (1, 226, 227, 482, 483, 484, 1000):
            budget = SearchBudget(2, 2, 3, max_candidates=cap)
            output = substitute(phi, bindings)
            result, held = search._search_images(phi, images, output, budget, MIPC)
            assert reported(result) == reported(
                find_countermodel(output, budget, MIPC)), (print_formula(phi), cap)
            assert held == images_held_reference(
                images, budget, MIPC, result.stats.models_tested)
    assert_image_memo_matches_kept_passes()


def test_image_search_reuses_the_kept_image_masks(monkeypatch):
    # A second search over the kept passes evaluates only phi on each.
    phi, images = parse_formula("p1 -> p2 -> p1"), varying_images()[:2]
    output = substitute(phi, dict(enumerate(images, 1)))
    budget = SearchBudget(2, 2, 1, max_candidates=500)
    clear_caches()
    first, _ = search._search_images(phi, images, output, budget, FS)
    calls = []
    evaluate = search._evaluate

    def counting(code, *args):
        calls.append(code)
        return evaluate(code, *args)

    monkeypatch.setattr(search, "_evaluate", counting)
    again, _ = search._search_images(phi, images, output, budget, FS)
    assert reported(again) == reported(first)
    assert len(calls) > 1 and set(calls) == {_compile(phi)[1]}


def test_image_search_rechecks_against_the_output(monkeypatch):
    rechecked = []
    recheck = search._recheck_certificate

    def spying(model, w, x, phi):
        rechecked.append(phi)
        return recheck(model, w, x, phi)

    monkeypatch.setattr(search, "_recheck_certificate", spying)
    phi, images = parse_formula("p1 | p2"), varying_images()[:2]
    output = substitute(phi, dict(enumerate(images, 1)))
    result, _ = search._search_images(phi, images, output,
                                      SearchBudget(2, 2, 1), FS)
    assert result.refuted
    assert rechecked == [output]
    assert not eval_formula_plain(result.countermodel, result.world,
                                  result.point, output)


def test_recheck_rejects_invalid_models_and_true_certificates():
    # p1 holds at (u, x) but not at (v, x) although u <= v
    shrinking = build_model(n_worlds=2, order=[(0, 1)],
                            points={0: {0}, 1: {0}}, val={1: {0: {0}}})
    with pytest.raises(RuntimeError, match="invalid model: "
                       "valuation monotonicity: w0 <= w1 but x0 leaves"):
        search._recheck_certificate(shrinking, 1, 0, parse_formula("p1"))
    growing = build_model(n_worlds=2, order=[(0, 1)],
                          points={0: {0}, 1: {0}}, val={1: {1: {0}}})
    search._recheck_certificate(growing, 0, 0, parse_formula("p1"))
    with pytest.raises(RuntimeError, match="failed the independent re-evaluation"):
        search._recheck_certificate(growing, 1, 0, parse_formula("p1"))


def test_probe_reports_candidates_with_images_true_everywhere():
    # At the bench probe budgets every level-6 image A_r | B_r holds at
    # every (world, point) of every candidate tested.
    budget_in = SearchBudget(2, 2, 2, max_candidates=4000)
    budget_out = SearchBudget(2, 2, 2, max_candidates=1500)
    for phi in refutable_corpus(606, 100, budget_in, FS)[:10]:
        report = check_translation_consistency(phi, budget_in, budget_out, FS)
        assert report.images_held == report.one_var_result.stats.models_tested
