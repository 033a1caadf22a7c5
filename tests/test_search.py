import itertools
import random
import sys
import threading

import pytest

from imred import search
from imred.corpus import random_formula, refutable_corpus
from imred.formula import BOTTOM, Box, Implies, Var, clear_caches, varset
from imred.reduction import positive_embed, star
from imred.search import (CONSISTENT, CONTRADICTION, SOFT_MISS, SearchBudget,
                          SearchStats, RefutationResult, classify_pair,
                          check_translation_consistency, enumerate_models,
                          find_countermodel)
from imred.semantics import (FS, MIPC, _compile, eval_formula_plain,
                             true_in_model, truth_table, validate_model)
from imred.syntax import parse_formula, print_formula


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
    monkeypatch.setenv("IMRED_TIME_CAP_MS", "1")
    result = find_countermodel(parse_formula("p1 -> p1"),
                               SearchBudget(4, 4, 2), FS)
    assert not result.refuted
    assert result.stats.stop == "time-cap"
    monkeypatch.setenv("IMRED_TIME_CAP_MS", "")
    explicit = find_countermodel(parse_formula("p1 -> p1"),
                                 SearchBudget(4, 4, 2, time_cap_ms=1.0), FS)
    assert explicit.stats.stop == "time-cap"


def test_mipc_certificates_also_refute_as_fs_models():
    import dataclasses
    for text in ("<>p1 -> []p1", "((p1 -> p2) -> p1) -> p1"):
        phi = parse_formula(text)
        result = find_countermodel(phi, SearchBudget(2, 2, 2), MIPC)
        assert result.refuted
        as_fs = dataclasses.replace(result.countermodel, kind=FS)
        assert validate_model(as_fs) == []
        assert not eval_formula_plain(as_fs, result.world, result.point, phi)


def _result(refuted: bool) -> RefutationResult:
    stats = SearchStats(models_tested=1, frames_tested=1, elapsed_ms=0.0,
                        stop="countermodel" if refuted else "exhausted",
                        budget=SearchBudget(1, 1, 1))
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
    # the keyword is still accepted, and ignored
    warm_a = find_countermodel(out, budget, FS, table_cache={})
    warm_b = find_countermodel(out, budget, FS)
    for result in (warm_a, warm_b):
        assert result.refuted == cold.refuted
        assert result.stats.models_tested == cold.stats.models_tested
        assert result.stats.stop == cold.stats.stop
    assert search._TABLES  # the substituted output reuses cached family masks


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
    assert search._TABLES
    assert all(vals.chunks for vals in search._TABLES.values())
    assert_cache_matches_fresh_tables()


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


# First refuted at a non-first relation of a packed group as wide as its
# frame allows: FS candidates 1493 and 1457 at (2, 2, 1) and (3, 2, 1),
# relations 9 and 3 of a 10-relation group; 169 at (2, 3, 1), 4 of 8.
PACKED_REFUTATIONS = ("[]((p1 -> []p1) | p1)", "p1 | (<>p1 & p1 -> <>[]p1)",
                      "<><>p1 -> p1 | <>p1")


@pytest.mark.parametrize("shape", [(2, 2, 1), (3, 2, 1), (2, 3, 1)])
def test_packed_relation_lanes_match_naive_reference(shape):
    rng = random.Random(f"packed:{shape}")
    formulas = [random_formula(rng, max_depth=3, n_vars=1) for _ in range(6)]
    packed = [parse_formula(text) for text in PACKED_REFUTATIONS]
    # caps 7, 8 and 9 cut inside, at the end of and inside the next
    # relation block of the first two-point frame, whose block is 4 lanes
    caps = (1, 7, 8, 9, 49, 64, 65, 130, 700)
    runs = [(phi, cap) for phi in formulas + packed for cap in caps]
    runs += [(phi, 2000) for phi in packed]
    # a cap just below the first countermodel cuts its relation's layer
    for phi in formulas + packed:
        first = find_countermodel(phi, SearchBudget(*shape, max_candidates=2000), FS)
        if first.refuted and first.stats.models_tested > 1:
            runs.append((phi, first.stats.models_tested - 1))
    for phi, cap in runs:
        budget = SearchBudget(*shape, max_candidates=cap)
        assert reported(find_countermodel(phi, budget, FS)) == \
            reference_search(phi, budget, FS), (print_formula(phi), cap)


def test_packed_refutations_sit_inside_full_groups(monkeypatch):
    passes = []
    real = search._passes

    def spy(*args):
        for item in real(*args):
            passes.append(item)
            yield item

    monkeypatch.setattr(search, "_passes", spy)
    for text, shapes, tested, at in ((PACKED_REFUTATIONS[0], ((2, 2, 1), (3, 2, 1)), 1493, 9),
                                     (PACKED_REFUTATIONS[1], ((2, 2, 1), (3, 2, 1)), 1457, 3),
                                     (PACKED_REFUTATIONS[2], ((2, 3, 1),), 169, 4)):
        for shape in shapes:
            result = find_countermodel(parse_formula(text), SearchBudget(*shape), FS)
            _, group, vals, _, _ = passes[-1]
            assert result.stats.models_tested == tested
            assert len(group) == vals.per > 1
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
    assert len(calls) < result.stats.models_tested / 16


def test_shared_table_cache_across_group_sizes_matches_cold_searches():
    # A search doubles its relation group after every pass, up to what the
    # frame's lanes hold, so how a frame is grouped depends on the frames
    # before it: at (2, 2, 2) the first two-world frame follows one that
    # packs 4 relations, at (2, 3, 2) one that packs a single relation.
    # MIPC passes hold the total relation alone.  The cache then holds
    # distinct, overlapping groups of one frame.
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
    assert search._TABLES
    assert all(vals.chunks for vals in search._TABLES.values())
    assert any(a != b and set(a) & set(b) for vals in search._TABLES.values()
               for a in vals.groups for b in vals.groups)
    assert_cache_matches_fresh_tables()


def retained():
    """Everything the frame-table cache holds: entries, chunks, kept
    relations and kept groups."""
    return sum(1 + len(vals.chunks) + len(vals.groups)
               + sum(len(known) for known, _ in vals.streams.values())
               for vals in search._TABLES.values())


def assert_cache_matches_fresh_tables():
    """Every kept chunk and relation is the one a fresh build gives at its
    place, and the kept streams continue at the next one; then empties
    the cache, whose streams this has read from."""
    for vals in search._TABLES.values():
        fresh = search._Valuations(vals.frame, vals.var_bound)
        more = fresh.valuations(0)
        built = [fresh.chunk(more) for _ in range(len(vals.chunks) + 1)]
        assert vals.chunks == built[:-1]
        assert vals.chunk(vals.more) == built[-1]
        for kind, (known, rest) in vals.streams.items():
            stream = search._srel_stream(vals.frame, kind)
            assert known == list(itertools.islice(stream, len(known)))
            if rest is not None:
                assert next(rest, None) == next(stream, None)
    clear_caches()


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
    assert_cache_matches_fresh_tables()
    # a search that reads past the kept prefix counts as a cold one does
    assert reported(long) == reported(cold_search(
        phi, SearchBudget(3, 3, 2, max_candidates=500_000), kind))


def test_clear_caches_empties_frame_tables_and_compile_memo():
    phi = parse_formula("<>p1 -> []p1")
    find_countermodel(phi, SearchBudget(2, 2, 1), FS)
    model = next(enumerate_models(SearchBudget(1, 1, 1), FS))
    truth_table(model, phi)
    assert search._TABLES
    assert _compile.cache_info().currsize > 0
    clear_caches()
    assert not search._TABLES
    assert _compile.cache_info().currsize == 0


def test_compile_memo_shares_immutable_code():
    phi = parse_formula("(p1 -> <>p2) & []p1")
    nodes, code = _compile(phi)
    assert _compile(phi) is _compile(phi)
    assert isinstance(nodes, tuple) and isinstance(code, tuple)
    assert all(isinstance(instruction, tuple) for instruction in code)
    assert nodes[-1] is phi


def test_concurrent_searches_share_the_cache_safely():
    # Threads interleave searches that read and extend the same frames'
    # kept chunks and relation streams; a lost or reordered append would
    # change a candidate count or a certificate.
    rng = random.Random(41)
    runs = [(random_formula(rng, max_depth=3, n_vars=shape[2]),
             SearchBudget(*shape, max_candidates=3000), kind)
            for shape in ((2, 2, 1), (2, 2, 2), (3, 2, 1))
            for kind in (FS, MIPC) for _ in range(2)]
    want = [reported(cold_search(*run)) for run in runs]
    errors = []

    def worker(offset):
        try:
            for k in range(len(runs)):
                i = (k + offset) % len(runs)
                if reported(find_countermodel(*runs[i])) != want[i]:
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
    assert_cache_matches_fresh_tables()
