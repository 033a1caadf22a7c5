import itertools
import random

import pytest

from imred.corpus import random_formula, refutable_corpus
from imred.formula import BOTTOM, Box, Implies, Var, varset
from imred.reduction import positive_embed, star
from imred.search import (CONSISTENT, CONTRADICTION, SOFT_MISS, SearchBudget,
                          SearchStats, RefutationResult, classify_pair,
                          check_translation_consistency, enumerate_models,
                          find_countermodel)
from imred.semantics import (FS, MIPC, eval_formula_plain, true_in_model,
                             validate_model)
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


def test_table_cache_does_not_change_results():
    phi = parse_formula("<>p1 -> []p1")
    out = star(positive_embed(phi).positive_form).result
    assert varset(out) == {1}
    budget = SearchBudget(2, 2, 1, max_candidates=800)
    cold = find_countermodel(out, budget, FS)
    cache = {}
    warm_a = find_countermodel(out, budget, FS, table_cache=cache)
    warm_b = find_countermodel(out, budget, FS, table_cache=cache)
    for result in (warm_a, warm_b):
        assert result.refuted == cold.refuted
        assert result.stats.models_tested == cold.stats.models_tested
        assert result.stats.stop == cold.stats.stop
    assert cache  # the substituted output reuses cached family masks


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
    cache = {}
    runs = []
    for shape in ((2, 2, 2), (3, 2, 1), (2, 2, 1)):
        for kind in (FS, MIPC):
            for _ in range(4):
                phi = random_formula(rng, max_depth=3, n_vars=shape[2])
                runs.append((phi, SearchBudget(*shape, max_candidates=300), kind))
    out = star(positive_embed(parse_formula("<>p1 -> []p1")).positive_form).result
    runs.append((out, SearchBudget(2, 2, 1, max_candidates=800), FS))
    for phi, budget, kind in runs + runs[::-1]:
        warm = find_countermodel(phi, budget, kind, table_cache=cache)
        assert reported(warm) == reported(find_countermodel(phi, budget, kind))
    assert all(len(value) for value in cache.values())


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
