import random

import pytest

from conftest import formulas
from hypothesis import given

from imred.corpus import formula_with_length, random_formula
from imred.formula import (BOTTOM, And, Box, Diamond, Implies, Or, Var,
                           is_positive, length, mdepth, varset)
from imred.reduction import (base_length, family_formula, positive_embed,
                             reduce_to_one_var, stability_level, star,
                             target_level)
from imred.syntax import parse_formula


def test_embed_of_bottom():
    emb = positive_embed(BOTTOM)
    f = Var(1)
    assert emb.fresh_var == 1
    assert emb.body is f
    assert emb.diamond_guard is Implies(f, f)
    assert emb.box_guard is Implies(f, f)
    assert emb.entailment_guard is Implies(f, f)
    assert emb.positive_form is Implies(And(And(Implies(f, f), Implies(f, f)),
                                            Implies(f, f)), f)


def test_embed_without_bottom_keeps_body():
    phi = parse_formula("p1 -> p1")
    emb = positive_embed(phi)
    assert emb.fresh_var == 2
    assert emb.body is phi


def test_embed_picks_least_unused_variable():
    assert positive_embed(And(Var(1), Var(3))).fresh_var == 2
    assert positive_embed(Var(2)).fresh_var == 1


def test_embed_guard_shape_tracks_modal_depth():
    phi = Diamond(And(BOTTOM, Var(1)))  # modal depth 1
    emb = positive_embed(phi)
    f = Var(emb.fresh_var)
    assert emb.fresh_var == 2
    assert emb.diamond_guard is Implies(Or(f, Diamond(f)), f)
    assert emb.box_guard is Implies(f, And(f, Box(f)))
    step = Implies(f, Var(1))
    assert emb.entailment_guard is And(step, Box(step))
    assert emb.body is Diamond(And(f, Var(1)))


def test_embed_entailment_guard_lists_variables_ascending():
    phi = And(And(Var(3), Var(1)), BOTTOM)  # modal depth 0
    emb = positive_embed(phi)
    f = Var(2)
    assert emb.entailment_guard is And(Implies(f, Var(1)), Implies(f, Var(3)))


def test_embed_is_positive():
    emb = positive_embed(And(Diamond(BOTTOM), Var(1)))
    assert is_positive(emb.positive_form)


@given(formulas(max_vars=4))
def test_embed_properties(phi):
    emb = positive_embed(phi)
    assert emb.fresh_var not in varset(phi)
    assert is_positive(emb.positive_form)
    assert mdepth(emb.diamond_guard) == mdepth(phi)
    assert varset(emb.positive_form) == varset(phi) | {emb.fresh_var}


def test_star_requires_positive():
    with pytest.raises(ValueError):
        star(BOTTOM)
    with pytest.raises(ValueError):
        star(Implies(Diamond(BOTTOM), Var(1)))


def test_star_single_variable_output():
    out = star(parse_formula("p1 -> p1"))
    assert varset(out.result) == {1}
    assert is_positive(out.result)


def test_no_positive_formula_is_variable_free():
    # Variable-free formulas are built from false alone, so they are
    # never positive, so star always substitutes at least one variable.
    @given(formulas(max_vars=3))
    def check(phi):
        assert varset(phi) or not is_positive(phi)

    check()


def test_star_renumbers_sparse_variables():
    phi = And(Var(4), Var(9))
    out = star(phi)
    assert out.var_map == ((4, 1), (9, 2))
    assert varset(out.renumbered) == {1, 2}
    assert out.renumbered is And(Var(1), Var(2))
    assert varset(out.result) == {1}
    assert out.images == tuple(Or(family_formula("A", out.level, rank),
                                  family_formula("B", out.level, rank))
                               for rank in (1, 2))


def test_star_touches_exactly_the_input_variables():
    phi = Implies(Or(Var(2), Var(5)), Var(2))
    out = star(phi)
    assert [orig for orig, _ in out.var_map] == [2, 5]
    assert [rank for _, rank in out.var_map] == [1, 2]


def test_star_level_arithmetic():
    phi = parse_formula("p1 -> p1")
    out = star(phi)
    assert out.stable_level == stability_level()
    assert out.input_level == target_level(phi)
    assert out.level == out.input_level + out.stable_level


def test_target_level_monotone_in_length():
    rng = random.Random(5)
    samples = [random_formula(rng, max_depth=5, n_vars=3) for _ in range(40)]
    samples.sort(key=length)
    levels = [target_level(phi) for phi in samples]
    assert levels == sorted(levels)


def test_target_level_thresholds():
    base = base_length()
    assert target_level(Var(1)) == 0
    bulky = Var(1)
    while length(bulky) < base:
        bulky = And(bulky, Var(1))
    assert length(bulky) < 5 * base
    assert target_level(bulky) == 1


def test_reduce_report_is_internally_consistent():
    phi = parse_formula("<>false -> false")
    report = reduce_to_one_var(phi)
    assert report.input is phi
    assert report.input_length == length(phi)
    assert report.positive_length == length(report.embedding.positive_form)
    assert report.output_length == length(report.output)
    assert report.base_size == base_length()
    assert report.level == report.input_level + report.stable_level
    assert report.bound_limit == \
        2 * 5 ** (report.stable_level + 1) * report.positive_length ** 2
    assert report.bound_ok
    assert varset(report.output) == {1}
    assert is_positive(report.output)


def test_reduce_quadratic_bound_on_corpus():
    rng = random.Random(21)
    for _ in range(40):
        phi = random_formula(rng, max_depth=5, n_vars=4)
        report = reduce_to_one_var(phi)
        assert report.bound_ok
        assert varset(report.output) == {1}
        assert is_positive(report.output)


def test_reduce_handles_sized_inputs():
    rng = random.Random(3)
    phi = formula_with_length(rng, 800)
    report = reduce_to_one_var(phi)
    assert report.bound_ok
    assert varset(report.output) == {1}
