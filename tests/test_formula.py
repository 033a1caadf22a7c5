import random

import pytest
from hypothesis import given, strategies as st

from conftest import formulas
from imred.corpus import random_formula
from imred.formula import (BOTTOM, And, Box, Diamond, Implies, Or, Var,
                           box_chain_le, diamond_chain_le, is_positive,
                           length, mdepth, replace_bottom, structurally_equal,
                           subformulas, substitute, varset)
from imred.reduction import (family_formula, ground_formulas, positive_embed,
                             star)

P1, P2, P3 = Var(1), Var(2), Var(3)


def test_interning_makes_equality_structural():
    assert Implies(Var(1), Var(1)) is Implies(Var(1), Var(1))
    assert And(P1, P2) is not And(P2, P1)
    assert Diamond(P1) is not Box(P1)


def test_var_validation():
    with pytest.raises(ValueError):
        Var(0)
    with pytest.raises(ValueError):
        Var(-3)
    with pytest.raises(TypeError):
        And(P1, "p2")


def test_mdepth_examples():
    assert mdepth(P1) == 0
    assert mdepth(Implies(Diamond(P1), Box(Box(P1)))) == 2
    g1, _, _ = ground_formulas()
    assert mdepth(g1) == 1


def test_varset_examples():
    assert varset(BOTTOM) == frozenset()
    assert varset(And(P1, P3)) == {1, 3}
    assert varset(family_formula("A", 0, 1)) == {1}


def test_length_examples():
    assert length(BOTTOM) == 1
    assert length(Implies(P1, P1)) == 5
    assert length(Diamond(P1)) == 3
    # binary variable encoding: p2/p3 cost 3, p4 costs 4
    assert length(Var(2)) == 3
    assert length(Var(3)) == 3
    assert length(Var(4)) == 4


def test_substitute_examples():
    assert substitute(Implies(P1, P1), {1: BOTTOM}) is Implies(BOTTOM, BOTTOM)
    assert substitute(And(P1, P2), {1: P2}) is And(P2, P2)
    phi = Implies(Diamond(P1), Box(P2))
    assert substitute(phi, {}) is phi


def test_substitute_is_simultaneous():
    swapped = substitute(And(P1, P2), {1: P2, 2: P1})
    assert swapped is And(P2, P1)


def test_positive_examples():
    assert not is_positive(BOTTOM)
    assert is_positive(Implies(P1, Diamond(P1)))
    emb = positive_embed(And(Diamond(BOTTOM), P1))
    assert is_positive(emb.entailment_guard)
    assert is_positive(emb.positive_form)


def test_replace_bottom():
    phi = Implies(Diamond(BOTTOM), BOTTOM)
    assert replace_bottom(phi, P2) is Implies(Diamond(P2), P2)
    assert replace_bottom(P1, P2) is P1


def test_chains():
    f = P1
    assert diamond_chain_le(0, f) is f
    assert box_chain_le(0, f) is f
    assert box_chain_le(2, f) is And(f, And(Box(f), Box(Box(f))))
    assert diamond_chain_le(2, f) is Or(f, Or(Diamond(f), Diamond(Diamond(f))))
    for m in range(5):
        assert mdepth(diamond_chain_le(m, f)) == m
        assert mdepth(box_chain_le(m, f)) == m
    with pytest.raises(ValueError):
        diamond_chain_le(-1, f)


@given(formulas(), formulas(), st.integers(1, 3))
def test_mdepth_after_substitution_is_bounded(phi, psi, p):
    out = substitute(phi, {p: psi})
    assert mdepth(out) <= mdepth(phi) + mdepth(psi)


@given(formulas())
def test_length_grows_strictly_under_any_connective(phi):
    assert length(Diamond(phi)) > length(phi)
    assert length(Box(phi)) > length(phi)
    assert length(And(phi, P1)) > length(phi)
    assert length(Or(P1, phi)) > length(phi)
    assert length(Implies(phi, phi)) > length(phi)


@given(formulas(max_vars=5))
def test_varset_no_larger_than_length(phi):
    assert len(varset(phi)) <= length(phi)


@given(formulas())
def test_empty_substitution_is_identity(phi):
    assert substitute(phi, {}) is phi


@given(formulas(), formulas(allow_bottom=False), st.integers(1, 3))
def test_substitution_preserves_positivity(phi, psi, p):
    if is_positive(phi):
        assert is_positive(substitute(phi, {p: psi}))


@given(formulas())
def test_structural_equality_agrees_with_identity(phi):
    assert structurally_equal(phi, phi)
    assert not structurally_equal(phi, Diamond(phi))


def _first_completion_order(phi, seen, out):
    """Recursive reference: left before right, each node after its children."""
    if id(phi) in seen:
        return
    seen.add(id(phi))
    for child in (phi.left, phi.right):
        if child is not None:
            _first_completion_order(child, seen, out)
    out.append(phi)


def test_subformulas_each_node_once_children_first_root_last():
    rng = random.Random(11)
    corpus = []
    for _ in range(60):
        phi = random_formula(rng, max_depth=5, n_vars=3)
        corpus += [phi, star(positive_embed(phi).positive_form).result]
    for phi in corpus:
        order = list(subformulas(phi))
        position = {id(node): k for k, node in enumerate(order)}
        assert len(position) == len(order)
        assert order[-1] is phi
        for k, node in enumerate(order):
            for child in (node.left, node.right):
                if child is not None:
                    assert position[id(child)] < k
        expected = []
        _first_completion_order(phi, set(), expected)
        assert [id(node) for node in order] == [id(node) for node in expected]
