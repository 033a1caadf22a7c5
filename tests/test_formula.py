import gc
import math
import os
import pathlib
import random
import subprocess
import sys
import threading
import tracemalloc

import pytest
from hypothesis import given, strategies as st

from conftest import formulas
import imred
from imred import formula
from imred.corpus import formula_with_length, random_formula
from imred.formula import (BOTTOM, And, Box, Diamond, Implies, Or, Var, _rebuild,
                           box_chain_le, clear_caches, diamond_chain_le,
                           is_positive, length, mdepth, replace_bottom,
                           structurally_equal, subformulas, substitute, varset)
from imred.reduction import (family_formula, ground_formulas, positive_embed,
                             reduce_to_one_var, star)
from imred.syntax import FormulaSyntaxError, parse_formula, print_formula

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


@pytest.mark.parametrize("fn", [positive_embed, reduce_to_one_var, print_formula,
                                star, mdepth, length])
def test_non_formula_input_is_a_type_error(fn):
    with pytest.raises(TypeError, match="expected a Formula, got str"):
        fn("p1")


def _reference_metadata(phi):
    """(length, mdepth, tree_size, vars, positive) of every node, by id.

    Computed children-first over the DAG with an explicit stack, from the
    definitions: variable i costs 1 + ceil(log2(i + 1)), every other
    symbol 1; <> and [] add one modal level; false is the only
    non-positive leaf.
    """
    ref = {}
    stack = [phi]
    while stack:
        node = stack[-1]
        children = [c for c in (node.left, node.right) if c is not None]
        todo = [c for c in children if id(c) not in ref]
        if todo:
            stack.extend(todo)
            continue
        stack.pop()
        if node.kind == "var":
            ref[id(node)] = (1 + math.ceil(math.log2(node.var + 1)), 0, 1,
                             frozenset({node.var}), True)
        elif node.kind == "bot":
            ref[id(node)] = (1, 0, 1, frozenset(), False)
        else:
            rows = [ref[id(c)] for c in children]
            ref[id(node)] = (
                1 + sum(r[0] for r in rows),
                max(r[1] for r in rows) + (node.kind in ("dia", "box")),
                1 + sum(r[2] for r in rows),
                frozenset().union(*(r[3] for r in rows)),
                all(r[4] for r in rows))
    return ref


def _metadata_corpus(seed):
    rng = random.Random(seed)
    inputs = [random_formula(rng, max_depth=6, n_vars=4) for _ in range(25)]
    inputs += [formula_with_length(rng, target) for target in (30, 120, 400)]
    return inputs


def test_node_metadata_matches_reference_on_corpus_and_outputs():
    for phi in _metadata_corpus(21):
        report = reduce_to_one_var(phi)
        for root in (phi, report.embedding.positive_form, report.output):
            ref = _reference_metadata(root)
            for node in subformulas(root):
                assert (node.length, node.mdepth, node.tree_size, node.vars,
                        node.positive) == ref[id(node)]


def test_equal_variable_sets_are_one_shared_frozenset():
    clear_caches()
    assert formula._var_sets == {}
    rng = random.Random(23)
    inputs = [random_formula(rng, max_depth=6, n_vars=8) for _ in range(25)]
    inputs += [formula_with_length(rng, target) for target in (120, 400, 1200)]
    nodes = set()
    for phi in inputs:
        report = reduce_to_one_var(phi)
        for root in (phi, report.embedding.positive_form, report.output):
            nodes.update(subformulas(root))
    assert max(len(n.vars) for n in nodes) >= 6
    assert len({id(n.vars) for n in nodes}) == len({n.vars for n in nodes})
    assert all(type(n.vars) is frozenset for n in nodes)
    clear_caches()
    assert formula._var_sets == {}


def test_print_parse_round_trip_is_identity_in_a_fresh_generation():
    clear_caches()
    for phi in _metadata_corpus(22):
        positive = positive_embed(phi).positive_form
        for root in (phi, positive):
            assert parse_formula(print_formula(root)) is root


_BUILDERS = {"and": And, "or": Or, "imp": Implies, "dia": Diamond, "box": Box}


def _shared_formula(rng, steps):
    """A random DAG: each step combines nodes drawn from all built so far."""
    pool = [Var(1), Var(2), Var(3), BOTTOM]
    for _ in range(steps):
        kind = rng.choice(sorted(_BUILDERS))
        operands = [rng.choice(pool) for _ in range(1 + (kind not in ("dia", "box")))]
        pool.append(_BUILDERS[kind](*operands))
    return pool[-1]


def _as_tuple(phi):
    if phi.kind == "var":
        return ("var", phi.var)
    if phi.kind == "bot":
        return ("bot",)
    return (phi.kind,) + tuple(_as_tuple(c) for c in (phi.left, phi.right)
                               if c is not None)


def _tuple_substitute(t, images):
    """Expanded-tree reference: ``images`` maps leaf tuples to tuples."""
    if t[0] in ("var", "bot"):
        return images.get(t, t)
    return t[:1] + tuple(_tuple_substitute(c, images) for c in t[1:])


def _from_tuple(t):
    if t[0] == "var":
        return Var(t[1])
    if t[0] == "bot":
        return BOTTOM
    return _BUILDERS[t[0]](*(_from_tuple(c) for c in t[1:]))


def test_substitute_and_replace_bottom_match_tuple_reference():
    rng = random.Random(5)
    for _ in range(60):
        phi = _shared_formula(rng, rng.randint(1, 14))
        assert phi.tree_size <= 20_000
        a, b = _shared_formula(rng, 4), _shared_formula(rng, 4)
        tree = _as_tuple(phi)
        for bindings in ({1: Var(2), 2: Var(1)},          # a swap
                         {1: Var(2), 2: Var(3), 3: Var(1)},  # a rotation
                         {1: a, 2: b}, {2: a, 3: BOTTOM}, {1: phi}):
            images = {("var", i): _as_tuple(img) for i, img in bindings.items()}
            expected = _from_tuple(_tuple_substitute(tree, images))
            assert substitute(phi, bindings) is expected
        expected = _from_tuple(_tuple_substitute(tree, {("bot",): _as_tuple(a)}))
        assert replace_bottom(phi, a) is expected


def test_unchanged_subterms_keep_their_identity():
    rng = random.Random(6)
    kept = []
    for _ in range(40):
        phi = _shared_formula(rng, rng.randint(1, 14))
        psi = replace_bottom(phi, Var(4))
        for i in (1, 2, 3, 9):
            assert substitute(phi, {i: Var(i)}) is phi
        assert replace_bottom(psi, Var(1)) is psi
        kept.append(psi)
    # After the intern table is dropped, equal rebuilt nodes would be new
    # objects, so identity here shows that no node was rebuilt.
    clear_caches()
    for psi in kept:
        assert replace_bottom(psi, Var(1)) is psi
        assert substitute(psi, {9: Var(1)}) is psi


def test_builders_pause_the_collector_and_restore_it():
    seen = []

    def leaf_image(node):
        seen.append(gc.isenabled())
        return node

    _rebuild(Implies(P1, Box(P2)), leaf_image)
    assert seen == [False, False]
    assert gc.isenabled()
    reduce_to_one_var(_metadata_corpus(23)[-1])  # star -> family -> _rebuild
    assert gc.isenabled()
    clear_caches()
    assert family_formula("A", 8, 5).vars == {1}
    assert gc.isenabled()
    gc.disable()
    try:
        reduce_to_one_var(Implies(Diamond(P1), P2))
        assert not gc.isenabled()
    finally:
        gc.enable()


def test_a_failed_build_leaves_the_collector_enabled():
    with pytest.raises(FormulaSyntaxError):
        parse_formula("p1 ->")
    assert gc.isenabled()

    def leaf_image(node):
        raise LookupError(node)

    with pytest.raises(LookupError):
        _rebuild(And(P1, P2), leaf_image)
    assert gc.isenabled()


def test_concurrent_translations_leave_the_collector_enabled():
    rng = random.Random(24)
    inputs = [formula_with_length(rng, 150) for _ in range(50)]
    expected = [reduce_to_one_var(phi).output_length for phi in inputs]
    clear_caches()  # the threads race to intern the same nodes
    results = [[] for _ in range(4)]

    def work(out):
        for phi in inputs:
            out.append(reduce_to_one_var(phi).output_length)

    threads = [threading.Thread(target=work, args=(out,)) for out in results]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert gc.isenabled()
    assert results == [expected] * 4


_LIVE_NODES_AFTER_CLEAR = """
import gc, random
from imred.corpus import formula_with_length
from imred.formula import Formula, clear_caches
from imred.reduction import reduce_to_one_var
from imred.syntax import parse_formula, print_formula

def batch():
    rng = random.Random(7)
    texts = [print_formula(formula_with_length(rng, n))
             for n in (10, 30, 100, 300, 1000, 3000) for _ in range(4)]
    clear_caches()
    for text in texts:
        report = reduce_to_one_var(parse_formula(text))
        print_formula(report.embedding.positive_form)

batch()
clear_caches()
print(sum(isinstance(obj, Formula) for obj in gc.get_objects()))
"""


def test_reference_counting_frees_every_node():
    # A fresh process, so no other test's nodes are alive; no gc.collect()
    # runs before the count, so only reference counting has freed nodes.
    src = pathlib.Path(imred.__file__).resolve().parent.parent
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", _LIVE_NODES_AFTER_CLEAR],
                          capture_output=True, text=True, timeout=300,
                          env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "1"  # BOTTOM


def test_memory_peak_stays_flat_over_repeated_translations():
    rng = random.Random(25)
    texts = [print_formula(random_formula(rng, max_depth=3)) for _ in range(20)]
    peaks = []
    # With the collector off throughout, only reference counting frees
    # memory, so a flat peak shows that no translation leaves garbage,
    # cyclic or not.  (With it on, full collections that empty CPython's
    # free lists at varying points move the peak by a few percent.)
    gc.collect()
    gc.disable()
    tracemalloc.start()
    try:
        for _ in range(2):
            tracemalloc.reset_peak()
            for k in range(500):
                clear_caches()
                reduce_to_one_var(parse_formula(texts[k % len(texts)]))
            peaks.append(tracemalloc.get_traced_memory()[1])
    finally:
        tracemalloc.stop()
        gc.enable()
    assert peaks[1] <= 1.05 * peaks[0], peaks
