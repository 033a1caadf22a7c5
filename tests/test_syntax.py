import random
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import formulas
from imred.corpus import formula_with_length
from imred.formula import (BOTTOM, IMP, And, Box, Diamond, Formula, Implies,
                           Or, Var)
from imred import semantics
from imred.reduction import family_formula, ground_formulas
from imred.semantics import MIPC, validate_model
from imred.syntax import (FormulaSyntaxError, ModelSyntaxError,
                          ModelValidationError, SourceSpan, parse_certificate,
                          parse_formula, parse_model, print_certificate,
                          print_formula, print_model)


def test_parse_examples():
    assert parse_formula("p1 -> p1") is Implies(Var(1), Var(1))
    assert parse_formula("<>p1 | p1 -> []p1") is \
        Implies(Or(Diamond(Var(1)), Var(1)), Box(Var(1)))
    assert parse_formula("false") is BOTTOM


def test_precedence_and_associativity():
    assert parse_formula("p1 & p2 & p3") is And(And(Var(1), Var(2)), Var(3))
    assert parse_formula("p1 | p2 | p3") is Or(Or(Var(1), Var(2)), Var(3))
    assert parse_formula("p1 -> p2 -> p3") is \
        Implies(Var(1), Implies(Var(2), Var(3)))
    assert parse_formula("p1 & p2 | p3") is Or(And(Var(1), Var(2)), Var(3))
    assert parse_formula("<>p1 & p2") is And(Diamond(Var(1)), Var(2))
    assert parse_formula("<>[]p1") is Diamond(Box(Var(1)))
    assert parse_formula("(p1 -> p2) & p3") is \
        And(Implies(Var(1), Var(2)), Var(3))


def test_long_prefix_runs_and_implication_chains_parse_in_loops():
    depth = 5_000
    expected = Var(1)
    for k in range(depth):
        expected = Box(expected) if k % 3 else Diamond(expected)
    text = "".join("[]" if k % 3 else "<>" for k in reversed(range(depth)))
    assert parse_formula(text + "p1") is expected
    chain = Var(depth)
    for p in reversed(range(1, depth)):
        chain = Implies(Var(p), chain)
    text = " -> ".join(f"p{p}" for p in range(1, depth + 1))
    assert parse_formula(text) is chain
    assert parse_formula("<>[]p1 -> p2 | p3 -> (p1 -> p2) -> p3") is \
        Implies(Diamond(Box(Var(1))),
                Implies(Or(Var(2), Var(3)),
                        Implies(Implies(Var(1), Var(2)), Var(3))))


def test_nesting_of_100k_parses_without_recursion():
    depth = 100_000
    assert parse_formula("(" * depth + "p1" + ")" * depth) is Var(1)
    phi = parse_formula("<>[]" * (depth // 2) + "(p1)")
    assert phi.mdepth == depth and phi.length == depth + 2
    chain = parse_formula(" -> ".join(["p1", "p2"] * (depth // 2)))
    for k in range(depth - 1):  # right-nested: p1 -> (p2 -> (p1 -> ...))
        assert chain.kind == IMP and chain.left is Var(1 + k % 2)
        chain = chain.right
    assert chain is Var(2)


def test_print_examples():
    assert print_formula(BOTTOM) == "false"
    _, g2, _ = ground_formulas()
    assert print_formula(g2) == "<>p1 -> p1"
    a11 = family_formula("A", 1, 1)
    assert parse_formula(print_formula(a11)) is a11


def test_parse_errors_carry_spans():
    with pytest.raises(FormulaSyntaxError) as err:
        parse_formula("p1 -> ")
    assert err.value.span == SourceSpan(6, 6)
    with pytest.raises(FormulaSyntaxError) as err:
        parse_formula("p1 @ p2")
    assert err.value.span == SourceSpan(3, 4)
    for bad in ("", "p0", "p01", "(p1", "p1 p2", "-> p1", "P1"):
        with pytest.raises(FormulaSyntaxError):
            parse_formula(bad)


_UNEXPECTED = ("unexpected character {!r} (expected a variable like p1, "
               "'false', a connective, or parentheses)")

# (text, reason, begin, end) for each error family, recorded from the
# recursive-descent parser that the explicit-stack one replaced.
_ERRORS = [
    ("x", _UNEXPECTED.format("x"), 0, 1),
    ("p0", _UNEXPECTED.format("p"), 0, 1),
    ("falsey", _UNEXPECTED.format("f"), 0, 1),
    ("p1 - p2", _UNEXPECTED.format("-"), 3, 4),
    ("<p1", _UNEXPECTED.format("<"), 0, 1),
    ("p1 p2 @", _UNEXPECTED.format("@"), 6, 7),
    ("", "expected a formula, found end of input", 0, 0),
    ("  ", "expected a formula, found end of input", 2, 2),
    ("p1 &", "expected a formula, found end of input", 4, 4),
    ("& p1", "expected a formula, found '&'", 0, 1),
    ("()", "expected a formula, found ')'", 1, 2),
    ("<>", "expected a formula, found end of input", 2, 2),
    ("p1 ->", "expected a formula, found end of input", 5, 5),
    ("p1 -> (p2 | )", "expected a formula, found ')'", 12, 13),
    ("(p1", "expected ')', found end of input", 3, 3),
    ("(p1 p2)", "expected ')', found 'p2'", 4, 6),
    ("((p1)", "expected ')', found end of input", 5, 5),
    ("p1)", "expected end of input, found ')'", 2, 3),
    ("p1 p2", "expected end of input, found 'p2'", 3, 5),
    ("p1 (p2)", "expected end of input, found '('", 3, 4),
    ("false false", "expected end of input, found 'false'", 6, 11),
]


@pytest.mark.parametrize("text,reason,begin,end", _ERRORS)
def test_parse_error_reason_and_span(text, reason, begin, end):
    with pytest.raises(FormulaSyntaxError) as err:
        parse_formula(text)
    assert err.value.reason == reason
    assert err.value.span == SourceSpan(begin, end)


_PIECES = ["p1", "p2", "p13", "false", "&", "|", "->", "<>", "[]", "(", ")",
           " ", "\t", "x", "p0", "falsey", "-", "<", ">", "[", "@"]


@given(st.one_of(st.lists(st.sampled_from(_PIECES), max_size=40).map("".join),
                 st.text(max_size=20)))
def test_any_text_gives_a_formula_or_an_error_inside_it(text):
    try:
        phi = parse_formula(text)
    except FormulaSyntaxError as err:
        assert 0 <= err.span.begin <= err.span.end <= len(text)
    else:
        assert isinstance(phi, Formula)


@given(st.integers(0, 2**32), st.sampled_from([10, 100, 1000]))
def test_corpus_round_trip(seed, target):
    phi = formula_with_length(random.Random(seed), target)
    assert parse_formula(print_formula(phi)) is phi


def test_span_validation():
    with pytest.raises(ValueError):
        SourceSpan(4, 2)


@given(formulas(max_vars=5))
def test_round_trip(phi):
    assert parse_formula(print_formula(phi)) is phi


@given(formulas(max_vars=3), formulas(max_vars=3))
def test_print_injective(a, b):
    if a is not b:
        assert print_formula(a) != print_formula(b)


TRIVIAL_MODEL = """
# one world, one point, no relations
world w
point w a
"""


def test_parse_model_trivial():
    model = parse_model(TRIVIAL_MODEL)
    assert model.n_worlds == 1
    assert model.kind == "fs"
    assert validate_model(model) == []


def test_parse_model_rejects_nonmonotone_points():
    text = """
world u
world v
le u v
point u a
point v b
"""
    with pytest.raises(ModelValidationError) as err:
        parse_model(text)
    assert any(v.condition == "point-set monotonicity"
               for v in err.value.violations)


def test_parse_model_rejects_partial_mipc_relation():
    text = """
kind mipc
world w
point w a
point w b
s w a b
"""
    with pytest.raises(ModelValidationError) as err:
        parse_model(text)
    assert any(v.condition == "MIPC totality" for v in err.value.violations)
    # the same structure is a perfectly good FS model
    assert parse_model(text, kind="fs").kind == "fs"


def test_parse_model_rejects_order_cycle():
    text = """
world u
world v
le u v
le v u
point u a
point v a
"""
    with pytest.raises(ModelValidationError) as err:
        parse_model(text)
    assert any(v.condition == "order antisymmetry"
               for v in err.value.violations)


def test_parse_model_syntax_errors():
    for bad in ("world", "le u v", "point w", "frobnicate w",
                "world w\nval w q1 a", "world w\nworld w"):
        with pytest.raises(ModelSyntaxError):
            parse_model(bad)
    with pytest.raises(ModelSyntaxError):
        parse_model("")


@pytest.fixture
def int_digit_limit():
    """int() refuses more than 4,300 digits, as by default."""
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this Python reads integers of any length")
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield
    sys.set_int_max_str_digits(old)


def test_oversized_variable_index_is_a_syntax_error(int_digit_limit):
    huge = "p" + "1" * 5000
    for text, begin in ((huge, 0), ("p1 & " + huge + " | p2", 5)):
        with pytest.raises(FormulaSyntaxError) as err:
            parse_formula(text)
        assert err.value.reason == "variable index of 5000 digits is too large"
        assert err.value.span == SourceSpan(begin, begin + 5001)
    # a character that starts no token still outranks it
    with pytest.raises(FormulaSyntaxError) as err:
        parse_formula(huge + " @")
    assert err.value.reason.startswith("unexpected character '@'")
    assert parse_formula("p" + "9" * 4300) is Var(int("9" * 4300))


def test_model_variable_index_is_capped_before_rows_are_built(monkeypatch):
    def refuse(**kwargs):
        raise AssertionError("valuation rows built for an oversized index")

    for index in ("1" * 5000, "10001", "99999"):
        monkeypatch.setattr(semantics, "build_model", refuse)
        with pytest.raises(ModelSyntaxError) as err:
            parse_model(f"world a\npoint a x\nval a p{index} x\n")
        assert err.value.line_no == 3
        assert err.value.reason == "variable index above 10000"
    monkeypatch.undo()
    model = parse_model("world a\npoint a x\nval a p10000 x\n")
    assert model.nvars == 10_000 and model.val[-1] == (1,)


def test_model_round_trip():
    text = """
kind mipc
world u
world v
le u v
point u a
point v a
point v b
s u a a
s v a a
s v a b
s v b a
s v b b
val u p1 a
val v p1 a
val v p1 b
val v p2 b
"""
    model = parse_model(text)
    assert model.kind == MIPC
    again = parse_model(print_model(model))
    assert again.encoding() == model.encoding()
    assert again.world_names == model.world_names


def test_certificate_round_trip():
    model = parse_model(TRIVIAL_MODEL)
    text = print_certificate(model, 0, 0)
    assert text.endswith("refutes w a\n")
    back, w, x = parse_certificate(text)
    assert (w, x) == (0, 0)
    assert back.encoding() == model.encoding()
    with pytest.raises(ModelSyntaxError):
        parse_model(text)  # trailer only allowed in certificates
    with pytest.raises(ModelSyntaxError):
        parse_certificate(print_model(model))  # trailer required
