import random
import sys
import time
import tracemalloc

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import formulas
from imred.corpus import formula_with_length
from imred.formula import (BOTTOM, IMP, And, Box, Diamond, Formula, Implies,
                           Or, Var)
from imred import semantics
from imred.reduction import family_formula, ground_formulas
from imred.semantics import MIPC, bits_of, validate_model
from imred.syntax import (_MAX_VAL_VAR, _NAME, _VAL_VAR, FormulaSyntaxError,
                          ModelSyntaxError, ModelValidationError, SourceSpan,
                          parse_certificate, parse_formula, parse_model,
                          _reduction_pairs, print_certificate, print_formula,
                          print_model)
from support import build_model, random_model
from test_semantics import assert_tables_match, reference_validate_model


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
    with pytest.raises(ValueError, match=r"^bad span 1\.\.0$"):
        SourceSpan(1, 2)._replace(end=0)


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


def test_stray_pairs_of_many_point_ids_are_named_in_linear_time():
    # 10,000 point ids: the witness walks the failing mask's set bits,
    # since walking all P * P pairs would take seconds
    text = "world a\npoint a x0\n" + "".join(
        f"s a x0 y{k}\n" for k in range(1, 10_000))
    started = time.perf_counter()
    with pytest.raises(ModelValidationError) as err:
        parse_model(text)
    assert time.perf_counter() - started < 1.0
    [violation] = err.value.violations
    assert violation.condition == "relation domain"
    assert violation.witness.startswith("world a relates (x0,y1), (x0,y2), ")
    assert violation.witness.endswith(", (x0,y9999) outside its points")
    assert violation.witness.count("(x0,") == 9_999


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


def test_model_variable_index_is_capped_before_rows_are_built():
    # The cap is checked on the val line itself: a malformed line after it
    # is never reached, and no valuation rows are allocated for the index.
    for index in ("1" * 5000, "10001", "99999"):
        tracemalloc.start()
        try:
            with pytest.raises(ModelSyntaxError) as err:
                parse_model(f"world a\npoint a x\nval a p{index} x\nbogus line\n")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert err.value.line_no == 3
        assert err.value.reason == "variable index above 10000"
        assert peak < 256 * 1024
    model = parse_model("world a\npoint a x\nval a p10000 x\n")
    assert model.nvars == 10_000 and model.val[-1] == (1,)


def reference_parse_model(text, kind=None):
    """The reader before the one-pass rewrite: sets of tuples first, then
    ``build_model`` and the reference validator."""
    world_ids, point_ids = {}, {}
    order, points, srel, val = [], {}, {}, {}
    file_kind = refutes = None

    def world(tok, line_no):
        got = world_ids.get(tok)
        if got is None:
            raise ModelSyntaxError(f"unknown world {tok!r}", line_no)
        return got

    def point(tok, line_no):
        if _NAME.match(tok) is None:
            raise ModelSyntaxError(f"bad point id {tok!r}", line_no)
        got = point_ids.get(tok)
        if got is None:
            got = len(point_ids)
            point_ids[tok] = got
        return got

    for line_no, raw in enumerate(text.splitlines(), 1):
        cut = raw.find("#")
        fields = (raw if cut < 0 else raw[:cut]).split()
        if not fields:
            continue
        directive, args = fields[0], fields[1:]
        if directive == "kind":
            if len(args) != 1 or args[0] not in semantics.KINDS:
                raise ModelSyntaxError("expected 'kind fs' or 'kind mipc'", line_no)
            file_kind = args[0]
        elif directive == "world":
            if len(args) != 1 or _NAME.match(args[0]) is None:
                raise ModelSyntaxError("expected 'world <id>'", line_no)
            if args[0] in world_ids:
                raise ModelSyntaxError(f"world {args[0]!r} declared twice", line_no)
            w = len(world_ids)
            world_ids[args[0]] = w
            points[w] = set()
            srel[w] = set()
        elif directive == "le":
            if len(args) != 2:
                raise ModelSyntaxError("expected 'le <world> <world>'", line_no)
            order.append((world(args[0], line_no), world(args[1], line_no)))
        elif directive == "point":
            if len(args) != 2:
                raise ModelSyntaxError("expected 'point <world> <id>'", line_no)
            points[world(args[0], line_no)].add(point(args[1], line_no))
        elif directive == "s":
            if len(args) != 3:
                raise ModelSyntaxError("expected 's <world> <id> <id>'", line_no)
            srel[world(args[0], line_no)].add(
                (point(args[1], line_no), point(args[2], line_no)))
        elif directive == "val":
            if len(args) != 3:
                raise ModelSyntaxError("expected 'val <world> p<k> <point>'", line_no)
            mvar = _VAL_VAR.match(args[1])
            if mvar is None:
                raise ModelSyntaxError(f"bad variable token {args[1]!r}", line_no)
            digits = mvar.group(1)
            if len(digits) > len(str(_MAX_VAL_VAR)) or \
                    (p := int(digits)) > _MAX_VAL_VAR:
                raise ModelSyntaxError(
                    f"variable index above {_MAX_VAL_VAR}", line_no)
            val.setdefault(p, {}).setdefault(world(args[0], line_no), set()).add(
                point(args[2], line_no))
        elif directive == "refutes":
            if len(args) != 2:
                raise ModelSyntaxError("expected 'refutes <world> <point>'", line_no)
            refutes = (args[0], args[1])
        else:
            raise ModelSyntaxError(f"unknown directive {directive!r}", line_no)
    if refutes is not None:
        raise ModelSyntaxError(
            "'refutes' trailer is only allowed in certificates "
            "(use parse_certificate)", len(text.splitlines()))
    if not world_ids:
        raise ModelSyntaxError("model declares no worlds", max(1, len(text.splitlines())))
    model = build_model(
        kind=kind if kind is not None else (file_kind or semantics.FS),
        n_worlds=len(world_ids), order=order, points=points, srel=srel,
        val=val,
        world_names=tuple(sorted(world_ids, key=world_ids.get)),
        point_names=tuple(sorted(point_ids, key=point_ids.get)) or ("x0",))
    violations = reference_validate_model(model)
    if violations:
        raise ModelValidationError(violations)
    return model


def outcome(parse, text, kind=None):
    """The model ``parse`` returns, or what identifies the error it raises."""
    try:
        return parse(text, kind)
    except ModelSyntaxError as err:
        return "syntax", err.reason, err.line_no
    except ModelValidationError as err:
        return "validation", err.violations
    except ValueError as err:
        return "value", str(err)


def printed_models(seeds):
    """Seeded random models of both kinds, printed as model files."""
    for seed in seeds:
        for kind in ("fs", "mipc"):
            model = random_model(random.Random(seed), max_worlds=4,
                                 max_points=3, n_vars=3, kind=kind)
            yield print_model(model)


def test_parse_model_matches_reference_on_printed_models():
    for text in printed_models(range(300)):
        model = parse_model(text)
        assert model == reference_parse_model(text)
        for kind in ("fs", "mipc"):
            assert outcome(parse_model, text, kind) == \
                outcome(reference_parse_model, text, kind)


# Replacement tokens for the mutations below: junk, bad and oversized
# variables, unknown and fresh names, and names of the printed models.
_JUNK = ["", "#", "x@1", "é", "a.b-c_9", "zz", "w0", "w1", "x0", "x2", "p0",
         "p01", "p2", "p10001", "p" + "9" * 7, "P1", "px", "-", "fs", "mipc",
         "kind", "world", "le", "point", "s", "val", "refutes"]
# Positions of point tokens in each directive.
_POINT_AT = {"point": [2], "s": [2, 3], "val": [3]}
_VARS = ["p0", "p1", "p3", "p9", "p10001", "p99999", "p" + "1" * 20, "px",
         "p", "q1", "p10000"]


def mutate(rng, lines):
    """One to three seeded line mutations of a model file's lines."""
    lines = list(lines)
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(lines) + 1)
        line = lines[i] if i < len(lines) else ""
        toks = line.split()
        op = rng.randrange(12)
        if op == 0 and i < len(lines):
            del lines[i]
        elif op == 1:
            lines.insert(i, line)
        elif op == 2 and lines:
            j = rng.randrange(len(lines))
            lines[i - 1], lines[j] = lines[j], lines[i - 1]
        elif op == 3 and toks:
            toks[rng.randrange(len(toks))] = rng.choice(_JUNK)
            lines[i] = " ".join(toks)
        elif op == 4 and len(toks) > 1:
            toks[rng.randrange(1, len(toks))] = rng.choice(["nowhere", "fresh"])
            lines[i] = " ".join(toks)
        elif op == 5 and toks:
            toks = toks[:-1] if rng.random() < 0.5 else toks + [rng.choice(_JUNK) or "x"]
            lines[i] = " ".join(toks)
        elif op == 6:
            cut = rng.randrange(len(line) + 1)
            lines.insert(i, line[:cut] + "#" + line[cut:] + rng.choice(["", " note"]))
        elif op == 7:
            lines.insert(i, rng.choice(["", "   ", "\t", "# comment", "  # x y"]))
        elif op == 8:
            lines.insert(i, rng.choice(["refutes w0 x0", "refutes w0", "refutes"]))
        elif op == 9:
            where = [k for k, text in enumerate(lines) if text.startswith("val ")]
            if where:
                k = rng.choice(where)
                toks = lines[k].split()
                toks[2] = rng.choice(_VARS)
                lines[k] = " ".join(toks)
        elif op == 10 and toks and toks[0] == "le":
            lines[i] = f"le {toks[-1]} {toks[1]}"
        elif op == 11 and toks and toks[0] in _POINT_AT:
            k = rng.choice(_POINT_AT[toks[0]])
            if k < len(toks):
                toks[k] = rng.choice(["x@1", "é", "x/0", "fresh", "x0", "x1"])
                lines[i] = " ".join(toks)
    sep = rng.choice(["\n", "\r\n"])
    return sep.join(lines) + rng.choice(["", sep, sep + sep])


def test_parse_model_matches_reference_on_mutated_files():
    rng = random.Random(2024)
    kinds = {}
    for text in printed_models(range(100)):
        lines = text.splitlines()
        for _ in range(20):
            mutant = mutate(rng, lines)
            kind = rng.choice([None, None, "fs", "mipc"])
            got = outcome(parse_model, mutant, kind)
            assert got == outcome(reference_parse_model, mutant, kind), mutant
            tag = "model" if isinstance(got, semantics.FiniteFSModel) else got[0]
            kinds[tag] = kinds.get(tag, 0) + 1
    assert kinds["model"] > 300 and kinds["syntax"] > 1500 and \
        kinds["validation"] > 300, kinds


def test_parse_model_matches_reference_on_edge_files():
    for text in ["", "\n", "# only a comment", "world a", "world a\nrefutes a x",
                 "refutes a x\nworld a\npoint a x", "point a x\nworld a",
                 "world a\npoint a x\ns a x y\ns a y nowhere@",
                 "world a\nval a p2 x\npoint a x", "world a\npoint a b#c\n",
                 "world a\x0cpoint a x\x1cval a p1 x", "kind mipc\nworld a"]:
        for kind in (None, "fs", "mipc", "bogus"):
            assert outcome(parse_model, text, kind) == \
                outcome(reference_parse_model, text, kind), (text, kind)


def test_tables_match_per_edge_reference_on_model_files():
    rng = random.Random(2025)
    parsed = 0
    for text in printed_models(range(100)):
        assert_tables_match(parse_model(text))
        lines = text.splitlines()
        for _ in range(20):
            got = outcome(parse_model, mutate(rng, lines), rng.choice([None, "mipc"]))
            if isinstance(got, semantics.FiniteFSModel):
                assert_tables_match(got)
                parsed += 1
    assert parsed > 300, parsed


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


def test_printed_order_is_the_transitive_reduction():
    rng = random.Random(31)
    for seed in range(200):
        model = random_model(random.Random(seed), max_worlds=6, max_points=1,
                             n_vars=0)
        # the same order with world ids in any order, as a model file's are
        perm = list(model.worlds())
        rng.shuffle(perm)
        shuffled = [0] * model.n_worlds
        for w, up in enumerate(model.up):
            shuffled[perm[w]] = sum(1 << perm[v] for v in bits_of(up))
        for up in (model.up, tuple(shuffled)):
            def below(u, v):
                return u != v and (up[u] >> v) & 1
            want = [(w, v) for w in model.worlds() for v in model.worlds()
                    if below(w, v) and not any(below(w, z) and below(z, v)
                                               for z in model.worlds())]
            assert _reduction_pairs(model._replace(up=up)) == want


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


def test_certificate_errors_carry_file_line_numbers():
    body = ["world a", "point a x", "", "bogus line", "point a y"]
    want = parse_model("world a\npoint a x\npoint a y\n")
    for at in (0, 2, 4, 5):
        lines = body[:at] + ["refutes a x  # trailer"] + body[at:]
        with pytest.raises(ModelSyntaxError) as err:
            parse_certificate("\n".join(lines) + "\n")
        assert err.value.reason == "unknown directive 'bogus'"
        assert err.value.line_no == lines.index("bogus line") + 1
        good = [line for line in lines if line != "bogus line"]
        assert parse_certificate("\r\n".join(good)) == (want, 0, 0)
        stray = [line.replace(" x ", " z ") for line in good]
        with pytest.raises(ModelSyntaxError) as err:
            parse_certificate("\n".join(stray))
        assert err.value.reason == "unknown point 'z'"
        assert err.value.line_no == good.index(lines[at]) + 1
    with pytest.raises(ModelSyntaxError) as err:
        parse_certificate("refutes a x\n\n# no worlds\n")
    assert (err.value.reason, err.value.line_no) == ("model declares no worlds", 3)


def test_certificate_errors_name_the_trailer_line():
    body = "world a\nworld b\nle a b\npoint a x\npoint b x\npoint b y\n"
    cases = [("refutes b y\n" + body + "refutes a x\n",
              "duplicate 'refutes' trailer", 8),
             (body + "refutes a\n", "expected 'refutes <world> <point>'", 7),
             ("refutes c x\n" + body, "unknown world 'c'", 1),
             (body + "refutes a y\n", "point 'y' does not live at world 'a'", 7)]
    for text, reason, line_no in cases:
        with pytest.raises(ModelSyntaxError) as err:
            parse_certificate(text)
        assert (err.value.reason, err.value.line_no) == (reason, line_no)
    assert parse_certificate(body + "refutes b y\n")[1:] == (1, 1)


def test_certificate_errors_come_at_the_first_malformed_line():
    # a second trailer is one more malformed line, not checked ahead of the
    # model lines
    text = "world a\npoint a x\nrefutes a x\nbogus line\nrefutes a x\n"
    with pytest.raises(ModelSyntaxError) as err:
        parse_certificate(text)
    assert (err.value.reason, err.value.line_no) == ("unknown directive 'bogus'", 4)
    text = "world a\npoint a x\nrefutes a x\nrefutes a x\nbogus line\n"
    with pytest.raises(ModelSyntaxError) as err:
        parse_certificate(text)
    assert (err.value.reason, err.value.line_no) == ("duplicate 'refutes' trailer", 4)
