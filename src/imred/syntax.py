"""Concrete syntax: formula text, model files, countermodel certificates.

Formula grammar (EBNF), with <> and [] binding tightest, then &, then |,
then right-associative ->; & and | associate to the left:

    formula := imp
    imp     := or ("->" imp)?
    or      := and ("|" and)*
    and     := unary ("&" unary)*
    unary   := "<>" unary | "[]" unary | atom
    atom    := "false" | VAR | "(" formula ")"
    VAR     := "p" [1-9][0-9]*

The parser is one loop over the tokens with explicit operand and operator
stacks, so nesting depth is bounded by memory, not by recursion; source
offsets are computed only when a parse fails, by rescanning the text.

Model files are line-oriented UTF-8; "#" starts a comment.  Directives:

    kind fs|mipc          optional, default fs
    world <id>            declares a world (order of declaration = id order)
    le <id> <id>          order pair; reflexive-transitive closure is taken
    point <world> <id>    adds a point to the world's point set
    s <world> <id> <id>   adds a pair to the world's relation
    val <world> p<k> <id> makes variable k true at the point in that world
                          (k at most 10,000)

Certificates append one trailer line: ``refutes <world> <point>``.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from . import semantics
from .formula import (AND, BOT, BOX, DIA, IMP, OR, VAR, BOTTOM, Formula, Var,
                      _binary, _check, _Checked, _gc_paused, _unary)
from .semantics import FiniteFSModel, Violation, bits_of


class _SpanFields(NamedTuple):
    begin: int
    end: int


class SourceSpan(_Checked, _SpanFields):
    """Half-open offsets [begin, end) into the input text."""

    __slots__ = ()

    def _check_fields(self) -> None:
        if not 0 <= self.begin <= self.end:
            raise ValueError(f"bad span {self.begin}..{self.end}")

    def __str__(self) -> str:
        return f"{self.begin}..{self.end}"


class FormulaSyntaxError(ValueError):
    """Formula text rejected; carries the offending span."""

    def __init__(self, message: str, span: SourceSpan):
        super().__init__(f"{message} at {span}")
        self.reason = message
        self.span = span


class ModelSyntaxError(ValueError):
    """Model file rejected before validation; carries the line number."""

    def __init__(self, message: str, line_no: int):
        super().__init__(f"line {line_no}: {message}")
        self.reason = message
        self.line_no = line_no


class ModelValidationError(ValueError):
    """Model file parsed but violates a frame or valuation condition."""

    def __init__(self, violations: list[Violation]):
        super().__init__("; ".join(str(v) for v in violations))
        self.violations = violations


# One token per match; whitespace is skipped, and the catch-all \S makes
# any other character a one-character token that no rule accepts.
_TOKEN = re.compile(r"false\b|p[1-9][0-9]*|->|<>|\[\]|[&|()]|\S")
# Binary operators bind by strength; one about to be pushed first reduces
# the stacked operators at least as strong (-> only those stronger, so it
# associates to the right).  "(" and the prefixes are absent: strength 0.
_STRENGTH = {"&": 3, "|": 2, "->": 1}
# Node kind per operator token: the parser's own operands need no check.
_KIND = {"&": AND, "|": OR, "->": IMP, "<>": DIA, "[]": BOX}


@_gc_paused
def parse_formula(text: str) -> Formula:
    """Parse formula text; raises :class:`FormulaSyntaxError` with a span."""
    tokens = _TOKEN.findall(text)
    args: list[Formula] = []
    ops: list[str] = []  # "(", "<>", "[]" and binary operators
    atoms = {"false": BOTTOM}
    depth = 0
    want_operand = True
    for i, tok in enumerate(tokens):
        if want_operand:
            if tok == "<>" or tok == "[]" or tok == "(":
                depth += tok == "("
                ops.append(tok)
                continue
            node = atoms.get(tok)
            if node is None:
                if tok[0] != "p" or len(tok) == 1:
                    raise _syntax_error(text, tokens, i, "a formula")
                try:
                    index = int(tok[1:])
                except ValueError:  # more digits than int() reads
                    raise _syntax_error(
                        text, tokens, i, "a formula",
                        f"variable index of {len(tok) - 1} digits is too "
                        "large") from None
                node = atoms[tok] = Var(index)
        elif tok in _STRENGTH:
            floor = _STRENGTH[tok] + (tok == "->")
            while ops and _STRENGTH.get(ops[-1], 0) >= floor:
                right = args.pop()
                args[-1] = _binary(_KIND[ops.pop()], args[-1], right)
            ops.append(tok)
            want_operand = True
            continue
        elif tok == ")" and depth:
            while (op := ops.pop()) != "(":
                right = args.pop()
                args[-1] = _binary(_KIND[op], args[-1], right)
            depth -= 1
            node = args.pop()
        else:
            raise _syntax_error(text, tokens, i,
                                "')'" if depth else "end of input")
        while ops and (ops[-1] == "<>" or ops[-1] == "[]"):
            node = _unary(_KIND[ops.pop()], node)
        args.append(node)
        want_operand = False
    if want_operand or depth:
        raise _syntax_error(text, tokens, len(tokens),
                            "a formula" if want_operand else "')'")
    while ops:
        right = args.pop()
        args[-1] = _binary(_KIND[ops.pop()], args[-1], right)
    return args[0]


def _syntax_error(text: str, tokens: list[str], at: int, expected: str,
                  reason: str | None = None) -> FormulaSyntaxError:
    """The error for a parse that failed at token ``at``.

    The reason is ``reason`` if given, else that ``expected`` was not
    found.  A character that starts no token outranks either, even one
    further left; none lies before ``at``, or the parse would have
    stopped there.  Offsets come from rescanning ``text``.
    """
    for k in range(at, len(tokens)):
        tok = tokens[k]
        if len(tok) == 1 and tok not in "&|()":
            at = k
            reason = (f"unexpected character {tok!r} (expected a variable "
                      "like p1, 'false', a connective, or parentheses)")
            break
    else:
        if reason is None:
            found = "end of input" if at == len(tokens) else repr(tokens[at])
            reason = f"expected {expected}, found {found}"
    span = SourceSpan(len(text), len(text))
    for k, m in enumerate(_TOKEN.finditer(text)):
        if k == at:
            span = SourceSpan(m.start(), m.end())
            break
    return FormulaSyntaxError(reason, span)


# Binding strength per node kind; children are parenthesised whenever
# their strength is below what their position requires.
_PREC = {IMP: 1, OR: 2, AND: 3, DIA: 4, BOX: 4, VAR: 5, BOT: 5}


def print_formula(phi: Formula) -> str:
    """Render with minimal parentheses; parsing the result restores ``phi``.

    Iterative over the expanded tree, so output size (not recursion
    depth) is the only limit; shared subterms are expanded repeatedly.
    """
    out: list[str] = []
    stack: list[object] = [(_check(phi), 0)]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            out.append(item)
            continue
        node, floor = item
        prec = _PREC[node.kind]
        wrap = prec < floor
        if wrap:
            out.append("(")
            stack.append(")")
        kind = node.kind
        if kind == VAR:
            out.append(f"p{node.var}")
        elif kind == BOT:
            out.append("false")
        elif kind == DIA:
            out.append("<>")
            stack.append((node.left, 4))
        elif kind == BOX:
            out.append("[]")
            stack.append((node.left, 4))
        elif kind == IMP:
            stack.append((node.right, 1))
            stack.append(" -> ")
            stack.append((node.left, 2))
        elif kind == OR:
            stack.append((node.right, 3))
            stack.append(" | ")
            stack.append((node.left, 2))
        else:
            stack.append((node.right, 4))
            stack.append(" & ")
            stack.append((node.left, 3))
    return "".join(out)


_NAME = re.compile(r"[A-Za-z0-9_.-]+\Z")
_VAL_VAR = re.compile(r"p([1-9][0-9]*)\Z")
# A model keeps one valuation row per variable up to its largest index,
# so a file may name variables up to this index only.
_MAX_VAL_VAR = 10_000


def _new_point(point_ids: dict[str, int], tok: str, line_no: int) -> int:
    # Called only for a token not yet in point_ids, so each id's name is
    # checked once, when the id is assigned.
    if _NAME.match(tok) is None:
        raise ModelSyntaxError(f"bad point id {tok!r}", line_no)
    got = point_ids[tok] = len(point_ids)
    return got


def _var_index(tok: str, line_no: int) -> int:
    mvar = _VAL_VAR.match(tok)
    if mvar is None:
        raise ModelSyntaxError(f"bad variable token {tok!r}", line_no)
    digits = mvar.group(1)
    if len(digits) > len(str(_MAX_VAL_VAR)) or (p := int(digits)) > _MAX_VAL_VAR:
        raise ModelSyntaxError(f"variable index above {_MAX_VAL_VAR}", line_no)
    return p


def parse_model(text: str, kind: str | None = None) -> FiniteFSModel:
    """Read a model file in one pass, validate it, and return the model.

    ``kind`` overrides any ``kind`` directive in the file; the default is
    fs.  The line loop builds point sets as it reads and collects
    relation pairs and valuation triples; their masks follow once the
    point count (the number of distinct point ids) is known.  Raises
    :class:`ModelSyntaxError` at the first malformed line, checking its
    argument count, then a ``val`` variable token and its cap, then world
    names, then point ids; then :class:`ModelValidationError` naming
    every condition :func:`semantics.validate_model` finds violated.
    """
    return _read_model(text, kind, certificate=False)[0]


def _read_model(text: str, kind: str | None, certificate: bool
                ) -> tuple[FiniteFSModel, tuple[str, str, int] | None]:
    """:func:`parse_model`, also returning the ``refutes`` trailer as
    (world name, point name, line number): a certificate needs exactly
    one, and a model file none (all its trailers get one error at its end)."""
    lines = text.splitlines()
    if "#" in text:
        lines = [raw.partition("#")[0] for raw in lines]
    world_ids: dict[str, int] = {}
    point_ids: dict[str, int] = {}
    var_ids: dict[str, int] = {}
    order: list[tuple[int, int]] = []
    delta: list[int] = []
    pairs: list[tuple[int, int, int]] = []
    vals: list[tuple[int, int, int]] = []
    file_kind: str | None = None
    trailer: tuple[str, str, int] | None = None
    for line_no, fields in enumerate(map(str.split, lines), 1):
        if not fields:
            continue
        directive = fields[0]
        if directive == "s":
            if len(fields) != 4:
                raise ModelSyntaxError("expected 's <world> <id> <id>'", line_no)
            if (w := world_ids.get(fields[1])) is None:
                raise ModelSyntaxError(f"unknown world {fields[1]!r}", line_no)
            if (x := point_ids.get(fields[2])) is None:
                x = _new_point(point_ids, fields[2], line_no)
            if (y := point_ids.get(fields[3])) is None:
                y = _new_point(point_ids, fields[3], line_no)
            pairs.append((w, x, y))
        elif directive == "val":
            if len(fields) != 4:
                raise ModelSyntaxError("expected 'val <world> p<k> <point>'", line_no)
            if (p := var_ids.get(fields[2])) is None:
                p = var_ids[fields[2]] = _var_index(fields[2], line_no)
            if (w := world_ids.get(fields[1])) is None:
                raise ModelSyntaxError(f"unknown world {fields[1]!r}", line_no)
            if (x := point_ids.get(fields[3])) is None:
                x = _new_point(point_ids, fields[3], line_no)
            vals.append((p, w, x))
        elif directive == "point":
            if len(fields) != 3:
                raise ModelSyntaxError("expected 'point <world> <id>'", line_no)
            if (w := world_ids.get(fields[1])) is None:
                raise ModelSyntaxError(f"unknown world {fields[1]!r}", line_no)
            if (x := point_ids.get(fields[2])) is None:
                x = _new_point(point_ids, fields[2], line_no)
            delta[w] |= 1 << x
        elif directive == "world":
            if len(fields) != 2 or _NAME.match(fields[1]) is None:
                raise ModelSyntaxError("expected 'world <id>'", line_no)
            if fields[1] in world_ids:
                raise ModelSyntaxError(f"world {fields[1]!r} declared twice", line_no)
            world_ids[fields[1]] = len(delta)
            delta.append(0)
        elif directive == "le":
            if len(fields) != 3:
                raise ModelSyntaxError("expected 'le <world> <world>'", line_no)
            for tok in fields[1:]:
                if tok not in world_ids:
                    raise ModelSyntaxError(f"unknown world {tok!r}", line_no)
            order.append((world_ids[fields[1]], world_ids[fields[2]]))
        elif directive == "kind":
            if len(fields) != 2 or fields[1] not in semantics.KINDS:
                raise ModelSyntaxError("expected 'kind fs' or 'kind mipc'", line_no)
            file_kind = fields[1]
        elif directive == "refutes":
            if certificate and trailer is not None:
                raise ModelSyntaxError("duplicate 'refutes' trailer", line_no)
            if len(fields) != 3:
                raise ModelSyntaxError("expected 'refutes <world> <point>'", line_no)
            trailer = (fields[1], fields[2], line_no)
        else:
            raise ModelSyntaxError(f"unknown directive {directive!r}", line_no)
    if certificate != (trailer is not None):
        raise ModelSyntaxError(
            "certificate lacks a 'refutes' trailer" if certificate else
            "'refutes' trailer is only allowed in certificates "
            "(use parse_certificate)", max(1, len(lines)))
    if not world_ids:
        raise ModelSyntaxError("model declares no worlds", max(1, len(lines)))
    kind = kind if kind is not None else (file_kind or semantics.FS)
    if kind not in semantics.KINDS:
        raise ValueError(f"unknown model kind {kind!r}")
    n_worlds, n_points = len(delta), max(1, len(point_ids))
    srel = [0] * n_worlds
    for w, x, y in pairs:
        srel[w] |= 1 << (x * n_points + y)
    nvars = max(var_ids.values(), default=0)
    val = [[0] * n_worlds for _ in range(nvars)]
    for p, w, x in vals:
        val[p - 1][w] |= 1 << x
    model = FiniteFSModel(
        kind=kind, n_worlds=n_worlds, n_points=n_points,
        up=semantics.transitive_up(n_worlds, order), delta=tuple(delta),
        srel=tuple(srel), nvars=nvars, val=tuple(map(tuple, val)),
        world_names=tuple(world_ids), point_names=tuple(point_ids) or ("x0",))
    violations = semantics.validate_model(model)
    if violations:
        raise ModelValidationError(violations)
    return model, trailer


def _reduction_pairs(model: FiniteFSModel) -> list[tuple[int, int]]:
    # Transitive reduction of the strict order: enough for the closure to
    # restore the full relation, and the shortest faithful printout.
    out = []
    for w, up in enumerate(model.up):
        strict = up & ~(1 << w)
        covered = 0
        for v in bits_of(strict):
            covered |= model.up[v] & ~(1 << v)
        for v in bits_of(strict & ~covered):
            out.append((w, v))
    return out


def print_model(model: FiniteFSModel) -> str:
    """Serialise a model; ``parse_model`` restores an equal model."""
    wn, pn = model.world_names, model.point_names
    lines = [f"kind {model.kind}"]
    for w in model.worlds():
        lines.append(f"world {wn[w]}")
    for w, v in _reduction_pairs(model):
        lines.append(f"le {wn[w]} {wn[v]}")
    for w in model.worlds():
        for x in model.points_of(w):
            lines.append(f"point {wn[w]} {pn[x]}")
    for w in model.worlds():
        for x in model.points_of(w):
            row = model.succ(w, x)
            for y in bits_of(row):
                lines.append(f"s {wn[w]} {pn[x]} {pn[y]}")
    for p in range(1, model.nvars + 1):
        for w in model.worlds():
            for x in bits_of(model.val[p - 1][w]):
                lines.append(f"val {wn[w]} p{p} {pn[x]}")
    return "\n".join(lines) + "\n"


def print_certificate(model: FiniteFSModel, w: int, x: int) -> str:
    """Model text plus the ``refutes`` trailer naming the failing pair."""
    return print_model(model) + \
        f"refutes {model.world_names[w]} {model.point_names[x]}\n"


def parse_certificate(text: str) -> tuple[FiniteFSModel, int, int]:
    """Read a certificate: a model file with one ``refutes`` trailer.

    The trailer may stand on any line.  Errors follow :func:`parse_model`,
    at the first malformed line, a second trailer included; a trailer
    that names an unknown world or point, or a point that does not live
    at the world, is reported at the trailer's line once the model is
    valid.
    """
    model, (wname, xname, line_no) = _read_model(text, None, certificate=True)
    try:
        w = model.world_names.index(wname)
    except ValueError:
        raise ModelSyntaxError(f"unknown world {wname!r}", line_no) from None
    try:
        x = model.point_names.index(xname)
    except ValueError:
        raise ModelSyntaxError(f"unknown point {xname!r}", line_no) from None
    if not model.has_point(w, x):
        raise ModelSyntaxError(
            f"point {xname!r} does not live at world {wname!r}", line_no)
    return model, w, x
