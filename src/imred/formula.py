"""Immutable formula terms over {variables, false, &, |, ->, <>, []}.

Nodes are hash-consed: every constructor interns the node it returns, so
structurally equal terms are the same Python object and repeated subterms
share storage.  Each arity has its own interning constructor and each
kind its own table, and no key is an object of its own that the cyclic
collector tracks (see ``_tables``); every other map over nodes is keyed
by the node, which hashes and compares by identity.  A node pickles as
the flat children-first code of its DAG and unpickles re-interned, so a
round trip within one generation gives the same object.  Per-node
metrics (symbol length, modal depth, expanded tree size, variable set,
positivity) are computed once at construction and stay O(1) to read
even when the fully expanded tree would be far too large to
materialise.  Equal variable sets are one
shared frozenset, kept in a table that ``clear_caches`` empties, so a
node costs its slots, not a set of its own.  Nodes form no cycles, so
the DAG builders (``_gc_paused``) pause the cyclic garbage collector; a
``gc.disable()`` by other code during a build is undone when it ends.

Variable indices start at 1.  The symbol-length measure charges 1 for
every connective or constant occurrence and 1 + ceil(log2(i + 1)) for an
occurrence of variable i (binary encoding of variable indices); nothing
is charged for grouping, since terms are trees rather than strings.
"""

from __future__ import annotations

import functools
import gc
from typing import Iterator, Mapping

VAR = "var"
BOT = "bot"
AND = "and"
OR = "or"
IMP = "imp"
DIA = "dia"
BOX = "box"


class Formula:
    """One interned node of a formula DAG.

    Do not instantiate directly; use ``Var``/``BOTTOM``/``And``/``Or``/
    ``Implies``/``Diamond``/``Box``.  Because nodes are interned, ``==``
    (identity) is structural equality, and nodes are usable as dict keys.
    """

    __slots__ = ("kind", "var", "left", "right", "length", "mdepth",
                 "tree_size", "vars", "positive")

    kind: str
    var: int
    left: "Formula | None"
    right: "Formula | None"
    length: int
    mdepth: int
    tree_size: int
    vars: frozenset[int]
    positive: bool

    def __repr__(self) -> str:
        if self.length <= 40:
            from . import syntax

            return f"Formula({syntax.print_formula(self)!r})"
        return f"Formula(kind={self.kind!r}, length={self.length})"

    def __copy__(self) -> "Formula":
        return self

    def __deepcopy__(self, memo: object) -> "Formula":
        return self

    def __reduce__(self):
        return _from_code, (_code(self)[1],)


# One intern table per kind.  A leaf is keyed by its variable index, a
# unary node by its child node and a binary node by the int
# id(left) << 64 | id(right), so no key is an object of its own that the
# cyclic collector tracks.  The packing is injective because ids are below
# 2**64, and sound because the node stored under a key holds both
# children, so neither id can be reused while the key is in the table.
_tables: dict[str, dict] = {kind: {} for kind in (VAR, BOT, AND, OR, IMP, DIA, BOX)}
_var_sets: dict[frozenset[int], frozenset[int]] = {}
_cache_clearers: list = []


def _leaf(kind: str, var: int) -> Formula:
    table = _tables[kind]
    hit = table.get(var)
    if hit is not None:
        return hit
    n = object.__new__(Formula)
    n.kind = kind
    n.var = var
    n.left = n.right = None
    n.mdepth = 0
    n.tree_size = 1
    if kind == VAR:
        n.length = 1 + var.bit_length()
        n.vars = frozenset((var,))
        n.positive = True
    else:
        n.length = 1
        n.vars = frozenset()
        n.positive = False
    # setdefault keeps identity deterministic if two threads race here
    return table.setdefault(var, n)


def _unary(kind: str, child: Formula) -> Formula:
    table = _tables[kind]
    hit = table.get(child)
    if hit is not None:
        return hit
    n = object.__new__(Formula)
    n.kind = kind
    n.var = 0
    n.left = child
    n.right = None
    n.length = 1 + child.length
    n.mdepth = 1 + child.mdepth
    n.tree_size = 1 + child.tree_size
    n.vars = child.vars
    n.positive = child.positive
    return table.setdefault(child, n)


def _binary(kind: str, left: Formula, right: Formula) -> Formula:
    table = _tables[kind]
    key = id(left) << 64 | id(right)
    hit = table.get(key)
    if hit is not None:
        return hit
    n = object.__new__(Formula)
    n.kind = kind
    n.var = 0
    n.left = left
    n.right = right
    n.length = 1 + left.length + right.length
    ld, rd = left.mdepth, right.mdepth
    n.mdepth = ld if ld >= rd else rd
    n.tree_size = 1 + left.tree_size + right.tree_size
    lv, rv = left.vars, right.vars
    if rv <= lv:
        n.vars = lv
    elif lv <= rv:
        n.vars = rv
    else:
        union = lv | rv
        n.vars = _var_sets.setdefault(union, union)
    n.positive = left.positive and right.positive
    return table.setdefault(key, n)


def _check(phi: object) -> Formula:
    if not isinstance(phi, Formula):
        raise TypeError(f"expected a Formula, got {type(phi).__name__}")
    return phi


def Var(index: int) -> Formula:
    if not isinstance(index, int) or isinstance(index, bool) or index < 1:
        raise ValueError(f"variable index must be an integer >= 1, got {index!r}")
    return _leaf(VAR, index)


BOTTOM: Formula = _leaf(BOT, 0)


def And(left: Formula, right: Formula) -> Formula:
    return _binary(AND, _check(left), _check(right))


def Or(left: Formula, right: Formula) -> Formula:
    return _binary(OR, _check(left), _check(right))


def Implies(left: Formula, right: Formula) -> Formula:
    return _binary(IMP, _check(left), _check(right))


def Diamond(child: Formula) -> Formula:
    return _unary(DIA, _check(child))


def Box(child: Formula) -> Formula:
    return _unary(BOX, _check(child))


def mdepth(phi: Formula) -> int:
    """Maximal nesting of <> and [] in ``phi``."""
    return _check(phi).mdepth


def varset(phi: Formula) -> frozenset[int]:
    """The set of variable indices occurring in ``phi``."""
    return _check(phi).vars


def length(phi: Formula) -> int:
    """Symbol count of ``phi`` with binary variable encoding."""
    return _check(phi).length


def tree_size(phi: Formula) -> int:
    """Node count of the fully expanded tree (may be astronomically large)."""
    return _check(phi).tree_size


def is_positive(phi: Formula) -> bool:
    """True iff ``phi`` contains no occurrence of the constant false."""
    return _check(phi).positive


def subformulas(phi: Formula) -> Iterator[Formula]:
    """All distinct subterms of ``phi`` in bottom-up (children-first) order.

    Each node comes once, as soon as its last child is done, left
    subtrees before right ones; ``phi`` itself comes last.  The stack is
    one path down the DAG; the dict of finished nodes is the output.
    """
    done: dict[Formula, None] = {}
    stack = [_check(phi)]
    while stack:
        node = stack[-1]
        left, right = node.left, node.right
        if left is not None and left not in done:
            stack.append(left)
        elif right is not None and right not in done:
            stack.append(right)
        else:
            done[stack.pop()] = None
    return iter(done)


def _code(phi: Formula) -> tuple[tuple[Formula, ...],
                                 tuple[tuple[str, int, int], ...]]:
    """The distinct subterms of ``phi``, children-first with the root
    last, and one instruction (kind, left position or variable index,
    right position) per subterm."""
    nodes = tuple(subformulas(phi))
    position = {node: k for k, node in enumerate(nodes)}
    return nodes, tuple((node.kind, node.var, 0) if node.kind == VAR else
                        (node.kind, position.get(node.left, 0),
                         position.get(node.right, 0)) for node in nodes)


def _gc_paused(fn):
    @functools.wraps(fn)
    def paused(*args, **kwargs):
        if not gc.isenabled():
            return fn(*args, **kwargs)
        gc.disable()
        try:
            return fn(*args, **kwargs)
        finally:
            gc.enable()
    return paused


class _Checked:
    """Checks for a NamedTuple record: list it before the record's
    NamedTuple base, whose body may not define ``__new__``, and define
    ``_check_fields``.  A call, ``_replace`` and unpickling all run the
    check, since ``_make`` calls the class, not ``tuple.__new__``.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        self._check_fields()
        return self

    @classmethod
    def _make(cls, fields):
        return cls(*fields)


@_gc_paused
def _rebuild(phi: Formula, leaf_image) -> Formula:
    """Bottom-up map over :func:`subformulas`; ``leaf_image`` maps each
    distinct leaf once, and a node whose children map to themselves
    keeps its identity."""
    image: dict[Formula, Formula] = {}
    for node in subformulas(phi):
        left, right = node.left, node.right
        if left is None:
            image[node] = leaf_image(node)
        elif right is None:
            nl = image[left]
            image[node] = node if nl is left else _unary(node.kind, nl)
        else:
            nl, nr = image[left], image[right]
            image[node] = node if nl is left and nr is right else \
                _binary(node.kind, nl, nr)
    return image[phi]


@_gc_paused
def _from_code(code: tuple[tuple[str, int, int], ...]) -> Formula:
    """The root of ``code`` (as built by :func:`_code`), interned in the
    current generation; unpickling calls it."""
    nodes: list[Formula] = []
    for kind, a, b in code:
        if kind == VAR:
            node = Var(a)
        elif kind == BOT:
            node = BOTTOM
        elif kind == DIA or kind == BOX:
            node = _unary(kind, nodes[a])
        else:
            node = _binary(kind, nodes[a], nodes[b])
        nodes.append(node)
    return nodes[-1]


def substitute(phi: Formula, bindings: Mapping[int, Formula]) -> Formula:
    """Simultaneous substitution of formulas for variables.

    Unbound variables are left unchanged; the empty binding is the
    identity.  Replacement is one-pass, so bound images are never
    rescanned (swapping two variables works as expected).
    """
    _check(phi)
    if not bindings:
        return phi
    for index, image in bindings.items():
        if not isinstance(index, int) or isinstance(index, bool) or index < 1:
            raise ValueError(f"bad binding key {index!r}: variable indices are integers >= 1")
        _check(image)
    # false has var 0, which no binding key equals
    return _rebuild(phi, lambda n: bindings.get(n.var, n))


def replace_bottom(phi: Formula, image: Formula) -> Formula:
    """Replace every occurrence of the constant false by ``image``."""
    _check(phi)
    _check(image)
    return _rebuild(phi, lambda n: image if n.kind == BOT else n)


def diamond_chain_le(m: int, psi: Formula) -> Formula:
    """psi | <>psi | ... | <>^m psi, combined right-nested; m = 0 gives psi."""
    return _chain(m, psi, DIA, OR)


def box_chain_le(m: int, psi: Formula) -> Formula:
    """psi & []psi & ... & []^m psi, combined right-nested; m = 0 gives psi."""
    return _chain(m, psi, BOX, AND)


def _chain(m: int, psi: Formula, modal: str, join: str) -> Formula:
    if not isinstance(m, int) or isinstance(m, bool) or m < 0:
        raise ValueError(f"chain bound must be a natural number, got {m!r}")
    _check(psi)
    tower = [psi]
    for _ in range(m):
        tower.append(_unary(modal, tower[-1]))
    acc = tower[-1]
    for part in reversed(tower[:-1]):
        acc = _binary(join, part, acc)
    return acc


def register_cache_clearer(fn) -> None:
    """Register a callback run by :func:`clear_caches`."""
    _cache_clearers.append(fn)


def clear_caches() -> None:
    """Drop all interned nodes and registered derived caches.

    This starts a new cache generation: nodes built later are new objects
    (only ``BOTTOM`` carries over), so identity-based equality only holds
    between nodes of one generation.  To compare across generations,
    round-trip the old node through pickle, which re-interns it into the
    current one, or compare the printed texts.
    """
    for table in _tables.values():
        table.clear()
    _var_sets.clear()
    _tables[BOT][0] = BOTTOM
    for fn in _cache_clearers:
        fn()
