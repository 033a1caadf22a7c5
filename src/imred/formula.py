"""Immutable formula terms over {variables, false, &, |, ->, <>, []}.

Nodes are hash-consed: every constructor interns the node it returns, so
structurally equal terms are the same Python object and repeated subterms
share storage.  Per-node metrics (symbol length, modal depth, expanded
tree size, variable set, positivity) are computed once at construction
and stay O(1) to read even when the fully expanded tree would be far too
large to materialise.

Variable indices start at 1.  The symbol-length measure charges 1 for
every connective or constant occurrence and 1 + ceil(log2(i + 1)) for an
occurrence of variable i (binary encoding of variable indices); nothing
is charged for grouping, since terms are trees rather than strings.
"""

from __future__ import annotations

from typing import Iterator, Mapping

VAR = "var"
BOT = "bot"
AND = "and"
OR = "or"
IMP = "imp"
DIA = "dia"
BOX = "box"

BINARY_KINDS = (AND, OR, IMP)
UNARY_KINDS = (DIA, BOX)


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


_table: dict[tuple[str, int, int, int], Formula] = {}
_cache_clearers: list = []


def _node(kind: str, var: int = 0, left: Formula | None = None,
          right: Formula | None = None) -> Formula:
    key = (kind, var, id(left), id(right))
    hit = _table.get(key)
    if hit is not None:
        return hit
    n = object.__new__(Formula)
    n.kind = kind
    n.var = var
    n.left = left
    n.right = right
    if kind == VAR:
        n.length = 1 + var.bit_length()
        n.mdepth = 0
        n.tree_size = 1
        n.vars = frozenset((var,))
        n.positive = True
    elif kind == BOT:
        n.length = 1
        n.mdepth = 0
        n.tree_size = 1
        n.vars = frozenset()
        n.positive = False
    elif kind in UNARY_KINDS:
        n.length = 1 + left.length
        n.mdepth = 1 + left.mdepth
        n.tree_size = 1 + left.tree_size
        n.vars = left.vars
        n.positive = left.positive
    else:
        n.length = 1 + left.length + right.length
        n.mdepth = max(left.mdepth, right.mdepth)
        n.tree_size = 1 + left.tree_size + right.tree_size
        lv, rv = left.vars, right.vars
        if rv <= lv:
            n.vars = lv
        elif lv <= rv:
            n.vars = rv
        else:
            n.vars = lv | rv
        n.positive = left.positive and right.positive
    # setdefault keeps identity deterministic if two threads race here
    return _table.setdefault(key, n)


def _check(phi: object) -> Formula:
    if not isinstance(phi, Formula):
        raise TypeError(f"expected a Formula, got {type(phi).__name__}")
    return phi


def Var(index: int) -> Formula:
    if not isinstance(index, int) or isinstance(index, bool) or index < 1:
        raise ValueError(f"variable index must be an integer >= 1, got {index!r}")
    return _node(VAR, index)


BOTTOM: Formula = _node(BOT)


def And(left: Formula, right: Formula) -> Formula:
    return _node(AND, 0, _check(left), _check(right))


def Or(left: Formula, right: Formula) -> Formula:
    return _node(OR, 0, _check(left), _check(right))


def Implies(left: Formula, right: Formula) -> Formula:
    return _node(IMP, 0, _check(left), _check(right))


def Diamond(child: Formula) -> Formula:
    return _node(DIA, 0, _check(child))


def Box(child: Formula) -> Formula:
    return _node(BOX, 0, _check(child))


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
    subtrees before right ones; ``phi`` itself comes last.
    """
    done: set[int] = set()
    out: list[Formula] = []
    stack = [(_check(phi), False)]
    while stack:
        node, ready = stack.pop()
        if ready:
            done.add(id(node))
            out.append(node)
        elif id(node) not in done:
            stack.append((node, True))
            if node.right is not None and id(node.right) not in done:
                stack.append((node.right, False))
            if node.left is not None and id(node.left) not in done:
                stack.append((node.left, False))
    return iter(out)


def _rebuild(phi: Formula, at_var, at_bot) -> Formula:
    """Bottom-up map over the DAG; ``at_var``/``at_bot`` supply leaf images."""
    memo: dict[int, Formula] = {}
    stack = [phi]
    while stack:
        node = stack[-1]
        nid = id(node)
        if nid in memo:
            stack.pop()
            continue
        kind = node.kind
        if kind == VAR:
            memo[nid] = at_var(node)
            stack.pop()
        elif kind == BOT:
            memo[nid] = at_bot(node)
            stack.pop()
        elif kind in UNARY_KINDS:
            child = node.left
            got = memo.get(id(child))
            if got is None and id(child) not in memo:
                stack.append(child)
                continue
            stack.pop()
            memo[nid] = node if got is child else _node(kind, 0, got)
        else:
            left, right = node.left, node.right
            missing = False
            if id(left) not in memo:
                stack.append(left)
                missing = True
            if id(right) not in memo:
                stack.append(right)
                missing = True
            if missing:
                continue
            stack.pop()
            nl, nr = memo[id(left)], memo[id(right)]
            memo[nid] = node if (nl is left and nr is right) else _node(kind, 0, nl, nr)
    return memo[id(phi)]


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
        if not isinstance(index, int) or index < 1:
            raise ValueError(f"bad binding key {index!r}: variable indices are integers >= 1")
        _check(image)
    return _rebuild(phi, lambda n: bindings.get(n.var, n), lambda n: n)


def replace_bottom(phi: Formula, image: Formula) -> Formula:
    """Replace every occurrence of the constant false by ``image``."""
    _check(phi)
    _check(image)
    return _rebuild(phi, lambda n: n, lambda n: image)


def diamond_chain_le(m: int, psi: Formula) -> Formula:
    """psi | <>psi | ... | <>^m psi, combined right-nested; m = 0 gives psi."""
    return _chain(m, psi, DIA, OR)


def box_chain_le(m: int, psi: Formula) -> Formula:
    """psi & []psi & ... & []^m psi, combined right-nested; m = 0 gives psi."""
    return _chain(m, psi, BOX, AND)


def _chain(m: int, psi: Formula, modal: str, join: str) -> Formula:
    if not isinstance(m, int) or m < 0:
        raise ValueError(f"chain bound must be a natural number, got {m!r}")
    _check(psi)
    tower = [psi]
    for _ in range(m):
        tower.append(_node(modal, 0, tower[-1]))
    acc = tower[-1]
    for part in reversed(tower[:-1]):
        acc = _node(join, 0, part, acc)
    return acc


def structurally_equal(a: Formula, b: Formula) -> bool:
    """Structural comparison that also works across cache generations."""
    _check(a)
    _check(b)
    done: set[tuple[int, int]] = set()
    stack = [(a, b)]
    while stack:
        x, y = stack.pop()
        if x is y or (id(x), id(y)) in done:
            continue
        if x.kind != y.kind or x.var != y.var or x.length != y.length:
            return False
        done.add((id(x), id(y)))
        if x.left is not None:
            stack.append((x.left, y.left))
        if x.right is not None:
            stack.append((x.right, y.right))
    return True


def register_cache_clearer(fn) -> None:
    """Register a callback run by :func:`clear_caches`."""
    _cache_clearers.append(fn)


def clear_caches() -> None:
    """Drop all interned nodes and registered derived caches.

    Identity-based equality only holds between nodes built inside one
    cache generation; use :func:`structurally_equal` across generations.
    """
    _table.clear()
    _table[(BOT, 0, id(None), id(None))] = BOTTOM
    for fn in _cache_clearers:
        fn()
