"""Translation of FS/MIPC formulas into their positive one-variable fragment.

The pipeline has two validity-preserving stages:

1. ``positive_embed`` removes the constant false.  A fresh variable f
   stands in for false, and a guard premise forces f to behave like
   false wherever the input can see: anything that can reach f collapses
   to f, f persists under [] up to the input's modal depth, and f
   entails every input variable there.

2. ``star`` removes all but one variable.  Every variable p_r of a
   positive input is replaced by A_r | B_r, where the A/B formulas form
   a recursively defined family over a single variable.  Levels 0 and 1
   of the family are fixed tables; level k+1 contains, for every pair
   (i, j) with 2 <= i, j <= n_k, the formulas

       A'_{g(i,j)} = A_1 -> B_1 | A_i | B_j
       B'_{g(i,j)} = B_1 -> A_1 | A_i | B_j

   built from level k, so n_{k+1} = (n_k - 1)^2.  The pair enumeration g
   walks concentric square shells of the grid {2, 3, ...}^2 starting at
   g(2, 2) = 1; see ``spiral_index``/``spiral_cell``/``spiral_walk``.

The substitution level is chosen so that the family outruns both the
input length and a fixed exponential margin: with base_size the summed
length of the four level-0 formulas, stability_level returns the least
k0 such that n_k exceeds base_size * 5^k from k0 onwards, and an input
of length below base_size * 5^k is substituted at level k + k0.  This
keeps every substituted formula shorter than base_size * 5^(level) and
the whole output quadratic in the input length.
"""

from __future__ import annotations

import functools
import math
from typing import Iterator, NamedTuple

from . import formula as fm
from .formula import (And, Box, Diamond, Formula, Implies, Or, Var, _check,
                      _gc_paused, box_chain_le, diamond_chain_le, is_positive,
                      length, replace_bottom, substitute)

LETTERS = ("A", "B")


# ---------------------------------------------------------------------------
# Spiral enumeration of grid cells (i, j), i, j >= 2.


def spiral_index(i: int, j: int) -> int:
    """Rank (from 1) of cell (i, j) in the square-shell walk.

    Shell s = max(i, j); all cells with smaller shell occupy the first
    (s - 2)^2 ranks.  Odd shells are walked up their right column
    (s, 2) .. (s, s) and then left along the top row to (2, s); even
    shells are walked right along the top row (2, s) .. (s, s) and then
    down the right column to (s, 2).
    """
    if not isinstance(i, int) or not isinstance(j, int) or i < 2 or j < 2:
        raise ValueError(f"cells have coordinates >= 2, got ({i!r}, {j!r})")
    s = max(i, j)
    base = (s - 2) ** 2
    if s % 2:
        offset = (j - 1) if i == s else (s - 1) + (s - i)
    else:
        offset = (i - 1) if j == s else (s - 1) + (s - j)
    return base + offset


def spiral_cell(rank: int) -> tuple[int, int]:
    """Inverse of :func:`spiral_index`; shell s closes at rank (s - 1)^2."""
    if not isinstance(rank, int) or rank < 1:
        raise ValueError(f"ranks start at 1, got {rank!r}")
    root = math.isqrt(rank)
    s = (root if root * root == rank else root + 1) + 1
    offset = rank - (s - 2) ** 2
    first_leg = s - 1
    if s % 2:
        if offset <= first_leg:
            return s, offset + 1
        return s - (offset - first_leg), s
    if offset <= first_leg:
        return offset + 1, s
    return s, s - (offset - first_leg)


def spiral_walk() -> Iterator[tuple[int, int]]:
    """Cells in rank order by literally stepping along the shell arrows.

    Single-cell steps only (up, down, left, right), driven by the
    current position; independent of the closed-form rank arithmetic,
    which makes it the reference the arithmetic is checked against.
    """
    i = j = 2
    while True:
        yield i, j
        s = max(i, j)
        if s % 2:
            if i == s and j < s:
                j += 1          # up the right column
            elif j == s and i > 2:
                i -= 1          # left along the top row
            else:
                j += 1          # shell done at (2, s): step up, next shell
        else:
            if j == s and i < s:
                i += 1          # right along the top row
            elif i == s and j > 2:
                j -= 1          # down the right column
            else:
                i += 1          # shell done at (s, 2): step right, next shell


# ---------------------------------------------------------------------------
# The formula family.

_counts: list[int] = [2, 3]
_family_memo: dict[tuple[str, int, int], Formula] = {}
fm.register_cache_clearer(_family_memo.clear)


def level_count(level: int) -> int:
    """Number of A-formulas (equally, B-formulas) at a level.

    Levels 0 and 1 hold 2 and 3 formulas per letter; from level 1 on the
    recursion squares: count(k + 1) = (count(k) - 1)^2.  Grows doubly
    exponentially; exact integers throughout.
    """
    if not isinstance(level, int) or level < 0:
        raise ValueError(f"levels are natural numbers, got {level!r}")
    while len(_counts) <= level:
        _counts.append((_counts[-1] - 1) ** 2)
    return _counts[level]


def ground_formulas() -> tuple[Formula, Formula, Formula]:
    """The three seed formulas over p1: <>p1, <>p1 -> p1, p1 -> []p1."""
    p = Var(1)
    return Diamond(p), Implies(Diamond(p), p), Implies(p, Box(p))


@_gc_paused
def family_formula(letter: str, level: int, index: int) -> Formula:
    """Member ``index`` of the A- or B-family at ``level`` over p1.

    Memoized on (letter, level, index), so construction cost is
    proportional to the number of distinct subterms materialised, not to
    the expanded tree.  Raises for indices outside 1..level_count(level).
    """
    if letter not in LETTERS:
        raise ValueError(f"letter must be 'A' or 'B', got {letter!r}")
    count = level_count(level)
    if not isinstance(index, int) or not 1 <= index <= count:
        raise ValueError(
            f"index {index!r} out of range 1..{count} for level {level}")
    key = (letter, level, index)
    hit = _family_memo.get(key)
    if hit is not None:
        return hit
    if level <= 1:
        for key01, phi in _level01_table().items():
            _family_memo.setdefault(key01, phi)
        return _family_memo[key]
    i, j = spiral_cell(index)
    first_a = family_formula("A", level - 1, 1)
    first_b = family_formula("B", level - 1, 1)
    part_a = family_formula("A", level - 1, i)
    part_b = family_formula("B", level - 1, j)
    if letter == "A":
        head, alt = first_a, first_b
    else:
        head, alt = first_b, first_a
    phi = Implies(head, Or(Or(alt, part_a), part_b))
    return _family_memo.setdefault(key, phi)


def _level01_table() -> dict[tuple[str, int, int], Formula]:
    g1, g2, g3 = ground_formulas()
    a01 = Implies(g2, Or(g1, g3))
    a02 = Implies(g3, Or(g1, g2))
    b01 = Implies(g1, Or(g2, g3))
    b02 = Implies(And(And(a01, a02), b01), Or(Or(g1, g2), g3))
    return {
        ("A", 0, 1): a01,
        ("A", 0, 2): a02,
        ("B", 0, 1): b01,
        ("B", 0, 2): b02,
        ("A", 1, 1): Implies(And(a01, a02), Or(b01, b02)),
        ("A", 1, 2): Implies(And(a01, b01), Or(a02, b02)),
        ("A", 1, 3): Implies(And(a01, b02), Or(a02, b01)),
        ("B", 1, 1): Implies(And(a02, b01), Or(a01, b02)),
        ("B", 1, 2): Implies(And(a02, b02), Or(a01, b01)),
        ("B", 1, 3): Implies(And(b01, b02), Or(a01, a02)),
    }


@functools.cache  # an int that no cache generation changes
def base_length() -> int:
    """Summed length of the four level-0 family formulas (never hard-coded)."""
    return sum(length(family_formula(letter, 0, index))
               for letter in LETTERS for index in (1, 2))


@functools.cache  # an int that no cache generation changes
def stability_level() -> int:
    """Least level k0 from which the family count outruns base_size * 5^k.

    Returns the least k0 with count(k0) > base_size * 5^k0 and
    count(k0) >= 7, after checking both conjuncts.  That certifies every
    later level too: (m - 1)^2 >= 5 * m holds for every m >= 7, and
    squaring keeps m >= 7, so count(k + 1) = (count(k) - 1)^2 >
    5 * base_size * 5^k whenever count(k) clears level k.
    """
    base = base_length()
    level = 0
    while True:
        count = level_count(level)
        if count >= 7 and count > base * 5 ** level:
            break
        if level > 10_000:
            raise RuntimeError(
                "no stability level below 10000; the length measure or the "
                "family recursion is broken")
        level += 1
    if (count - 1) ** 2 < 5 * count:
        raise RuntimeError(
            f"dominance step fails at count {count}; level {level} is not "
            "self-sustaining")
    return level


def target_level(phi: Formula) -> int:
    """Least k with length(phi) < base_size * 5^k."""
    base = base_length()
    bound = base
    k = 0
    while length(phi) >= bound:
        k += 1
        bound *= 5
    return k


# ---------------------------------------------------------------------------
# Stage 1: removing the constant false.


class PositiveEmbedding(NamedTuple):
    """Result of :func:`positive_embed`.

    ``fresh_var`` is the least variable index unused by the input.  The
    guard is the conjunction (diamond_guard & box_guard) &
    entailment_guard; ``body`` is the input with false replaced by the
    fresh variable; ``positive_form`` is guard -> body.  The input itself
    is not kept: the caller holds it.
    """

    fresh_var: int
    diamond_guard: Formula
    box_guard: Formula
    entailment_guard: Formula
    guard: Formula
    body: Formula
    positive_form: Formula


@_gc_paused
def positive_embed(phi: Formula) -> PositiveEmbedding:
    """Embed an arbitrary formula into the positive fragment.

    The fresh variable f is the least index not occurring in the input.
    With m the input's modal depth and p ranging over the input's
    variables in ascending order:

        diamond_guard    = (f | <>f | ... | <>^m f) -> f
        box_guard        = f -> (f & []f & ... & []^m f)
        entailment_guard = (f -> p_1) chain & ... per variable,
                           each chained as psi & []psi & ... & []^m psi,
                           conjoined left to right; f -> f if no variables

    and the result is (diamond_guard & box_guard & entailment_guard) ->
    body, which is positive by construction.
    """
    _check(phi)
    f = 1
    while f in phi.vars:
        f += 1
    fv = Var(f)
    m = phi.mdepth
    diamond_guard = Implies(diamond_chain_le(m, fv), fv)
    box_guard = Implies(fv, box_chain_le(m, fv))
    parts = [box_chain_le(m, Implies(fv, Var(p))) for p in sorted(phi.vars)]
    if parts:
        entailment_guard = parts[0]
        for part in parts[1:]:
            entailment_guard = And(entailment_guard, part)
    else:
        entailment_guard = Implies(fv, fv)
    guard = And(And(diamond_guard, box_guard), entailment_guard)
    body = replace_bottom(phi, fv)
    positive_form = Implies(guard, body)
    return PositiveEmbedding(
        fresh_var=f, diamond_guard=diamond_guard,
        box_guard=box_guard, entailment_guard=entailment_guard, guard=guard,
        body=body, positive_form=positive_form)


# ---------------------------------------------------------------------------
# Stage 2: down to one variable.


class OneVarSubstitution(NamedTuple):
    """Result of :func:`star`.

    ``var_map`` pairs each original variable index with its dense rank
    (ascending original order).  ``input_level`` is the least k with the
    renumbered input shorter than base_size * 5^k, and ``level`` =
    input_level + stable_level is where the family members are taken.
    ``images`` holds the image A_r | B_r of each rank r in rank order,
    and ``result`` is ``renumbered`` with p_r replaced by its image.  The
    input itself is not kept: the caller holds it.
    """

    var_map: tuple[tuple[int, int], ...]
    renumbered: Formula
    input_level: int
    stable_level: int
    level: int
    images: tuple[Formula, ...]
    result: Formula


@_gc_paused
def star(phi: Formula) -> OneVarSubstitution:
    """Replace the variables of a positive formula by family disjunctions.

    The input's variables are densely renumbered to p1..ps in ascending
    index order; p_r is then replaced by A_r | B_r from the family level
    input_level + stable_level, which leaves a positive formula over the
    single variable p1; a positive formula has at least one variable,
    false being its only constant.  Raises ValueError on non-positive
    input and RuntimeError if the family level cannot accommodate all
    variables (cannot happen unless the level arithmetic is broken).
    """
    if not is_positive(phi):
        raise ValueError("the one-variable substitution requires a positive formula")
    original = sorted(phi.vars)
    var_map = tuple([(orig, rank) for rank, orig in enumerate(original, 1)])
    if all(orig == rank for orig, rank in var_map):
        renumbered = phi
    else:
        renumbered = substitute(phi, {orig: Var(rank) for orig, rank in var_map})
    k = target_level(renumbered)
    k0 = stability_level()
    level = k + k0
    s = len(original)
    if level_count(level) <= s:
        raise RuntimeError(
            f"family level {level} holds only {level_count(level)} "
            f"formulas but the input has {s} variables")
    images = tuple([Or(family_formula("A", level, rank),
                       family_formula("B", level, rank))
                    for rank in range(1, s + 1)])
    result = substitute(renumbered, dict(enumerate(images, 1)))
    if result.vars != frozenset((1,)):
        raise RuntimeError("substitution did not collapse to one variable")
    if not result.positive:
        raise RuntimeError("substitution lost positivity")
    return OneVarSubstitution(
        var_map=var_map, renumbered=renumbered, input_level=k,
        stable_level=k0, level=level, images=images, result=result)


class TranslationReport(NamedTuple):
    """Record of one run of :func:`reduce_to_one_var`.

    The stage records hold the levels and intermediate formulas once;
    ``output`` is ``substitution.result``, and lengths are O(1) to read
    with :func:`length`.
    """

    embedding: PositiveEmbedding
    substitution: OneVarSubstitution
    output: Formula
    bound_limit: int
    bound_ok: bool


def reduce_to_one_var(phi: Formula) -> TranslationReport:
    """Translate any formula into the positive one-variable fragment.

    Runs :func:`positive_embed` and then :func:`star` on its result.
    The report records the quadratic size check: the output's length
    must stay below bound_limit = 2 * 5^(stable_level + 1) *
    length(positive_form)^2.
    """
    embedding = positive_embed(phi)
    subst = star(embedding.positive_form)
    bound_limit = 2 * 5 ** (subst.stable_level + 1) * length(embedding.positive_form) ** 2
    return TranslationReport(
        embedding=embedding, substitution=subst, output=subst.result,
        bound_limit=bound_limit, bound_ok=length(subst.result) < bound_limit)
