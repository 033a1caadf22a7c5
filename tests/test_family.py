import random

import pytest

from imred.formula import (And, Box, Diamond, Implies, Or, Var, clear_caches,
                           length, substitute, varset)
from imred.reduction import (base_length, family_formula, ground_formulas,
                             level_count, spiral_cell, stability_level,
                             target_level)
from support import structurally_equal

# Computed once from the adopted length measure and pinned here so that
# accidental drift in the measure or the family tables shows up loudly.
EXPECTED_BASE_LENGTH = 122
EXPECTED_STABILITY_LEVEL = 6


def hand_built_tables():
    p = Var(1)
    g1 = Diamond(p)
    g2 = Implies(Diamond(p), p)
    g3 = Implies(p, Box(p))
    a01 = Implies(g2, Or(g1, g3))
    a02 = Implies(g3, Or(g1, g2))
    b01 = Implies(g1, Or(g2, g3))
    b02 = Implies(And(And(a01, a02), b01), Or(Or(g1, g2), g3))
    level1 = {
        ("A", 1): Implies(And(a01, a02), Or(b01, b02)),
        ("A", 2): Implies(And(a01, b01), Or(a02, b02)),
        ("A", 3): Implies(And(a01, b02), Or(a02, b01)),
        ("B", 1): Implies(And(a02, b01), Or(a01, b02)),
        ("B", 2): Implies(And(a02, b02), Or(a01, b01)),
        ("B", 3): Implies(And(b01, b02), Or(a01, a02)),
    }
    return (g1, g2, g3), {("A", 1): a01, ("A", 2): a02,
                          ("B", 1): b01, ("B", 2): b02}, level1


def test_ground_formulas_match_hand_built():
    (g1, g2, g3), _, _ = hand_built_tables()
    assert ground_formulas() == (g1, g2, g3)


def test_level0_matches_hand_built():
    _, level0, _ = hand_built_tables()
    for (letter, index), expected in level0.items():
        assert family_formula(letter, 0, index) is expected


def test_level1_matches_hand_built():
    _, _, level1 = hand_built_tables()
    for (letter, index), expected in level1.items():
        assert family_formula(letter, 1, index) is expected


def test_level2_recursion_unfolds_spiral_cells():
    a11 = family_formula("A", 1, 1)
    b11 = family_formula("B", 1, 1)
    for index in range(1, level_count(2) + 1):
        i, j = spiral_cell(index)
        a1i = family_formula("A", 1, i)
        b1j = family_formula("B", 1, j)
        assert family_formula("A", 2, index) is \
            Implies(a11, Or(Or(b11, a1i), b1j))
        assert family_formula("B", 2, index) is \
            Implies(b11, Or(Or(a11, a1i), b1j))


def test_level_counts():
    assert level_count(0) == 2
    assert level_count(1) == 3
    assert level_count(2) == 4
    assert level_count(4) == 64
    assert level_count(5) == 3969
    for k in range(1, 21):
        assert level_count(k + 1) == (level_count(k) - 1) ** 2
    with pytest.raises(ValueError):
        level_count(-1)


def test_family_index_validation():
    with pytest.raises(ValueError):
        family_formula("A", 0, 3)
    with pytest.raises(ValueError):
        family_formula("B", 1, 4)
    with pytest.raises(ValueError):
        family_formula("A", 2, 5)
    with pytest.raises(ValueError):
        family_formula("C", 0, 1)
    with pytest.raises(ValueError):
        family_formula("A", 0, 0)


def test_base_length_regression():
    parts = [length(family_formula(letter, 0, index))
             for letter in ("A", "B") for index in (1, 2)]
    assert base_length() == sum(parts)
    assert base_length() > max(parts)
    assert base_length() == EXPECTED_BASE_LENGTH


def test_family_lengths_stay_under_level_bound():
    rng = random.Random(11)
    base = base_length()
    for level in range(7):
        count = level_count(level)
        if count <= 40:
            indices = range(1, count + 1)
        else:
            indices = sorted({1, count} |
                             {rng.randrange(1, count + 1) for _ in range(40)})
        for letter in ("A", "B"):
            for index in indices:
                assert length(family_formula(letter, level, index)) < \
                    base * 5 ** level


def test_stability_level_certificate():
    k0 = stability_level()
    assert k0 == EXPECTED_STABILITY_LEVEL
    base = base_length()
    count = level_count(k0)
    assert count > base * 5 ** k0
    assert count >= 7
    assert (count - 1) ** 2 >= 5 * count
    assert level_count(k0 - 1) <= base * 5 ** (k0 - 1)
    for k in range(k0, k0 + 11):
        assert level_count(k) > base * 5 ** k


def test_target_level():
    base = base_length()
    assert target_level(Var(1)) == 0
    small = Var(1)
    while length(small) < base:
        small = And(small, Var(1))  # step past the level-0 bound
    assert target_level(small) == 1
    # monotone in length by definition
    assert target_level(Var(1)) <= target_level(small)


def test_family_variable_set_and_base_var():
    assert varset(family_formula("A", 3, 5)) == {1}
    assert varset(substitute(family_formula("B", 2, 2), {1: Var(4)})) == {4}


def test_memoization_transparent():
    warm = family_formula("A", 3, 7)
    assert family_formula("A", 3, 7) is warm
    clear_caches()
    try:
        fresh = family_formula("A", 3, 7)
        assert fresh is not warm  # caches really were dropped
        assert structurally_equal(fresh, warm)
        assert length(fresh) == length(warm)
    finally:
        clear_caches()
