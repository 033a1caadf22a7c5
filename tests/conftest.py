import random

from hypothesis import strategies as st

from imred.corpus import random_formula
from imred.formula import BOTTOM, And, Box, Diamond, Implies, Or, Var
from support import random_model


def formulas(max_vars: int = 3, allow_bottom: bool = True):
    """Hypothesis strategy for random formula ASTs."""
    leaves = st.integers(1, max_vars).map(Var)
    if allow_bottom:
        leaves = leaves | st.just(BOTTOM)
    return st.recursive(
        leaves,
        lambda sub: st.one_of(
            st.tuples(sub, sub).map(lambda ab: And(*ab)),
            st.tuples(sub, sub).map(lambda ab: Or(*ab)),
            st.tuples(sub, sub).map(lambda ab: Implies(*ab)),
            sub.map(Diamond),
            sub.map(Box),
        ),
        max_leaves=25)


def seeded_model(seed: int, *, max_worlds: int = 3, max_points: int = 3,
                 n_vars: int = 2, kind: str = "fs"):
    return random_model(random.Random(seed), max_worlds=max_worlds,
                        max_points=max_points, n_vars=n_vars, kind=kind)


def seeded_formula(seed: int, **kwargs):
    return random_formula(random.Random(seed), **kwargs)
