"""Outputs of the seeded corpus generators pinned by digest.

``formula_with_length`` and ``random_model`` are reduced, over a few
seeds and sizes, to the SHA-256 digest (first 16 hex digits) of their
printed outputs.  ``random_formula`` and ``refutable_corpus`` are pinned
through ``tests/test_refute_pin.py`` and ``tests/test_probe_pin.py``.
A change to the generators that must keep their outputs is checked by
running this; record a new digest only for an intended change.
"""

import hashlib
import random

from imred.corpus import formula_with_length
from imred.semantics import FS, MIPC
from imred.syntax import print_formula, print_model
from support import random_model

PINNED = {"formula_with_length": "53014f68abe1fe7b",
          "random_model-fs": "c43cb130cfd30c02",
          "random_model-mipc": "5b88d7414f20836e"}


def digest(texts):
    return hashlib.sha256(repr(list(texts)).encode("utf-8")).hexdigest()[:16]


def test_formula_with_length_is_pinned():
    texts = [print_formula(formula_with_length(random.Random(seed), target,
                                               n_vars=n_vars))
             for seed in range(5) for target in (1, 40, 300)
             for n_vars in (1, 8)]
    assert digest(texts) == PINNED["formula_with_length"]


def test_random_model_is_pinned():
    for kind in (FS, MIPC):
        texts = [print_model(random_model(random.Random(seed), max_worlds=worlds,
                                          max_points=points, n_vars=3,
                                          kind=kind))
                 for seed in range(8) for worlds, points in ((3, 3), (5, 4))]
        assert digest(texts) == PINNED[f"random_model-{kind}"]
