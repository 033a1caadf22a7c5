"""Results of the library countermodel search pinned by digest.

Over 150 seeded random formulas, each budget and model kind below is
reduced to the SHA-256 digest (first 16 hex digits) of the searches'
verdicts, candidate and frame counts, stop reasons, failing (world,
point) pairs and printed certificates.  The budgets meet all three stop
reasons: a refutation, an exhausted stream and a candidate cap.  The
CLI pin of ``tests/test_cli_stdout.py`` cannot see the candidate count
of a refutation; this pin does, so a change to the search that must
keep its results is checked by running it.  Record a new digest only
for an intended change of results.
"""

import hashlib
import random

from imred.corpus import random_formula
from imred.search import SearchBudget, find_countermodel
from imred.semantics import FS, MIPC
from imred.syntax import print_certificate

BUDGETS = {"3-3-2-cap2000": SearchBudget(3, 3, 2, max_candidates=2000),
           "2-2-2": SearchBudget(2, 2, 2),
           "2-3-2-cap777": SearchBudget(2, 3, 2, max_candidates=777)}

PINNED = {"3-3-2-cap2000-fs": "0382e21cd5a22060",
          "3-3-2-cap2000-mipc": "684ccbfca1643924",
          "2-2-2-fs": "c411b9c848afde2e", "2-2-2-mipc": "a324308e0818b165",
          "2-3-2-cap777-fs": "84fd88ebda49aaff",
          "2-3-2-cap777-mipc": "e5b5b611dad3a227"}


def digest(results):
    material = [(r.refuted, r.stats.models_tested, r.stats.frames_tested,
                 r.stats.stop, r.world, r.point,
                 print_certificate(r.countermodel, r.world, r.point)
                 if r.refuted else None) for r in results]
    return hashlib.sha256(repr(material).encode("utf-8")).hexdigest()[:16]


def test_refute_results_are_pinned():
    rng = random.Random("refute pin")
    corpus = [random_formula(rng, max_depth=4, n_vars=2) for _ in range(150)]
    got, stops = {}, set()
    for name, budget in BUDGETS.items():
        for kind in (FS, MIPC):
            results = [find_countermodel(phi, budget, kind) for phi in corpus]
            got[f"{name}-{kind}"] = digest(results)
            stops |= {r.stats.stop for r in results}
    assert stops == {"countermodel", "exhausted", "candidate-cap"}
    assert got == PINNED
