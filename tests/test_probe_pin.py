"""Results of the translation-consistency probe pinned by digest.

Over the acceptance-10 corpus and budgets, each of the probe's three
searches (input, positive form, one-variable output) is reduced to the
SHA-256 digest (first 16 hex digits) of its verdicts, candidate and
frame counts, stop reasons, failing (world, point) pairs and printed
certificates.  The CLI pin of ``tests/test_cli_stdout.py`` cannot see
the candidate count of a refutation; this pin does, so a change to the
search that must keep its results is checked by running it.  Record a
new digest only for an intended change of results.
"""

import hashlib

from imred.search import SearchBudget, check_translation_consistency
from imred.semantics import FS
from imred.syntax import print_certificate
from support import refutable_corpus

BUDGET_IN = SearchBudget(2, 2, 2, max_candidates=4000)
BUDGET_OUT = SearchBudget(2, 2, 2, max_candidates=1500)

PINNED = {"input": "77f2abd92dcde1a9", "positive": "f1acaac16a429cc9",
          "one_var": "322d9f50ff8c0032"}


def digest(results):
    material = [(r.refuted, r.stats.models_tested, r.stats.frames_tested,
                 r.stats.stop, r.world, r.point,
                 print_certificate(r.countermodel, r.world, r.point)
                 if r.refuted else None) for r in results]
    return hashlib.sha256(repr(material).encode("utf-8")).hexdigest()[:16]


def test_probe_results_are_pinned():
    reports = [check_translation_consistency(phi, BUDGET_IN, BUDGET_OUT, FS)
               for phi in refutable_corpus(606, 100, BUDGET_IN, FS)]
    got = {"input": digest(r.input_result for r in reports),
           "positive": digest(r.positive_result for r in reports),
           "one_var": digest(r.one_var_result for r in reports)}
    assert got == PINNED
