"""End-to-end acceptance checks.

Each test covers one acceptance criterion at a fixed tolerance and
prints one ACCEPTANCE line; run with ``pytest tests/test_acceptance.py
-v -s`` to see the lines as they pass.
"""

import itertools
import random
import time

import numpy as np

from imred.corpus import formula_with_length, random_formula
from imred.formula import (And, Box, Diamond, Implies, Or, Var, is_positive,
                           length, varset)
from imred.reduction import (base_length, family_formula, ground_formulas,
                             level_count, positive_embed, reduce_to_one_var,
                             spiral_cell, spiral_index, spiral_walk,
                             stability_level, star)
from imred.search import (CONTRADICTION, SOFT_MISS, SearchBudget,
                          check_translation_consistency, find_countermodel)
from imred.semantics import FS, MIPC, bits_of, eval_formula
from imred.syntax import parse_formula
from support import refutable_corpus

from conftest import seeded_model


def report(name: str, ok: bool, detail: str = "") -> None:
    verdict = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {name}: {verdict}{suffix}")
    assert ok, f"{name} failed {suffix}"


def test_01_spiral_enumeration():
    started = time.perf_counter()
    anchors_ok = (spiral_index(2, 2), spiral_index(3, 2), spiral_index(3, 3),
                  spiral_index(2, 3)) == (1, 2, 3, 4)
    walk = spiral_walk()
    previous = 0
    mutual = True
    ordered = True
    for rank in range(1, 10_001):
        cell = next(walk)
        if spiral_index(*cell) != rank or spiral_cell(rank) != cell:
            mutual = False
            break
        # the walk emits cells in ascending rank order, so agreement with
        # it means rank comparisons match the arrow-path order
        if spiral_index(*cell) <= previous:
            ordered = False
            break
        previous = spiral_index(*cell)
    elapsed = time.perf_counter() - started
    report("01 spiral enumeration",
           anchors_ok and mutual and ordered and elapsed < 1.0,
           f"ranks 1..10000 in {elapsed:.3f}s")


def test_02_family_recurrence():
    ok = level_count(0) == 2 and level_count(1) == 3
    for k in range(1, 21):
        if level_count(k + 1) != (level_count(k) - 1) ** 2:
            ok = False
            break
    bits = level_count(21).bit_length()
    report("02 family recurrence", ok,
           f"count(1)=3, recurrence exact through level 21 ({bits} bits)")


def test_03_level_tables():
    p = Var(1)
    g1, g2, g3 = Diamond(p), Implies(Diamond(p), p), Implies(p, Box(p))
    a01 = Implies(g2, Or(g1, g3))
    a02 = Implies(g3, Or(g1, g2))
    b01 = Implies(g1, Or(g2, g3))
    b02 = Implies(And(And(a01, a02), b01), Or(Or(g1, g2), g3))
    expected_ground = ground_formulas() == (g1, g2, g3)
    level0 = {("A", 1): a01, ("A", 2): a02, ("B", 1): b01, ("B", 2): b02}
    level1 = {
        ("A", 1): Implies(And(a01, a02), Or(b01, b02)),
        ("A", 2): Implies(And(a01, b01), Or(a02, b02)),
        ("A", 3): Implies(And(a01, b02), Or(a02, b01)),
        ("B", 1): Implies(And(a02, b01), Or(a01, b02)),
        ("B", 2): Implies(And(a02, b02), Or(a01, b01)),
        ("B", 3): Implies(And(b01, b02), Or(a01, a02)),
    }
    ok = expected_ground
    checked = 3
    for level, table in ((0, level0), (1, level1)):
        for (letter, index), expected in table.items():
            ok = ok and family_formula(letter, level, index) is expected
            checked += 1
    report("03 level tables", ok, f"{checked} formulas structurally equal")


def test_04_family_size_audit():
    rng = random.Random(2024)
    base = base_length()
    violations = 0
    checked = 0
    for level in range(7):
        count = level_count(level)
        if level <= 3:
            indices = range(1, count + 1)
        else:
            indices = sorted({1, count} |
                             {rng.randrange(1, count + 1) for _ in range(100)})
        bound = base * 5 ** level
        for letter in ("A", "B"):
            for index in indices:
                checked += 1
                if length(family_formula(letter, level, index)) >= bound:
                    violations += 1
    report("04 family size audit", violations == 0,
           f"{checked} formulas across levels 0..6, {violations} violations")


def test_05_growth_certificate():
    k0 = stability_level()
    base = base_length()
    count = level_count(k0)
    ok = count > base * 5 ** k0 and count >= 7
    for k in range(k0, k0 + 11):
        ok = ok and level_count(k) > base * 5 ** k
    report("05 growth certificate", ok,
           f"k0={k0}, count={count}, base={base}")


def _sized_corpus(seed: int, count: int, max_length: int):
    rng = random.Random(seed)
    out = []
    for k in range(count):
        target = max(4, round(max_length * (k + 1) / count))
        out.append(formula_with_length(rng, target, n_vars=6))
    return out


def test_06_quadratic_bound_and_polynomial_runtime():
    corpus = _sized_corpus(1404, 200, 1000)
    violations = 0
    for phi in corpus:
        assert length(phi) <= 1200
        rep = reduce_to_one_var(phi)
        if not rep.bound_ok:
            violations += 1
    started = time.perf_counter()
    rng = random.Random(77)
    xs, ys = [], []
    for size in (100, 316, 1000, 3162, 10000):
        best = None
        for _ in range(3):
            phi = formula_with_length(rng, size, n_vars=10)
            t0 = time.perf_counter()
            rep = reduce_to_one_var(phi)
            dt = time.perf_counter() - t0
            assert rep.bound_ok
            best = dt if best is None else min(best, dt)
        xs.append(float(size))
        ys.append(best)
    bench_elapsed = time.perf_counter() - started
    coeffs = np.polyfit(xs, ys, deg=3)
    predicted = np.polyval(coeffs, xs)
    observed = np.asarray(ys)
    spread = float(((observed - observed.mean()) ** 2).sum())
    r2 = 1.0 - float(((observed - predicted) ** 2).sum()) / spread
    report("06 quadratic size bound + polynomial runtime",
           violations == 0 and r2 >= 0.9 and bench_elapsed < 60.0,
           f"200-formula corpus, 0 bound violations; cubic fit r2={r2:.4f}, "
           f"bench {bench_elapsed:.1f}s")


def test_07_output_shape():
    corpus = _sized_corpus(1404, 200, 1000)
    bad = 0
    for phi in corpus:
        rep = reduce_to_one_var(phi)
        if not (is_positive(rep.output) and varset(rep.output) == {1}):
            bad += 1
    report("07 output shape", bad == 0,
           f"200 outputs positive and single-variable, {bad} violations")


def test_08_heredity():
    rng = random.Random(808)
    violations = 0
    for _ in range(1000):
        model = seeded_model(rng.randrange(1 << 30))
        phi = random_formula(rng, max_depth=4, n_vars=2)
        for w in model.worlds():
            for v in bits_of(model.up[w]):
                for x in model.points_of(w):
                    if eval_formula(model, w, x, phi) and \
                            not eval_formula(model, v, x, phi):
                        violations += 1
    report("08 heredity", violations == 0,
           f"1000 model/formula pairs, {violations} violations")


def test_09_oracle_sanity():
    # The full 3-world/3-point space is astronomically large, so the two
    # validity probes run under a candidate cap; canonical order still
    # guarantees every 1-world model and a deep 2-world prefix is seen
    # before the cap, and exhaustion never claims validity anyway.
    budget = SearchBudget(3, 3, 2, max_candidates=60_000)
    valid = [parse_formula("<>(p1 | p2) -> <>p1 | <>p2"),
             parse_formula("p1 -> p1")]
    refutable = [parse_formula("<>p1 -> []p1"),
                 parse_formula("((p1 -> p2) -> p1) -> p1")]
    ok = True
    details = []
    for kind in (FS, MIPC):
        for phi in valid:
            started = time.perf_counter()
            result = find_countermodel(phi, budget, kind)
            elapsed = time.perf_counter() - started
            ok = ok and not result.refuted and elapsed < 30.0
        for phi in refutable:
            started = time.perf_counter()
            result = find_countermodel(phi, budget, kind)
            elapsed = time.perf_counter() - started
            ok = ok and result.refuted and elapsed < 30.0
            details.append(f"{kind}@{result.stats.models_tested}")
    report("09 oracle sanity", ok,
           "refuted " + ", ".join(details) + "; valid pair never refuted")


def test_10_translation_consistency():
    budget_in = SearchBudget(2, 2, 2, max_candidates=4000)
    budget_out = SearchBudget(2, 2, 2, max_candidates=1500)
    corpus = refutable_corpus(606, 100, budget_in, FS)
    cache = {}
    contradictions = 0
    soft = 0
    for phi in corpus:
        rep = check_translation_consistency(phi, budget_in, budget_out, FS,
                                            table_cache=cache)
        assert rep.input_result.refuted
        for outcome in (rep.positive_outcome, rep.one_var_outcome):
            if outcome == CONTRADICTION:
                contradictions += 1
            elif outcome == SOFT_MISS:
                soft += 1
    # soft misses are budget artefacts, logged with their budgets: most are
    # one-variable searches cut by the 1,500-candidate cap, and on every
    # model these budgets reach each image A_r | B_r holds everywhere, so
    # the oracle never sees one vary.  The rate ceiling is an engineering
    # dial, not a claim about the logics
    print(f"ACCEPTANCE 10 note: {soft}/200 soft misses under output budget "
          f"(worlds<=2, points<=2, candidates<=1500)")
    report("10 translation consistency",
           contradictions == 0 and soft <= 160,
           f"100 refutable inputs, {contradictions} contradictions, "
           f"{soft}/200 soft misses (ceiling 160)")
