import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from conftest import formulas, seeded_model
from imred.corpus import random_formula
from imred.formula import (BOTTOM, And, Box, Diamond, Implies, Or, Var,
                           varset)
from imred.semantics import (FS, MIPC, TableContext, Violation, _moves,
                             bits_of, eval_formula, eval_formula_plain,
                             monotone_masks, pair_space, truth_table,
                             validate_model)
from imred.search import _frames, _materialise, _srel_stream
from support import build_model, true_in_model


def single_world(srel=(), val=None, kind=FS, points=(0,)):
    return build_model(kind=kind, n_worlds=1, points={0: points},
                       srel={0: set(srel)}, val=val or {})


def chain_model(val=None, srel=None, kind=FS):
    """Two worlds u <= v; point 0 everywhere, point 1 only at v."""
    return build_model(kind=kind, n_worlds=2, order=[(0, 1)],
                       points={0: {0}, 1: {0, 1}},
                       srel=srel or {0: set(), 1: set()}, val=val or {})


def test_validate_trivial_model():
    assert validate_model(single_world()) == []
    assert validate_model(single_world(srel=[(0, 0)])) == []


def test_validate_flags_valuation_monotonicity():
    model = chain_model(val={1: {0: {0}, 1: set()}})
    conditions = [v.condition for v in validate_model(model)]
    assert conditions == ["valuation monotonicity"]


def test_validate_flags_mipc_totality():
    model = single_world(srel=[(0, 0)], kind=MIPC, points=(0, 1))
    conditions = [v.condition for v in validate_model(model)]
    assert "MIPC totality" in conditions
    total = {(x, y) for x in (0, 1) for y in (0, 1)}
    assert validate_model(single_world(srel=total, kind=MIPC,
                                       points=(0, 1))) == []


def test_validate_flags_point_monotonicity_and_relation_domain():
    model = build_model(n_worlds=2, order=[(0, 1)],
                        points={0: {0, 1}, 1: {0}}, srel={0: {(0, 2)}, 1: set()})
    conditions = {v.condition for v in validate_model(model)}
    assert "point-set monotonicity" in conditions
    assert "relation domain" in conditions
    assert "relation monotonicity" in conditions


def test_validate_flags_empty_point_set():
    model = build_model(n_worlds=1, points={0: set()})
    assert [v.condition for v in validate_model(model)] == ["point-set non-empty"]


def test_validate_flags_broken_order():
    model = single_world()
    no_reflex = model._replace(up=(0,))
    assert "order reflexivity" in {v.condition for v in validate_model(no_reflex)}
    two = build_model(n_worlds=2, points={0: {0}, 1: {0}})
    cyclic = two._replace(up=(0b11, 0b11))
    assert "order antisymmetry" in {v.condition for v in validate_model(cyclic)}
    three = build_model(n_worlds=3, points={0: {0}, 1: {0}, 2: {0}})
    broken = three._replace(up=(0b011, 0b110, 0b100))
    assert "order transitivity" in {v.condition for v in validate_model(broken)}


def test_eval_bottom_false_everywhere():
    model = single_world(srel=[(0, 0)], val={1: {0: {0}}})
    assert not eval_formula(model, 0, 0, BOTTOM)


def test_eval_modalities_with_empty_relation():
    model = single_world()
    assert not eval_formula(model, 0, 0, Diamond(Var(1)))
    assert eval_formula(model, 0, 0, Box(Var(1)))


def test_eval_implication_quantifies_up():
    # p1 holds only at the later world, so p1 -> false fails already at
    # the earlier one.
    model = chain_model(val={1: {0: set(), 1: {0}}})
    assert not eval_formula(model, 0, 0, Implies(Var(1), BOTTOM))
    assert not eval_formula(model, 1, 0, Implies(Var(1), BOTTOM))
    assert eval_formula(model, 0, 0, Implies(BOTTOM, Var(1)))


def test_eval_diamond_stays_in_world():
    # (0, 1) is related only at the later world.
    model = chain_model(srel={0: set(), 1: {(0, 1)}},
                        val={1: {0: set(), 1: {1}}})
    assert not eval_formula(model, 0, 0, Diamond(Var(1)))
    assert eval_formula(model, 1, 0, Diamond(Var(1)))


def test_eval_box_quantifies_up_and_sideways():
    model = chain_model(srel={0: set(), 1: {(0, 1)}},
                        val={1: {0: set(), 1: set()}})
    # at u the relation is empty, but v above relates 0 to 1 where p1 fails
    assert not eval_formula(model, 0, 0, Box(Var(1)))
    model2 = chain_model(srel={0: set(), 1: {(0, 1)}},
                         val={1: {0: set(), 1: {1}}})
    assert eval_formula(model2, 0, 0, Box(Var(1)))


def test_eval_rejects_missing_point():
    model = chain_model()
    with pytest.raises(ValueError):
        eval_formula(model, 0, 1, Var(1))  # point 1 lives only at world 1
    for w in (-1, 2):
        with pytest.raises(ValueError, match="out of range"):
            eval_formula(model, w, 0, Var(1))


def test_true_in_model():
    model = chain_model(val={1: {0: set(), 1: {0, 1}}})
    assert true_in_model(model, Implies(Var(1), Var(1)))
    assert not true_in_model(model, Var(1))


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10_000), formulas(max_vars=2))
def test_heredity(seed, phi):
    model = seeded_model(seed)
    for w in model.worlds():
        for v in bits_of(model.up[w]):
            for x in model.points_of(w):
                if eval_formula(model, w, x, phi):
                    assert eval_formula(model, v, x, phi)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10_000), formulas(max_vars=2))
def test_evaluators_agree(seed, phi):
    model = seeded_model(seed)
    tables = truth_table(model, phi)
    for w, x in model.pairs():
        expected = bool((tables[phi] >> (w * model.n_points + x)) & 1)
        assert eval_formula(model, w, x, phi) == expected
        assert eval_formula_plain(model, w, x, phi) == expected


def grow_valuation(rng, model):
    """Enlarge V pointwise, preserving monotonicity, by one random point."""
    val = [list(row) for row in model.val]
    p = rng.randrange(len(val))
    w = rng.randrange(model.n_worlds)
    candidates = [x for x in bits_of(model.delta[w] & ~val[p][w])]
    if not candidates:
        return None
    x = rng.choice(candidates)
    for v in bits_of(model.up[w]):
        val[p][v] |= 1 << x
    return model._replace(val=tuple(tuple(r) for r in val))


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10_000), formulas(max_vars=2, allow_bottom=False))
def test_positive_arrow_free_formulas_survive_valuation_growth(seed, phi):
    def arrow_free(psi):
        if psi.kind == "imp":
            return False
        return all(arrow_free(c) for c in (psi.left, psi.right)
                   if c is not None)

    if not arrow_free(phi):
        return
    rng = random.Random(seed)
    model = seeded_model(seed)
    bigger = grow_valuation(rng, model)
    if bigger is None:
        return
    assert validate_model(bigger) == []
    for w, x in model.pairs():
        if eval_formula(model, w, x, phi):
            assert eval_formula(bigger, w, x, phi)


def test_diamond_distributes_over_disjunction_on_sampled_models():
    phi = Implies(Diamond(Or(Var(1), Var(2))), Or(Diamond(Var(1)),
                                                  Diamond(Var(2))))
    for seed in range(200):
        model = seeded_model(seed)
        assert true_in_model(model, phi)


def brute_monotone_masks(up, bounds):
    """Every per-world subset tuple inside ``bounds`` that grows along
    ``up``, sorted."""
    subsets = []
    for bound in bounds:
        bits = [1 << b for b in range(bound.bit_length()) if (bound >> b) & 1]
        subsets.append([sum(itertools.compress(bits, keep)) for keep in
                        itertools.product((0, 1), repeat=len(bits))])
    return sorted(masks for masks in itertools.product(*subsets)
                  if all(masks[u] & ~masks[w] == 0
                         for u in range(len(up)) for w in bits_of(up[u])))


@pytest.mark.parametrize("n_worlds", [1, 2, 3])
@pytest.mark.parametrize("max_points", [1, 2])
def test_monotone_masks_match_brute_force(n_worlds, max_points):
    for frame in _frames(n_worlds, max_points):
        for bounds in (frame.delta, frame.spaces):
            assert list(monotone_masks(n_worlds, frame.up, bounds)) == \
                brute_monotone_masks(frame.up, bounds)


def test_deep_box_nesting_evaluates_without_recursion():
    model = single_world(srel=[(0, 0)])
    deep = BOTTOM
    for _ in range(30_000):
        deep = Box(deep)
    assert not eval_formula(model, 0, 0, deep)
    assert not eval_formula_plain(model, 0, 0, deep)
    assert not truth_table(model, deep)[deep] & 1


def reversed_world_ids(model):
    """The same model with world ids reversed, so they run against the order."""
    last = model.n_worlds - 1

    def flip(mask):
        return sum(1 << (last - v) for v in bits_of(mask))

    return model._replace(
        up=tuple(flip(m) for m in reversed(model.up)),
        delta=model.delta[::-1], srel=model.srel[::-1],
        val=tuple(row[::-1] for row in model.val),
        world_names=model.world_names[::-1])


def test_truth_table_matches_reference_when_ids_run_against_the_order():
    rng = random.Random(17)
    against = growing = 0
    for seed in range(300):
        model = reversed_world_ids(seeded_model(seed, max_worlds=4))
        assert validate_model(model) == []
        against += any(v < w for w in model.worlds() for v in bits_of(model.up[w]))
        growing += any(model.srel[v] & ~model.srel[w] for w in model.worlds()
                       for v in bits_of(model.up[w]))
        phi = random_formula(rng, max_depth=4, n_vars=2)
        mask = truth_table(model, phi)[phi]
        for w, x in model.pairs():
            assert bool((mask >> (w * model.n_points + x)) & 1) == \
                eval_formula_plain(model, w, x, phi), (seed, w, x)
    assert against > 100 and growing > 50


def reference_tables(model):
    """``TableContext``'s fields built one quantifier edge at a time: an
    edge from (w, x) to (v, x) for each strict order-successor v of w, and
    to (w, y) for each relation successor y of x at w."""
    P = model.n_points
    pairs = list(model.pairs())
    space = sum(1 << (w * P + x) for w, x in pairs)
    imp = _moves((w * P + x, v * P + x) for w, x in pairs
                 for v in bits_of(model.up[w]) if v != w)
    dia = _moves((w * P + x, w * P + y) for w, x in pairs
                 for y in bits_of(model.succ(w, x)))
    return pairs, space, imp, dia


def assert_tables_match(model):
    ctx = TableContext.for_model(model)
    assert (ctx.pairs, ctx.space, ctx.imp, ctx.dia) == reference_tables(model)


def test_tables_match_per_edge_reference_on_search_frames():
    rng = random.Random(5)
    frames = 0
    for n_worlds in (1, 2, 3):
        for frame in _frames(n_worlds, 3):
            frames += 1
            for kind in (FS, MIPC):
                relations = list(itertools.islice(_srel_stream(frame, kind), 8))
                # one random relation inside the pair spaces, one not
                relations.append(tuple(rng.getrandbits(9) & space
                                       for space in frame.spaces))
                relations.append(tuple(rng.getrandbits(frame.n_points ** 2)
                                       for _ in frame.spaces))
                for srel in relations:
                    assert_tables_match(_materialise(frame, srel, (), kind, 0))
    assert frames == 3 + 42 + 1317


def test_tables_match_per_edge_reference_when_ids_run_against_the_order():
    negative = 0
    for seed in range(300):
        for kind in (FS, MIPC):
            model = reversed_world_ids(seeded_model(seed, max_worlds=4, kind=kind))
            assert_tables_match(model)
            negative += any(left for _, left, _ in
                            TableContext.for_model(model).imp)
    assert negative > 100


def test_declared_order_against_ids_with_growing_relation():
    from imred.syntax import parse_formula, parse_model

    # b <= a although b is declared second; a adds point y and pair (x, y)
    model = parse_model("world a\nworld b\nle b a\npoint b x\npoint a x\n"
                        "point a y\ns b x x\ns a x x\ns a x y\nval a p1 y\n")
    a, b = model.world_names.index("a"), model.world_names.index("b")
    x, y = model.point_names.index("x"), model.point_names.index("y")
    cases = {("<>p1", b, x): False, ("<>p1", a, x): True,
             ("[]<>p1", a, x): False, ("[](p1 -> false)", b, x): False,
             ("[]p1 -> false", b, x): True, ("<>p1 -> false", b, x): False,
             ("[](p1 | <>p1)", a, x): True, ("[](p1 | <>p1)", b, x): False}
    for (text, w, pt), want in cases.items():
        phi = parse_formula(text)
        assert eval_formula_plain(model, w, pt, phi) is want, text
        assert eval_formula(model, w, pt, phi) is want, text


def reference_validate_model(model):
    """The validator before it computed up-lists and pair spaces once:
    every condition re-walks the up-sets with ``bits_of``."""
    out = []
    m = model
    wn = m.world_names
    pn = m.point_names

    def pair_names(mask):
        pairs = [(x, y) for x in range(m.n_points) for y in range(m.n_points)
                 if (mask >> (x * m.n_points + y)) & 1]
        return ", ".join(f"({pn[x]},{pn[y]})" for x, y in pairs) or "nothing"

    for w in m.worlds():
        if not (m.up[w] >> w) & 1:
            out.append(Violation("order reflexivity", f"world {wn[w]}"))
    for w in m.worlds():
        for v in bits_of(m.up[w]):
            if m.up[v] & ~m.up[w]:
                out.append(Violation(
                    "order transitivity",
                    f"{wn[w]} <= {wn[v]} but successors of {wn[v]} escape"))
    for w in m.worlds():
        for v in bits_of(m.up[w]):
            if v != w and (m.up[v] >> w) & 1:
                if w < v:
                    out.append(Violation(
                        "order antisymmetry", f"worlds {wn[w]} and {wn[v]}"))
    for w in m.worlds():
        if m.delta[w] == 0:
            out.append(Violation("point-set non-empty", f"world {wn[w]}"))
    for w in m.worlds():
        for v in bits_of(m.up[w]):
            missing = m.delta[w] & ~m.delta[v]
            if missing:
                pts = ", ".join(pn[x] for x in bits_of(missing))
                out.append(Violation(
                    "point-set monotonicity",
                    f"{wn[w]} <= {wn[v]} but {pts} missing at {wn[v]}"))
    for w in m.worlds():
        stray = m.srel[w] & ~pair_space(m.delta[w], m.n_points)
        if stray:
            out.append(Violation(
                "relation domain",
                f"world {wn[w]} relates {pair_names(stray)} outside its points"))
    for w in m.worlds():
        for v in bits_of(m.up[w]):
            lost = m.srel[w] & ~m.srel[v]
            if lost:
                out.append(Violation(
                    "relation monotonicity",
                    f"{wn[w]} <= {wn[v]} but {pair_names(lost)} missing at {wn[v]}"))
    for p in range(1, m.nvars + 1):
        for w in m.worlds():
            stray = m.val[p - 1][w] & ~m.delta[w]
            if stray:
                pts = ", ".join(pn[x] for x in bits_of(stray))
                out.append(Violation(
                    "valuation domain",
                    f"V({wn[w]}, p{p}) contains {pts} outside the point set"))
    for p in range(1, m.nvars + 1):
        for w in m.worlds():
            for v in bits_of(m.up[w]):
                lost = m.val[p - 1][w] & ~m.val[p - 1][v]
                if lost:
                    pts = ", ".join(pn[x] for x in bits_of(lost))
                    out.append(Violation(
                        "valuation monotonicity",
                        f"{wn[w]} <= {wn[v]} but {pts} leaves V(., p{p})"))
    if m.kind == MIPC:
        for w in m.worlds():
            want = pair_space(m.delta[w], m.n_points)
            if m.srel[w] != want:
                out.append(Violation(
                    "MIPC totality",
                    f"world {wn[w]} misses {pair_names(want & ~m.srel[w])}"))
    return out


def flip_bits(rng, model, field, count):
    """``model`` with ``count`` random in-range bits of one field flipped."""
    n, P = model.n_worlds, model.n_points
    up, delta, srel = list(model.up), list(model.delta), list(model.srel)
    val = [list(row) for row in model.val]
    for _ in range(count):
        w = rng.randrange(n)
        if field == "up":
            up[w] ^= 1 << rng.randrange(n)
        elif field == "delta":
            delta[w] ^= 1 << rng.randrange(P)
        elif field == "srel":
            srel[w] ^= 1 << rng.randrange(P * P)
        else:
            val[rng.randrange(model.nvars)][w] ^= 1 << rng.randrange(P)
    return model._replace(up=tuple(up), delta=tuple(delta), srel=tuple(srel),
                          val=tuple(tuple(row) for row in val))


def with_stray_row(model):
    """``model`` with one valuation row past ``nvars`` on extra point
    names: it breaks the valuation domain at every world and valuation
    monotonicity at every pair of distinct comparable worlds."""
    P, n = model.n_points, model.n_worlds
    return model._replace(
        val=model.val + (tuple(1 << (P + w) for w in range(n)),),
        point_names=model.point_names + tuple(f"z{w}" for w in range(n)))


def test_validate_model_matches_reference_on_flipped_bits():
    rng = random.Random(7)
    fields = ("up", "delta", "srel", "val")
    invalid = several = mixed = third = 0
    for seed in range(300):
        for kind in (FS, MIPC):
            model = seeded_model(seed, max_worlds=4, max_points=3,
                                 n_vars=2 + seed % 2, kind=kind)
            assert validate_model(model) == reference_validate_model(model) == []
            # each field alone, then two or three fields of one model
            for flipped in [[field] for field in fields] + \
                    [rng.sample(fields, rng.randint(2, 3))]:
                bad = model
                for field in flipped:
                    bad = flip_bits(rng, bad, field, rng.randint(1, 4))
                got = validate_model(bad)
                assert got == reference_validate_model(bad), (seed, kind, flipped)
                invalid += bool(got)
                several += len(got) > len({v.condition for v in got})
                mixed += len({v.condition for v in got}) > 2
                third += any("p3)" in v.witness for v in got)
                # a row past nvars is ignored, and counts once nvars covers it
                stray = with_stray_row(bad)
                assert validate_model(stray) == reference_validate_model(stray) == got
                counted = stray._replace(nvars=stray.nvars + 1)
                assert validate_model(counted) == reference_validate_model(counted)
                assert len(validate_model(counted)) >= len(got) + bad.n_worlds
    assert invalid > 2000 and several > 1000 and mixed > 800 and third > 300
