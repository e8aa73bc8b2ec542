from __future__ import annotations

import random
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trisect.diagram import (Curve, CutSystem, HeegaardDiagram, SlopeTemplate,
                             TrisectionDiagram, TrisectionParams,
                             curve_from_template,
                             curve_from_word, detect_k, euler_characteristic,
                             geometric_intersection, heegaard_h1,
                             pair_diagrams,
                             pi1_presentation,
                             quotient_presentation, reembed,
                             standard_heegaard, surface_relator,
                             system_from_templates, trisection_h1,
                             trisection_params)
from trisect import diagram, reports
from trisect.catalog import ALL_NAMES, genus_one_diagram
from trisect.homology import HomologyClass, algebraic_intersection
from trisect.intmatrix import AbelianGroup, invariant_factors
from trisect.moves import connected_sum, handleslide
from trisect.presentations import tietze_simplify


def test_slope_template_normalization():
    assert SlopeTemplate(1, -1, 0).slope == (1, 0)
    assert SlopeTemplate(2, 0, -1).slope == (0, 1)
    assert SlopeTemplate(1, -2, 3).slope == (2, -3)
    with pytest.raises(ValueError):
        SlopeTemplate(1, 2, 4)
    with pytest.raises(ValueError):
        SlopeTemplate(1, 0, 0)


def test_curve_from_template_words():
    c = curve_from_template(2, 1, 1, 1)
    assert c.word == (1, 2)  # x1 y1
    assert c.homology.coeffs == (1, 1, 0, 0)
    c2 = curve_from_template(2, 2, 0, 1)
    assert c2.word == (4,)  # y2
    assert c2.support() == {2}


def test_support_is_built_once_and_stays_out_of_equality():
    c = curve_from_word(3, (1, 4, -1, 5))
    fresh = Curve(c.genus, c.word, c.homology)
    before = (repr(c), hash(c))
    supp = c.support()
    assert isinstance(supp, frozenset) and supp == {1, 2, 3}
    assert c.support() is supp
    assert (repr(c), hash(c)) == before
    assert c == fresh and (repr(c), hash(c)) == (repr(fresh), hash(fresh))


@settings(derandomize=True, database=None, max_examples=300)
@given(st.integers(1, 4).flatmap(lambda g: st.tuples(
    st.just(g), st.integers(1, g), st.integers(-40, 40), st.integers(-40, 40),
    st.lists(st.integers(1, 2 * g).flatmap(
        lambda v: st.sampled_from((v, -v))), max_size=12))))
def test_curve_builders_agree_with_the_checking_constructor(args):
    # the builders skip Curve's checks, so they must never need them
    g, h, p, q, word = args
    c = curve_from_word(g, word)
    assert c == Curve(c.genus, c.word, c.homology, c.template)
    try:
        t = curve_from_template(g, h, p, q)
    except ValueError:
        return  # (0, 0) or not primitive: SlopeTemplate still rejects it
    assert t == Curve(t.genus, t.word, t.homology, t.template)


@st.composite
def _reembeddings(draw):
    """A word or template curve at genus g and an injective map of its
    handles into a genus at least g."""
    g = draw(st.integers(1, 4))
    new_genus = draw(st.integers(g, 6))
    targets = draw(st.permutations(range(1, new_genus + 1)))
    handle_map = {h: targets[h - 1] for h in range(1, g + 1)}
    if draw(st.booleans()):
        h = draw(st.integers(1, g))
        p, q = draw(st.tuples(st.integers(-9, 9), st.integers(-9, 9)).filter(
            lambda s: gcd(*s) == 1))
        curve = curve_from_template(g, h, p, q)
    else:
        curve = curve_from_word(g, draw(st.lists(
            st.integers(1, 2 * g).flatmap(lambda v: st.sampled_from((v, -v))),
            max_size=12)))
    return curve, new_genus, handle_map


@settings(derandomize=True, database=None, max_examples=300)
@given(_reembeddings())
def test_reembed_permutes_handles(args):
    curve, new_genus, handle_map = args
    moved = reembed(curve, new_genus, handle_map)
    assert moved == Curve(moved.genus, moved.word, moved.homology,
                          moved.template)
    coeffs = [0] * (2 * new_genus)
    for h, nh in handle_map.items():
        coeffs[2 * nh - 2:2 * nh] = curve.homology.handle_part(h)
    assert moved.homology.coeffs == tuple(coeffs)
    inverse = {nh: h for h, nh in handle_map.items()}
    assert reembed(moved, curve.genus, inverse) == curve


@settings(derandomize=True, database=None, max_examples=300)
@given(_reembeddings().filter(lambda args: args[0].template is not None))
def test_reembed_of_a_template_curve_is_the_template_curve(args):
    curve, new_genus, handle_map = args
    tpl = curve.template
    moved = reembed(curve, new_genus, handle_map)
    assert moved == curve_from_template(new_genus, handle_map[tpl.handle],
                                        tpl.p, tpl.q)
    if handle_map[tpl.handle] == tpl.handle:
        assert moved.template is tpl
    # and it is that shared object, not a copy
    assert moved is curve_from_template(new_genus, handle_map[tpl.handle],
                                        tpl.p, tpl.q)
    assert reembed(curve, curve.genus, {tpl.handle: tpl.handle}) is curve


# -- shared template values ---------------------------------------------------

@settings(derandomize=True, database=None, max_examples=200)
@given(st.integers(1, 5).flatmap(lambda g: st.tuples(
    st.just(g), st.integers(1, g),
    st.tuples(st.integers(-9, 9), st.integers(-9, 9)).filter(
        lambda s: gcd(*s) == 1))))
def test_a_template_curve_is_one_object_per_genus_handle_and_slope(args):
    g, h, (p, q) = args
    c = curve_from_template(g, h, p, q)
    assert c is curve_from_template(g, h, -p, -q)
    # one template per (handle, slope), whatever the genus
    assert c.template is curve_from_template(g + 1, h, p, q).template
    # the shared curve is the one the checking constructor builds
    fresh = Curve(g, c.word, c.homology, SlopeTemplate(h, p, q))
    assert c == fresh and hash(c) == hash(fresh) and repr(c) == repr(fresh)


@pytest.mark.parametrize("args,error", [
    ((1, 2, 1, 0), ValueError),      # handle above the genus
    ((2, 0, 1, 0), ValueError),      # handle below 1
    ((2, 1, 0, 0), ValueError),      # slope (0, 0)
    ((2, 1, 2, 4), ValueError),      # not primitive
    ((2, 1, 1.0, 0), TypeError),     # a float slope, though 1.0 == 1
    ((2, 1, 0, -1.0), TypeError),
    ((2.0, 1, 1, 0), TypeError),     # a float genus
    ((2, 1.0, 1, 0), TypeError),     # a float handle
])
def test_a_rejected_template_raises_every_call_and_stores_nothing(args,
                                                                  error):
    curve_from_template(2, 1, 1, 0)
    curve_from_template(2, 1, 0, 1)
    def tables():
        return [{key: id(value) for key, value in table.items()}
                for table in (diagram._TEMPLATES, diagram._TEMPLATE_CURVES)]

    before = tables()
    for _ in range(2):
        with pytest.raises(error):
            curve_from_template(*args)
    assert tables() == before


def test_a_bool_slope_stores_the_int_curve():
    # a key no other test builds, dropped first so that True builds it
    diagram._TEMPLATES.pop((9, 1, 0), None)
    diagram._TEMPLATE_CURVES.pop((9, 9, 1, 0), None)
    c = curve_from_template(9, 9, True, False)
    assert c is curve_from_template(9, 9, 1, 0)
    assert repr(c.template) == "SlopeTemplate(handle=9, p=1, q=0)"


def _count_template_builds(monkeypatch):
    """A list that gains an entry each time a SlopeTemplate is checked."""
    built = []
    check = SlopeTemplate.__post_init__

    def counted(self):
        built.append((self.handle, self.p, self.q))
        check(self)

    monkeypatch.setattr(SlopeTemplate, "__post_init__", counted)
    return built


def test_a_stored_key_is_found_before_any_check(monkeypatch):
    monkeypatch.setattr(diagram, "_TEMPLATES", {})
    monkeypatch.setattr(diagram, "_TEMPLATE_CURVES", {})
    built = _count_template_builds(monkeypatch)
    c = curve_from_template(2, 1, 1, 0)
    assert c is curve_from_template(2, 1, 1, 0)
    assert len(built) == 1
    # inputs that are no stored key take the checking path
    with pytest.raises(TypeError):
        curve_from_template(2, 1, 1.0, 0)
    for handle in (3, 0):
        with pytest.raises(ValueError):
            curve_from_template(2, handle, 1, 0)
    assert curve_from_template(2, 1, True, 0) is c
    assert curve_from_template(2, 1, -1, 0) is c
    # one check each for the float, handle 0, True and -1; handle 3 is
    # refused before a template is built
    assert built == [(1, 1, 0), (1, 1.0, 0), (0, 1, 0), (1, True, 0),
                     (1, -1, 0)]
    assert list(diagram._TEMPLATE_CURVES) == [(2, 1, 1, 0)]


def test_a_sum_of_stored_pieces_builds_no_template(monkeypatch):
    a, b = genus_one_diagram("CP2"), genus_one_diagram("S1xS3")
    want = connected_sum(a, b)
    built = _count_template_builds(monkeypatch)
    assert connected_sum(a, b) == want
    assert built == []


def test_reembed_rejects_a_target_outside_the_genus():
    word = curve_from_word(2, (1, 3))
    tpl = curve_from_template(2, 1, 1, 0)
    for target in (0, 3):
        for curve in (word, tpl):
            with pytest.raises(ValueError):
                reembed(curve, 2, {1: target, 2: 2})
    assert reembed(word, 3, {1: 3, 2: 1}).word == (5, 1)


def test_reembed_rejects_a_map_that_merges_handles():
    word = curve_from_word(2, (1, 3))
    with pytest.raises(ValueError, match="handles 1 and 2 both map to 1"):
        reembed(word, 2, {1: 1, 2: 1})
    with pytest.raises(ValueError, match="handles 1 and 2 both map to 3"):
        reembed(word, 3, {1: 3, 2: 3})
    # a handle off the support may share a target with one on it
    assert reembed(curve_from_word(2, (1,)), 2, {1: 2, 2: 2}).word == (3,)


def test_a_catalog_sum_shares_its_template_curves():
    names = ("S1xS3", "CP2", "S4STAB1", "CP2R", "S1xS3", "CP2")
    t = genus_one_diagram(names[0])
    for name in names[1:]:
        t = connected_sum(t, genus_one_diagram(name))
    curves = [c for cs in t.systems() for c in cs.curves]
    assert t.genus == 6 and len(curves) == 18
    # one object per handle and slope: S1xS3 has one slope, S4STAB1 two
    # and CP2 and CP2R three each
    assert len({id(c) for c in curves}) == 1 + 3 + 2 + 3 + 1 + 3
    assert all(c is curve_from_template(6, c.template.handle, c.template.p,
                                        c.template.q) for c in curves)


def test_geometric_intersection_frozen():
    a = curve_from_template(2, 1, 1, 0)
    b = curve_from_template(2, 1, 0, 1)
    assert geometric_intersection(a, b) == (1, True)
    c = curve_from_template(2, 2, 0, 1)
    assert geometric_intersection(a, c) == (0, True)
    w1 = curve_from_word(1, (1, 2))  # x1 y1
    w2 = curve_from_word(1, (2,))  # y1
    assert geometric_intersection(w1, w2) == (1, False)


def test_geometric_intersection_properties():
    # symmetric, and exact template counts equal |algebraic| on one handle
    rng = random.Random(11)
    for _ in range(100):
        g = rng.randint(1, 3)
        curves = []
        for _ in range(2):
            h = rng.randint(1, g)
            while True:
                p, q = rng.randint(-4, 4), rng.randint(-4, 4)
                try:
                    curves.append(curve_from_template(g, h, p, q))
                    break
                except ValueError:
                    continue
        c1, c2 = curves
        n12, e12 = geometric_intersection(c1, c2)
        n21, e21 = geometric_intersection(c2, c1)
        assert (n12, e12) == (n21, e21)
        assert e12
        alg = abs(algebraic_intersection(c1.homology, c2.homology))
        assert n12 == alg  # slope curves realize the algebraic count


def test_cut_system_validation():
    system_from_templates(2, [(1, 1, 0), (2, 1, 0)])
    with pytest.raises(ValueError):
        CutSystem(2, (curve_from_template(2, 1, 1, 0),))
    with pytest.raises(ValueError):
        # both curves on one handle: classes dependent or intersecting
        system_from_templates(2, [(1, 1, 0), (1, 1, 0)])
    with pytest.raises(ValueError):
        system_from_templates(2, [(1, 1, 0), (1, 0, 1)])


def test_heegaard_h1_examples():
    d = HeegaardDiagram(2,
                        system_from_templates(2, [(1, 1, 0), (2, 1, 0)]),
                        system_from_templates(2, [(1, 1, 0), (2, 0, 1)]))
    assert heegaard_h1(d) == AbelianGroup(1, ())
    d2 = HeegaardDiagram(1,
                         system_from_templates(1, [(1, 1, 0)]),
                         system_from_templates(1, [(1, 1, 1)]))
    assert heegaard_h1(d2).is_trivial
    d3 = HeegaardDiagram(1,
                         system_from_templates(1, [(1, 1, 0)]),
                         system_from_templates(1, [(1, 1, 0)]))
    assert heegaard_h1(d3) == AbelianGroup(1, ())
    # columns (1,0) and (1,2) have Smith form diag(1,2): torsion Z/2
    d4 = HeegaardDiagram(1,
                         system_from_templates(1, [(1, 1, 0)]),
                         system_from_templates(1, [(1, 1, 2)]))
    assert heegaard_h1(d4) == AbelianGroup(0, (2,))


def _h1_from_both_systems(d):
    """The 2g x 2g cokernel of both systems' classes: the reference for
    ``heegaard_h1``'s g x g intersection matrix."""
    cols = [c.coeffs for c in d.alpha.classes() + d.beta.classes()]
    if not cols:
        return AbelianGroup(2 * d.genus, ())
    factors = invariant_factors(cols)
    return AbelianGroup(2 * d.genus - len(factors),
                        tuple(f for f in factors if f > 1))


def test_heegaard_h1_matches_the_full_cokernel_on_scrambled_sums():
    rng = random.Random(16)
    seen = set()
    for g in range(1, 9):
        for _ in range(6):
            t = genus_one_diagram(rng.choice(ALL_NAMES))
            for _ in range(g - 1):
                t = connected_sum(t, genus_one_diagram(rng.choice(ALL_NAMES)))
            systems = list(t.systems())
            for _ in range(3 * g if g > 1 else 0):
                k = rng.randrange(3)
                i, j = rng.sample(range(1, g + 1), 2)
                guide = tuple(rng.choice((1, -1)) * rng.randint(1, 2 * g)
                              for _ in range(rng.randrange(3)))
                systems[k] = handleslide(systems[k], i, j, guide,
                                         rng.choice((1, -1)))
            t = TrisectionDiagram(g, *systems)
            for d in pair_diagrams(t):
                h1 = heegaard_h1(d)
                assert h1 == _h1_from_both_systems(d)
                seen.add((g, h1.free_rank))
    assert len({k for (g, k) in seen if g == 8}) >= 3


def _transvect(genus, v, x):
    """x + <x, v> v: the image of x under a symplectic automorphism."""
    c = algebraic_intersection(HomologyClass(genus, tuple(x)),
                               HomologyClass(genus, tuple(v)))
    return [a + c * b for a, b in zip(x, v)]


@st.composite
def _lagrangian_pairs(draw):
    """Two cut systems whose classes are symplectic images of the
    standard Lagrangian (one of a_h, b_h per handle), as word curves."""
    g = draw(st.integers(1, 4))
    systems = []
    for _ in range(2):
        vecs = []
        for h in range(g):
            x = [0] * (2 * g)
            x[2 * h + draw(st.integers(0, 1))] = 1
            vecs.append(x)
        for _ in range(draw(st.integers(0, 3))):
            v = draw(st.lists(st.integers(-1, 1), min_size=2 * g,
                              max_size=2 * g))
            vecs = [_transvect(g, v, x) for x in vecs]
        curves = []
        for x in vecs:
            word = [(i + 1) * (1 if c > 0 else -1)
                    for i, c in enumerate(x) for _ in range(abs(c))]
            curves.append(curve_from_word(g, word))
        systems.append(CutSystem(g, tuple(curves)))
    return HeegaardDiagram(g, *systems)


@settings(derandomize=True, database=None, max_examples=300)
@given(_lagrangian_pairs())
def test_heegaard_h1_matches_the_full_cokernel_on_lagrangian_pairs(d):
    assert heegaard_h1(d) == _h1_from_both_systems(d)


def test_detect_k_standard():
    for g in range(0, 4):
        for k in range(0, g + 1):
            got, v = detect_k(standard_heegaard(g, k))
            assert got == k and v.is_verified


def test_detect_k_torsion_refuted():
    d = HeegaardDiagram(1,
                        system_from_templates(1, [(1, 1, 0)]),
                        system_from_templates(1, [(1, 1, 2)]))
    k, v = detect_k(d)
    assert v.is_refuted
    assert v.witness["kind"] == "torsion"
    assert v.witness["factors"] == [2]


def test_surface_relator():
    assert surface_relator(2) == (1, 2, -1, -2, 3, 4, -3, -4)
    p = quotient_presentation(0, [])
    assert p.num_generators == 0 and p.relators == ()


def test_trisection_params_catalog_slopes():
    # (1,0),(1,0),(1,0): every pair shares its curve
    t = TrisectionDiagram(
        1,
        system_from_templates(1, [(1, 1, 0)]),
        system_from_templates(1, [(1, 1, 0)]),
        system_from_templates(1, [(1, 1, 0)]))
    params, v = trisection_params(t)
    assert params == TrisectionParams(1, 1, 1, 1)
    assert v.is_verified


def test_trisection_params_declared_mismatch():
    t = TrisectionDiagram(
        1,
        system_from_templates(1, [(1, 1, 0)]),
        system_from_templates(1, [(1, 0, 1)]),
        system_from_templates(1, [(1, 1, 1)]),
        declared_params=(1, 1, 1))
    params, v = trisection_params(t)
    assert params.ks == (0, 0, 0)
    assert v.is_refuted and v.witness["kind"] == "params-mismatch"


def test_euler_characteristic_frozen():
    def chi_oracle(g, k1, k2, k3):
        # handle counts: one 0-handle, k1 1-handles, g-k2 2-handles,
        # k3 3-handles, one 4-handle
        return 1 - k1 + (g - k2) - k3 + 1

    cases = [((0, 0, 0, 0), 2), ((1, 0, 0, 0), 3), ((1, 1, 1, 1), 0)]
    for (g, k1, k2, k3), expected in cases:
        p = TrisectionParams(g, k1, k2, k3)
        assert euler_characteristic(p) == expected
        assert euler_characteristic(p) == chi_oracle(g, k1, k2, k3)


def test_pi1_presentation():
    t0 = TrisectionDiagram(0, CutSystem(0, ()), CutSystem(0, ()),
                           CutSystem(0, ()))
    p0 = pi1_presentation(t0)
    assert p0.num_generators == 0 and p0.relators == ()

    s1xs3 = TrisectionDiagram(
        1,
        system_from_templates(1, [(1, 1, 0)]),
        system_from_templates(1, [(1, 1, 0)]),
        system_from_templates(1, [(1, 1, 0)]))
    _, v = tietze_simplify(pi1_presentation(s1xs3))
    assert v.is_verified and v.witness["rank"] == 1

    cp2 = TrisectionDiagram(
        1,
        system_from_templates(1, [(1, 1, 0)]),
        system_from_templates(1, [(1, 0, 1)]),
        system_from_templates(1, [(1, 1, 1)]))
    _, v2 = tietze_simplify(pi1_presentation(cp2))
    assert v2.is_verified and v2.witness["rank"] == 0


def test_trisection_h1():
    s1xs3 = TrisectionDiagram(
        1,
        system_from_templates(1, [(1, 1, 0)]),
        system_from_templates(1, [(1, 1, 0)]),
        system_from_templates(1, [(1, 1, 0)]))
    assert trisection_h1(s1xs3) == AbelianGroup(1, ())
    cp2 = TrisectionDiagram(
        1,
        system_from_templates(1, [(1, 1, 0)]),
        system_from_templates(1, [(1, 0, 1)]),
        system_from_templates(1, [(1, 1, 1)]))
    assert trisection_h1(cp2).is_trivial


def test_detect_k_needs_a_trace_only_above_genus_one():
    # slopes (2,3), (2,3) present S1xS2, whose pi1 no Tietze search here
    # simplifies; at genus one pi1 is abelian, so H1 = Z decides it
    one = HeegaardDiagram(1, system_from_templates(1, [(1, 2, 3)]),
                          system_from_templates(1, [(1, 2, 3)]))
    two = standard_heegaard(2, 1)
    for d in (one, two):
        k, v = detect_k(d)
        assert k == 1 and v.is_verified
        assert ("trace" in v.witness) == (d.genus > 1)
        reports.replay_verdict((d,), v.to_dict())
    traceless = {key: value for key, value in v.witness.items()
                 if key != "trace"}
    with pytest.raises(reports.ReplayError):
        reports.replay_verdict((two,), {"status": "verified",
                                        "witness": traceless})
