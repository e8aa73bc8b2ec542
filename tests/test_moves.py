import hashlib
import itertools
import json
import random
from math import gcd
from unittest import mock

import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from trisect import diagram, moves, presentations, reports, words
from trisect.catalog import (ALL_NAMES, genus_one_diagram, genus_one_name,
                             genus_zero_diagram, triangle_sign)
from trisect.diagram import (Curve, HeegaardDiagram, TrisectionDiagram,
                             TrisectionParams, CutSystem, curve_from_word,
                             detect_k, euler_characteristic, pair_homology,
                             system_from_templates, trisection_params)
from trisect.homology import (HomologyClass, abelianize,
                              algebraic_intersection)
from trisect.intmatrix import span_equal
from trisect.moves import (check_classified_params, connected_sum,
                           destabilize, find_stabilization_certificate,
                           handleslide, heegaard_stabilize, i_stabilize,
                           name_components, replay_decomposition,
                           standardize, sum_name, unscramble)

PAIR_TRACES_SHA256 = (
    "bbc8a1bca0e7dad51703026d80dbd6a6bda18729dd872c955f473dd12fd41d8d")
# names, status, reason and witness; re-pinned when the classification
# witness became one unscramble node (the names digest did not move)
STANDARDIZE_SHA256 = (
    "24ea6c0b135eb3962e6b321a262150b2fee82c5401bebbc46957b9e9b599560f")
# sorted summand names and status only, measured when standardize still
# confirmed the parameters by Tietze search and rotated the systems so
# the largest k came first; dropping both must not move a single answer
STANDARDIZE_NAMES_SHA256 = (
    "11f13a8d9b2c1a9225ee94d71f8bb1eb1396930523a6c074e14d08e317a8650a")


def _scrambled(t, rng, steps=5, guided=False):
    """Random slides in every system; a guided slide runs along a random
    surface word of length 2-3."""
    if t.genus < 2:
        return t
    systems = []
    for cs in t.systems():
        cur = cs
        for _ in range(steps):
            i = rng.randrange(1, cur.genus + 1)
            j = rng.randrange(1, cur.genus + 1)
            while j == i:
                j = rng.randrange(1, cur.genus + 1)
            guide = ()
            if guided:
                guide = tuple(rng.choice((1, -1))
                              * rng.randrange(1, 2 * cur.genus + 1)
                              for _ in range(rng.randrange(2, 4)))
            cur = handleslide(cur, i, j, guide=guide,
                              sign=rng.choice((1, -1)))
        systems.append(cur)
    return TrisectionDiagram(t.genus, systems[0], systems[1], systems[2],
                             declared_params=t.declared_params)


def test_handleslide_adds_words_and_classes():
    cs = system_from_templates(2, [(1, 1, 0), (2, 1, 0)])
    slid = handleslide(cs, 1, 2)
    assert slid.curve(1).word == (1, 3)
    assert slid.curve(1).homology.coeffs == (1, 0, 1, 0)
    assert slid.curve(1).template is None
    assert slid.curve(2) == cs.curve(2)


def test_handleslide_back_is_an_inverse():
    cs = system_from_templates(2, [(1, 1, 0), (2, 1, 0)])
    back = handleslide(handleslide(cs, 1, 2), 1, 2, sign=-1)
    assert back.curve(1).word == (1,)
    assert back.curve(1).homology == cs.curve(1).homology


def test_handleslide_with_guide_conjugates():
    cs = system_from_templates(2, [(1, 1, 0), (2, 1, 0)])
    slid = handleslide(cs, 1, 2, guide=(2,))
    assert slid.curve(1).word == (1, 2, 3, -2)
    assert slid.curve(1).homology.coeffs == (1, 0, 1, 0)


def test_handleslide_rejects_bad_arguments():
    cs = system_from_templates(2, [(1, 1, 0), (2, 1, 0)])
    with pytest.raises(ValueError):
        handleslide(cs, 1, 1)
    with pytest.raises(ValueError):
        handleslide(cs, 1, 2, sign=2)


def test_random_slides_preserve_the_spanned_lattice():
    rng = random.Random(41)
    cs = system_from_templates(3, [(1, 1, 0), (2, 1, 0), (3, 1, 0)])
    start = [list(c.coeffs) for c in cs.classes()]
    cur = cs
    for _ in range(20):
        i = rng.randrange(1, 4)
        j = rng.randrange(1, 4)
        while j == i:
            j = rng.randrange(1, 4)
        cur = handleslide(cur, i, j, sign=rng.choice((1, -1)))
        now = [list(c.coeffs) for c in cur.classes()]
        assert span_equal(start, now, 6)


def test_connected_sum_concatenates_and_adds_params():
    t = connected_sum(genus_one_diagram("CP2"), genus_one_diagram("CP2R"))
    assert t.genus == 2
    assert t.declared_params == (0, 0, 0)
    params, v = trisection_params(t)
    assert params.ks == (0, 0, 0)
    assert v.is_verified
    assert t.alpha.curve(2).template.handle == 2


def test_connected_sum_identity_and_associativity():
    a = genus_one_diagram("CP2")
    b = genus_one_diagram("S1xS3")
    c = genus_one_diagram("S4STAB1")
    assert connected_sum(a, genus_zero_diagram()) == a
    assert connected_sum(genus_zero_diagram(), a) == a
    assert (connected_sum(connected_sum(a, b), c)
            == connected_sum(a, connected_sum(b, c)))


def test_connected_sum_commutes_up_to_isomorphism():
    a = genus_one_diagram("CP2")
    b = genus_one_diagram("S1xS3")
    assert name_components(connected_sum(a, b)) == [(1, "CP2"),
                                                    (1, "S1xS3")]
    assert name_components(connected_sum(b, a)) == [(1, "S1xS3"),
                                                    (1, "CP2")]
    assert connected_sum(a, b) != connected_sum(b, a)


def test_euler_characteristic_adds_under_sum():
    rng = random.Random(20260814)
    names = ["CP2", "CP2R", "S1xS3", "S4STAB1", "S4STAB2", "S4STAB3"]
    for _ in range(20):
        t1 = genus_one_diagram(rng.choice(names))
        t2 = genus_one_diagram(rng.choice(names))
        s = connected_sum(t1, t2)
        p, _ = trisection_params(s)
        p1, _ = trisection_params(t1)
        p2, _ = trisection_params(t2)
        assert euler_characteristic(p) \
            == euler_characteristic(p1) + euler_characteristic(p2) - 2


def test_i_stabilize_bumps_one_parameter():
    for i, expect in ((1, (1, 0, 0)), (2, (0, 1, 0)), (3, (0, 0, 1))):
        t = i_stabilize(genus_one_diagram("CP2"), i)
        params, v = trisection_params(t)
        assert v.is_verified
        assert params.genus == 2
        assert params.ks == expect


def test_stabilizations_commute_up_to_isomorphism():
    base = genus_one_diagram("CP2")
    t12 = i_stabilize(i_stabilize(base, 1), 2)
    t21 = i_stabilize(i_stabilize(base, 2), 1)
    assert name_components(t12) == [(1, "CP2"), (1, "S4STAB1"),
                                    (1, "S4STAB2")]
    assert name_components(t21) == [(1, "CP2"), (1, "S4STAB2"),
                                    (1, "S4STAB1")]


def test_heegaard_stabilize_preserves_first_homology():
    from trisect.diagram import heegaard_h1, standard_heegaard
    d = standard_heegaard(2, 1)
    s = heegaard_stabilize(d)
    assert s.genus == 3
    assert s.alpha.curve(3).template.slope == (1, 0)
    assert s.beta.curve(3).template.slope == (0, 1)
    assert heegaard_h1(s) == heegaard_h1(d)


def test_stabilization_certificate_found_and_destabilized():
    for i in (1, 2, 3):
        t = i_stabilize(genus_one_diagram("CP2"), i)
        cert = find_stabilization_certificate(t)
        assert cert is not None
        assert cert.index == i
        assert cert.omega.template.handle == 2
        back = destabilize(t, cert)
        assert back == genus_one_diagram("CP2")


def test_destabilize_rejects_a_stale_certificate():
    t1 = i_stabilize(genus_one_diagram("CP2"), 1)
    cert = find_stabilization_certificate(t1)
    t2 = i_stabilize(genus_one_diagram("CP2"), 2)
    with pytest.raises(ValueError):
        destabilize(t2, cert)


def test_destabilize_requires_literal_membership():
    t = i_stabilize(genus_one_diagram("S1xS3"), 2)
    cert = find_stabilization_certificate(t)
    beta = handleslide(t.beta, 2, 1)
    moved = TrisectionDiagram(2, t.alpha, beta, t.gamma,
                              declared_params=t.declared_params)
    with pytest.raises(ValueError):
        destabilize(moved, cert)


def test_name_components_names_the_pieces_of_a_sum():
    t = connected_sum(genus_one_diagram("CP2"), genus_one_diagram("CP2R"))
    assert name_components(t) == [(1, "CP2"), (1, "CP2R")]


def test_name_components_keeps_merged_supports_whole():
    t = connected_sum(genus_one_diagram("CP2"), genus_one_diagram("CP2R"))
    alpha = handleslide(t.alpha, 1, 2)
    merged = TrisectionDiagram(2, alpha, t.beta, t.gamma,
                               declared_params=t.declared_params)
    assert name_components(merged) == [(2, None)]
    assert name_components(genus_one_diagram("CP2")) == [(1, "CP2")]
    assert name_components(genus_zero_diagram()) == []


def test_name_components_rejects_an_uneven_system():
    # two alpha curves on handle 1 and none on handle 2; no checked system
    # is that uneven (its classes on a genus-h component have rank h), so
    # only an unchecked one reaches the guard
    t = connected_sum(genus_one_diagram("CP2"), genus_one_diagram("CP2R"))
    alpha = diagram.moved_system(2, (t.alpha.curve(1),
                                     curve_from_word(2, (1, 2))))
    with pytest.raises(ValueError, match="2 curves on a genus-1 support"):
        name_components(TrisectionDiagram(2, alpha, t.beta, t.gamma))


def test_unscramble_recovers_a_scrambled_sum():
    rng = random.Random(7)
    t = connected_sum(connected_sum(genus_one_diagram("CP2"),
                                    genus_one_diagram("S1xS3")),
                      genus_one_diagram("S4STAB1"))
    scrambled = _scrambled(t, rng, steps=5)
    assert any(c.template is None
               for cs in scrambled.systems() for c in cs.curves)
    cleaned, scripts = unscramble(scrambled)
    assert name_components(cleaned) == [(1, "CP2"), (1, "S1xS3"),
                                        (1, "S4STAB1")]
    # every cleaned curve is a shortest word on one handle: its length
    # is |p| + |q| for its class (p, q) there
    for cs in cleaned.systems():
        for c in cs.curves:
            (h,) = c.support()
            p, q = c.homology.handle_part(h)
            assert len(c.word) == abs(p) + abs(q)
    assert any(scripts.values())


def test_check_classified_params_cases():
    cases = [((2, 2, 1, 1), ("k1=g", True)),
             ((2, 2, 1, 0), ("k1=g", False)),
             ((3, 2, 2, 1), ("k1=g-1", True)),
             ((3, 1, 2, 2), ("k1=g-1", True)),
             ((3, 0, 2, 2), ("k1=g-1", False)),
             ((3, 2, 0, 2), ("k1=g-1", False)),
             ((4, 2, 1, 1), None),
             ((1, 0, 0, 0), ("k1=g-1", True)),
             ((0, 0, 0, 0), ("k1=g", True))]
    for params, expected in cases:
        assert check_classified_params(TrisectionParams(*params)) \
            == expected, params


def test_standardize_names_a_clean_sum():
    t = connected_sum(genus_one_diagram("S1xS3"), genus_one_diagram("CP2"))
    names, v = standardize(t)
    assert v.is_verified
    assert sorted(names) == ["CP2", "S1xS3"]
    assert v.witness["kind"] == "classification"
    assert v.witness["name"] == "S1xS3 # CP2"


def test_standardize_names_stabilizations_in_the_input_labeling():
    # the pass runs on the systems as given, so the index of each
    # stabilization is read in the input's own pair order
    t = connected_sum(genus_one_diagram("S4STAB2"),
                      genus_one_diagram("S4STAB2"))
    params, _ = trisection_params(t)
    assert params.ks == (0, 2, 0)
    names, v = standardize(t)
    assert v.is_verified
    assert names == ["S4STAB2", "S4STAB2"]
    assert v.witness["name"] == "S4" and "order" not in v.witness


def test_standardize_handles_a_scrambled_sum():
    rng = random.Random(13)
    t = connected_sum(genus_one_diagram("S1xS3"), genus_one_diagram("CP2R"))
    scrambled = _scrambled(t, rng, steps=6)
    names, v = standardize(scrambled)
    assert v.is_verified
    assert sorted(names) == ["CP2R", "S1xS3"]
    assert standardize(scrambled, v.witness) == (names, v)


def test_standardize_walks_outside_the_classified_range():
    # max(k) = 1 < g-1 = 2: no theorem promises a way down, but this sum
    # splits all the same
    t = connected_sum(connected_sum(genus_one_diagram("CP2"),
                                    genus_one_diagram("CP2R")),
                      genus_one_diagram("S1xS3"))
    params, _ = trisection_params(t)
    assert params.ks == (1, 1, 1)
    names, v = standardize(t)
    assert v.is_verified and sorted(names) == ["CP2", "CP2R", "S1xS3"]
    assert v.witness["name"] == "S1xS3 # CP2 # CP2R"
    reports.replay_verdict((t,), v.to_dict())


def test_standardize_passes_through_refuted_parameters():
    base = connected_sum(genus_one_diagram("S1xS3"), genus_one_diagram("CP2"))
    wrong = TrisectionDiagram(2, base.alpha, base.beta, base.gamma,
                              declared_params=(2, 1, 1))
    names, v = standardize(wrong)
    assert names == []
    assert v.is_refuted


def test_classify_names_catalog_sums():
    one = genus_one_diagram("CP2")
    v = standardize(one)[1]
    assert (v.witness["name"], v.is_verified) == ("CP2", True)
    t = connected_sum(connected_sum(genus_one_diagram("S1xS3"),
                                    genus_one_diagram("S1xS3")),
                      genus_one_diagram("CP2"))
    v = standardize(t)[1]
    assert v.witness["name"] == "#2(S1xS3) # CP2"
    assert v.is_verified
    s4 = connected_sum(genus_one_diagram("S4STAB1"),
                       genus_one_diagram("S4STAB3"))
    v = standardize(s4)[1]
    assert (v.witness["name"], v.is_verified) == ("S4", True)


def _twisted_product_diagram():
    # a valid (2; 0,0,0) diagram whose third system crosses both handles
    alpha = system_from_templates(2, [(1, 1, 0), (2, 1, 0)])
    beta = system_from_templates(2, [(1, 0, 1), (2, 0, 1)])
    gamma = CutSystem(2, (curve_from_word(2, (1, 4)),
                          curve_from_word(2, (2, 3))))
    return TrisectionDiagram(2, alpha, beta, gamma)


def test_classify_reports_unknown_when_stuck():
    t = _twisted_product_diagram()
    params, v = trisection_params(t)
    assert params.ks == (0, 0, 0)
    assert v.is_verified
    names, cv = standardize(t)
    assert names == []
    assert cv.is_unknown


def test_replay_rejects_tampered_witnesses():
    t = connected_sum(genus_one_diagram("S1xS3"), genus_one_diagram("CP2"))
    names, v = standardize(t)
    forged = dict(v.witness)
    forged["names"] = ["CP2", "CP2"]
    assert standardize(t, forged)[1].witness != forged


def test_sum_name_formatting():
    assert sum_name([]) == "S4"
    assert sum_name(["S4STAB1", "S4STAB2"]) == "S4"
    assert sum_name(["CP2"]) == "CP2"
    assert sum_name(["S1xS3", "CP2", "S1xS3"]) == "#2(S1xS3) # CP2"
    assert sum_name(["CP2", "CP2R", "CP2"]) == "CP2 # CP2 # CP2R"


def _pair_traces_digest():
    """sha256 over detect_k's k, status and Tietze trace on all three pairs
    of plain and slide-scrambled catalog sums at g = 2..12."""
    digest = hashlib.sha256()
    for g in range(2, 13):
        rng = random.Random(1000 + g)
        t = genus_one_diagram(rng.choice(ALL_NAMES))
        for _ in range(g - 1):
            t = connected_sum(t, genus_one_diagram(rng.choice(ALL_NAMES)))
        for diagram in (t, _scrambled(t, rng, steps=4)):
            for a, b in (("alpha", "beta"), ("beta", "gamma"),
                         ("gamma", "alpha")):
                k, v = detect_k(HeegaardDiagram(g, diagram.system(a),
                                                diagram.system(b)))
                trace = v.witness["trace"] if v.is_verified else v.reason
                digest.update(json.dumps([g, a, b, k, v.status, trace])
                              .encode())
    return digest.hexdigest()


def test_detect_k_traces_on_catalog_sums_are_pinned():
    # a change in any chosen Tietze move or any detected k shows here
    assert _pair_traces_digest() == PAIR_TRACES_SHA256


def _standardize_outcomes():
    """Two digests of standardize on unguided and guided slide-scrambles
    of catalog sums at g = 2..10 whose first parameter is at least g-1:
    one of names, status, reason and witness, one of sorted names and
    status alone; and the tally of statuses."""
    digest = hashlib.sha256()
    names_digest = hashlib.sha256()
    statuses = {}
    for guided in (False, True):
        for g in range(2, 11):
            rng = random.Random("%d:%d" % (guided, g))
            for _ in range(4):
                names = ([rng.choice(("S1xS3", "S4STAB1"))
                          for _ in range(g - 1)]
                         + [rng.choice(ALL_NAMES)])
                t = genus_one_diagram(names[0])
                for name in names[1:]:
                    t = connected_sum(t, genus_one_diagram(name))
                t = _scrambled(t, rng, rng.randrange(1, 7), guided)
                found, v = standardize(t)
                statuses[v.status] = statuses.get(v.status, 0) + 1
                digest.update(json.dumps([found, v.status, v.reason,
                                          v.witness], sort_keys=True)
                              .encode())
                names_digest.update(json.dumps([sorted(found), v.status])
                                    .encode())
    return digest.hexdigest(), names_digest.hexdigest(), statuses


def test_standardize_outcomes_on_seeded_scrambles_are_pinned():
    # a change in any slide the descent picks, or any name or reason,
    # shows in the first digest; the second holds the answers themselves
    assert _standardize_outcomes() == (STANDARDIZE_SHA256,
                                       STANDARDIZE_NAMES_SHA256,
                                       {"verified": 37, "unknown": 35})


def _refuse_tietze(monkeypatch):
    def refused(*args, **kwargs):
        raise AssertionError("a Tietze search ran")

    monkeypatch.setattr(presentations, "tietze_simplify", refused)
    monkeypatch.setattr(diagram, "tietze_simplify", refused)


@pytest.mark.parametrize("names", [("S1xS3", "S1xS3", "CP2"),
                                   ("S4STAB2", "S4STAB2")])
def test_standardize_runs_no_tietze_search(monkeypatch, names):
    t = genus_one_diagram(names[0])
    for name in names[1:]:
        t = connected_sum(t, genus_one_diagram(name))
    t = _scrambled(t, random.Random(7))
    _refuse_tietze(monkeypatch)
    found, v = standardize(t)
    assert v.is_verified and sorted(found) == sorted(names)


# -- the trust boundary: moves build systems without re-checking them ---------

def _sum(names):
    t = genus_one_diagram(names[0])
    for name in names[1:]:
        t = connected_sum(t, genus_one_diagram(name))
    return t


@pytest.mark.parametrize("names", [
    ("S1xS3", "CP2", "S4STAB1"),
    ("S1xS3", "S4STAB1", "S4STAB1", "S1xS3", "S4STAB1", "CP2R")])
def test_standardize_never_rechecks_a_moved_system(monkeypatch, names):
    t = _scrambled(_sum(names), random.Random(11))
    calls = []
    lagrangian_verdict = diagram.lagrangian_verdict

    def counted(*args):
        calls.append(args)
        return lagrangian_verdict(*args)

    monkeypatch.setattr(diagram, "lagrangian_verdict", counted)
    found, v = standardize(t)
    assert v.is_verified and sorted(found) == sorted(names)
    assert calls == []


def _assert_checked(d):
    """Every system and curve of ``d`` passes the checking constructors."""
    systems = d.systems() if isinstance(d, TrisectionDiagram) \
        else (d.alpha, d.beta)
    for cs in systems:
        assert cs == CutSystem(cs.genus, cs.curves)
        for c in cs.curves:
            assert c == Curve(c.genus, c.word, c.homology, c.template)


def _classes(cs):
    return [list(c.coeffs) for c in cs.classes()]


@st.composite
def _slid_sums(draw):
    """A catalog sum at genus 2..6 whose systems went through random
    slides, each along a guide word of length 0-3."""
    g = draw(st.integers(2, 6))
    t = _sum(draw(st.lists(st.sampled_from(ALL_NAMES), min_size=g,
                           max_size=g)))
    letter = st.builds(lambda v, s: v * s, st.integers(1, 2 * g),
                       st.sampled_from((1, -1)))
    systems = []
    for cs in t.systems():
        for _ in range(draw(st.integers(0, 6))):
            i = draw(st.integers(1, g))
            j = draw(st.integers(1, g - 1))
            cs = handleslide(cs, i, j + (j >= i),
                             guide=draw(st.lists(letter, max_size=3)),
                             sign=draw(st.sampled_from((1, -1))))
        systems.append(cs)
    return TrisectionDiagram(g, *systems, declared_params=t.declared_params)


def _walk(t):
    """Unscramble, stabilize the cleaned diagram and destabilize the new
    handle, and group into support components, checking every diagram
    the moves build."""
    _assert_checked(t)
    cleaned, _ = unscramble(t)
    _assert_checked(cleaned)
    for before, after in zip(t.systems(), cleaned.systems()):
        # slides keep each system's Lagrangian
        assert span_equal(_classes(before), _classes(after), 2 * t.genus)
    # slid curves carry no template, so a certificate comes from the
    # template handle that a stabilization adds; destabilizing it must
    # give back the cleaned diagram, word curves and all
    for i in (1, 2, 3):
        stab = i_stabilize(cleaned, i)
        first, _, third = (stab.system(n)
                           for n in moves._names_for_index(i))
        cert = moves.StabilizationCertificate(
            i, first.curve(stab.genus), third.curve(stab.genus))
        rest = destabilize(stab, cert)
        _assert_checked(rest)
        assert rest == cleaned
    event("destabilize")
    comps = name_components(cleaned)
    if len(comps) > 1:
        event("split")
    assert sum(g for g, _ in comps) == t.genus


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(_slid_sums())
def test_moved_systems_pass_the_checking_constructors(t):
    _walk(t)
    _assert_checked(connected_sum(t, genus_one_diagram("CP2")))
    _assert_checked(heegaard_stabilize(HeegaardDiagram(t.genus, t.alpha,
                                                       t.beta)))


# -- slide descent: the per-descent memo against the plain enumeration -------

def _reference_slides(state, memo=None):
    """Every slide of a word tuple, straight from the definition: each
    rotation of w_j^sign appended to w_i and cyclically reduced, empty
    products left out, in (i, j, sign, rotation) order.  No prefilter, no
    seam kernel and no memo; the slides that lengthen w_i come too."""
    for i, wi in enumerate(state):
        for j, wj in enumerate(state):
            if i == j:
                continue
            for sign, base in ((1, wj), (-1, words.inverse(wj))):
                for r in range(len(base)):
                    new = words.cyclic_reduce(wi + base[r:] + base[:r])
                    if new:
                        yield ((i, j, sign, r),
                               state[:i] + (new,) + state[i + 1:],
                               len(new) - len(wi))


@st.composite
def _descent_states(draw):
    """g nonempty cyclically reduced surface words at genus 2..6: drawn
    letter by letter, or the words of one system of a slid catalog sum
    (guided slides included)."""
    if draw(st.booleans()):
        cs = draw(st.sampled_from(draw(_slid_sums()).systems()))
        return tuple(c.word for c in cs.curves)
    g = draw(st.integers(2, 6))
    letter = st.builds(lambda v, s: v * s, st.integers(1, 2 * g),
                       st.sampled_from((1, -1)))
    word = st.lists(letter, min_size=1, max_size=7).map(
        words.cyclic_reduce).filter(bool)
    return tuple(draw(st.lists(word, min_size=g, max_size=g)))


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(_descent_states())
def test_slide_descent_memo_matches_the_plain_enumeration(state):
    # the memo keeps only slides that do not lengthen w_i; both consumers
    # ignore the others, so candidates, final state and script must agree
    want = [s for s in _reference_slides(state) if s[2] <= 0]
    memo = {}
    assert list(moves._raw_slides(state, memo)) == want  # cold memo
    assert list(moves._raw_slides(state, memo)) == want  # warm memo
    got = moves._descend_words(state)
    if got[1]:
        event("descent slides")
    with mock.patch.object(moves, "_raw_slides", _reference_slides):
        assert moves._descend_words(state) == got


@settings(derandomize=True, database=None, max_examples=120, deadline=None)
@given(_slid_sums())
def test_unscramble_scripts_replay_to_the_returned_systems(t):
    # unscramble builds each slid curve from the descent's word; replaying
    # the script through handleslide must build the same curves, and an
    # unslid curve must keep its template
    cleaned, scripts = unscramble(t)
    for cs, down, label in zip(t.systems(), cleaned.systems(),
                               ("alpha", "beta", "gamma")):
        for i, j, sign, guide in scripts[label]:
            if guide:
                event("guided slide")
            cs = handleslide(cs, i, j, guide=guide, sign=sign)
        assert [(c.word, c.homology, c.template) for c in cs.curves] == \
            [(c.word, c.homology, c.template) for c in down.curves]


# -- decomposition witnesses: replay runs no search and rejects tampering -----

@pytest.mark.parametrize("g", [2, 3, 4, 5, 6])
def test_standardize_unscrambles_once(monkeypatch, g):
    rng = random.Random(g)
    t = _scrambled(_sum([rng.choice(ALL_NAMES) for _ in range(g)]), rng)
    calls = []
    once = moves.unscramble

    def counted(d):
        calls.append(d.genus)
        return once(d)

    monkeypatch.setattr(moves, "unscramble", counted)
    names, v = standardize(t)
    assert v.is_verified and len(names) == g
    assert calls == [g]


def test_only_the_input_pairs_take_a_homology_cokernel(monkeypatch):
    # a genus-one component is named from its three slopes, so standardize
    # computes H1 for the input's three pairs only and replay for none
    rng = random.Random(6)
    t = _scrambled(_sum([rng.choice(ALL_NAMES) for _ in range(6)]), rng)
    calls = []
    h1 = diagram.heegaard_h1

    def counted(d):
        calls.append(d.genus)
        return h1(d)

    monkeypatch.setattr(diagram, "heegaard_h1", counted)
    names, v = standardize(t)
    assert v.is_verified and len(names) == 6
    assert calls == [6, 6, 6]
    slid, _ = replay_decomposition(t, v.witness["tree"])
    assert sorted(name for _, name in name_components(slid)) == sorted(names)
    assert calls == [6, 6, 6]


def test_decomposition_replay_runs_no_tietze_search(monkeypatch):
    t = _scrambled(_sum(("S1xS3", "CP2", "S4STAB1")), random.Random(11))
    names, v = standardize(t)
    assert v.is_verified and any(v.witness["tree"]["slides"].values())

    def refused(*args):
        raise AssertionError("a slide descent ran")

    monkeypatch.setattr(moves, "_descend_words", refused)
    _refuse_tietze(monkeypatch)
    assert standardize(t, v.witness) == (names, v)


def test_replay_rejects_forged_and_dropped_slides():
    t = _scrambled(_sum(("S1xS3", "CP2", "S4STAB1")), random.Random(11))
    v = standardize(t)[1]
    assert name_components(t) == [(3, None)]
    forged = list(_tampered(t, v.witness))[-2:]
    assert forged[1]["tree"]["slides"] == {"alpha": [], "beta": [],
                                           "gamma": []}
    for witness in forged:
        got = standardize(t, witness)[1]
        assert got.is_unknown
        assert got.reason.startswith("no reducing certificate at genus")


def _tampered(t, witness):
    """Copies of a classification witness on ``t``, each with one forged
    field: a name, the names, the sign of the first slide, and, when the
    input does not already cut into genus-one pieces, no slides at all."""
    for field, values in (("name", ("S4", "CP2 # CP2R")),
                          ("names", (["CP2"], ["CP2", "CP2"]))):
        yield dict(witness, **{field: next(x for x in values
                                           if x != witness[field])})
    slides = witness["tree"]["slides"]
    label = next((label for label in ("alpha", "beta", "gamma")
                  if slides[label]), None)
    if label is None:
        return
    forged = json.loads(json.dumps(witness))
    forged["tree"]["slides"][label][0][2] *= -1
    yield forged
    if any(g > 1 for g, _ in name_components(t)):
        yield dict(witness, tree={"op": "unscramble",
                                  "slides": {"alpha": [], "beta": [],
                                             "gamma": []}})


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(st.lists(st.sampled_from(ALL_NAMES), min_size=1, max_size=4),
       st.integers(1, 6), st.integers(0, 2 ** 16))
def test_decomposition_witnesses_replay_and_resist_tampering(names, steps,
                                                            seed):
    t = _scrambled(_sum(names), random.Random(seed), steps=steps)
    v = standardize(t)[1]
    event(v.status)
    if not v.is_verified:
        return
    honest = {"status": "verified", "witness": v.witness}
    reports.replay_verdict((t,), honest)
    with pytest.raises(reports.ReplayError):
        reports.replay_verdict((t,), dict(honest, status="refuted"))
    forgeries = list(_tampered(t, v.witness))
    event("%d forgeries" % len(forgeries))
    for forged in forgeries:
        with pytest.raises(reports.ReplayError):
            reports.replay_verdict((t,), dict(honest, witness=forged))


# -- classify on sums of arbitrary genus-one slope triples --------------------

# lens-space pairs (|det| > 1) appear in this range, and so do S1xS2 pairs
# whose pi1 no Tietze search here simplifies, such as slopes (2,3), (2,3);
# half the pieces are drawn from the torsion-free triples, so that sums
# without torsion are common
_SLOPES = [(0, 1)] + [(p, q) for p in (1, 2, 3) for q in range(-3, 4)
                      if gcd(p, q) == 1]


def _det(u, v):
    return u[0] * v[1] - u[1] * v[0]


def _has_torsion(triple):
    a, b, c = triple
    return any(abs(_det(u, v)) > 1 for u, v in ((a, b), (b, c), (c, a)))


_FREE_TRIPLES = [(a, b, c) for a in _SLOPES for b in _SLOPES for c in _SLOPES
                 if not _has_torsion((a, b, c))]


def _slope_piece(triple):
    return TrisectionDiagram(1, *(system_from_templates(1, [(1, p, q)])
                                  for p, q in triple))


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(st.lists(st.tuples(*[st.sampled_from(_SLOPES)] * 3)
                | st.sampled_from(_FREE_TRIPLES), min_size=1, max_size=3),
       st.booleans(), st.integers(0, 2), st.integers(0, 2 ** 16))
@example([((2, 3), (2, 3), (2, 3)), ((3, -2), (3, -2), (1, -1))],
         False, 0, 5)
@example([((1, 0), (1, 2), (0, 1)), ((1, 0), (1, 3), (0, 1))], False, 0, 5)
def test_classify_decides_sums_of_slope_triples(triples, wrong, index, seed):
    pieces = [_slope_piece(triple) for triple in triples]
    t = pieces[0]
    for piece in pieces[1:]:
        t = connected_sum(t, piece)
    ks = [sum(k) for k in zip(*(trisection_params(piece)[0].ks
                                for piece in pieces))]
    if wrong:
        ks[index] += 1 if ks[index] < t.genus else -1
    t = _scrambled(TrisectionDiagram(t.genus, *t.systems(),
                                     declared_params=tuple(ks)),
                   random.Random(seed))
    torsion = any(map(_has_torsion, triples))
    v = standardize(t)[1]
    event("torsion" if torsion else "wrong" if wrong else v.status)
    if not v.is_unknown:
        reports.replay_verdict((t,), v.to_dict())
    if wrong or torsion:
        assert v.is_refuted
        return
    assert not v.is_refuted
    if v.is_verified:
        oracle = [genus_one_name(trisection_params(piece)[0].ks,
                                 triangle_sign(piece)) for piece in pieces]
        assert None not in oracle and v.witness["name"] == sum_name(oracle)


def test_params_classifier_and_constraints_agree_on_genus_one_triples():
    # pi1 of a genus-one pair is H1, so neither answer waits on a search,
    # and the classified constraints never refute the ranks homology gives
    for triple in itertools.product(_SLOPES, repeat=3):
        t = _slope_piece(triple)
        params, pv = trisection_params(t)
        v = standardize(t)[1]
        assert pv.status == v.status != "unknown", (triple, pv, v)
        assert check_classified_params(params) in (None, ("k1=g", True),
                                                   ("k1=g-1", True)), triple
        for verdict in (pv, v):
            reports.replay_verdict((t,), verdict.to_dict())


# -- the classified constraints never refute homology ranks -------------------

def _transvected(classes, v, sign):
    """Images under the symplectic transvection x -> x + sign <x, v> v."""
    return [HomologyClass(x.genus, tuple(
        a + sign * algebraic_intersection(x, v) * b
        for a, b in zip(x.coeffs, v.coeffs))) for x in classes]


def _word_of(c):
    """A surface word abelianizing to class ``c``: letter i+1 taken
    coeffs[i] times."""
    return tuple(letter for i, a in enumerate(c.coeffs)
                 for letter in [(i + 1) if a > 0 else -(i + 1)] * abs(a))


def _random_lagrangian_triple(rng, g):
    """Three images of the standard a-classes under short products of
    random transvections, realized as word-curve cut systems.  Few
    transvections keep the pairwise intersections large, so the
    classified cases k1 = g and k1 = g-1 come up often."""
    standard = [abelianize(g, (2 * h - 1,)) for h in range(1, g + 1)]
    systems = []
    for _ in range(3):
        classes = standard
        for _ in range(rng.randrange(0, 3)):
            v = abelianize(g, tuple(rng.choice((1, -1))
                                    * rng.randrange(1, 2 * g + 1)
                                    for _ in range(rng.randrange(1, 4))))
            classes = _transvected(classes, v, rng.choice((1, -1)))
        systems.append(CutSystem(g, tuple(curve_from_word(g, _word_of(c))
                                          for c in classes)))
    return TrisectionDiagram(g, *systems)


@pytest.mark.parametrize("g", [2, 3])
def test_constraints_hold_for_random_lagrangian_triples(g):
    rng = random.Random("lagrangian:%d" % g)
    cases = {}
    for _ in range(300):
        params = TrisectionParams(g, *pair_homology(
            _random_lagrangian_triple(rng, g))[1])
        checked = check_classified_params(params)
        if checked is not None:
            case, holds = checked
            assert holds, params
            cases[case] = cases.get(case, 0) + 1
    assert cases.get("k1=g", 0) > 10 and cases.get("k1=g-1", 0) > 10, cases
