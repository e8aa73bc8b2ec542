import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import Matrix as SympyMatrix
from sympy import eye

from trisect import diagram, kirby
from trisect.catalog import genus_one_diagram, match_genus_one
from trisect.diagram import (CutSystem, HeegaardDiagram, TrisectionDiagram,
                             curve_from_template, curve_from_word,
                             standard_heegaard, trisection_params)
from trisect.intmatrix import AbelianGroup
from trisect.kirby import (SURFACE, FramedComponent, HeegaardKirbyDiagram,
                           LinkingMatrix, complete_link_to_system,
                           find_primitive_pairs, gprc_necessary_check,
                           hk_to_trisection, matrix_handleslide,
                           stabilize_link, surgery_h1, trisection_to_hk,
                           validate_hk)
from trisect.moves import (destabilize, find_stabilization_certificate,
                           heegaard_stabilize, name_components)


def _unknot_hk():
    """0-framed unknot over S3: one beta-transverse curve, target m = 1."""
    bg = standard_heegaard(1, 0)
    link = (FramedComponent(curve_from_template(1, 1, 1, 0)),)
    return HeegaardKirbyDiagram(1, bg, link, m=1)


def test_framed_component_validation():
    c = curve_from_template(1, 1, 1, 0)
    assert FramedComponent(c).is_surface_framed
    assert FramedComponent(c).framing == SURFACE
    assert not FramedComponent(c, 3).is_surface_framed
    with pytest.raises(ValueError):
        FramedComponent(c, "blackboard")


def test_hk_diagram_validation():
    bg = standard_heegaard(1, 0)
    link = (FramedComponent(curve_from_template(1, 1, 1, 0)),)
    with pytest.raises(ValueError):
        HeegaardKirbyDiagram(2, bg, link, m=1)
    with pytest.raises(ValueError):
        HeegaardKirbyDiagram(1, bg, link + link, m=1)
    with pytest.raises(ValueError):
        HeegaardKirbyDiagram(1, bg, link, m=-1)
    with pytest.raises(ValueError):
        HeegaardKirbyDiagram(1, bg, (FramedComponent(
            curve_from_template(2, 1, 1, 0)),), m=1)


def test_zero_framed_unknot_is_verified():
    v = validate_hk(_unknot_hk())
    assert v.is_verified
    assert v.witness["kind"] == "heegaard-kirby"
    assert (v.witness["n"], v.witness["c"], v.witness["m"]) == (0, 1, 1)


def test_declared_m_mismatch_is_refuted():
    H = _unknot_hk()
    bad = HeegaardKirbyDiagram(1, H.background, H.link, m=0)
    v = validate_hk(bad)
    assert v.is_refuted
    assert v.witness["kind"] == "surgery-homology"


def test_beta_parallel_component_is_refuted():
    bg = standard_heegaard(1, 0)
    link = (FramedComponent(curve_from_template(1, 1, 0, 1)),)
    v = validate_hk(HeegaardKirbyDiagram(1, bg, link, m=1))
    assert v.is_refuted
    assert v.witness["kind"] == "link-extension"


def test_word_only_link_stays_unknown_beyond_homology():
    bg = standard_heegaard(1, 0)
    link = (FramedComponent(curve_from_word(1, (1,))),)
    v = validate_hk(HeegaardKirbyDiagram(1, bg, link, m=1))
    assert v.is_unknown
    # the homology side still refutes a wrong target
    v2 = validate_hk(HeegaardKirbyDiagram(1, bg, link, m=5))
    assert v2.is_refuted


def test_integer_framing_needs_s3_background():
    c = curve_from_template(1, 1, 0, 1)
    bg = standard_heegaard(1, 1)
    v = validate_hk(HeegaardKirbyDiagram(
        1, bg, (FramedComponent(c, 0),), m=1))
    assert v.is_refuted
    assert v.witness["kind"] == "framing"

    bg0 = standard_heegaard(1, 0)
    v0 = validate_hk(HeegaardKirbyDiagram(
        1, bg0, (FramedComponent(curve_from_template(1, 1, 1, 0), 7),), m=1))
    assert v0.is_unknown
    assert "integer framings" in v0.reason


def test_an_integer_framed_target_over_the_genus_assembles_nothing():
    # the integer framing leaves the surgered homology undecided, and a
    # genus-1 trisection cannot declare k3 = 5: no trisection, the caveat
    H = HeegaardKirbyDiagram(
        1, standard_heegaard(1, 0),
        (FramedComponent(curve_from_template(1, 1, 1, 0), -1),), m=5)
    t, v = hk_to_trisection(H)
    assert t is None and v.is_unknown
    assert v == validate_hk(H)
    assert "integer framings" in v.reason
    # within the genus the same caveat still assembles the trisection
    t, v = hk_to_trisection(HeegaardKirbyDiagram(1, H.background, H.link,
                                                 m=1))
    assert t.declared_params == (0, 0, 1) and v.is_unknown


def test_crossing_link_components_are_refuted():
    bg = standard_heegaard(2, 0)
    link = (FramedComponent(curve_from_template(2, 1, 1, 0)),
            FramedComponent(curve_from_template(2, 1, 1, 1)))
    v = validate_hk(HeegaardKirbyDiagram(2, bg, link, m=2))
    assert v.is_refuted
    assert v.witness["kind"] == "link-crossing"


def test_unknot_round_trip_is_the_third_stabilization():
    t, v = hk_to_trisection(_unknot_hk())
    assert v.is_verified
    assert t.declared_params == (0, 0, 1)
    assert match_genus_one(t) == "S4STAB3"


def test_catalog_primitive_round_trips():
    for name in ("CP2", "CP2R", "S4STAB1", "S4STAB3"):
        t = genus_one_diagram(name)
        pairs, exact = find_primitive_pairs(t)
        assert exact
        assert pairs == [(1, 1)]
        H, hv = trisection_to_hk(t, pairs)
        assert not hv.is_refuted
        t2, v2 = hk_to_trisection(H)
        assert v2.is_verified
        assert match_genus_one(t2) == name


def test_catalog_empty_pick_round_trips():
    for name in ("S1xS3", "S4STAB2"):
        t = genus_one_diagram(name)
        pairs, exact = find_primitive_pairs(t)
        assert exact and pairs == []
        H, hv = trisection_to_hk(t, [])
        assert hv.is_verified
        assert H.c == 0
        t2, v2 = hk_to_trisection(H)
        assert v2.is_verified
        assert match_genus_one(t2) == name


def test_empty_link_gives_gamma_equal_beta():
    H = HeegaardKirbyDiagram(2, standard_heegaard(2, 1), (), m=1)
    t, v = hk_to_trisection(H)
    assert v.is_verified
    assert t.gamma == t.beta
    assert t.declared_params == (1, 2, 1)
    params, pv = trisection_params(t)
    assert pv.is_verified
    assert (params.k1, params.k2, params.k3) == (1, 2, 1)


def test_unlink_over_connected_sum_background():
    # two 0-framed unknots split from a single S1xS2 summand
    bg = standard_heegaard(3, 1)
    link = (FramedComponent(curve_from_template(3, 2, 1, 0)),
            FramedComponent(curve_from_template(3, 3, 1, 0)))
    H = HeegaardKirbyDiagram(3, bg, link, m=3)
    assert validate_hk(H).is_verified
    t, v = hk_to_trisection(H)
    assert v.is_verified
    assert t.declared_params == (1, 1, 3)
    params, pv = trisection_params(t)
    assert pv.is_verified
    assert (params.k1, params.k2, params.k3) == (1, 1, 3)


def _count_bridge_calls(monkeypatch):
    """Counts of detect_k and complete_link_to_system calls from now on."""
    calls = {"detect_k": 0, "complete_link_to_system": 0}

    def counted(module, name):
        real = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)

    # kirby and trisection_params both look detect_k up in the diagram
    # module when they call it
    counted(diagram, "detect_k")
    counted(kirby, "complete_link_to_system")
    return calls


def test_hk_to_trisection_builds_each_bridge_fact_once(monkeypatch):
    calls = _count_bridge_calls(monkeypatch)
    H = HeegaardKirbyDiagram(
        3, standard_heegaard(3, 1),
        (FramedComponent(curve_from_template(3, 3, 1, 0)),), m=2)
    t, v = hk_to_trisection(H)
    assert v.is_verified and t.declared_params == (1, 2, 2)
    # one detect_k on each of the three pairs, the background among them
    assert calls == {"detect_k": 3, "complete_link_to_system": 1}


def test_hk_to_trisection_looks_for_a_missing_completion_once(monkeypatch):
    calls = _count_bridge_calls(monkeypatch)
    H = HeegaardKirbyDiagram(
        2, standard_heegaard(2, 0),
        (FramedComponent(curve_from_word(2, (1, 3))),), m=1)
    t, v = hk_to_trisection(H)
    assert t is None and v.is_unknown
    # the word-only link leaves the answer unknown, and no pair is checked
    assert calls == {"detect_k": 0, "complete_link_to_system": 1}


def _genus_two_unknot(m):
    """A 0-framed unknot in a genus-2 S1xS2, with target ``m``: m = 2 is
    right, and the surgered homology refutes m = 1."""
    link = (FramedComponent(curve_from_template(2, 2, 1, 0)),)
    return HeegaardKirbyDiagram(2, standard_heegaard(2, 1), link, m)


@pytest.mark.parametrize("producer, m, searches, status", [
    (hk_to_trisection, 2, 3, "verified"),
    (hk_to_trisection, 1, 0, "refuted"),
    (validate_hk, 2, 2, "verified"),
    (validate_hk, 1, 0, "refuted"),
])
def test_each_bridge_pair_is_searched_once(monkeypatch, producer, m,
                                           searches, status):
    # hk_to_trisection searches the three pairs of the trisection it
    # assembles, validate_hk the background and alpha with the completed
    # link; a search-free refutation comes before any search
    from trisect import presentations

    calls = []
    search = presentations._search

    def counted(p):
        calls.append(p)
        return search(p)

    monkeypatch.setattr(presentations, "_search", counted)
    got = producer(_genus_two_unknot(m))
    v = got[1] if producer is hk_to_trisection else got
    assert (len(calls), v.status) == (searches, status)


def test_a_verified_bridge_certifies_the_trisection_it_assembles():
    t, v = hk_to_trisection(_genus_two_unknot(2))
    assert v.is_verified
    assert v.witness == trisection_params(t)[1].witness
    hv = validate_hk(_genus_two_unknot(2))
    assert hv.witness["pi1"]["kind"] == "detect-k"
    assert hv.witness["pi1"] == diagram.detect_k(
        HeegaardDiagram(2, t.alpha, t.gamma))[1].witness


def test_full_primitive_picks_on_induced_trisection():
    bg = standard_heegaard(3, 1)
    link = (FramedComponent(curve_from_template(3, 2, 1, 0)),
            FramedComponent(curve_from_template(3, 3, 1, 0)))
    H = HeegaardKirbyDiagram(3, bg, link, m=3)
    t, _ = hk_to_trisection(H)
    pairs, exact = find_primitive_pairs(t)
    assert exact
    assert pairs == [(1, 2), (2, 3)]
    params, _ = trisection_params(t)
    H2, hv = trisection_to_hk(t, pairs)
    assert hv.is_verified
    assert H2.c == t.genus - params.k2
    assert [comp.curve for comp in H2.link] == [comp.curve for comp in H.link]


def test_nonprimitive_and_malformed_picks_raise():
    t = genus_one_diagram("S1xS3")
    with pytest.raises(ValueError):
        trisection_to_hk(t, [(1, 1)])
    t2 = genus_one_diagram("CP2")
    with pytest.raises(ValueError):
        trisection_to_hk(t2, [(1, 1), (1, 1)])
    with pytest.raises(ValueError):
        trisection_to_hk(t2, [(1, 2)])


def test_primitive_pairs_without_templates_is_unknown():
    alpha = CutSystem(1, (curve_from_word(1, (1,)),))
    beta = CutSystem(1, (curve_from_word(1, (2,)),))
    gamma = CutSystem(1, (curve_from_word(1, (1, 2)),))
    t = TrisectionDiagram(1, alpha, beta, gamma)
    pairs, exact = find_primitive_pairs(t)
    assert pairs == []
    assert not exact


def test_completion_prefers_beta_parallel_curves():
    bg = standard_heegaard(3, 1)
    link = (FramedComponent(curve_from_template(3, 2, 1, 0)),
            FramedComponent(curve_from_template(3, 3, 1, 0)))
    H = HeegaardKirbyDiagram(3, bg, link, m=3)
    gamma = complete_link_to_system(H)
    assert gamma is not None
    assert gamma.curves[:2] == tuple(comp.curve for comp in link)
    assert gamma.curves[2] == bg.beta.curve(1)


def test_completion_fails_without_template_witnesses():
    bg = standard_heegaard(2, 0)
    link = (FramedComponent(curve_from_word(2, (1, 3))),)
    H = HeegaardKirbyDiagram(2, bg, link, m=1)
    assert complete_link_to_system(H) is None
    assert validate_hk(H).is_unknown
    t, v = hk_to_trisection(H)
    assert t is None
    assert v.is_unknown


def test_planted_heegaard_stabilization_is_found():
    H = _unknot_hk()
    bg2 = heegaard_stabilize(H.background)
    H2 = HeegaardKirbyDiagram(
        2, bg2, (FramedComponent(curve_from_template(2, 1, 1, 0)),), m=1)
    assert validate_hk(H2).is_verified
    t, v = hk_to_trisection(H2)
    assert v.is_verified
    assert t.declared_params == (0, 1, 1)
    cert = find_stabilization_certificate(t)
    assert cert is not None
    assert cert.index == 2
    assert name_components(t) == [(1, "S4STAB3"), (1, "S4STAB2")]
    small = destabilize(t, cert)
    assert match_genus_one(small) == "S4STAB3"


def test_linking_matrix_validation():
    with pytest.raises(ValueError):
        LinkingMatrix.from_rows([[0, 1], [1]])
    with pytest.raises(ValueError):
        LinkingMatrix.from_rows([[0, 1], [2, 0]])
    m = LinkingMatrix.from_rows([[2, 1], [1, -3]])
    assert m.size == 2
    assert m.framings() == (2, -3)
    assert LinkingMatrix.zero(3).is_zero()
    assert not m.is_zero()


def test_matrix_handleslide_frozen_example():
    hopf = LinkingMatrix.from_rows([[0, 1], [1, 0]])
    slid = matrix_handleslide(hopf, 1, 2, 1)
    assert slid.rows == ((2, 1), (1, 0))


def test_matrix_handleslide_edge_cases():
    z = LinkingMatrix.zero(3)
    assert matrix_handleslide(z, 2, 3, 1) == z
    with pytest.raises(ValueError):
        matrix_handleslide(z, 1, 1, 1)
    with pytest.raises(ValueError):
        matrix_handleslide(z, 1, 2, 2)
    with pytest.raises(ValueError):
        matrix_handleslide(z, 0, 2, 1)


def _random_linking(rng, size):
    rows = [[0] * size for _ in range(size)]
    for i in range(size):
        for j in range(i, size):
            v = rng.randrange(-3, 4)
            rows[i][j] = rows[j][i] = v
    return LinkingMatrix.from_rows(rows)


def test_double_slide_with_opposite_signs_restores():
    rng = random.Random(5)
    for _ in range(25):
        m = _random_linking(rng, rng.randrange(2, 6))
        i = rng.randrange(1, m.size + 1)
        j = rng.randrange(1, m.size + 1)
        while j == i:
            j = rng.randrange(1, m.size + 1)
        assert matrix_handleslide(matrix_handleslide(m, i, j, 1), i, j, -1) == m


@st.composite
def _slides(draw):
    """A random symmetric matrix up to 5x5, two distinct components and a
    sign."""
    n = draw(st.integers(2, 5))
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            rows[i][j] = rows[j][i] = draw(st.integers(-9, 9))
    i = draw(st.integers(1, n))
    j = draw(st.integers(1, n).filter(lambda j: j != i))
    return LinkingMatrix.from_rows(rows), i, j, draw(st.sampled_from((1, -1)))


@settings(derandomize=True, database=None, max_examples=200)
@given(_slides())
def test_matrix_handleslide_is_the_congruence_by_an_elementary_matrix(args):
    m, i, j, sign = args
    e = eye(m.size)
    e[i - 1, j - 1] = sign
    slid = matrix_handleslide(m, i, j, sign)
    assert SympyMatrix(slid.rows) == e * SympyMatrix(m.rows) * e.T
    assert all(slid.rows[a][b] == slid.rows[b][a]
               for a in range(m.size) for b in range(m.size))
    assert surgery_h1(slid) == surgery_h1(m)


def test_surgery_h1_frozen_values():
    assert surgery_h1(LinkingMatrix.zero(2)) == AbelianGroup(2, ())
    assert surgery_h1(LinkingMatrix.from_rows([[0, 1], [1, 0]])) == \
        AbelianGroup(0, ())
    assert surgery_h1(LinkingMatrix.from_rows([[1]])) == AbelianGroup(0, ())
    assert surgery_h1(LinkingMatrix.from_rows([[0]])) == AbelianGroup(1, ())
    assert surgery_h1(LinkingMatrix.from_rows([[2]])) == AbelianGroup(0, (2,))
    assert surgery_h1(LinkingMatrix.zero(0)) == AbelianGroup(0, ())


def test_surgery_h1_is_slide_invariant():
    rng = random.Random(2026)
    for _ in range(100):
        m = _random_linking(rng, rng.randrange(1, 7))
        h1 = surgery_h1(m)
        cur = m
        if m.size > 1:
            for _ in range(5):
                i = rng.randrange(1, m.size + 1)
                j = rng.randrange(1, m.size + 1)
                while j == i:
                    j = rng.randrange(1, m.size + 1)
                cur = matrix_handleslide(cur, i, j, rng.choice((1, -1)))
        assert surgery_h1(cur) == h1


def test_gprc_check_examples_and_invariance():
    assert gprc_necessary_check(LinkingMatrix.zero(3)).is_verified
    hopf = LinkingMatrix.from_rows([[0, 1], [1, 0]])
    v = gprc_necessary_check(hopf)
    assert v.is_refuted
    assert v.witness["value"] == 1

    rng = random.Random(6)
    for _ in range(50):
        m = _random_linking(rng, rng.randrange(2, 6))
        before = gprc_necessary_check(m).is_verified
        i = rng.randrange(1, m.size + 1)
        j = rng.randrange(1, m.size + 1)
        while j == i:
            j = rng.randrange(1, m.size + 1)
        slid = matrix_handleslide(m, i, j, rng.choice((1, -1)))
        assert gprc_necessary_check(slid).is_verified == before
        grown = stabilize_link(m, "zero_unknot")
        assert gprc_necessary_check(grown).is_verified == before


def test_stabilize_link_blocks():
    assert stabilize_link(LinkingMatrix.zero(1), "zero_unknot") == \
        LinkingMatrix.zero(2)
    assert stabilize_link(LinkingMatrix.zero(0), "hopf_pair") == \
        LinkingMatrix.from_rows([[0, 1], [1, 0]])
    with pytest.raises(ValueError):
        stabilize_link(LinkingMatrix.zero(1), "twist")
    rng = random.Random(7)
    for _ in range(20):
        m = _random_linking(rng, rng.randrange(1, 5))
        assert surgery_h1(stabilize_link(m, "hopf_pair")) == surgery_h1(m)
