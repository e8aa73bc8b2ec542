from __future__ import annotations

import time
from math import gcd

import pytest

from trisect.catalog import (ALL_NAMES, FIGURE_ONE, FIGURE_TWO,
                             GENUS_ONE_PARAMS, genus_one_diagram,
                             genus_one_name, genus_zero_diagram,
                             match_genus_one, name_slopes, triangle_sign)
from trisect.diagram import (TrisectionDiagram, system_from_templates,
                             trisection_params)


def _det(u, v):
    return u[0] * v[1] - u[1] * v[0]


def test_catalog_params_match_declared():
    start = time.monotonic()
    for name in ALL_NAMES:
        t = genus_one_diagram(name)
        params, v = trisection_params(t)
        assert v.is_verified, (name, v.reason)
        assert params.ks == GENUS_ONE_PARAMS[name]
    assert time.monotonic() - start < 1.0


def test_each_catalog_diagram_is_built_once():
    for name in ALL_NAMES:
        assert genus_one_diagram(name) is genus_one_diagram(name)
    assert genus_zero_diagram() is genus_zero_diagram()
    stored = genus_one_diagram.cache_info().currsize
    for _ in range(2):
        with pytest.raises(ValueError):
            genus_one_diagram("S4")
    assert genus_one_diagram.cache_info().currsize == stored


def test_triangle_signs():
    # oracle: explicit determinant products over the slope triples
    for name, slopes in (("CP2", ((1, 0), (0, 1), (1, 1))),
                         ("CP2R", ((1, 0), (0, 1), (1, -1)))):
        a, b, c = slopes
        oracle = _det(a, b) * _det(b, c) * _det(c, a)
        assert oracle in (1, -1)
        t = genus_one_diagram(name)
        assert triangle_sign(t) == oracle
    assert triangle_sign(genus_one_diagram("CP2")) == 1
    assert triangle_sign(genus_one_diagram("CP2R")) == -1
    assert triangle_sign(genus_one_diagram("S1xS3")) == 0


def test_match_genus_one_all():
    for name in ALL_NAMES:
        assert match_genus_one(genus_one_diagram(name)) == name


def test_genus_one_names():
    for name in ALL_NAMES:
        t = genus_one_diagram(name)
        assert genus_one_name(GENUS_ONE_PARAMS[name], triangle_sign(t)) == name
    # no genus-one diagram has these parameters, and (0,0,0) needs a sign
    for ks in ((1, 1, 0), (1, 0, 1), (0, 1, 1)):
        assert genus_one_name(ks, 0) is None
    assert genus_one_name((0, 0, 0), 0) is None


def _tietze_match(t):
    # the oracle: parameters confirmed by Tietze searches on pi1, None on
    # a refutation, then the name table
    params, v = trisection_params(t)
    return None if v.is_refuted else genus_one_name(params.ks,
                                                    triangle_sign(t))


def test_naming_by_homology_agrees_with_the_catalog_match():
    # every primitive slope triple with p in 0..2 and q in -2..2
    slopes = [(0, 1)] + [(p, q) for p in (1, 2) for q in range(-2, 3)
                         if gcd(p, q) == 1]
    named = set()
    for triple in ((a, b, c) for a in slopes for b in slopes for c in slopes):
        t = TrisectionDiagram(1, *(system_from_templates(1, [(1, p, q)])
                                   for p, q in triple))
        name = _tietze_match(t)
        assert name_slopes(*triple) == name, triple
        assert match_genus_one(t) == name, triple
        named.add(name)
    assert named == set(ALL_NAMES) | {None}
    # declared parameters must agree, as in the Tietze match
    s = genus_one_diagram("S4STAB1")
    assert match_genus_one(s) == "S4STAB1"
    wrong = TrisectionDiagram(1, s.alpha, s.beta, s.gamma,
                              declared_params=(0, 1, 0))
    assert match_genus_one(wrong) is None
    assert _tietze_match(wrong) is None
    with pytest.raises(ValueError):
        match_genus_one(genus_zero_diagram())


def test_figure_groups():
    assert set(FIGURE_ONE) == {"CP2", "CP2R", "S1xS3"}
    assert set(FIGURE_TWO) == {"S4STAB1", "S4STAB2", "S4STAB3"}
    for i in (1, 2, 3):
        t = genus_one_diagram("S4STAB%d" % i)
        expected = [0, 0, 0]
        expected[i - 1] = 1
        assert t.declared_params == tuple(expected)


def test_genus_zero():
    t = genus_zero_diagram()
    params, v = trisection_params(t)
    assert params.ks == (0, 0, 0) and v.is_verified
    with pytest.raises(ValueError):
        match_genus_one(t)
    with pytest.raises(ValueError):
        genus_one_diagram("nope")
