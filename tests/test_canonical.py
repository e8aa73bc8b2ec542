from __future__ import annotations

import random
from math import gcd

from trisect.canonical import canonical_form, reduce_triple
from trisect.catalog import ALL_NAMES, genus_one_diagram, genus_zero_diagram
from trisect.diagram import (CutSystem, TrisectionDiagram, curve_from_word,
                             system_from_templates)

_S = ((0, -1), (1, 0))
_T = ((1, 1), (0, 1))
_TINV = ((1, -1), (0, 1))


def _mat_mul(m1, m2):
    (a, b), (c, d) = m1
    (e, f), (g2, h) = m2
    return ((a * e + b * g2, a * f + b * h), (c * e + d * g2, c * f + d * h))


def _apply(m, s):
    (a, b), (c, d) = m
    return (a * s[0] + b * s[1], c * s[0] + d * s[1])


def _random_slope(rng):
    while True:
        p, q = rng.randint(-6, 6), rng.randint(-6, 6)
        if (p, q) != (0, 0) and gcd(abs(p), abs(q)) == 1:
            return (p, q)


def test_reduce_triple_sl2_invariance():
    rng = random.Random(20260814)
    for _ in range(200):
        triple = tuple(_random_slope(rng) for _ in range(3))
        base = reduce_triple(triple)
        m = ((1, 0), (0, 1))
        for _ in range(rng.randint(1, 8)):
            m = _mat_mul(rng.choice((_S, _T, _TINV)), m)
        moved = tuple(_apply(m, s) for s in triple)
        # random slope sign flips are also isotopies
        moved = tuple((-p, -q) if rng.random() < 0.5 else (p, q)
                      for (p, q) in moved)
        assert reduce_triple(moved) == base


def test_reduce_triple_preserves_triangle_sign():
    def tri_sign(triple):
        (a, b, c) = triple
        det = lambda u, v: u[0] * v[1] - u[1] * v[0]
        prod = det(a, b) * det(b, c) * det(c, a)
        return 0 if prod == 0 else (1 if prod > 0 else -1)

    rng = random.Random(7)
    for _ in range(100):
        triple = tuple(_random_slope(rng) for _ in range(3))
        assert tri_sign(reduce_triple(triple)) == tri_sign(triple)


def test_catalog_forms_distinct():
    forms = {name: canonical_form(genus_one_diagram(name))
             for name in ALL_NAMES}
    assert len(set(forms.values())) == len(ALL_NAMES)
    assert canonical_form(genus_zero_diagram()) == "g0"


def test_handle_permutation_invariance():
    slopes_a = {"alpha": [(1, 1, 0), (2, 1, 0)],
                "beta": [(1, 0, 1), (2, 1, 0)],
                "gamma": [(1, 1, 1), (2, 0, 1)]}
    slopes_b = {"alpha": [(1, 1, 0), (2, 1, 0)],
                "beta": [(1, 1, 0), (2, 0, 1)],
                "gamma": [(1, 0, 1), (2, 1, 1)]}  # handles swapped
    t1 = TrisectionDiagram(2, *[system_from_templates(2, slopes_a[s])
                                for s in ("alpha", "beta", "gamma")])
    t2 = TrisectionDiagram(2, *[system_from_templates(2, slopes_b[s])
                                for s in ("alpha", "beta", "gamma")])
    assert canonical_form(t1) == canonical_form(t2)


def test_template_twist_invariance():
    # applying a common twist on one handle leaves the form unchanged
    def twisted(slopes, m):
        return [(h, *_apply(m, (p, q))) for (h, p, q) in slopes]

    base = {"alpha": [(1, 1, 0)], "beta": [(1, 0, 1)], "gamma": [(1, 1, 1)]}
    t1 = TrisectionDiagram(1, *[system_from_templates(1, base[s])
                                for s in ("alpha", "beta", "gamma")])
    m = _mat_mul(_T, _S)
    t2 = TrisectionDiagram(1, *[system_from_templates(1, twisted(base[s], m))
                                for s in ("alpha", "beta", "gamma")])
    assert canonical_form(t1) == canonical_form(t2)
    assert canonical_form(t1) != canonical_form(genus_one_diagram("CP2R"))


def test_word_form_rotation_invariance():
    def word_tri(w):
        cs = CutSystem(1, (curve_from_word(1, w),))
        return TrisectionDiagram(1, cs, cs, cs)

    t_x = word_tri((1,))
    t_y = word_tri((2,))
    assert canonical_form(t_x).startswith("w:")
    assert canonical_form(t_x) == canonical_form(t_y)
