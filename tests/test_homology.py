from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trisect import homology
from trisect.homology import (HomologyClass, abelianize, algebraic_intersection,
                              lagrangian_verdict)
from trisect.intmatrix import invariant_factors
from trisect.verdict import refuted, verified


def _pairing_oracle(u, v):
    """Independent bilinear expansion over the basis pair table."""
    g = u.genus
    total = 0
    for i in range(2 * g):
        for j in range(2 * g):
            # <a_h, b_h> = +1, <b_h, a_h> = -1, all else 0
            if i % 2 == 0 and j == i + 1:
                form = 1
            elif i % 2 == 1 and j == i - 1:
                form = -1
            else:
                form = 0
            total += u.coeffs[i] * v.coeffs[j] * form
    return total


def test_pairing_frozen_example():
    # (2 a1 + b2, a1 - 3 b1) at genus 2; oracle value frozen at -6
    u = HomologyClass(2, (2, 0, 0, 1))
    v = HomologyClass(2, (1, -3, 0, 0))
    assert _pairing_oracle(u, v) == -6
    assert algebraic_intersection(u, v) == -6


def test_pairing_matches_oracle_random():
    rng = random.Random(31)
    for _ in range(100):
        g = rng.randint(0, 4)
        u = HomologyClass(g, tuple(rng.randint(-5, 5) for _ in range(2 * g)))
        v = HomologyClass(g, tuple(rng.randint(-5, 5) for _ in range(2 * g)))
        got = algebraic_intersection(u, v)
        assert got == _pairing_oracle(u, v)
        assert algebraic_intersection(v, u) == -got  # antisymmetry


def test_pairing_basis_convention():
    a1 = HomologyClass.basis_a(2, 1)
    b1 = HomologyClass.basis_b(2, 1)
    b2 = HomologyClass.basis_b(2, 2)
    assert algebraic_intersection(a1, b1) == 1
    assert algebraic_intersection(b1, a1) == -1
    assert algebraic_intersection(a1, b2) == 0


def test_abelianize():
    # x1 y1 X1 Y1 is null-homologous
    assert abelianize(1, (1, 2, -1, -2)).is_zero
    assert abelianize(2, (1, 2, 2)).coeffs == (1, 2, 0, 0)
    with pytest.raises(ValueError):
        abelianize(1, (5,))


def test_lagrangian_standard_system():
    g = 3
    classes = [HomologyClass.basis_a(g, h) for h in range(1, g + 1)]
    v = lagrangian_verdict(classes, g)
    assert v.is_verified


def test_lagrangian_counts():
    v = lagrangian_verdict([HomologyClass.basis_a(2, 1)], 2)
    assert v.is_refuted and v.witness["kind"] == "count"


def test_lagrangian_pairing_refutation():
    g = 1
    # a1 and b1 pair to 1, cannot cobound
    v = lagrangian_verdict([HomologyClass.basis_a(g, 1)], g)
    assert v.is_verified
    v = lagrangian_verdict([HomologyClass(1, (1, 1))], 1)
    assert v.is_verified  # a1 + b1 is primitive
    v2 = lagrangian_verdict(
        [HomologyClass.basis_a(2, 1), HomologyClass.basis_b(2, 1)], 2)
    assert v2.is_refuted and v2.witness["kind"] == "pairing"


def test_lagrangian_imprimitive():
    # the class 2 a1 spans an index-2 sublattice; oracle: SNF factor 2
    v = lagrangian_verdict([HomologyClass(1, (2, 0))], 1)
    assert v.is_refuted
    assert v.witness["kind"] == "imprimitive"
    assert v.witness["snf_factors"] == [2]


def test_lagrangian_genus_zero():
    assert lagrangian_verdict([], 0).is_verified


def test_lagrangian_invariant_under_unimodular_change():
    # replacing class_i by class_i + class_j preserves the verdict
    rng = random.Random(5)
    for _ in range(40):
        g = rng.randint(1, 4)
        classes = [HomologyClass.basis_a(g, h) for h in range(1, g + 1)]
        # scramble with unimodular column moves
        for _ in range(12):
            i, j = rng.randrange(g), rng.randrange(g)
            if i == j:
                continue
            classes[i] = classes[i].add(classes[j]) if rng.random() < 0.5 \
                else classes[i].sub(classes[j])
        assert lagrangian_verdict(classes, g).is_verified


# -- the pairing loop skips pairs on disjoint handles -------------------------

def _all_pairs_verdict(classes, genus):
    """The Lagrangian check that pairs every class with every other."""
    classes = list(classes)
    if len(classes) != genus:
        return refuted("expected %d classes, got %d" % (genus, len(classes)),
                       {"kind": "count", "expected": genus, "got": len(classes)})
    for i in range(genus):
        for j in range(i + 1, genus):
            pairing = algebraic_intersection(classes[i], classes[j])
            if pairing != 0:
                return refuted(
                    "classes %d and %d pair to %d, not 0" % (i, j, pairing),
                    {"kind": "pairing", "i": i, "j": j, "value": pairing})
    factors = list(invariant_factors([c.coeffs for c in classes]))
    if factors != [1] * genus:
        return refuted("span is not a primitive rank-%d summand" % genus,
                       {"kind": "imprimitive", "snf_factors": factors})
    return verified("rank-%d Lagrangian primitive summand" % genus,
                    {"kind": "lagrangian", "snf_factors": factors})


def _transvect(x, v):
    """x + <x, v> v: a symplectic map, so it keeps a system isotropic."""
    t = algebraic_intersection(x, v)
    return HomologyClass(x.genus, tuple(a + t * b
                                        for a, b in zip(x.coeffs, v.coeffs)))


@st.composite
def _class_lists(draw):
    """Classes at genus 0..6: wrong counts, isotropic systems (images of
    a standard one under transvections), some scaled to be imprimitive,
    and sparse random classes, which refute at one or several pairs."""
    g = draw(st.integers(0, 6))
    kind = draw(st.sampled_from(("count", "isotropic", "sparse")))
    if kind == "count":
        n = draw(st.integers(0, 7).filter(lambda n: n != g))
        return [HomologyClass(g, tuple(draw(st.lists(
            st.integers(-2, 2), min_size=2 * g, max_size=2 * g))))
                for _ in range(n)], g
    if kind == "sparse":
        classes = []
        for _ in range(g):
            coeffs = [0] * (2 * g)
            for h in draw(st.lists(st.integers(0, g - 1), max_size=3)):
                coeffs[2 * h] = draw(st.integers(-2, 2))
                coeffs[2 * h + 1] = draw(st.integers(-2, 2))
            classes.append(HomologyClass(g, tuple(coeffs)))
        return classes, g
    classes = [HomologyClass.basis_a(g, h) for h in range(1, g + 1)]
    for _ in range(draw(st.integers(0, 3))):
        v = HomologyClass(g, tuple(draw(st.lists(
            st.integers(-1, 1), min_size=2 * g, max_size=2 * g))))
        classes = [_transvect(c, v) for c in classes]
    if g and draw(st.booleans()):
        i, k = draw(st.integers(0, g - 1)), draw(st.integers(2, 3))
        classes[i] = HomologyClass(g, tuple(k * a for a in classes[i].coeffs))
    return classes, g


@settings(derandomize=True, database=None, max_examples=400)
@given(_class_lists())
def test_lagrangian_verdict_matches_the_all_pairs_loop(args):
    classes, g = args
    got, want = lagrangian_verdict(classes, g), _all_pairs_verdict(classes, g)
    assert (got.status, got.reason, got.witness) \
        == (want.status, want.reason, want.witness)


def test_classes_whose_shared_handles_cancel_pair_to_zero():
    # a1 + a2 and b1 - b2 share both handles, and their parts cancel:
    # with a3 they span a Lagrangian summand
    g = 3
    u = HomologyClass(g, (1, 0, 1, 0, 0, 0))
    v = HomologyClass(g, (0, 1, 0, -1, 0, 0))
    w = HomologyClass.basis_a(g, 3)
    assert algebraic_intersection(u, v) == 0
    got = lagrangian_verdict([u, v, w], g)
    assert got.is_verified
    want = _all_pairs_verdict([u, v, w], g)
    assert (got.reason, got.witness) == (want.reason, want.witness)


def test_the_first_of_several_refuting_pairs_is_reported():
    # (0, 2) and (1, 2) both refute; the first in i < j order is reported
    g = 3
    bad = [HomologyClass.basis_a(g, 1), HomologyClass.basis_a(g, 2),
           HomologyClass(g, (0, 1, 0, 2, 0, 0))]
    got = lagrangian_verdict(bad, g)
    assert got.witness == {"kind": "pairing", "i": 0, "j": 2, "value": 1}


def test_only_classes_sharing_a_handle_are_paired(monkeypatch):
    calls = []

    def counted(u, v):
        calls.append((u, v))
        return algebraic_intersection(u, v)

    monkeypatch.setattr(homology, "algebraic_intersection", counted)
    rng = random.Random(45)
    for _ in range(60):
        g = rng.randint(0, 7)
        classes = []
        for _ in range(g):
            coeffs = [0] * (2 * g)
            for h in rng.sample(range(g), rng.randint(0, min(g, 2))):
                coeffs[2 * h] = rng.randint(-1, 1)
                coeffs[2 * h + 1] = rng.randint(-1, 1)
            classes.append(HomologyClass(g, tuple(coeffs)))
        calls.clear()
        v = lagrangian_verdict(classes, g)
        last = (v.witness["i"], v.witness["j"]) \
            if v.witness["kind"] == "pairing" else (g, g)
        shared = [(classes[i], classes[j])
                  for i in range(g) for j in range(i + 1, g)
                  if (i, j) <= last
                  and any((classes[i].handle_part(h) != (0, 0))
                          and (classes[j].handle_part(h) != (0, 0))
                          for h in range(1, g + 1))]
        assert [(id(u), id(v)) for u, v in calls] \
            == [(id(u), id(v)) for u, v in shared]
