"""First homology of a closed genus-g surface, with its intersection form.

Coordinates are frozen once and for all: H1 of the genus-g surface is Z^{2g}
with ordered basis (a1, b1, a2, b2, ..., ag, bg), where a_h and b_h live on
handle h and <a_h, b_h> = +1.  Surface-word letters line up with this basis:
letter x_h = 2h-1 abelianizes to a_h, letter y_h = 2h to b_h.
"""

from __future__ import annotations

from .intmatrix import IntegerMatrix, cokernel, invariant_factors
from .verdict import Frozen, refuted, verified


class HomologyClass(Frozen):
    """``coeffs`` has length 2 * genus, ordered (a1, b1, ..., ag, bg)."""
    _fields = ("genus", "coeffs")

    def __post_init__(self):
        if self.genus < 0 or len(self.coeffs) != 2 * self.genus:
            raise ValueError("expected %d coefficients, got %d"
                             % (2 * self.genus, len(self.coeffs)))

    @staticmethod
    def basis_a(genus, handle):
        return HomologyClass(genus, tuple(
            1 if i == 2 * (handle - 1) else 0 for i in range(2 * genus)))

    @staticmethod
    def basis_b(genus, handle):
        return HomologyClass(genus, tuple(
            1 if i == 2 * handle - 1 else 0 for i in range(2 * genus)))

    def add(self, other):
        self._check(other)
        return HomologyClass(self.genus, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def sub(self, other):
        self._check(other)
        return HomologyClass(self.genus, tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    @property
    def is_zero(self):
        return all(a == 0 for a in self.coeffs)

    def handle_part(self, handle):
        """(p, q) coefficients on one handle."""
        return (self.coeffs[2 * (handle - 1)], self.coeffs[2 * handle - 1])

    def _check(self, other):
        if self.genus != other.genus:
            raise ValueError("genus mismatch %d vs %d" % (self.genus, other.genus))


def algebraic_intersection(u, v):
    """Symplectic pairing <u, v> = sum over handles of (u_a v_b - u_b v_a)."""
    if u.genus != v.genus:
        raise ValueError("genus mismatch %d vs %d" % (u.genus, v.genus))
    total = 0
    for h in range(u.genus):
        total += u.coeffs[2 * h] * v.coeffs[2 * h + 1] - u.coeffs[2 * h + 1] * v.coeffs[2 * h]
    return total


def abelianize(genus, word):
    """Homology class of a surface word (letter 2h-1 -> a_h, 2h -> b_h)."""
    coeffs = [0] * (2 * genus)
    for v in word:
        idx = abs(v) - 1
        if idx >= 2 * genus:
            raise ValueError("letter %d out of range for genus %d" % (v, genus))
        coeffs[idx] += 1 if v > 0 else -1
    return HomologyClass(genus, tuple(coeffs))


def lagrangian_verdict(classes, genus):
    """Do these classes span a rank-g Lagrangian direct summand of Z^{2g}?

    This is the homological certificate that g declared-disjoint curves can
    bound a complete disk system: right count, pairwise pairing zero, and a
    primitive span (all Smith invariant factors 1).
    """
    classes = list(classes)
    if any(c.genus != genus for c in classes):
        raise ValueError("class genus does not match the surface genus")
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
    group = cokernel([c.coeffs for c in classes], 2 * genus)
    if group.free_rank != genus or group.torsion:
        factors = _span_factors(classes, genus)
        return refuted("span is not a primitive rank-%d summand" % genus,
                       {"kind": "imprimitive", "snf_factors": list(factors)})
    return verified("rank-%d Lagrangian primitive summand" % genus,
                    {"kind": "lagrangian", "snf_factors": [1] * genus})


def _span_factors(classes, genus):
    if not classes:
        return ()
    m = IntegerMatrix.from_columns([c.coeffs for c in classes], nrows=2 * genus)
    return invariant_factors(m)
