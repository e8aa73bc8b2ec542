from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import ZZ
from sympy import Matrix as SympyMatrix
from sympy.matrices.normalforms import (
    invariant_factors as sympy_invariant_factors)

from trisect.intmatrix import (AbelianGroup, IntegerMatrix, cokernel,
                               invariant_factors, kernel_basis,
                               smith_normal_form, solve, span_equal)


def _sympy_invariant_factors(rows):
    """Independent oracle: sympy's invariant factor routine."""
    m = SympyMatrix(rows)
    from sympy.matrices.normalforms import smith_normal_form as snf
    s = snf(m)
    diag = [int(s[i, i]) for i in range(min(s.shape))]
    return tuple(abs(d) for d in diag if d != 0)


def _random_matrix(rng, nr, nc, lo=-6, hi=6):
    return [[rng.randint(lo, hi) for _ in range(nc)] for _ in range(nr)]


def test_snf_frozen_example():
    # diag(2, 3) has invariant factors (1, 6); value computed by the oracle
    rows = [[2, 0], [0, 3]]
    assert _sympy_invariant_factors(rows) == (1, 6)
    m = IntegerMatrix.from_rows(rows)
    s, u, v = smith_normal_form(m)
    assert s.diagonal() == (1, 6)
    assert u.mul(m).mul(v).rows == s.rows


def test_snf_properties_random():
    rng = random.Random(20260814)
    for trial in range(120):
        nr = rng.randint(1, 5)
        nc = rng.randint(1, 5)
        rows = _random_matrix(rng, nr, nc)
        m = IntegerMatrix.from_rows(rows)
        s, u, v = smith_normal_form(m)
        # recomposition: U M V = S with unimodular transforms
        assert u.mul(m).mul(v).rows == s.rows
        assert abs(u.determinant()) == 1
        assert abs(v.determinant()) == 1
        # diagonal, non-negative, divisibility chain
        diag = s.diagonal()
        for i in range(s.nrows):
            for j in range(s.ncols):
                if i != j:
                    assert s.entry(i, j) == 0
        nonzero = [d for d in diag if d != 0]
        assert all(d > 0 for d in nonzero)
        for a, b in zip(nonzero, nonzero[1:]):
            assert b % a == 0
        # cross-check against the independent oracle
        assert tuple(nonzero) == _sympy_invariant_factors(rows)


def test_determinant_against_oracle():
    rng = random.Random(99)
    for _ in range(80):
        n = rng.randint(1, 5)
        rows = _random_matrix(rng, n, n)
        assert IntegerMatrix.from_rows(rows).determinant() == int(SympyMatrix(rows).det())
    assert IntegerMatrix.from_rows([]).determinant() == 1  # empty product


def test_solve_finds_integer_solutions():
    rng = random.Random(4)
    for _ in range(60):
        nr = rng.randint(1, 4)
        nc = rng.randint(1, 4)
        m = IntegerMatrix.from_rows(_random_matrix(rng, nr, nc, -4, 4))
        x = [rng.randint(-3, 3) for _ in range(nc)]
        b = [sum(m.entry(i, k) * x[k] for k in range(nc)) for i in range(nr)]
        got = solve(m, b)
        assert got is not None
        check = [sum(m.entry(i, k) * got[k] for k in range(nc)) for i in range(nr)]
        assert check == b


def test_solve_detects_infeasible():
    m = IntegerMatrix.from_rows([[2, 0], [0, 2]])
    assert solve(m, (1, 0)) is None
    assert solve(m, (2, 4)) == (1, 2)


def test_cokernel_descriptors():
    assert cokernel([], 3) == AbelianGroup(3, ())
    assert str(cokernel([(2, 0), (0, 3)], 2)) == "Z/6"
    assert cokernel([(1, 0)], 2) == AbelianGroup(1, ())
    assert cokernel([(0, 0)], 2).free_rank == 2
    assert str(AbelianGroup(0, ())) == "0"
    assert str(AbelianGroup(2, (2,))) == "Z^2 + Z/2"


def test_span_equal():
    assert span_equal([(1, 0), (0, 1)], [(1, 1), (0, 1)], 2)
    assert not span_equal([(2, 0), (0, 1)], [(1, 0), (0, 1)], 2)
    assert span_equal([], [], 2)


def test_invariant_factors_empty_and_zero():
    assert invariant_factors([]) == ()
    assert invariant_factors([[0, 0], [0, 0]]) == ()
    assert invariant_factors([(5,)]) == (5,)


def test_kernel_basis_matches_nullspace_dimension():
    rng = random.Random(17)
    for _ in range(40):
        nr = rng.randrange(1, 5)
        nc = rng.randrange(1, 5)
        rows = [[rng.randrange(-4, 5) for _ in range(nc)] for _ in range(nr)]
        m = IntegerMatrix.from_rows(rows)
        basis = kernel_basis(m)
        # every vector maps to zero
        for vec in basis:
            assert all(sum(m.entry(i, k) * vec[k] for k in range(nc)) == 0
                       for i in range(nr))
        # count matches the rational nullity, and the set is independent
        nullity = nc - SympyMatrix(rows).rank()
        assert len(basis) == nullity
        if basis:
            assert SympyMatrix([list(v) for v in basis]).rank() == len(basis)


def test_kernel_basis_spans_an_explicit_kernel():
    m = IntegerMatrix.from_rows([[1, 1, 1]])
    basis = kernel_basis(m)
    assert len(basis) == 2
    assert span_equal([list(v) for v in basis],
                      [[1, -1, 0], [0, 1, -1]], 3)


_SHAPES = st.tuples(st.integers(0, 5), st.integers(0, 5))


@st.composite
def _matrices(draw):
    """Random, zero and torsion-heavy matrices of any shape up to 5x5."""
    nr, nc = draw(_SHAPES)
    kind = draw(st.sampled_from(("random", "zero", "torsion")))
    if kind == "zero":
        return [[0] * nc for _ in range(nr)]
    rows = [[draw(st.integers(-9, 9)) for _ in range(nc)] for _ in range(nr)]
    if kind == "torsion":
        # a common factor on every row, on top of the drawn entries
        k = draw(st.integers(2, 6))
        rows = [[k * x for x in row] for row in rows]
    return rows


@settings(derandomize=True, database=None, max_examples=400)
@given(_matrices())
def test_invariant_factors_match_the_smith_diagonal_and_sympy(rows):
    m = IntegerMatrix.from_rows(rows)
    s, _, _ = smith_normal_form(m)
    factors = invariant_factors(rows)
    assert factors == tuple(d for d in s.diagonal() if d != 0)
    # the vectors may be rows or columns: the transpose is one more input
    for vectors in (rows, m.transpose().rows):
        assert invariant_factors(vectors) == factors
        if vectors and vectors[0]:
            oracle = sympy_invariant_factors(SympyMatrix(vectors), domain=ZZ)
            assert factors == tuple(abs(int(d)) for d in oracle if d != 0)


def _full_scan_smith_form(rows):
    """(s, u, v) rows of the reduction that scans the whole block for its
    pivot and always runs the divisibility scan: the reference for the
    early stops in ``intmatrix._diagonalize``."""
    a = [list(r) for r in rows]
    nr, nc = len(a), len(a[0]) if a else 0
    u = [[int(i == j) for j in range(nr)] for i in range(nr)]
    v = [[int(i == j) for j in range(nc)] for i in range(nc)]

    def row_add(dst, src, k):
        a[dst] = [x + k * y for x, y in zip(a[dst], a[src])]
        u[dst] = [x + k * y for x, y in zip(u[dst], u[src])]

    def col_add(dst, src, k):
        for m in (a, v):
            for row in m:
                row[dst] += k * row[src]

    def row_swap(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def col_swap(i, j):
        for m in (a, v):
            for row in m:
                row[i], row[j] = row[j], row[i]

    t = 0
    while t < nr and t < nc:
        pivot = None
        for i in range(t, nr):
            for j in range(t, nc):
                if a[i][j] != 0 and (pivot is None or abs(a[i][j])
                                     < abs(a[pivot[0]][pivot[1]])):
                    pivot = (i, j)
        if pivot is None:
            break
        row_swap(t, pivot[0])
        col_swap(t, pivot[1])
        while True:
            dirty = False
            for i in range(t + 1, nr):
                if a[i][t] != 0:
                    row_add(i, t, -(a[i][t] // a[t][t]))
                    if a[i][t] != 0:
                        row_swap(t, i)
                        dirty = True
            if dirty:
                continue
            for j in range(t + 1, nc):
                if a[t][j] != 0:
                    col_add(j, t, -(a[t][j] // a[t][t]))
                    if a[t][j] != 0:
                        col_swap(t, j)
                        dirty = True
            if dirty:
                continue
            offender = next((i for i in range(t + 1, nr)
                             for j in range(t + 1, nc)
                             if a[i][j] % a[t][t] != 0), None)
            if offender is None:
                break
            row_add(t, offender, 1)
        if a[t][t] < 0:
            a[t] = [-x for x in a[t]]
            u[t] = [-x for x in u[t]]
        t += 1
    return a, u, v


def _seeded_matrices(seed):
    """Matrices with many +-1 entries, with zero rows, and with no entry
    of magnitude below 2."""
    rng = random.Random(seed)
    out = []
    for _ in range(300):
        nr, nc = rng.randint(1, 6), rng.randint(1, 6)
        kind = rng.choice(("units", "zero-rows", "no-units"))
        if kind == "units":
            rows = [[rng.choice((-1, 1, -1, 1, 0, 2, -3)) for _ in range(nc)]
                    for _ in range(nr)]
        elif kind == "zero-rows":
            rows = _random_matrix(rng, nr, nc)
            for i in rng.sample(range(nr), rng.randint(1, nr)):
                rows[i] = [0] * nc
        else:
            rows = [[rng.choice((-1, 1)) * rng.randint(2, 12)
                     for _ in range(nc)] for _ in range(nr)]
        out.append((kind, rows))
    return out


def test_smith_form_transforms_match_the_full_pivot_scan():
    kinds = set()
    for kind, rows in _seeded_matrices(20261018):
        kinds.add(kind)
        m = IntegerMatrix.from_rows(rows)
        s, u, v = smith_normal_form(m)
        ref = _full_scan_smith_form(rows)
        assert (list(map(list, s.rows)), list(map(list, u.rows)),
                list(map(list, v.rows))) == ref, (kind, rows)
        assert invariant_factors(rows) == tuple(
            ref[0][i][i] for i in range(min(m.nrows, m.ncols))
            if ref[0][i][i] != 0)
    assert kinds == {"units", "zero-rows", "no-units"}


def test_cokernel_reduces_the_transpose_and_rejects_ragged_columns():
    rng = random.Random(7)
    for _ in range(200):
        n, k = rng.randint(0, 5), rng.randint(0, 5)
        cols = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(k)]
        factors = (invariant_factors(IntegerMatrix.from_columns(cols, n).rows)
                   if cols else ())
        assert cokernel(cols, n) == AbelianGroup(
            n - len(factors), tuple(d for d in factors if d > 1))
    with pytest.raises(ValueError, match="ragged columns"):
        cokernel([(1, 0), (1,)], 2)
