from __future__ import annotations

import random

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
    assert invariant_factors(IntegerMatrix.from_rows([[0, 0], [0, 0]])) == ()
    assert invariant_factors(IntegerMatrix.from_rows([[5]])) == (5,)


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
    factors = invariant_factors(m)
    assert factors == tuple(d for d in s.diagonal() if d != 0)
    if rows and rows[0]:
        oracle = sympy_invariant_factors(SympyMatrix(rows), domain=ZZ)
        assert factors == tuple(abs(int(d)) for d in oracle if d != 0)
