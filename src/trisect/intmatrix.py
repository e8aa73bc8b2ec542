"""Exact integer matrices: products, determinants, Smith normal form.

Entries are arbitrary-precision Python ints throughout; intermediate values
in SNF pivoting can exceed 64 bits even for small inputs, so no fixed-width
arithmetic is used anywhere.
"""

from __future__ import annotations

from .verdict import Frozen


class IntegerMatrix(Frozen):
    """``rows`` is a tuple of row tuples."""
    _fields = ("rows",)

    def __post_init__(self):
        if any(len(r) != self.ncols for r in self.rows):
            raise ValueError("ragged matrix")

    @property
    def nrows(self):
        return len(self.rows)

    @property
    def ncols(self):
        return len(self.rows[0]) if self.rows else 0

    @staticmethod
    def from_rows(rows):
        return IntegerMatrix(tuple(tuple(int(v) for v in r) for r in rows))

    @staticmethod
    def from_columns(cols, nrows=None):
        cols = [tuple(c) for c in cols]
        if nrows is None:
            if not cols:
                raise ValueError("need nrows for an empty column list")
            nrows = len(cols[0])
        if any(len(c) != nrows for c in cols):
            raise ValueError("ragged columns")
        return IntegerMatrix(tuple(tuple(c[i] for c in cols) for i in range(nrows)))

    def transpose(self):
        return IntegerMatrix(tuple(zip(*self.rows)) if self.rows else ())

    def mul(self, other):
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch %dx%d * %dx%d"
                             % (self.nrows, self.ncols, other.nrows, other.ncols))
        cols = other.transpose().rows
        return IntegerMatrix(tuple(
            tuple(sum(a * b for a, b in zip(row, col)) for col in cols)
            for row in self.rows))

    def __mul__(self, other):
        return self.mul(other)

    def entry(self, i, j):
        return self.rows[i][j]

    def diagonal(self):
        return tuple(self.rows[i][i] for i in range(min(self.nrows, self.ncols)))

    def determinant(self):
        """Bareiss fraction-free elimination; exact for any size."""
        n = self.nrows
        if n != self.ncols:
            raise ValueError("determinant of a non-square matrix")
        if n == 0:
            return 1
        a = [list(r) for r in self.rows]
        sign = 1
        prev = 1
        for k in range(n - 1):
            if a[k][k] == 0:
                for i in range(k + 1, n):
                    if a[i][k] != 0:
                        a[k], a[i] = a[i], a[k]
                        sign = -sign
                        break
                else:
                    return 0
            for i in range(k + 1, n):
                for j in range(k + 1, n):
                    a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            prev = a[k][k]
        return sign * a[n - 1][n - 1]


def _pivot(a, t, nr, nc):
    """(i, j) of the first smallest-magnitude nonzero entry of the block
    a[t:nr][t:nc] in row-major order, or None when the block is zero."""
    pivot, best = None, 0
    for i in range(t, nr):
        row = a[i]
        for j in range(t, nc):
            x = abs(row[j])
            if x and (pivot is None or x < best):
                if x == 1:
                    return i, j
                pivot, best = (i, j), x
    return pivot


def _diagonalize(a, u=None, v=None):
    """Reduce the row lists a to Smith form in place.

    Row operations are mirrored on u and column operations on v when they
    are given.  The pivot is the first smallest-magnitude nonzero entry of
    the remaining block in row-major order, which keeps growth moderate;
    correctness does not depend on the choice, and the transforms never
    steer it.  No entry is smaller than 1, so the scan stops at the first
    unit, the entry a full scan would keep.  A unit pivot divides the whole
    block, so it skips the divisibility scan.
    """
    nr = len(a)
    nc = len(a[0]) if a else 0

    def row_add(dst, src, k):  # row dst += k * row src
        a[dst] = [x + k * y for x, y in zip(a[dst], a[src])]
        if u is not None:
            u[dst] = [x + k * y for x, y in zip(u[dst], u[src])]

    def col_add(dst, src, k):
        for row in a:
            row[dst] += k * row[src]
        if v is not None:
            for row in v:
                row[dst] += k * row[src]

    def row_swap(i, j):
        a[i], a[j] = a[j], a[i]
        if u is not None:
            u[i], u[j] = u[j], u[i]

    def col_swap(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]
        if v is not None:
            for row in v:
                row[i], row[j] = row[j], row[i]

    def row_negate(i):
        a[i] = [-x for x in a[i]]
        if u is not None:
            u[i] = [-x for x in u[i]]

    t = 0
    while t < nr and t < nc:
        pivot = _pivot(a, t, nr, nc)
        if pivot is None:
            break
        row_swap(t, pivot[0])
        col_swap(t, pivot[1])
        while True:
            # clear column t
            dirty = False
            for i in range(t + 1, nr):
                if a[i][t] != 0:
                    q = a[i][t] // a[t][t]
                    row_add(i, t, -q)
                    if a[i][t] != 0:  # remainder smaller than pivot: swap up
                        row_swap(t, i)
                        dirty = True
            if dirty:
                continue
            for j in range(t + 1, nc):
                if a[t][j] != 0:
                    q = a[t][j] // a[t][t]
                    col_add(j, t, -q)
                    if a[t][j] != 0:
                        col_swap(t, j)
                        dirty = True
            if dirty:
                continue
            if a[t][t] in (1, -1):
                break
            # pivot must divide the rest of the block
            offender = None
            for i in range(t + 1, nr):
                for j in range(t + 1, nc):
                    if a[i][j] % a[t][t] != 0:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            row_add(t, offender, 1)
        if a[t][t] < 0:
            row_negate(t)
        t += 1


def smith_normal_form(m):
    """Return (s, u, v) with u * m * v = s, u and v unimodular, and s diagonal
    with non-negative entries d1 | d2 | ... (zeros trailing).

    Classical pivot reduction with explicit transform tracking.
    """
    nr, nc = m.nrows, m.ncols
    a = [list(r) for r in m.rows]
    u = [[1 if i == j else 0 for j in range(nr)] for i in range(nr)]
    v = [[1 if i == j else 0 for j in range(nc)] for i in range(nc)]
    _diagonalize(a, u, v)
    s = IntegerMatrix.from_rows(a)
    return s, IntegerMatrix.from_rows(u), IntegerMatrix.from_rows(v)


def invariant_factors(vectors):
    """Nonzero diagonal entries of the Smith form of the matrix whose rows
    (or columns: a matrix and its transpose share them) are ``vectors``,
    in divisibility order.

    Runs the same reduction as smith_normal_form without the transforms.
    """
    a = [list(v) for v in vectors]
    _diagonalize(a)
    return tuple(a[i][i] for i in range(min(len(a), len(a[0]) if a else 0))
                 if a[i][i] != 0)


def kernel_basis(m):
    """Basis of the integer kernel of m, as a tuple of column vectors.

    With u m v = s diagonal of rank r, the kernel of m is spanned by the
    columns of v past position r (m v has those columns zero, and v is
    unimodular so they are independent and saturate the kernel).
    """
    s, _, v = smith_normal_form(m)
    rank = len([d for d in s.diagonal() if d != 0])
    return tuple(tuple(v.entry(i, j) for i in range(m.ncols))
                 for j in range(rank, m.ncols))


def solve(m, b):
    """One integer solution x of m @ x = b, or None if none exists."""
    s, u, v = smith_normal_form(m)
    ub = [sum(u.entry(i, k) * b[k] for k in range(m.nrows)) for i in range(m.nrows)]
    rank = len([d for d in s.diagonal() if d != 0])
    y = [0] * m.ncols
    for i in range(m.nrows):
        d = s.entry(i, i) if i < min(m.nrows, m.ncols) else 0
        if i < rank:
            if ub[i] % d != 0:
                return None
            y[i] = ub[i] // d
        elif ub[i] != 0:
            return None
    return tuple(sum(v.entry(i, k) * y[k] for k in range(m.ncols)) for i in range(m.ncols))


class AbelianGroup(Frozen):
    """Finitely generated abelian group as free rank plus torsion factors
    (the invariant factors > 1, in divisibility order)."""
    _fields = ("free_rank", "torsion")

    def __str__(self):
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append("Z^%d" % self.free_rank)
        parts.extend("Z/%d" % d for d in self.torsion)
        return " + ".join(parts) if parts else "0"

    @property
    def is_trivial(self):
        return self.free_rank == 0 and not self.torsion

    @property
    def is_free(self):
        return not self.torsion


def cokernel(columns, ambient_rank):
    """Z^ambient_rank modulo the span of the given column vectors."""
    if any(len(c) != ambient_rank for c in columns):
        raise ValueError("ragged columns")
    factors = invariant_factors(columns)
    return AbelianGroup(ambient_rank - len(factors),
                        tuple(d for d in factors if d > 1))


def span_equal(cols_a, cols_b, ambient_rank):
    """Do two column sets generate the same sublattice of Z^ambient_rank?"""
    if not cols_a or not cols_b:
        return not cols_a and not cols_b
    ma = IntegerMatrix.from_columns(cols_a, nrows=ambient_rank)
    mb = IntegerMatrix.from_columns(cols_b, nrows=ambient_rank)
    return (all(solve(ma, c) is not None for c in cols_b)
            and all(solve(mb, c) is not None for c in cols_a))
