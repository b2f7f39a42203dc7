"""Exact rational linear algebra over `fractions.Fraction`.

Determinants run fraction-free (Bareiss) so integral input stays integral;
rank, solving, nullspaces and inverses clear each row's denominators once
and eliminate over the integers, producing fractions only for the final
reduced row echelon form; positive definiteness is decided by the pivots
of an exact LDL^T factorization.  No floating point enters any code path.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from . import kernels

Rational = Fraction


class NotPositiveDefiniteError(ValueError):
    """A symmetric matrix has a nonpositive LDL^T pivot."""


def _frac(x) -> Fraction:
    """Coerce to Fraction, rejecting floats (no rounding anywhere)."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"expected an exact rational, got {type(x).__name__}")


class RationalMatrix:
    """Immutable dense matrix of exact rationals."""

    __slots__ = ("_rows", "nrows", "ncols")

    def __init__(self, rows):
        data = tuple(tuple(_frac(x) for x in row) for row in rows)
        if not data or not data[0]:
            raise ValueError("matrix must have at least one row and column")
        width = len(data[0])
        if any(len(r) != width for r in data):
            raise ValueError("ragged rows")
        self._rows = data
        self.nrows = len(data)
        self.ncols = width

    @classmethod
    def identity(cls, n):
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def zeros(cls, nrows, ncols):
        return cls([[0] * ncols for _ in range(nrows)])

    def __getitem__(self, ij):
        i, j = ij
        return self._rows[i][j]

    def row(self, i):
        return self._rows[i]

    def rows(self):
        return self._rows

    def column(self, j):
        return tuple(r[j] for r in self._rows)

    @property
    def is_square(self):
        return self.nrows == self.ncols

    @property
    def is_symmetric(self):
        if not self.is_square:
            return False
        n = self.nrows
        return all(self._rows[i][j] == self._rows[j][i] for i in range(n) for j in range(i))

    def transpose(self):
        return RationalMatrix(list(zip(*self._rows)))

    def __eq__(self, other):
        return isinstance(other, RationalMatrix) and self._rows == other._rows

    def __hash__(self):
        return hash(self._rows)

    def __add__(self, other):
        self._check_shape(other)
        return RationalMatrix(
            [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(self._rows, other._rows)]
        )

    def __sub__(self, other):
        self._check_shape(other)
        return RationalMatrix(
            [[a - b for a, b in zip(ra, rb)] for ra, rb in zip(self._rows, other._rows)]
        )

    def scaled(self, c):
        c = _frac(c)
        return RationalMatrix([[c * x for x in row] for row in self._rows])

    def matmul(self, other):
        if self.ncols != other.nrows:
            raise ValueError("incompatible shapes")
        cols = other.transpose()._rows
        return RationalMatrix(
            [[sum(a * b for a, b in zip(row, col)) for col in cols] for row in self._rows]
        )

    def matvec(self, vec):
        if len(vec) != self.ncols:
            raise ValueError("incompatible shapes")
        v = [_frac(x) for x in vec]
        return tuple(sum(a * b for a, b in zip(row, v)) for row in self._rows)

    def to_int_rows(self):
        """Rows as plain ints, or None if any entry is non-integral."""
        if any(x.denominator != 1 for row in self._rows for x in row):
            return None
        return [[int(x) for x in row] for row in self._rows]

    def _check_shape(self, other):
        if self.nrows != other.nrows or self.ncols != other.ncols:
            raise ValueError("shape mismatch")

    def __repr__(self):
        body = "; ".join(" ".join(str(x) for x in row) for row in self._rows)
        return f"RationalMatrix({self.nrows}x{self.ncols}: {body})"


@dataclass(frozen=True)
class LinearSystemSolution:
    """Classification of A x = b: unique, affine family, or inconsistent."""

    kind: str  # 'unique' | 'affine' | 'inconsistent'
    particular: tuple | None
    nullspace: tuple  # tuple of basis vectors (each a tuple of Fraction)

    @property
    def is_unique(self):
        return self.kind == "unique"


def det(matrix: RationalMatrix) -> Fraction:
    """Exact determinant via fraction-free elimination."""
    if not matrix.is_square:
        raise ValueError("determinant requires a square matrix")
    ints = matrix.to_int_rows()
    if ints is not None:
        return Fraction(kernels.det_int(ints))
    # Clear denominators row by row; det scales by the product of the factors.
    factor = 1
    rows = []
    for row in matrix.rows():
        mult = lcm(*(x.denominator for x in row))
        factor *= mult
        rows.append([int(x * mult) for x in row])
    return Fraction(kernels.det_int(rows), factor)


def _primitive(row):
    """Integer row divided by the gcd of its entries."""
    g = gcd(*row)
    return [x // g for x in row] if g > 1 else row


def _eliminate(row, pivot_row, c):
    """Primitive integer combination of row and pivot_row that is 0 in column c."""
    p = pivot_row[c]
    a = row[c]
    g = gcd(p, a)
    p //= g
    a //= g
    return _primitive([p * x - a * y for x, y in zip(row, pivot_row)])


def _echelon(rows):
    """Fraction-free row echelon form of rational rows.

    Each row is scaled to a primitive integer row once; elimination then
    uses integer row operations only, dividing every new row by its
    content.  Returns (pivots, echelon): the pivot columns and one
    integer row per pivot, zero left of its pivot.  The rank is
    len(pivots); _rref finishes the reduction.
    """
    work = []
    for row in rows:
        den = lcm(*(x.denominator for x in row))
        work.append(_primitive([x.numerator * (den // x.denominator) for x in row]))
    nrows = len(work)
    ncols = len(work[0]) if work else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, nrows) if work[i][c]), None)
        if pr is None:
            continue
        work[r], work[pr] = work[pr], work[r]
        prow = work[r]
        for i in range(r + 1, nrows):
            if work[i][c]:
                work[i] = _eliminate(work[i], prow, c)
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return pivots, work[:r]


def _rref(pivots, echelon):
    """The reduced row echelon form (one Fraction row per pivot).

    Back-substitution over the integers clears each pivot column above
    its pivot; dividing each row by its pivot then gives the unique RREF.
    """
    rows = list(echelon)
    for k in range(len(pivots) - 1, 0, -1):
        c = pivots[k]
        for j in range(k):
            if rows[j][c]:
                rows[j] = _eliminate(rows[j], rows[k], c)
    return [
        [Fraction(x, row[c]) for x in row] for row, c in zip(rows, pivots)
    ]


def rank(matrix: RationalMatrix) -> int:
    return len(_echelon(matrix.rows())[0])


def solve(matrix: RationalMatrix, rhs) -> LinearSystemSolution:
    """Exact solution set of A x = b with witnesses."""
    if len(rhs) != matrix.nrows:
        raise ValueError("right-hand side length mismatch")
    b = [_frac(x) for x in rhs]
    aug = [list(row) + [bi] for row, bi in zip(matrix.rows(), b)]
    pivots, echelon = _echelon(aug)
    ncols = matrix.ncols
    if ncols in pivots:
        return LinearSystemSolution("inconsistent", None, ())
    rref = _rref(pivots, echelon)
    particular = [Fraction(0)] * ncols
    for r, c in enumerate(pivots):
        particular[c] = rref[r][ncols]
    basis = _nullspace_from_rref(rref, pivots, ncols)
    kind = "unique" if not basis else "affine"
    return LinearSystemSolution(kind, tuple(particular), tuple(basis))


def _nullspace_from_rref(rref_rows, pivots, ncols):
    pivot_set = set(pivots)
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        vec = [Fraction(0)] * ncols
        vec[free] = Fraction(1)
        for r, c in enumerate(pivots):
            vec[c] = -rref_rows[r][free]
        basis.append(tuple(vec))
    return basis


def nullspace(matrix: RationalMatrix):
    """Basis of the right nullspace (empty tuple when trivial)."""
    pivots, echelon = _echelon(matrix.rows())
    return tuple(_nullspace_from_rref(_rref(pivots, echelon), pivots, matrix.ncols))


def inverse(matrix: RationalMatrix) -> RationalMatrix:
    if not matrix.is_square:
        raise ValueError("inverse requires a square matrix")
    n = matrix.nrows
    aug = [list(row) + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(matrix.rows())]
    pivots, echelon = _echelon(aug)
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    return RationalMatrix([row[n:] for row in _rref(pivots, echelon)])


def ldl(matrix: RationalMatrix):
    """Exact LDL^T of a symmetric positive definite matrix.

    Returns (L, D) with L unit lower triangular (list of row tuples) and
    D the pivot list.  Raises ValueError when the matrix is not symmetric
    and NotPositiveDefiniteError when a pivot fails to be positive.
    """
    if not matrix.is_symmetric:
        raise ValueError("LDL requires a symmetric matrix")
    n = matrix.nrows
    L = [[Fraction(0)] * n for _ in range(n)]
    D = [Fraction(0)] * n
    for j in range(n):
        d = matrix[j, j] - sum(L[j][k] * L[j][k] * D[k] for k in range(j))
        if d <= 0:
            raise NotPositiveDefiniteError("matrix is not positive definite")
        D[j] = d
        L[j][j] = Fraction(1)
        for i in range(j + 1, n):
            s = matrix[i, j] - sum(L[i][k] * L[j][k] * D[k] for k in range(j))
            L[i][j] = s / d
    return [tuple(row) for row in L], D


def is_positive_definite(matrix: RationalMatrix) -> bool:
    """Sylvester test via exact LDL pivots; requires symmetric input."""
    if not matrix.is_symmetric:
        raise ValueError("positive definiteness is tested on symmetric matrices only")
    try:
        ldl(matrix)
    except NotPositiveDefiniteError:
        return False
    return True
