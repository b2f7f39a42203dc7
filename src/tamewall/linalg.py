"""Exact rational linear algebra over `fractions.Fraction`.

Determinants run fraction-free (Bareiss) so integral input stays integral;
rank, solving, nullspaces and inverses clear each row's denominators once
and eliminate over the integers to an echelon form, then back-substitute
over the integers only the vectors they return, producing fractions only
for those.  The LDL^T factorization is fraction-free too (Bareiss on the
cleared matrix), and its pivots decide positive definiteness.  rank,
solve and nullspace also take
plain rows of ints (or Fractions), so integral data such as Sym(n) value
rows goes into the elimination without a detour through Fraction.  No
floating point enters any code path.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from . import kernels


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

    def __getitem__(self, ij):
        i, j = ij
        return self._rows[i][j]

    def row(self, i):
        return self._rows[i]

    def rows(self):
        return self._rows

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


def cleared(rows):
    """(integer rows, d): the rational rows times d, the lcm of all their
    denominators."""
    d = lcm(*(x.denominator for row in rows for x in row))
    return tuple(tuple(x.numerator * (d // x.denominator) for x in row) for row in rows), d


def det(matrix: RationalMatrix) -> Fraction:
    """Exact determinant via fraction-free elimination."""
    if not matrix.is_square:
        raise ValueError("determinant requires a square matrix")
    rows, d = cleared(matrix.rows())
    return Fraction(kernels.det_int(rows), d**matrix.nrows)


def _primitive(row):
    """Integer row divided by the gcd of its entries."""
    g = gcd(*row)
    return [x // g for x in row] if g > 1 else row


def primitive_row(row):
    """The primitive integer row on the ray of a rational row: its
    denominators cleared by their lcm, then divided by the gcd of the
    entries.  The sign is kept, so callers fix their own orientation."""
    (ints,), _ = cleared([row])
    return _primitive(list(ints))


def _eliminate(row, pivot_row, c):
    """Primitive integer combination of row and pivot_row that is 0 in
    column c, both rows being zero left of c; only the columns right of c
    are computed."""
    p = pivot_row[c]
    a = row[c]
    g = gcd(p, a)
    p //= g
    a //= g
    tail = [p * x - a * y for x, y in zip(row[c + 1:], pivot_row[c + 1:])]
    return _primitive([0] * (c + 1) + tail)


def _echelon(rows):
    """Fraction-free row echelon form of rational rows.

    Each row is scaled to a primitive integer row once; elimination then
    uses integer row operations only, dividing every new row by its
    content.  Returns (pivots, echelon): the pivot columns and one
    integer row per pivot, zero left of its pivot.  The rank is
    len(pivots); _back_substitute reads solutions off the echelon.
    """
    work = [primitive_row(row) for row in rows]
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


def _back_substitute(pivots, echelon, rhs):
    """The solution X of echelon . X = rhs that is zero on the free
    columns, rhs holding one integer row per echelon row: one Fraction
    row of X per pivot, in pivot order.

    The triangle of pivot columns is solved from the bottom up over the
    integers, with X held as integer rows over one common denominator.
    """
    r = len(pivots)
    nums = [None] * r
    den = 1
    for k in range(r - 1, -1, -1):
        row = echelon[k]
        t = [x * den for x in rhs[k]]
        for j in range(k + 1, r):
            u = row[pivots[j]]
            if u:
                t = [a - u * b for a, b in zip(t, nums[j])]
        p = row[pivots[k]]
        g = gcd(p, *t)
        p //= g
        if p != 1:
            den *= p
            for j in range(k + 1, r):
                nums[j] = [p * b for b in nums[j]]
        nums[k] = [a // g for a in t]
    return [[Fraction(a, den) for a in row] for row in nums]


def _rows(matrix):
    """The rows of a RationalMatrix, or a nonempty sequence of equal-length
    rows of ints or Fractions as given."""
    if isinstance(matrix, RationalMatrix):
        return matrix.rows()
    if not matrix or not matrix[0] or any(len(row) != len(matrix[0]) for row in matrix):
        raise ValueError("rows must be nonempty and of one length")
    return matrix


def rank(matrix) -> int:
    """Rank of a RationalMatrix or of rows of ints or Fractions."""
    return len(_echelon(_rows(matrix))[0])


def affine_rank(points) -> int:
    """Dimension of the affine hull of a nonempty sequence of integer points."""
    base, *rest = points
    if not rest:
        return 0
    return rank([[a - b for a, b in zip(p, base)] for p in rest])


def solve(matrix, rhs) -> LinearSystemSolution:
    """Exact solution set of A x = b with witnesses; A is a RationalMatrix
    or rows of ints or Fractions.

    The particular solution is the one that is zero on the free columns,
    and the nullspace basis is the one `nullspace` returns; one
    back-substitution on the echelon form of [A | b] gives both.
    """
    rows = _rows(matrix)
    if len(rhs) != len(rows):
        raise ValueError("right-hand side length mismatch")
    b = [_frac(x) for x in rhs]
    aug = [list(row) + [bi] for row, bi in zip(rows, b)]
    pivots, echelon = _echelon(aug)
    ncols = len(rows[0])
    if ncols in pivots:
        return LinearSystemSolution("inconsistent", None, ())
    particular, *basis = _solution_vectors(pivots, echelon, ncols, particular=True)
    kind = "unique" if not basis else "affine"
    return LinearSystemSolution(kind, particular, tuple(basis))


def _solution_vectors(pivots, echelon, ncols, particular=False):
    """The nullspace basis of the first ncols columns of the echelon form,
    one vector per free column f (1 at f, 0 at the other free columns),
    preceded when `particular` holds by the solution that is zero on every
    free column, column ncols being the right-hand side."""
    free = sorted(set(range(ncols)).difference(pivots))
    heads = [ncols] if particular else []
    rhs = [[row[c] for c in heads] + [-row[f] for f in free] for row in echelon]
    values = _back_substitute(pivots, echelon, rhs)
    vectors = []
    for col, head in enumerate(heads + free):
        vec = [Fraction(0)] * ncols
        if head < ncols:
            vec[head] = Fraction(1)
        for c, row in zip(pivots, values):
            vec[c] = row[col]
        vectors.append(tuple(vec))
    return vectors


def nullspace(matrix):
    """Basis of the right nullspace (empty tuple when trivial) of a
    RationalMatrix or of rows of ints or Fractions: for each free column
    of the echelon form, the null vector that is 1 there and 0 at the
    other free columns."""
    rows = _rows(matrix)
    pivots, echelon = _echelon(rows)
    return tuple(_solution_vectors(pivots, echelon, len(rows[0])))


def inverse(matrix: RationalMatrix) -> RationalMatrix:
    if not matrix.is_square:
        raise ValueError("inverse requires a square matrix")
    n = matrix.nrows
    aug = [list(row) + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(matrix.rows())]
    pivots, echelon = _echelon(aug)
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    return RationalMatrix(_back_substitute(pivots, echelon, [row[n:] for row in echelon]))


def ldl(matrix: RationalMatrix):
    """Exact LDL^T of a symmetric positive definite matrix.

    Returns (L, D) with L unit lower triangular (list of row tuples) and
    D the pivot list.  Raises ValueError when the matrix is not symmetric
    and NotPositiveDefiniteError when a pivot fails to be positive.

    The matrix is cleared to integers once and eliminated fraction-free
    (Bareiss) on its lower triangle: pivot k is the (k+1)-th leading
    principal minor of the cleared matrix, so D[k] is the ratio of two
    consecutive minors over the common denominator, and column k of L
    is column k of the elimination over its pivot.
    """
    if not matrix.is_symmetric:
        raise ValueError("LDL requires a symmetric matrix")
    n = matrix.nrows
    rows, den = cleared(matrix.rows())
    work = [list(row[: i + 1]) for i, row in enumerate(rows)]
    L = [[Fraction(0)] * n for _ in range(n)]
    D = []
    prev = 1
    for k in range(n):
        p = work[k][k]
        if p <= 0:
            raise NotPositiveDefiniteError("matrix is not positive definite")
        D.append(Fraction(p, prev * den))
        L[k][k] = Fraction(1)
        col = [0] * k + [work[i][k] for i in range(k, n)]
        for i in range(k + 1, n):
            L[i][k] = Fraction(col[i], p)
            a = col[i]
            work[i][k + 1:] = [
                (p * x - a * y) // prev for x, y in zip(work[i][k + 1:], col[k + 1:i + 1])
            ]
        prev = p
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
