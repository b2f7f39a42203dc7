"""Exact linear algebra on matrices given as rows.

A matrix is a nonempty sequence of equal-length rows of ints or
Fractions; a symmetric rational matrix is held as integer rows over one
positive denominator (see `QuadraticForm`).  Rank, solving, nullspaces
and inverses clear each row's denominators once and eliminate over the
integers to an echelon form, then back-substitute over the integers only
the vectors they return: solutions come out as Fractions, an inverse as
integer rows over one denominator.  The LDL^T factorization takes
integer rows and runs fraction-free (Bareiss): it returns the integer
pivots and columns of the elimination, of which L and D are ratios, and
its pivots decide positive definiteness.  No floating point enters any
code path.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm


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
    columns, rhs holding one integer row per echelon row: (nums, den), X
    as one integer row per pivot, in pivot order, over the positive
    integer den.

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
        if p < 0:
            g = -g
        p //= g
        if p != 1:
            den *= p
            for j in range(k + 1, r):
                nums[j] = [p * b for b in nums[j]]
        nums[k] = [a // g for a in t]
    return nums, den


def _rows(matrix):
    """A nonempty sequence of equal-length rows of ints or Fractions, as
    given."""
    if not matrix or not matrix[0] or any(len(row) != len(matrix[0]) for row in matrix):
        raise ValueError("rows must be nonempty and of one length")
    return matrix


def rank(matrix) -> int:
    """Rank of rows of ints or Fractions."""
    return len(_echelon(_rows(matrix))[0])


def affine_rank(points) -> int:
    """Dimension of the affine hull of a nonempty sequence of integer points."""
    base, *rest = points
    if not rest:
        return 0
    return rank([[a - b for a, b in zip(p, base)] for p in rest])


def solve(matrix, rhs) -> LinearSystemSolution:
    """Exact solution set of A x = b with witnesses; A is rows of ints or
    Fractions.

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
    values, den = _back_substitute(pivots, echelon, rhs)
    vectors = []
    for col, head in enumerate(heads + free):
        vec = [Fraction(0)] * ncols
        if head < ncols:
            vec[head] = Fraction(1)
        for c, row in zip(pivots, values):
            vec[c] = Fraction(row[col], den)
        vectors.append(tuple(vec))
    return vectors


def nullspace(matrix):
    """Basis of the right nullspace (empty tuple when trivial) of rows of
    ints or Fractions: for each free column of the echelon form, the null
    vector that is 1 there and 0 at the other free columns."""
    rows = _rows(matrix)
    pivots, echelon = _echelon(rows)
    return tuple(_solution_vectors(pivots, echelon, len(rows[0])))


def inverse(matrix):
    """The inverse of a square matrix of ints or Fractions as (rows, d):
    integer rows over the positive integer d.  Raises ValueError when the
    matrix is singular."""
    rows = _rows(matrix)
    n = len(rows)
    if len(rows[0]) != n:
        raise ValueError("inverse requires a square matrix")
    aug = [[*row, *(int(i == j) for j in range(n))] for i, row in enumerate(rows)]
    pivots, echelon = _echelon(aug)
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    nums, d = _back_substitute(pivots, echelon, [row[n:] for row in echelon])
    return tuple(map(tuple, nums)), d


def ldl(rows):
    """Fraction-free LDL^T data of the symmetric positive definite matrix
    given by integer rows.

    Returns one (p, prev, col) per index k: p the k-th pivot, prev the
    pivot before it (1 for k = 0) and col the integer entries below the
    pivot in column k of the elimination, so that D[k] = p / prev and
    L[i][k] = col[i - k - 1] / p for i > k; the matrix rows / den has the
    same L and D[k] = p / (prev den).  Raises ValueError when
    the matrix is not symmetric and NotPositiveDefiniteError when a pivot
    fails to be positive.

    The integer rows are eliminated fraction-free (Bareiss) on their lower
    triangle: pivot k is the (k+1)-th leading principal minor of the rows,
    and every division is exact.
    """
    n = len(rows)
    if any(len(row) != n or any(row[j] != rows[j][i] for j in range(i)) for i, row in enumerate(rows)):
        raise ValueError("LDL requires a symmetric matrix")
    work = [list(row[: i + 1]) for i, row in enumerate(rows)]
    factors = []
    prev = 1
    for k in range(n):
        p = work[k][k]
        if p <= 0:
            raise NotPositiveDefiniteError("matrix is not positive definite")
        col = tuple(work[i][k] for i in range(k + 1, n))
        for i, a in enumerate(col, start=k + 1):
            work[i][k + 1:] = [(p * x - a * y) // prev for x, y in zip(work[i][k + 1:], col)]
        factors.append((p, prev, col))
        prev = p
    return tuple(factors)
