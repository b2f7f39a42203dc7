"""Quadratic forms over exact rationals.

Holds the form data type, the closed-form constructors for the wall-adjacent
perfect form family and its D_n-side neighbor, the interior form of the wall
cone, standard root-lattice fixtures, the rank-1 (Voronoi) map from integer
vectors into form space, form recovery from norm conditions, and the shared
form text format.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import comb

from . import linalg
from .linalg import LinearSystemSolution, RationalMatrix, _frac
from .vecset import dot


class FormParseError(ValueError):
    """Malformed form text; carries a 1-based line number."""

    def __init__(self, line, message):
        super().__init__(f"line {line}: {message}")
        self.line = line


class QuadraticForm:
    """Symmetric rational Gram matrix; value at an integer vector v is v.G.v"""

    __slots__ = ("gram", "n")

    def __init__(self, gram):
        if not isinstance(gram, RationalMatrix):
            gram = RationalMatrix(gram)
        if not gram.is_symmetric:
            raise ValueError("a quadratic form needs a symmetric Gram matrix")
        self.gram = gram
        self.n = gram.nrows

    @classmethod
    def identity(cls, n):
        return cls(RationalMatrix.identity(n))

    def evaluate(self, v) -> Fraction:
        if len(v) != self.n:
            raise ValueError("vector dimension mismatch")
        rows = self.gram.rows()
        total = Fraction(0)
        for i, vi in enumerate(v):
            if vi == 0:
                continue
            row = rows[i]
            total += vi * sum(row[j] * vj for j, vj in enumerate(v) if vj != 0)
        return total

    def inner(self, u, v) -> Fraction:
        """Polarized value u.G.v"""
        return dot(self.gram.matvec(v), u)

    @property
    def is_positive_definite(self):
        return linalg.is_positive_definite(self.gram)

    def determinant(self):
        return linalg.det(self.gram)

    def __eq__(self, other):
        return isinstance(other, QuadraticForm) and self.gram == other.gram

    def __hash__(self):
        return hash(self.gram)

    def __repr__(self):
        return f"QuadraticForm({self.gram!r})"


@dataclass(frozen=True)
class FormSpaceVector:
    """A symmetric matrix viewed as a point of Sym(n) with Frobenius pairing."""

    matrix: RationalMatrix

    def __post_init__(self):
        if not self.matrix.is_symmetric:
            raise ValueError("form-space vectors are symmetric matrices")

    @property
    def n(self):
        return self.matrix.nrows

    def pairing(self, other) -> Fraction:
        return pairing(self.matrix, other.matrix if isinstance(other, FormSpaceVector) else other)


def pairing(a, b) -> Fraction:
    """Full Frobenius pairing sum_{i,j} a_ij b_ij of two symmetric matrices."""
    a = a.gram if isinstance(a, QuadraticForm) else a
    b = b.gram if isinstance(b, QuadraticForm) else b
    if a.nrows != b.nrows:
        raise ValueError("dimension mismatch")
    return sum(
        x * y for ra, rb in zip(a.rows(), b.rows()) for x, y in zip(ra, rb)
    )


def voronoi_image(v) -> FormSpaceVector:
    """Rank-1 symmetric matrix v v^T attached to an integer vector."""
    return FormSpaceVector(RationalMatrix([[vi * vj for vj in v] for vi in v]))


# -- coordinates on Sym(n): diagonal entries first, then i<j pairs -----------

def sym_dimension(n):
    return n * (n + 1) // 2


def coords_to_sym(coords, n) -> RationalMatrix:
    rows = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = _frac(coords[i])
    k = n
    for i in range(n):
        for j in range(i + 1, n):
            rows[i][j] = rows[j][i] = _frac(coords[k])
            k += 1
    return RationalMatrix(rows)


def value_row(v):
    """Row r with r . c = v.G.v for every symmetric G with coordinates c
    (the coords_to_sym order)."""
    n = len(v)
    row = [Fraction(v[i] * v[i]) for i in range(n)]
    row += [Fraction(2 * v[i] * v[j]) for i in range(n) for j in range(i + 1, n)]
    return tuple(row)


# -- constructors -------------------------------------------------------------

def tf_form(n: int) -> QuadraticForm:
    """The wall-adjacent perfect form in n variables (n >= 5).

    Even n: a_ii = 1 (i<n), a_nn = n^2/2 - 7n/2 + 7, off-diagonal
    (n-4)/(2(n-2)) in the leading block, last column -(n^2-6n+10)/(2(n-2)).
    Odd n: a_nn = (n^3-8n^2+23n-20)/(2(n-1)), block off-diagonal
    (n-3)/(2(n-1)), last column -(n^2-5n+8)/(2(n-1)).
    """
    if n < 5:
        raise ValueError("the construction needs n >= 5")
    if n % 2 == 0:
        a_nn = Fraction(n * n, 2) - Fraction(7 * n, 2) + 7
        off = Fraction(n - 4, 2 * (n - 2))
        last = -Fraction(n * n - 6 * n + 10, 2 * (n - 2))
    else:
        a_nn = Fraction(n**3 - 8 * n * n + 23 * n - 20, 2 * (n - 1))
        off = Fraction(n - 3, 2 * (n - 1))
        last = -Fraction(n * n - 5 * n + 8, 2 * (n - 1))
    rows = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n - 1):
        rows[i][i] = Fraction(1)
        rows[i][n - 1] = rows[n - 1][i] = last
        for j in range(n - 1):
            if i != j:
                rows[i][j] = off
    rows[n - 1][n - 1] = a_nn
    return QuadraticForm(RationalMatrix(rows))


def dn_neighbor_form(n: int) -> QuadraticForm:
    """The neighboring perfect form of D_n type across the wall (n >= 5).

    f_ii = 1 (i < n), f_nn = 1 + C(n-2, 2), f_ij = 1/2 in the leading
    block, last column -(n-2)/2.
    """
    if n < 5:
        raise ValueError("the construction needs n >= 5")
    rows = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n - 1):
        rows[i][i] = Fraction(1)
        rows[i][n - 1] = rows[n - 1][i] = -Fraction(n - 2, 2)
        for j in range(n - 1):
            if i != j:
                rows[i][j] = Fraction(1, 2)
    rows[n - 1][n - 1] = Fraction(1 + comb(n - 2, 2))
    return QuadraticForm(RationalMatrix(rows))


def big_simplex_dual_vectors(n: int):
    """The nonzero (0,1)-dual vectors of the big-simplex vertex set.

    Three families: one 1 among the first n-1 coordinates with last 0;
    n-2 ones among the first n-1 with last 1; n-3 ones among the first
    n-1 with last 1.  Sorted canonical order.
    """
    if n < 5:
        raise ValueError("the construction needs n >= 5")
    vectors = []
    for i in range(n - 1):
        v = [0] * n
        v[i] = 1
        vectors.append(tuple(v))
    for zero_at in range(n - 1):
        v = [1] * n
        v[zero_at] = 0
        vectors.append(tuple(v))
    for za, zb in itertools.combinations(range(n - 1), 2):
        v = [1] * n
        v[za] = v[zb] = 0
        vectors.append(tuple(v))
    return tuple(sorted(vectors))


def wall_interior_form(n: int) -> QuadraticForm:
    """Sum of the rank-1 images of the dual vectors: a relative-interior
    point of the wall cone, hence a form whose Delaunay tiling contains
    the repartitioning complex."""
    if n < 5:
        raise ValueError("the construction needs n >= 5")
    rows = [[0] * n for _ in range(n)]
    for u in big_simplex_dual_vectors(n):
        for i in range(n):
            if u[i]:
                for j in range(n):
                    if u[j]:
                        rows[i][j] += u[i] * u[j]
    return QuadraticForm(RationalMatrix(rows))


def solve_form_from_unit_norms(vectors, m) -> LinearSystemSolution:
    """Affine set of symmetric matrices taking value m on every vector.

    The solution lives in the diag-then-offdiag coordinates of Sym(n);
    kind 'unique' certifies perfectness of the (PD) solution.
    """
    vectors = [tuple(v) for v in vectors]
    if not vectors:
        raise ValueError("need at least one vector")
    n = len(vectors[0])
    m = _frac(m)
    rows = [value_row(v) for v in vectors]
    matrix = RationalMatrix(rows)
    return linalg.solve(matrix, [m] * len(vectors))


def form_from_solution(solution: LinearSystemSolution, n) -> QuadraticForm:
    if solution.kind != "unique":
        raise ValueError("solution is not unique")
    return QuadraticForm(coords_to_sym(solution.particular, n))


def dual_form(f: QuadraticForm) -> QuadraticForm:
    """Form whose Gram matrix is the inverse Gram matrix."""
    return QuadraticForm(linalg.inverse(f.gram))


def scale(f: QuadraticForm, c) -> QuadraticForm:
    c = _frac(c)
    if c <= 0:
        raise ValueError("scale factor must be positive")
    return QuadraticForm(f.gram.scaled(c))


def standard_gram(name: str, n: int | None = None) -> QuadraticForm:
    """Standard root-lattice fixtures at minimum 2 (E6* at minimum 4/3)."""
    key = name.upper().replace("_", "").replace("N", "")
    if key == "A":
        if n is None or n < 1:
            raise ValueError("A_n needs n >= 1")
        rows = [[2 if i == j else 1 for j in range(n)] for i in range(n)]
        return QuadraticForm(RationalMatrix(rows))
    if key == "D":
        if n is None or n < 3:
            raise ValueError("D_n needs n >= 3")
        # Basis e1+e2, e2-e1, e3-e2, ..., en-e(n-1) of the even-sum lattice.
        basis = []
        v = [0] * n
        v[0] = v[1] = 1
        basis.append(list(v))
        for i in range(1, n):
            v = [0] * n
            v[i] = 1
            v[i - 1] = -1
            basis.append(v)
        rows = [[sum(a * b for a, b in zip(bi, bj)) for bj in basis] for bi in basis]
        return QuadraticForm(RationalMatrix(rows))
    if key == "E6":
        if n not in (None, 6):
            raise ValueError("E6 lives in dimension 6")
        cartan = [
            [2, 0, -1, 0, 0, 0],
            [0, 2, 0, -1, 0, 0],
            [-1, 0, 2, -1, 0, 0],
            [0, -1, -1, 2, -1, 0],
            [0, 0, 0, -1, 2, -1],
            [0, 0, 0, 0, -1, 2],
        ]
        return QuadraticForm(RationalMatrix(cartan))
    if key == "E6*":
        return dual_form(standard_gram("E6"))
    raise ValueError(f"unknown lattice name {name!r}")


# -- shared text format -------------------------------------------------------

def format_form(f: QuadraticForm) -> str:
    def fmt(x: Fraction):
        return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"

    lines = [str(f.n)]
    for row in f.gram.rows():
        lines.append(" ".join(fmt(x) for x in row))
    return "\n".join(lines) + "\n"


def parse_form(text: str) -> QuadraticForm:
    lines = text.splitlines()
    if not lines or not lines[0].strip():
        raise FormParseError(1, "missing dimension header")
    try:
        n = int(lines[0].strip())
    except ValueError:
        raise FormParseError(1, "dimension must be an integer") from None
    if n < 1:
        raise FormParseError(1, "dimension must be positive")
    body = [ln for ln in lines[1:] if ln.strip()]
    if len(body) != n:
        raise FormParseError(len(lines), f"expected {n} matrix rows, found {len(body)}")
    rows = []
    for idx, ln in enumerate(body, start=2):
        parts = ln.split()
        if len(parts) != n:
            raise FormParseError(idx, f"expected {n} entries, found {len(parts)}")
        row = []
        for col, p in enumerate(parts, start=1):
            try:
                row.append(Fraction(p))
            except (ValueError, ZeroDivisionError):
                raise FormParseError(idx, f"entry {col} is not a rational 'p/q'") from None
        rows.append(row)
    matrix = RationalMatrix(rows)
    if not matrix.is_symmetric:
        raise FormParseError(2, "matrix must be symmetric")
    return QuadraticForm(matrix)
