"""Quadratic forms with exact rational Gram matrices.

A symmetric rational matrix is held as integer rows over one positive
denominator; a form reduces that pair so it is canonical.  The module
holds the form data type, the closed-form constructors for the wall-adjacent
perfect form family and its D_n-side neighbor, the interior form of the wall
cone, standard root-lattice fixtures, the value rows of integer vectors in
Sym(n) coordinates, form recovery from norm conditions, and the shared form
text format.

Sym(n) is handled in coordinates (diagonal entries first, then the i<j
pairs).  The value row of an integer vector v is an integer row, and the
value of any symmetric G at v is that row dotted with G's coordinates, so
rank, nullspace and recovery problems on value rows eliminate over the
integers directly.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import comb, gcd
from operator import mul

from . import kernels, linalg
from .linalg import LinearSystemSolution, _frac
from .vecset import dot


class FormParseError(ValueError):
    """Malformed form text; carries a 1-based line number."""

    def __init__(self, line, message):
        super().__init__(f"line {line}: {message}")
        self.line = line


class QuadraticForm:
    """The form of the symmetric rational Gram matrix G = int_gram / den,
    given as integer rows over a positive integer den; the value at a
    vector v is v.G.v, an integer sum divided once.  The pair is reduced
    so that den and the entries have no common factor, which makes
    (int_gram, den) canonical.  G is factored as L D L^T at most once, on
    first use, in integers (`ldl`)."""

    __slots__ = ("n", "den", "int_gram", "_ldl")

    def __init__(self, int_gram, den):
        rows = tuple(map(tuple, int_gram))
        n = len(rows)
        square = n and all(len(row) == n for row in rows)
        if not square or any(rows[i][j] != rows[j][i] for i in range(n) for j in range(i)):
            raise ValueError("a quadratic form needs a symmetric Gram matrix")
        if den < 1:
            raise ValueError("the denominator must be positive")
        g = gcd(den, *(x for row in rows for x in row))  # TypeError unless all are ints
        if g > 1:
            rows = tuple(tuple(x // g for x in row) for row in rows)
            den //= g
        self.n = n
        self.int_gram = rows
        self.den = den
        self._ldl = None  # the LDL data once factored, False if G is not positive definite

    @classmethod
    def identity(cls, n):
        return cls([[int(i == j) for j in range(n)] for i in range(n)], 1)

    @property
    def gram(self):
        """G as rows of Fractions, a read-only view for output."""
        return tuple(tuple(Fraction(x, self.den) for x in row) for row in self.int_gram)

    def _cleared(self, v):
        """(x, d): the vector v as the integer vector x over the integer d."""
        if len(v) != self.n:
            raise ValueError("vector dimension mismatch")
        (x,), d = linalg.cleared([v])
        return x, d

    def int_image(self, v):
        """(w, s): G.v as the integer vector w over the integer scale s."""
        x, d = self._cleared(v)
        return [sum(map(mul, row, x)) for row in self.int_gram], self.den * d

    def evaluate(self, v) -> Fraction:
        x, d = self._cleared(v)
        total = sum(xi * sum(map(mul, row, x)) for xi, row in zip(x, self.int_gram) if xi)
        return Fraction(total, self.den * d * d)

    def inner(self, u, v) -> Fraction:
        """Polarized value u.G.v"""
        w, s = self.int_image(v)
        y, d = self._cleared(u)
        return Fraction(dot(y, w), s * d)

    def ldl(self):
        """The integer LDL^T data of linalg.ldl for int_gram, computed once
        per form (G = int_gram / den has the same L and each D[k] over
        den); raises NotPositiveDefiniteError when G is not positive
        definite."""
        if self._ldl is None:
            try:
                self._ldl = linalg.ldl(self.int_gram)
            except linalg.NotPositiveDefiniteError:
                self._ldl = False
        if self._ldl is False:
            raise linalg.NotPositiveDefiniteError("matrix is not positive definite")
        return self._ldl

    @property
    def is_positive_definite(self):
        try:
            self.ldl()
        except linalg.NotPositiveDefiniteError:
            return False
        return True

    def determinant(self) -> Fraction:
        return Fraction(kernels.det_int(self.int_gram), self.den**self.n)

    def __eq__(self, other):
        return isinstance(other, QuadraticForm) and self.den == other.den and self.int_gram == other.int_gram

    def __hash__(self):
        return hash((self.den, self.int_gram))

    def __repr__(self):
        return f"QuadraticForm({self.int_gram!r}, {self.den})"


def shifted(f: QuadraticForm, c, rows) -> QuadraticForm:
    """The form with Gram G + c M, for a rational c = a / b and M given by
    integer symmetric rows: (b int_gram + a den M) / (b den), in integers."""
    c = _frac(c)
    a, b = c.numerator, c.denominator
    return QuadraticForm(
        [[b * x + a * f.den * y for x, y in zip(rg, rm)] for rg, rm in zip(f.int_gram, rows)],
        b * f.den,
    )


def pairing(a, b):
    """Full Frobenius pairing sum_{i,j} a_ij b_ij of two symmetric matrices
    given as rows."""
    if len(a) != len(b):
        raise ValueError("dimension mismatch")
    return sum(x * y for ra, rb in zip(a, b) for x, y in zip(ra, rb))


# -- coordinates on Sym(n): diagonal entries first, then i<j pairs -----------

def sym_dimension(n):
    return n * (n + 1) // 2


def coords_to_sym(coords, n):
    """The symmetric matrix with Sym(n) coordinates coords, as rows."""
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = coords[i]
    k = n
    for i in range(n):
        for j in range(i + 1, n):
            rows[i][j] = rows[j][i] = coords[k]
            k += 1
    return tuple(map(tuple, rows))


def value_row(v):
    """Integer row r with r . c = v.G.v for every symmetric G with
    coordinates c (the coords_to_sym order); v is an integer vector."""
    n = len(v)
    row = [v[i] * v[i] for i in range(n)]
    row += [2 * v[i] * v[j] for i in range(n) for j in range(i + 1, n)]
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
        d = 2 * (n - 2)
        rows = _bordered(n, d, n - 4, -(n * n - 6 * n + 10), (n * n - 7 * n + 14) * (n - 2))
    else:
        d = 2 * (n - 1)
        rows = _bordered(n, d, n - 3, -(n * n - 5 * n + 8), n**3 - 8 * n * n + 23 * n - 20)
    return QuadraticForm(rows, d)


def dn_neighbor_form(n: int) -> QuadraticForm:
    """The neighboring perfect form of D_n type across the wall (n >= 5).

    f_ii = 1 (i < n), f_nn = 1 + C(n-2, 2), f_ij = 1/2 in the leading
    block, last column -(n-2)/2.
    """
    if n < 5:
        raise ValueError("the construction needs n >= 5")
    return QuadraticForm(_bordered(n, 2, 1, -(n - 2), 2 + 2 * comb(n - 2, 2)), 2)


def _bordered(n, diag, off, last, corner):
    """Integer rows with diag on the diagonal and off elsewhere in the
    leading (n-1)-block, last in the rest of the last row and column, and
    corner in the last diagonal entry."""
    rows = [[diag if i == j else off for j in range(n - 1)] + [last] for i in range(n - 1)]
    rows.append([last] * (n - 1) + [corner])
    return rows


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
    return QuadraticForm(rows, 1)


def solve_form_from_unit_norms(vectors, m) -> LinearSystemSolution:
    """Affine set of symmetric matrices taking value m on every vector.

    The solution lives in the diag-then-offdiag coordinates of Sym(n);
    kind 'unique' certifies perfectness of the (PD) solution.
    """
    vectors = list(vectors)
    if not vectors:
        raise ValueError("need at least one vector")
    m = _frac(m)
    return linalg.solve([value_row(v) for v in vectors], [m] * len(vectors))


def form_from_solution(solution: LinearSystemSolution, n) -> QuadraticForm:
    if solution.kind != "unique":
        raise ValueError("solution is not unique")
    (coords,), d = linalg.cleared([solution.particular])
    return QuadraticForm(coords_to_sym(coords, n), d)


def dual_form(f: QuadraticForm) -> QuadraticForm:
    """Form whose Gram matrix is the inverse Gram matrix: G^-1 is den
    times the inverse of the integer rows."""
    rows, d = linalg.inverse(f.int_gram)
    return QuadraticForm([[f.den * x for x in row] for row in rows], d)


def scale(f: QuadraticForm, c) -> QuadraticForm:
    c = _frac(c)
    if c <= 0:
        raise ValueError("scale factor must be positive")
    return QuadraticForm([[c.numerator * x for x in row] for row in f.int_gram], c.denominator * f.den)


def standard_gram(name: str, n: int | None = None) -> QuadraticForm:
    """Standard root-lattice fixtures at minimum 2 (E6* at minimum 4/3)."""
    key = name.upper().replace("_", "").replace("N", "")
    if key == "A":
        if n is None or n < 1:
            raise ValueError("A_n needs n >= 1")
        rows = [[2 if i == j else 1 for j in range(n)] for i in range(n)]
        return QuadraticForm(rows, 1)
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
        return QuadraticForm(rows, 1)
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
        return QuadraticForm(cartan, 1)
    if key == "E6*":
        return dual_form(standard_gram("E6"))
    raise ValueError(f"unknown lattice name {name!r}")


# -- shared text format -------------------------------------------------------

def format_form(f: QuadraticForm) -> str:
    def fmt(x: Fraction):
        return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"

    lines = [str(f.n)]
    for row in f.gram:
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
    if any(rows[i][j] != rows[j][i] for i in range(n) for j in range(i)):
        raise FormParseError(2, "matrix must be symmetric")
    return QuadraticForm(*linalg.cleared(rows))
