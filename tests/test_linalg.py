"""Exact linear algebra: determinants, rank, solving, nullspaces, LDL."""

import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from tamewall import kernels, linalg
from tamewall.enumeration import arithmetic_minimum
from tamewall.forms import (
    QuadraticForm,
    big_simplex_dual_vectors,
    dn_neighbor_form,
    tf_form,
    value_row,
    wall_interior_form,
)

from rowmath import add, form, identity, matmul, matvec, over, scaled, transpose
from test_kernels import cofactor_det, small_matrix


# -- oracle: the Fraction Gauss-Jordan that the integer elimination replaced --

def fraction_echelon(rows):
    """In-place Gauss-Jordan over Fractions to the RREF; returns the pivots."""
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, nrows) if rows[i][c] != 0), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return pivots


def _fraction_rows(matrix):
    return [[F(x) for x in row] for row in matrix]


def _oracle_nullspace(rref, pivots, ncols):
    basis = []
    for free in range(ncols):
        if free in pivots:
            continue
        vec = [F(0)] * ncols
        vec[free] = F(1)
        for r, c in enumerate(pivots):
            vec[c] = -rref[r][free]
        basis.append(tuple(vec))
    return tuple(basis)


def fraction_rank(matrix):
    return len(fraction_echelon(_fraction_rows(matrix)))


def fraction_nullspace(matrix):
    rows = _fraction_rows(matrix)
    return _oracle_nullspace(rows, fraction_echelon(rows), len(matrix[0]))


def fraction_solve(matrix, rhs):
    aug = [row + [F(b)] for row, b in zip(_fraction_rows(matrix), rhs)]
    pivots = fraction_echelon(aug)
    ncols = len(matrix[0])
    if ncols in pivots:
        return linalg.LinearSystemSolution("inconsistent", None, ())
    particular = [F(0)] * ncols
    for r, c in enumerate(pivots):
        particular[c] = aug[r][ncols]
    basis = _oracle_nullspace(aug, pivots, ncols)
    return linalg.LinearSystemSolution("unique" if not basis else "affine", tuple(particular), basis)


def fraction_inverse(matrix):
    """The inverse as Fraction rows, or None when singular."""
    n = len(matrix)
    aug = [row + [F(int(i == j)) for j in range(n)] for i, row in enumerate(_fraction_rows(matrix))]
    if fraction_echelon(aug) != list(range(n)):
        return None
    return tuple(tuple(row[n:]) for row in aug)


# -- oracle: the integer echelon with a full integer RREF that the
# -- back-substitution of only the returned vectors replaced, and the
# -- Fraction LDL that the fraction-free one replaced --

def _rref_eliminate(row, pivot_row, c):
    """Primitive integer combination of row and pivot_row that is 0 in column c."""
    p, a = pivot_row[c], row[c]
    g = math.gcd(p, a)
    out = [p // g * x - a // g * y for x, y in zip(row, pivot_row)]
    h = math.gcd(*out)
    return [x // h for x in out] if h > 1 else out


def rref_echelon(rows):
    """(pivots, rref): the reduced row echelon form, one Fraction row per pivot."""
    work = [linalg.primitive_row(row) for row in rows]
    nrows, ncols = len(work), len(work[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, nrows) if work[i][c]), None)
        if pr is None:
            continue
        work[r], work[pr] = work[pr], work[r]
        for i in range(r + 1, nrows):
            if work[i][c]:
                work[i] = _rref_eliminate(work[i], work[r], c)
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    work = work[:r]
    for k in range(len(pivots) - 1, 0, -1):
        for j in range(k):
            if work[j][pivots[k]]:
                work[j] = _rref_eliminate(work[j], work[k], pivots[k])
    return pivots, [[F(x, row[c]) for x in row] for row, c in zip(work, pivots)]


def rref_nullspace(matrix):
    pivots, rref = rref_echelon(matrix)
    return _oracle_nullspace(rref, pivots, len(matrix[0]))


def rref_solve(matrix, rhs):
    pivots, rref = rref_echelon([list(row) + [F(b)] for row, b in zip(matrix, rhs)])
    ncols = len(matrix[0])
    if ncols in pivots:
        return linalg.LinearSystemSolution("inconsistent", None, ())
    particular = [F(0)] * ncols
    for r, c in enumerate(pivots):
        particular[c] = rref[r][ncols]
    basis = _oracle_nullspace(rref, pivots, ncols)
    return linalg.LinearSystemSolution("unique" if not basis else "affine", tuple(particular), basis)


def rref_inverse(matrix):
    """The inverse as Fraction rows, or None when singular."""
    n = len(matrix)
    aug = [list(row) + [F(int(i == j)) for j in range(n)] for i, row in enumerate(matrix)]
    pivots, rref = rref_echelon(aug)
    if pivots != list(range(n)):
        return None
    return tuple(tuple(row[n:]) for row in rref)


def fraction_ldl(matrix):
    """(L, D) by the Fraction recurrences, or None at the first
    nonpositive pivot."""
    n = len(matrix)
    L = [[F(0)] * n for _ in range(n)]
    D = [F(0)] * n
    for j in range(n):
        d = matrix[j][j] - sum(L[j][k] * L[j][k] * D[k] for k in range(j))
        if d <= 0:
            return None
        D[j] = d
        L[j][j] = F(1)
        for i in range(j + 1, n):
            L[i][j] = (matrix[i][j] - sum(L[i][k] * L[j][k] * D[k] for k in range(j))) / d
    return [tuple(row) for row in L], D


def ldl_matrices(factors, den=1):
    """(L, D) as Fractions from linalg.ldl's integer data, for the matrix
    of the factored integer rows over den."""
    n = len(factors)
    L = [[F(int(i == j)) for j in range(n)] for i in range(n)]
    D = []
    for k, (p, prev, col) in enumerate(factors):
        D.append(F(p, prev * den))
        for i, x in enumerate(col, start=k + 1):
            L[i][k] = F(x, p)
    return [tuple(row) for row in L], D


rationals = st.builds(F, st.integers(min_value=-6, max_value=6), st.integers(min_value=1, max_value=4))


@st.composite
def rational_matrices(draw, square=False):
    """Rational matrices of every shape up to 5x6, often rank-deficient:
    the rows are random combinations of at most `rank` random rows."""
    nrows = draw(st.integers(min_value=1, max_value=5))
    ncols = nrows if square else draw(st.integers(min_value=1, max_value=6))
    rank = draw(st.integers(min_value=0, max_value=min(nrows, ncols)))
    base = draw(st.lists(st.lists(rationals, min_size=ncols, max_size=ncols), min_size=rank, max_size=rank))
    if rank == min(nrows, ncols):
        rows = draw(st.lists(st.lists(rationals, min_size=ncols, max_size=ncols), min_size=nrows, max_size=nrows))
    else:
        coeffs = draw(st.lists(
            st.lists(st.integers(min_value=-3, max_value=3), min_size=rank, max_size=rank),
            min_size=nrows, max_size=nrows,
        ))
        rows = [[sum((k * b[j] for k, b in zip(cs, base)), F(0)) for j in range(ncols)] for cs in coeffs]
    return tuple(map(tuple, rows))


@settings(max_examples=200, deadline=None)
@given(rational_matrices())
def test_rank_and_nullspace_match_fraction_oracle(m):
    assert linalg.rank(m) == fraction_rank(m)
    assert linalg.nullspace(m) == fraction_nullspace(m) == rref_nullspace(m)


@settings(max_examples=200, deadline=None)
@given(rational_matrices(), st.lists(rationals, min_size=6, max_size=6))
def test_solve_matches_fraction_oracle(m, values):
    # an arbitrary (usually inconsistent) and a consistent right-hand side
    for rhs in (values[: len(m)], matvec(m, values[: len(m[0])])):
        assert linalg.solve(m, rhs) == fraction_solve(m, rhs) == rref_solve(m, rhs)


@settings(max_examples=200, deadline=None)
@given(rational_matrices(square=True))
def test_inverse_matches_fraction_oracle(m):
    expected = fraction_inverse(m)
    assert rref_inverse(m) == expected
    if expected is None:
        with pytest.raises(ValueError):
            linalg.inverse(m)
    else:
        rows, d = linalg.inverse(m)
        assert d > 0 and all(type(x) is int for row in rows for x in row)
        assert over(rows, d) == expected


@st.composite
def integer_rows(draw):
    """Integer rows up to 6x7 as plain lists, often rank-deficient."""
    m = draw(rational_matrices())
    return [[(x * 12).numerator for x in row] for row in m]


@settings(max_examples=200, deadline=None)
@given(integer_rows(), st.lists(st.integers(min_value=-5, max_value=5), min_size=6, max_size=6))
def test_integer_rows_match_rational_matrix_rows(rows, values):
    # rank, nullspace and solve on plain int rows give what the same rows
    # give as Fractions, and what the Fraction oracle gives
    m = [[F(x) for x in row] for row in rows]
    assert linalg.rank(rows) == linalg.rank(m) == fraction_rank(m)
    assert linalg.nullspace(rows) == linalg.nullspace(m) == fraction_nullspace(m)
    ncols = len(rows[0])
    consistent = [sum(a * b for a, b in zip(row, values)) for row in rows]
    for rhs in (values[: len(rows)], consistent):
        assert linalg.solve(rows, rhs) == linalg.solve(m, rhs) == fraction_solve(m, rhs)
        if rhs is consistent:
            sol = linalg.solve(rows, rhs)
            assert sol.kind != "inconsistent"
            assert ncols - len(sol.nullspace) == linalg.rank(rows)


@pytest.mark.parametrize(
    "f",
    [pytest.param(tf_form(n), id=f"tf{n}") for n in range(5, 10)]
    + [pytest.param(dn_neighbor_form(n), id=f"dn{n}") for n in range(5, 10)],
)
def test_unit_norm_systems_on_integer_rows_match_fraction_oracle(f):
    rows = [value_row(v) for v in arithmetic_minimum(f).vectors]
    assert all(type(x) is int for row in rows for x in row)
    ones = [1] * len(rows)
    sol = linalg.solve(rows, ones)
    assert sol == fraction_solve(rows, ones)
    assert len(rows[0]) - len(sol.nullspace) == fraction_rank(rows)


def test_plain_rows_must_be_nonempty_and_rectangular():
    for rows in ([], [[]], [[1, 2], [3]]):
        with pytest.raises(ValueError):
            linalg.rank(rows)


@pytest.mark.parametrize("n", range(5, 11))
def test_sym_rank_and_nullspace_match_fraction_oracle_on_dual_images(n):
    m = [value_row(u) for u in big_simplex_dual_vectors(n)]
    assert linalg.rank(m) == fraction_rank(m)
    assert linalg.nullspace(m) == fraction_nullspace(m)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.fractions(max_denominator=12), min_size=1, max_size=6))
def test_primitive_row_is_the_primitive_integer_multiple(row):
    out = linalg.primitive_row(row)
    assert all(type(x) is int for x in out)
    if not any(row):
        assert out == [0] * len(row)
        return
    # on the same ray, sign kept, and primitive
    c = next(F(a, x) for a, x in zip(out, row) if x)
    assert c > 0 and [c * x for x in row] == out
    assert math.gcd(*out) == 1


# The determinants left in the package: kernels.det_int on integer rows and
# QuadraticForm.determinant on a symmetric rational matrix.

def test_det_identity():
    assert kernels.det_int(identity(3)) == 1
    assert QuadraticForm.identity(3).determinant() == 1


def test_det_big_simplex_columns():
    cols = [
        [1, 0, 0, 0, 0, 1],
        [0, 1, 0, 0, 0, 1],
        [0, 0, 1, 0, 0, 1],
        [0, 0, 0, 1, 0, 1],
        [0, 0, 0, 0, 1, 1],
        [0, 0, 0, 0, 0, -3],
    ]
    assert kernels.det_int(cols) == -3


def test_det_equal_columns_is_zero():
    assert kernels.det_int([[1, 1, 2], [3, 3, 5], [7, 7, 11]]) == 0


def test_det_rational_entries():
    f = form([[F(1, 2), F(1, 3)], [F(1, 3), F(1, 7)]])
    assert f.determinant() == F(1, 14) - F(1, 9)


def test_det_requires_square():
    with pytest.raises(ValueError):
        QuadraticForm([[0, 0, 0], [0, 0, 0]], 1)
    with pytest.raises(ValueError):
        linalg.inverse([[0, 0, 0], [0, 0, 0]])


@settings(max_examples=150, deadline=None)
@given(small_matrix)
def test_det_agrees_with_cofactor_oracle(rows):
    assert kernels.det_int(rows) == cofactor_det(rows)
    sym = add(rows, transpose(rows))
    assert QuadraticForm(sym, 2).determinant() == F(cofactor_det(sym), 2 ** len(rows))


def test_rank_zero_matrix():
    assert linalg.rank([[0] * 5 for _ in range(3)]) == 0


def test_rank_identity():
    assert linalg.rank(identity(7)) == 7


def test_rank_of_dual_image_matrix():
    rows = [value_row(u) for u in big_simplex_dual_vectors(6)]
    assert (len(rows), len(rows[0])) == (20, 21)
    assert linalg.rank(rows) == 20
    assert linalg.rank(transpose(rows)) == 20


@settings(max_examples=150, deadline=None)
@given(
    st.integers(min_value=1, max_value=4).flatmap(
        lambda c: st.lists(
            st.lists(st.integers(min_value=-6, max_value=6), min_size=c, max_size=c),
            min_size=1,
            max_size=5,
        )
    )
)
def test_rank_nullity(rows):
    assert linalg.rank(rows) + len(linalg.nullspace(rows)) == len(rows[0])


def test_solve_identity():
    sol = linalg.solve(identity(3), [3, F(1, 2), -5])
    assert sol.kind == "unique"
    assert sol.particular == (3, F(1, 2), -5)


def test_solve_affine():
    sol = linalg.solve([[1, 1]], [1])
    assert sol.kind == "affine"
    assert len(sol.nullspace) == 1


def test_solve_inconsistent():
    sol = linalg.solve([[0]], [1])
    assert sol.kind == "inconsistent"


@settings(max_examples=150, deadline=None)
@given(
    st.integers(min_value=1, max_value=4).flatmap(
        lambda c: st.tuples(
            st.lists(
                st.lists(st.integers(min_value=-5, max_value=5), min_size=c, max_size=c),
                min_size=1,
                max_size=4,
            ),
            st.lists(st.integers(min_value=-5, max_value=5), min_size=c, max_size=c),
        )
    )
)
def test_solve_witness_substitutes_exactly(data):
    rows, x = data
    b = matvec(rows, x)
    sol = linalg.solve(rows, b)
    assert sol.kind in ("unique", "affine")
    assert matvec(rows, sol.particular) == b
    for basis_vec in sol.nullspace:
        assert all(v == 0 for v in matvec(rows, basis_vec))


def test_nullspace_identity_trivial():
    assert linalg.nullspace(identity(4)) == ()


def test_nullspace_row():
    basis = linalg.nullspace([[1, 1]])
    assert len(basis) == 1
    x, y = basis[0]
    assert x + y == 0 and (x, y) != (0, 0)


def test_nullspace_of_dual_images_is_one_dimensional():
    rows = [value_row(u) for u in big_simplex_dual_vectors(6)]
    basis = linalg.nullspace(rows)
    assert len(basis) == 1


def test_inverse_roundtrip():
    m = ((2, 1), (1, 2))
    rows, d = linalg.inverse(m)
    assert matmul(m, rows) == scaled(identity(2), d)
    with pytest.raises(ValueError):
        linalg.inverse([[1, 1], [1, 1]])


# Positive definiteness is decided by the form's one factorization.

def test_pd_rejects_indefinite():
    assert not QuadraticForm([[1, 0], [0, -1]], 1).is_positive_definite


def test_ldl_raises_typed_error_on_indefinite():
    with pytest.raises(linalg.NotPositiveDefiniteError):
        linalg.ldl([[1, 2], [2, 1]])


def test_pd_decides_by_error_type_not_message(monkeypatch):
    # A ValueError that merely mentions positive definiteness is not a
    # "no" answer; it must propagate.
    def broken_ldl(rows):
        raise ValueError("internal failure while testing positive definite input")

    monkeypatch.setattr(linalg, "ldl", broken_ldl)
    with pytest.raises(ValueError, match="internal failure"):
        QuadraticForm.identity(2).is_positive_definite


def test_pd_tf6_and_wall_form():
    assert tf_form(6).is_positive_definite
    assert wall_interior_form(5).is_positive_definite


def test_pd_requires_symmetric():
    with pytest.raises(ValueError):
        QuadraticForm([[1, 2], [0, 1]], 1)
    with pytest.raises(ValueError):
        linalg.ldl([[1, 2], [0, 1]])


def _leading_minors_positive(matrix):
    """Independent Sylvester oracle via determinants of leading blocks."""
    n = len(matrix)
    return all(cofactor_det([row[:k] for row in matrix[:k]]) > 0 for k in range(1, n + 1))


@pytest.mark.parametrize(
    "matrix",
    [
        identity(3),
        ((1, 0), (0, -1)),
        tf_form(5).gram,
        tf_form(6).gram,
        wall_interior_form(5).gram,
        ((0, 0), (0, 0)),
        ((2, 3), (3, 2)),
    ],
)
def test_pd_agrees_with_leading_minor_oracle(matrix):
    assert form(matrix).is_positive_definite == _leading_minors_positive(matrix)


@settings(max_examples=150, deadline=None)
@given(
    st.integers(min_value=1, max_value=4).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(min_value=-3, max_value=3), min_size=n, max_size=n),
            min_size=n,
            max_size=n,
        )
    )
)
def test_ldl_reconstructs(rows):
    n = len(rows)
    # Build a PD matrix as B^T B + I.
    gram = add(matmul(transpose(rows), rows), identity(n))
    L, D = ldl_matrices(linalg.ldl(gram))
    recon = [
        [sum(L[i][k] * D[k] * L[j][k] for k in range(n)) for j in range(n)]
        for i in range(n)
    ]
    assert tuple(map(tuple, recon)) == gram
    assert all(d > 0 for d in D)


@st.composite
def symmetric_matrices(draw):
    """Symmetric rational matrices up to 5x5: B^T B + s I for a rational
    shift s (positive definite, singular or indefinite), or B + B^T."""
    b = draw(rational_matrices(square=True))
    if draw(st.booleans()):
        return add(matmul(transpose(b), b), scaled(identity(len(b)), draw(rationals)))
    return add(b, transpose(b))


@settings(max_examples=300, deadline=None)
@given(symmetric_matrices())
def test_ldl_and_pd_verdict_match_fraction_oracle(m):
    expected = fraction_ldl(m)
    rows, den = linalg.cleared(m)
    if expected is None:
        with pytest.raises(linalg.NotPositiveDefiniteError):
            linalg.ldl(rows)
        with pytest.raises(linalg.NotPositiveDefiniteError):
            form(m).ldl()
    else:
        factors = linalg.ldl(rows)
        assert ldl_matrices(factors, den) == expected
        assert ldl_matrices(form(m).ldl(), form(m).den) == expected
        # the pivots are the leading principal minors of the integer rows
        minors = [cofactor_det([row[:k] for row in rows[:k]]) for k in range(1, len(rows) + 1)]
        assert [(p, prev) for p, prev, _ in factors] == list(zip(minors, [1] + minors))
    assert form(m).is_positive_definite == (expected is not None)
