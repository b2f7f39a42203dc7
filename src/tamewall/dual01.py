"""(0,1)-dual systems of integer vector sets and the simplex certificate.

The dual of S is every integer vector whose product with each element of
S lies in {0, 1}.  It is finite exactly when S spans rationally; the
computation picks a rank-n subset, solves the 2^n exact systems for all
{0,1} right-hand sides over it, and filters against all of S.  The
systems are solved in integers: with B the subset as rows and A = D B^-1
an integer matrix, the solution for r is A r / D, and walking r through
{0,1}^n in Gray-code order changes A r by one column of A per step.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm

from . import linalg
from .forms import sym_dimension, value_row
from .linalg import RationalMatrix
from .vecset import canonical_set, dot, is_zero


class DualInfiniteError(ValueError):
    """The set does not span rationally, so its (0,1)-dual is infinite."""


@dataclass(frozen=True)
class DualSystemReport:
    source: tuple
    dual: tuple
    double_dual: tuple | None
    image_rank: int
    codimension: int


@dataclass(frozen=True)
class SimplexDualCertificate:
    """Facts feeding the dual-system Delaunay criterion for a simplex.

    The verdict only asserts what the dual systems support (an N- or
    (N-1)-dimensional cone of forms); Delaunay-ness of a concrete cell
    for a concrete form is always certified separately by the exact
    emptiness check.
    """

    source: tuple
    dual: tuple | None
    double_dual: tuple | None
    excess: tuple | None
    codimension: int | None
    dual_infinite: bool
    cone_claim: bool
    cone_dimension: str | None


def _independent_subset(vectors, n):
    """Greedy rank-n subset; None if the set does not span."""
    chosen = []
    rows = []
    for v in vectors:
        if is_zero(v):
            continue
        candidate = rows + [v]
        if len(linalg._echelon(candidate)[0]) == len(candidate):
            rows = candidate
            chosen.append(tuple(v))
            if len(chosen) == n:
                return chosen
    return None


def dual01(vectors, basis_choice=None):
    """Complete finite (0,1)-dual of a rationally spanning set.

    basis_choice optionally forces the rank-n subset used for the 2^n
    enumeration (the result is independent of it; tests rely on that).
    """
    vectors = canonical_set(vectors)
    if not vectors:
        raise DualInfiniteError("empty set has infinite dual")
    n = len(vectors[0])
    basis = tuple(basis_choice) if basis_choice is not None else None
    if basis is None:
        basis = _independent_subset(vectors, n)
        if basis is None:
            raise DualInfiniteError(
                "dual infinite: the set does not span the space over the rationals"
            )
    inv = linalg.inverse(RationalMatrix(basis))
    # D is the least common denominator of B^-1 (a divisor of det B), so
    # the columns of A = D B^-1 are integer vectors.
    den = lcm(*(x.denominator for row in inv.rows() for x in row))
    columns = [[int(x * den) for x in col] for col in zip(*inv.rows())]
    acc = [0] * n  # A r for the current r
    rhs = [0] * n
    out = [tuple(acc)]
    for step in range(1, 2**n):
        j = (step & -step).bit_length() - 1  # the bit that flips
        rhs[j] ^= 1
        col = columns[j]
        if rhs[j]:
            acc = [a + c for a, c in zip(acc, col)]
        else:
            acc = [a - c for a, c in zip(acc, col)]
        if any(a % den for a in acc):
            continue
        cand = tuple(a // den for a in acc)
        if all(dot(cand, v) in (0, 1) for v in vectors):
            out.append(cand)
    return canonical_set(out)


def double_dual01(vectors):
    return dual01(dual01(vectors))


def image_rank(vectors):
    """Rank of the rank-1 images of the nonzero vectors inside Sym(n)."""
    nz = [v for v in vectors if not is_zero(v)]
    if not nz:
        return 0
    return linalg.rank(RationalMatrix([value_row(v) for v in nz]))


def delaunay_cone_report(vectors) -> DualSystemReport:
    """Dual, rank of its images, and the codimension of the spanned cone."""
    source = canonical_set(vectors)
    dual = dual01(source)
    rk = image_rank(dual)
    n = len(source[0])
    codim = sym_dimension(n) - rk
    dd = dual01(dual) if _independent_subset(dual, n) else None
    return DualSystemReport(source, dual, dd, rk, codim)


def _is_integral_simplex(vectors):
    """n+1 affinely independent integer points."""
    pts = canonical_set(vectors)
    if not pts:
        return False
    n = len(pts[0])
    if len(pts) != n + 1:
        return False
    base = pts[0]
    rows = [[p[i] - base[i] for i in range(n)] for p in pts[1:]]
    return linalg.rank(RationalMatrix(rows)) == n


def erdahl_ryshkov_certificate(vectors) -> SimplexDualCertificate:
    """Dual-system facts for a full-dimensional integral simplex.

    Reports the double dual and its excess over the input, plus the
    codimension of the dual image cone.  cone_claim is the dual-system
    criterion (at most one excess point and codimension <= 1); the final
    Delaunay verdict for any concrete form comes from the emptiness
    check, never from here.
    """
    source = canonical_set(vectors)
    if not _is_integral_simplex(source):
        raise ValueError("input must be the vertex set of a full-dimensional integral simplex")
    n = len(source[0])
    dual = dual01(source)
    if _independent_subset(dual, n) is None:
        return SimplexDualCertificate(
            source, dual, None, None, None, True, False, None
        )
    dd = dual01(dual)
    excess = tuple(sorted(set(dd) - set(source)))
    rk = image_rank(dual)
    codim = sym_dimension(n) - rk
    claim = len(excess) <= 1 and codim in (0, 1)
    dim_label = None
    if claim:
        dim_label = "N" if codim == 0 else "N-1"
    return SimplexDualCertificate(source, dual, dd, excess, codim, False, claim, dim_label)
