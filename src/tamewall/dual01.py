"""(0,1)-dual systems of integer vector sets and the simplex certificate.

The dual of S is every integer vector whose product with each element of
S lies in {0, 1}.  It is finite exactly when S spans rationally, and it
is the lattice points of one ellipsoid: with Q = sum_{v in S} v v^T and
Q c = (sum_{v in S} v) / 2, every integer u satisfies

    sum_v (v.u - 1/2)^2 = (u - c)^T Q (u - c) - c^T Q c + |S| / 4,

and each term on the left is at least 1/4, with equality exactly when
v.u is 0 or 1.  So the dual is {u : (u - c)^T Q (u - c) <= c^T Q c}, all
of it on the boundary, and the shared exact enumerator finds it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .enumeration import first_interior_point
from .errors import InvariantError
from .forms import QuadraticForm, sym_dimension, value_row
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


def dual01(vectors):
    """Complete finite (0,1)-dual of a rationally spanning set."""
    vectors = canonical_set(vectors)
    if not vectors:
        raise DualInfiniteError("empty set has infinite dual")
    cols = list(zip(*vectors, strict=True))
    gram = RationalMatrix([[dot(a, b) for b in cols] for a in cols])
    half_sum = [Fraction(sum(col), 2) for col in cols]
    centre = linalg.solve(gram, half_sum)
    if not centre.is_unique:
        raise DualInfiniteError(
            "dual infinite: the set does not span the space over the rationals"
        )
    c = centre.particular
    inside, boundary = first_interior_point(QuadraticForm(gram), c, dot(c, half_sum))
    if inside is not None:
        raise InvariantError(f"{inside} lies strictly inside the dual ellipsoid")
    return canonical_set(boundary)


def double_dual01(vectors):
    return dual01(dual01(vectors))


def image_rank(vectors):
    """Rank of the rank-1 images of the nonzero vectors inside Sym(n)."""
    nz = [v for v in vectors if not is_zero(v)]
    if not nz:
        return 0
    return linalg.rank([value_row(v) for v in nz])


def delaunay_cone_report(vectors) -> DualSystemReport:
    """Dual, rank of its images, the codimension of the spanned cone, and
    the double dual (None when the dual does not span)."""
    source = canonical_set(vectors)
    dual = dual01(source)
    rk = image_rank(dual)
    n = len(source[0])
    codim = sym_dimension(n) - rk
    try:
        dd = dual01(dual)
    except DualInfiniteError:
        dd = None
    return DualSystemReport(source, dual, dd, rk, codim)


def _is_integral_simplex(vectors):
    """n+1 affinely independent integer points."""
    pts = canonical_set(vectors)
    if not pts:
        return False
    n = len(pts[0])
    if len(pts) != n + 1:
        return False
    return linalg.affine_rank(pts) == n


def erdahl_ryshkov_certificate(vectors) -> SimplexDualCertificate:
    """Dual-system facts for a full-dimensional integral simplex.

    Reports the double dual and its excess over the input, plus the
    codimension of the dual image cone.  cone_claim is the dual-system
    criterion (at most one excess point and codimension <= 1); the final
    Delaunay verdict for any concrete form comes from the emptiness
    check, never from here.
    """
    if not _is_integral_simplex(vectors):
        raise ValueError("input must be the vertex set of a full-dimensional integral simplex")
    rep = delaunay_cone_report(vectors)
    if rep.double_dual is None:
        return SimplexDualCertificate(
            rep.source, rep.dual, None, None, None, True, False, None
        )
    excess = tuple(sorted(set(rep.double_dual) - set(rep.source)))
    claim = len(excess) <= 1 and rep.codimension in (0, 1)
    dim_label = None
    if claim:
        dim_label = "N" if rep.codimension == 0 else "N-1"
    return SimplexDualCertificate(
        rep.source, rep.dual, rep.double_dual, excess, rep.codimension, False, claim, dim_label
    )
