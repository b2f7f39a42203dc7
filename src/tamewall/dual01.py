"""(0,1)-dual systems of integer vector sets.

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

from fractions import Fraction

from . import linalg
from .enumeration import first_interior_point
from .errors import InvariantError
from .forms import QuadraticForm
from .vecset import canonical_set, dot


class DualInfiniteError(ValueError):
    """The set does not span rationally, so its (0,1)-dual is infinite."""


def dual01(vectors):
    """Complete finite (0,1)-dual of a rationally spanning set."""
    vectors = canonical_set(vectors)
    if not vectors:
        raise DualInfiniteError("empty set has infinite dual")
    cols = list(zip(*vectors, strict=True))
    gram = [[dot(a, b) for b in cols] for a in cols]
    half_sum = [Fraction(sum(col), 2) for col in cols]
    centre = linalg.solve(gram, half_sum)
    if not centre.is_unique:
        raise DualInfiniteError(
            "dual infinite: the set does not span the space over the rationals"
        )
    c = centre.particular
    inside, boundary = first_interior_point(QuadraticForm(gram, 1), c, dot(c, half_sum))
    if inside is not None:
        raise InvariantError(f"{inside} lies strictly inside the dual ellipsoid")
    return canonical_set(boundary)


def double_dual01(vectors):
    return dual01(dual01(vectors))
