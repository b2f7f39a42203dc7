"""Exact enumeration of lattice vectors by norm.

Depth-first bounded coordinate enumeration driven by an exact rational
LDL^T factorization of the Gram matrix.  Interval endpoints are integers
obtained from exact rational square-root floors, so no floating point is
involved anywhere, including pruning.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

from . import linalg
from .forms import QuadraticForm
from .linalg import _frac
from .vecset import canonical_sign

# Enumeration is exact but exponential in principle; refuse silly sizes
# unless the caller insists.
MAX_DIMENSION = 16


@dataclass(frozen=True)
class MinimumReport:
    """Arithmetic minimum with the complete set of minimal vectors.

    vectors holds one representative per +-pair (first nonzero entry
    positive), duplicate-free and lexicographically sorted.
    """

    minimum: Fraction
    vectors: tuple
    pair_count: int
    total_count: int


@dataclass(frozen=True)
class EllipsoidPointReport:
    """Exact interior/boundary classification of lattice points in an
    ellipsoid f(x - c) <= r2."""

    interior: tuple
    boundary: tuple


def _guard_dimension(n, allow_large):
    if n > MAX_DIMENSION and not allow_large:
        raise ValueError(
            f"dimension {n} exceeds the default guard {MAX_DIMENSION}; "
            "pass allow_large=True to override"
        )


def _floor_sqrt(r: Fraction) -> int:
    """floor(sqrt(r)) for rational r >= 0."""
    return isqrt(r.numerator * r.denominator) // r.denominator


def _floor_frac(a: Fraction) -> int:
    return a.numerator // a.denominator


def _range_bounds(offset: Fraction, r: Fraction):
    """Integer interval {x : (x + offset)^2 <= r}, exact.

    Upper end is floor(-offset + sqrt(r)), lower is ceil(-offset - sqrt(r));
    both are found by a short exact descent from a provable overestimate.
    """
    if r < 0:
        return 1, 0
    s = _floor_sqrt(r)
    a = -offset
    hi = _floor_frac(a) + s + 1
    while True:
        d = hi + offset
        if d <= 0 or d * d <= r:
            break
        hi -= 1
    lo = -(_floor_frac(-a)) - s - 1
    while True:
        d = lo + offset
        if d >= 0 or d * d <= r:
            break
        lo += 1
    return lo, hi


# Returned by a visit callback to end the enumeration.
_STOP = object()


class _Enumerator:
    """Shared DFS over x_n..x_1 with exact partial-cost pruning."""

    def __init__(self, form: QuadraticForm, allow_large=False):
        _guard_dimension(form.n, allow_large)
        self.n = form.n
        self.L, self.D = linalg.ldl(form.gram)  # raises if not PD

    def run(self, center, bound, visit, half=False, shrink=False):
        """Visit every x with f(x - center) <= bound.

        visit(x_tuple, value) may return a new (smaller) bound when
        shrink=True, or _STOP to end the enumeration at once; half=True
        enumerates one representative per +-pair (valid only for
        center = 0).
        """
        n = self.n
        L = self.L
        c = [_frac(t) for t in center]
        x = [0] * n
        state = {"bound": _frac(bound)}

        def offset_at(i):
            # e_i = (x_i - c_i) + sum_{j>i} L[j][i] (x_j - c_j)
            off = -c[i]
            for j in range(i + 1, n):
                lji = L[j][i]
                if lji:
                    off += lji * (x[j] - c[j])
            return off

        def rec(i, cost):
            """Enumerate levels i..0; True once visit has asked to stop."""
            if i < 0:
                new_bound = visit(tuple(x), cost)
                if new_bound is _STOP:
                    return True
                if shrink and new_bound is not None:
                    state["bound"] = new_bound
                return False
            rem = state["bound"] - cost
            if rem < 0:
                return False
            d_i = self.D[i]
            off = offset_at(i)
            lo, hi = _range_bounds(off, rem / d_i)
            if half and all(x[j] == 0 for j in range(i + 1, n)):
                lo = max(lo, 0)
            for xi in range(lo, hi + 1):
                e = xi + off
                step = d_i * e * e
                new_cost = cost + step
                if new_cost <= state["bound"]:
                    x[i] = xi
                    if rec(i - 1, new_cost):
                        return True
            x[i] = 0
            return False

        rec(n - 1, Fraction(0))


def arithmetic_minimum(f: QuadraticForm, allow_large=False) -> MinimumReport:
    """Exact arithmetic minimum and the complete minimal-vector set."""
    enum = _Enumerator(f, allow_large)
    n = f.n
    bound = min(f.gram[i, i] for i in range(n))
    found = {"min": bound, "vecs": []}

    def visit(x, value):
        if value == 0 or all(v == 0 for v in x):
            return None
        if value < found["min"]:
            found["min"] = value
            found["vecs"] = [x]
            return value
        if value == found["min"]:
            found["vecs"].append(x)
        return None

    enum.run([0] * n, bound, visit, half=True, shrink=True)
    vecs = tuple(sorted(canonical_sign(v) for v in found["vecs"]))
    return MinimumReport(found["min"], vecs, len(vecs), 2 * len(vecs))


def vectors_up_to(f: QuadraticForm, bound, allow_large=False):
    """All (vector, value) with 0 < value <= bound, one per +-pair,
    sorted by (value, lex)."""
    bound = _frac(bound)
    if bound < 0:
        raise ValueError("bound must be nonnegative")
    enum = _Enumerator(f, allow_large)
    n = f.n
    out = []

    def visit(x, value):
        if value != 0 and any(v != 0 for v in x):
            out.append((canonical_sign(x), value))
        return None

    enum.run([0] * n, bound, visit, half=True)
    return sorted(((v, val) for v, val in out), key=lambda p: (p[1], p[0]))


def lattice_points_in_ellipsoid(f: QuadraticForm, center, r2, allow_large=False) -> EllipsoidPointReport:
    """Exact classification of lattice points x with f(x - center) <= r2."""
    r2 = _frac(r2)
    if r2 < 0:
        raise ValueError("squared radius must be nonnegative")
    enum = _Enumerator(f, allow_large)
    interior, boundary = [], []

    def visit(x, value):
        if value < r2:
            interior.append(x)
        else:
            boundary.append(x)
        return None

    enum.run(center, r2, visit)
    return EllipsoidPointReport(tuple(sorted(interior)), tuple(sorted(boundary)))


def first_interior_point(f: QuadraticForm, center, r2, allow_large=False):
    """(x, None) for the first lattice point x in enumeration order with
    f(x - center) < r2, else (None, boundary) with the sorted points on
    f(x - center) = r2.

    The search stops at the first interior point, so a non-empty
    ellipsoid never has its points materialised.
    """
    r2 = _frac(r2)
    if r2 < 0:
        raise ValueError("squared radius must be nonnegative")
    enum = _Enumerator(f, allow_large)
    found = {"inside": None, "boundary": []}

    def visit(x, value):
        if value < r2:
            found["inside"] = x
            return _STOP
        found["boundary"].append(x)
        return None

    enum.run(center, r2, visit)
    if found["inside"] is not None:
        return found["inside"], None
    return None, tuple(sorted(found["boundary"]))


def closest_vectors(f: QuadraticForm, target, allow_large=False):
    """All lattice points minimizing f(x - target); returns (distance2, points)."""
    enum = _Enumerator(f, allow_large)
    t = [_frac(v) for v in target]
    if len(t) != f.n:
        raise ValueError("target dimension mismatch")
    start = [_floor_frac(v + Fraction(1, 2)) for v in t]
    best = f.evaluate([s - v for s, v in zip(start, t)])
    found = {"best": best, "pts": []}

    def visit(x, value):
        if value < found["best"]:
            found["best"] = value
            found["pts"] = [x]
            return value
        if value == found["best"]:
            found["pts"].append(x)
        return None

    enum.run(t, best, visit, shrink=True)
    return found["best"], tuple(sorted(set(found["pts"])))
