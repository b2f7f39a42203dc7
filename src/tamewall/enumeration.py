"""Exact enumeration of lattice vectors by norm.

Depth-first bounded coordinate enumeration (Fincke-Pohst) driven by the
exact LDL^T factorization of the Gram matrix, which the form computes
once, fraction-free, and keeps as integer pivots and columns
(QuadraticForm.ldl).  Each call clears the centre once and scales it,
those integers and the bound to one common integer scale, with no
rational L or D built; after that every node works in integers only: its
shifted centre is an integer sum over the coordinates already fixed, its
interval comes from one integer square root, and partial costs are
integer multiples of one common denominator.  No floating point is
involved anywhere, including pruning.  References: Fincke & Pohst, Math.
Comp. 44 (1985); Bareiss, Math. Comp. 22 (1968).

A visited point reaches its caller as that integer scaled cost together
with the common scale m of the call, so callers compare against their
thresholds by exact integer cross-multiplication and build a Fraction
only for a value that goes into an output (a minimum, a distance, a
listed norm).

Cost: the search tree visits every partial vector whose partial cost is
within the bound, so the work grows with the number of lattice points in
the ellipsoid and, in the worst case, exponentially in the dimension n.
No dimension is refused here; callers that take input from outside the
program bound n themselves (the CLI's --max-dim).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import floor, gcd, isqrt, lcm
from operator import mul

from . import linalg
from .forms import QuadraticForm
from .linalg import _frac
from .vecset import canonical_sign


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


# Returned by a visit callback to end the enumeration.
_STOP = object()


def _diagonal_minimum(f: QuadraticForm) -> Fraction:
    """The smallest diagonal entry of the Gram matrix: at least the
    minimum, and the value at a unit vector."""
    return Fraction(min(row[i] for i, row in enumerate(f.int_gram)), f.den)


class _Enumerator:
    """Shared DFS over x_n..x_1 with exact partial-cost pruning, on the
    form's own integer LDL data (raises NotPositiveDefiniteError for a
    form that is not positive definite)."""

    def __init__(self, form: QuadraticForm):
        self.n = form.n
        self.den = form.den
        self.factors = form.ldl()

    def _scaled(self, center):
        """Integer data for f(x - center), scaled once per call.

        With e_i = (x_i - c_i) + sum_{j>i} L[j][i] (x_j - c_j), level i
        contributes D_i e_i^2 to the cost.  Q_i clears the denominators of
        K_i = -c_i - sum_{j>i} L[j][i] c_j and of the L[j][i], so
        Q_i e_i = Q_i x_i + S_i with the integer centre sum
        S_i = Q_i K_i + sum_{j>i} (Q_i L[j][i]) x_j.  M clears every
        D_i / Q_i^2, so the weights w_i = M D_i / Q_i^2 and every scaled
        cost M * f(x - c) are integers; a bound b then enters as floor(M b),
        which admits exactly the same costs.

        The centre is cleared once, c = C / d.  With the Bareiss data
        (p_i, prev_i, col_i) of the form, L[j][i] = col_i[j] / p_i and
        D_i = p_i / (prev_i den), so K_i and every L[j][i] are integers over
        d p_i, and Q_i is d p_i over the gcd of that and their numerators:
        Q_i, K_i and M are the lcms of the reduced denominators.
        """
        (c,), d = linalg.cleared([[_frac(t) for t in center]])
        q, k, cols, dens, nums = [], [], [], [], []
        for i, (p, prev, col) in enumerate(self.factors):
            num = -p * c[i] - sum(map(mul, col, c[i + 1:]))
            g = gcd(d * gcd(p, *col), num)
            q_i = d * p // g
            q.append(q_i)
            k.append(num // g)
            cols.append([d * x // g for x in col])
            rel = prev * self.den * q_i * q_i  # D_i / Q_i^2 = p / rel
            h = gcd(p, rel)
            dens.append(rel // h)
            nums.append(p // h)
        m = lcm(*dens)
        return q, k, cols, [m // r * t for r, t in zip(dens, nums)], m

    def run(self, center, bound, visit, half=False):
        """Visit every x with f(x - center) <= bound.

        visit(x_tuple, cost, m) receives the integer cost = m f(x - center)
        and the scale m, which is fixed for the call.  It returns None to go
        on, a new (smaller) bound in the same scaled units, admitting
        exactly the costs at most that integer, or _STOP to end the
        enumeration at once.  half=True enumerates one representative per
        +-pair (valid only for center = 0).  Returns m.
        """
        q, k, cols, weights, m = self._scaled(center)
        x = [0] * self.n
        state = [floor(m * _frac(bound))]

        def rec(i, cost, s, top):
            """Enumerate levels i..0 given the centre sum s of level i;
            True once visit has asked to stop.

            top is True while every x_j with j > i is zero.
            """
            rem = state[0] - cost
            if rem < 0:
                return False
            q_i, w_i = q[i], weights[i]
            r = isqrt(rem // w_i)
            lo = -((s + r) // q_i)
            hi = (r - s) // q_i
            if half and top and lo < 0:
                lo = 0
            e = q_i * lo + s
            if i == 0:
                for xi in range(lo, hi + 1):
                    new_cost = cost + w_i * e * e
                    e += q_i
                    if new_cost > state[0]:
                        continue
                    x[0] = xi
                    new_bound = visit(tuple(x), new_cost, m)
                    if new_bound is _STOP:
                        return True
                    if new_bound is not None:
                        state[0] = new_bound
                x[0] = 0
                return False
            # centre sum of level i - 1, carried along x_i
            a, *rest = cols[i - 1]
            child = k[i - 1] + sum(map(mul, rest, x[i + 1:])) + a * lo
            for xi in range(lo, hi + 1):
                new_cost = cost + w_i * e * e
                e += q_i
                if new_cost <= state[0]:
                    x[i] = xi
                    if rec(i - 1, new_cost, child, top and xi == 0):
                        return True
                child += a
            x[i] = 0
            return False

        rec(self.n - 1, 0, k[-1], True)
        return m


def arithmetic_minimum(f: QuadraticForm) -> MinimumReport:
    """Exact arithmetic minimum and the complete minimal-vector set."""
    enum = _Enumerator(f)
    n = f.n
    best = [None, []]  # smallest scaled cost seen, its vectors

    def visit(x, cost, m):
        if cost == 0:
            return None
        if best[0] is None or cost < best[0]:
            best[:] = [cost, [x]]
            return cost
        if cost == best[0]:
            best[1].append(x)
        return None

    m = enum.run([0] * n, _diagonal_minimum(f), visit, half=True)
    vecs = tuple(sorted(canonical_sign(v) for v in best[1]))
    return MinimumReport(Fraction(best[0], m), vecs, len(vecs), 2 * len(vecs))


def vectors_up_to(f: QuadraticForm, bound):
    """All (vector, value) with 0 < value <= bound, one per +-pair,
    sorted by (value, lex)."""
    bound = _frac(bound)
    if bound < 0:
        raise ValueError("bound must be nonnegative")
    enum = _Enumerator(f)
    out = []

    def visit(x, cost, m):
        if cost:
            out.append((cost, canonical_sign(x)))
        return None

    m = enum.run([0] * f.n, bound, visit, half=True)
    out.sort()
    return [(v, Fraction(cost, m)) for cost, v in out]


def lattice_points_in_ellipsoid(f: QuadraticForm, center, r2) -> EllipsoidPointReport:
    """Exact classification of lattice points x with f(x - center) <= r2."""
    r2 = _frac(r2)
    if r2 < 0:
        raise ValueError("squared radius must be nonnegative")
    enum = _Enumerator(f)
    num, den = r2.numerator, r2.denominator
    interior, boundary = [], []

    def visit(x, cost, m):
        (interior if cost * den < m * num else boundary).append(x)
        return None

    enum.run(center, r2, visit)
    return EllipsoidPointReport(tuple(sorted(interior)), tuple(sorted(boundary)))


def first_interior_point(f: QuadraticForm, center, r2):
    """(x, None) for the first lattice point x in enumeration order with
    f(x - center) < r2, else (None, boundary) with the sorted points on
    f(x - center) = r2.

    The search stops at the first interior point, so a non-empty
    ellipsoid never has its points materialised.
    """
    r2 = _frac(r2)
    if r2 < 0:
        raise ValueError("squared radius must be nonnegative")
    enum = _Enumerator(f)
    num, den = r2.numerator, r2.denominator
    inside, boundary = [], []

    def visit(x, cost, m):
        if cost * den < m * num:
            inside.append(x)
            return _STOP
        boundary.append(x)
        return None

    enum.run(center, r2, visit)
    if inside:
        return inside[0], None
    return None, tuple(sorted(boundary))


def closest_vectors(f: QuadraticForm, target):
    """All lattice points minimizing f(x - target); returns (distance2, points)."""
    enum = _Enumerator(f)
    t = [_frac(v) for v in target]
    if len(t) != f.n:
        raise ValueError("target dimension mismatch")
    start = [floor(v + Fraction(1, 2)) for v in t]
    found = [f.evaluate([s - v for s, v in zip(start, t)]), []]  # distance, points

    def visit(x, cost, m):
        best = found[0]
        lhs, rhs = cost * best.denominator, m * best.numerator
        if lhs < rhs:
            found[:] = [Fraction(cost, m), [x]]
            return cost
        if lhs == rhs:
            found[1].append(x)
        return None

    enum.run(t, found[0], visit)
    return found[0], tuple(sorted(set(found[1])))
