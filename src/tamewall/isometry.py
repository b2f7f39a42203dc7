"""Integral (unimodular) equivalence of positive definite forms.

Backtracking over images of a reference basis drawn from the minimal
vectors, pruned by exact inner products; invariant fingerprints give
fast provable negatives.  Desk scale (n <= 8) by design.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .enumeration import _Enumerator, arithmetic_minimum, vectors_up_to
from .errors import InvariantError
from .forms import QuadraticForm, scale
from .linalg import RationalMatrix


@dataclass(frozen=True)
class Fingerprint:
    """Unimodular invariants used as an equivalence pre-filter."""

    dimension: int
    determinant: Fraction
    minimum: Fraction
    pair_count: int
    level_histogram: tuple  # ((value, pair count), ...) for the first k levels


def fingerprint(f: QuadraticForm, levels=3, allow_large=False) -> Fingerprint:
    """Invariants of f, with the pair counts of its `levels` smallest
    nonzero values.

    One enumeration per doubled bound, starting from the smallest diagonal
    entry (at least the minimum): once `levels` values are seen, the
    largest of them becomes the bound, so vectors beyond the last level
    are never visited.
    """
    if levels < 1:
        raise ValueError("levels must be positive")
    enum = _Enumerator(f, allow_large)
    bound = min(f.gram[i, i] for i in range(f.n))
    while True:
        counts = {}

        def visit(x, value):
            if value == 0:
                return None
            counts[value] = counts.get(value, 0) + 1
            if len(counts) > levels:
                del counts[max(counts)]
            return max(counts) if len(counts) == levels else None

        enum.run([0] * f.n, bound, visit, half=True, shrink=True)
        if len(counts) == levels:
            break
        bound *= 2
    histogram = tuple(sorted(counts.items()))
    minimum, pair_count = histogram[0]
    return Fingerprint(f.n, f.determinant(), minimum, pair_count, histogram)


def _reference_basis(f: QuadraticForm, allow_large=False):
    """n linearly independent vectors of lowest norms, greedily."""
    n = f.n
    bound = min(f.gram[i, i] for i in range(n))
    while True:
        candidates = vectors_up_to(f, bound, allow_large=allow_large)
        chosen = []
        rows = []
        for v, _ in candidates:
            trial = rows + [v]
            if len(linalg._echelon(trial)[0]) == len(trial):
                rows = trial
                chosen.append(v)
                if len(chosen) == n:
                    return chosen
        bound *= 2


def are_equivalent(a: QuadraticForm, b: QuadraticForm, allow_large=False):
    """Unimodular U with U^T Gram(a) U = Gram(b), or None (definitive).

    Candidates for the image of each reference vector of b are the
    vectors of a with the same norm; partial maps are pruned on exact
    pairwise inner products.  A full tuple is accepted only if the
    induced matrix is integral with determinant +-1 (then the Gram
    identity holds automatically and is checked); a negative answer
    means the finite compatible tree was exhausted.
    """
    if a.n != b.n:
        raise ValueError("dimension mismatch")
    if not (a.is_positive_definite and b.is_positive_definite):
        raise ValueError("both forms must be positive definite")
    if a == b:
        return RationalMatrix.identity(a.n)
    if fingerprint(a, allow_large=allow_large) != fingerprint(b, allow_large=allow_large):
        return None

    n = a.n
    basis = _reference_basis(b, allow_large=allow_large)
    b_mat = RationalMatrix(list(zip(*basis)))  # columns are the basis vectors
    b_inv = linalg.inverse(b_mat)
    target = [[b.inner(basis[i], basis[j]) for j in range(n)] for i in range(n)]

    norm_needed = max(target[i][i] for i in range(n))
    by_norm = {}
    for v, val in vectors_up_to(a, norm_needed, allow_large=allow_large):
        by_norm.setdefault(val, []).extend([v, tuple(-x for x in v)])
    for val in by_norm:
        by_norm[val].sort()

    gram_a = a.gram
    cache = {}

    def inner_a(u, v):
        got = cache.get((u, v))
        if got is None:
            got = sum(x * y for x, y in zip(gram_a.matvec(v), u))
            cache[(u, v)] = cache[(v, u)] = got
        return got

    chosen = []
    result = []

    def extend(level):
        if level == n:
            c_mat = RationalMatrix(list(zip(*chosen)))
            u = c_mat.matmul(b_inv)
            ints = u.to_int_rows()
            if ints is None:
                return False
            u = RationalMatrix(ints)
            if linalg.det(u) not in (1, -1):
                return False
            if u.transpose().matmul(a.gram).matmul(u) != b.gram:
                raise InvariantError("unimodular witness fails the Gram identity")
            result.append(u)
            return True
        for cand in by_norm.get(target[level][level], ()):
            if all(inner_a(chosen[j], cand) == target[j][level] for j in range(level)):
                chosen.append(cand)
                if extend(level + 1):
                    return True
                chosen.pop()
        return False

    if extend(0):
        return result[0]
    return None


def are_similar(a: QuadraticForm, b: QuadraticForm, allow_large=False):
    """Equivalence up to positive scale: (scale c, witness U) or None.

    Tries c = min(a)/min(b), the only scale that can match minima.
    """
    rep_a = arithmetic_minimum(a, allow_large=allow_large)
    rep_b = arithmetic_minimum(b, allow_large=allow_large)
    c = rep_a.minimum / rep_b.minimum
    witness = are_equivalent(a, scale(b, c), allow_large=allow_large)
    if witness is None:
        return None
    return c, witness
