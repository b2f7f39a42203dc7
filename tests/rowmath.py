"""Matrices as tuples of rows, for the tests' Fraction oracles and fixtures.

The package holds a symmetric rational matrix as integer rows over one
denominator; the oracles the tests compare it with are written as plain
rows of ints or Fractions with these helpers.
"""

from fractions import Fraction

from tamewall import linalg
from tamewall.forms import QuadraticForm, value_row


def identity(n):
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def transpose(a):
    return tuple(zip(*a))


def matmul(a, b):
    cols = transpose(b)
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in cols) for row in a)


def matvec(a, v):
    return tuple(sum(x * y for x, y in zip(row, v)) for row in a)


def outer(u, v):
    """The rows of u v^T; outer(v, v) is the rank-1 form of v."""
    return tuple(tuple(x * y for y in v) for x in u)


def add(a, b):
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def scaled(a, c):
    return tuple(tuple(c * x for x in row) for row in a)


def over(rows, d):
    """The Fraction rows of integer rows over the integer d."""
    return tuple(tuple(Fraction(x, d) for x in row) for row in rows)


def form(rows):
    """The QuadraticForm of a symmetric matrix given as rows of ints or
    Fractions."""
    return QuadraticForm(*linalg.cleared(rows))


def image_rank(vectors):
    """Oracle: rank of the value rows of the nonzero vectors inside Sym(n),
    by one elimination of all of them."""
    nonzero = [v for v in vectors if any(v)]
    if not nonzero:
        return 0
    return linalg.rank([value_row(v) for v in nonzero])
