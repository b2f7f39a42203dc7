"""Canonical vector sets."""

from fractions import Fraction as F

from tamewall.vecset import canonical_set


def test_canonical_set_sorts_and_deduplicates():
    assert canonical_set([(1, 0), [0, 1], (1, 0)]) == ((0, 1), (1, 0))


def test_canonical_set_keeps_int_tuples_as_they_are():
    vectors = [(2, -1), (0, 3)]
    out = canonical_set(vectors)
    assert out == ((0, 3), (2, -1))
    assert out[0] is vectors[1] and out[1] is vectors[0]


def test_canonical_set_converts_other_vectors_to_int_tuples():
    # lists, integral Fractions and bools become tuples of plain ints
    out = canonical_set([[1, 2], (F(3), 4), (True, False)])
    assert out == ((1, 0), (1, 2), (3, 4))
    assert all(type(v) is tuple and all(type(x) is int for x in v) for v in out)
