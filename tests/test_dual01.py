"""(0,1)-dual systems: exhaustive validity, closures, cone reports."""

import itertools
from math import comb
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from tamewall.dual01 import DualInfiniteError, double_dual01, dual01
from tamewall.forms import big_simplex_dual_vectors, sym_dimension
from tamewall.series import r_n_vertices, s_n_vertices, sym_codimension
from tamewall.vecset import canonical_set, dot

from rowmath import image_rank, matvec
from test_linalg import fraction_inverse, fraction_rank


def brute_force_dual_in_box(vectors, radius):
    """Independent oracle: all dual vectors within an infinity-norm box."""
    n = len(vectors[0])
    out = []
    for u in itertools.product(range(-radius, radius + 1), repeat=n):
        if all(dot(u, v) in (0, 1) for v in vectors):
            out.append(u)
    return canonical_set(out)


def fraction_dual01(vectors):
    """Oracle: the Fraction inverse of a greedy rank-n subset times every
    {0,1} right-hand side, kept against the dual01 ellipsoid query."""
    vectors = canonical_set(vectors)
    n = len(vectors[0])
    basis = []
    for v in vectors:
        if any(v) and fraction_rank(basis + [v]) == len(basis) + 1:
            basis.append(v)
    if len(basis) < n:
        raise DualInfiniteError("does not span")
    inv = fraction_inverse(basis[:n])
    out = []
    for rhs in itertools.product((0, 1), repeat=n):
        u = matvec(inv, rhs)
        if all(x.denominator == 1 for x in u):
            cand = tuple(int(x) for x in u)
            if all(dot(cand, v) in (0, 1) for v in vectors):
                out.append(cand)
    return canonical_set(out)


def delaunay_cone_report(vectors):
    """Oracle: the dual, the rank of its value rows by one elimination, and
    the codimension of the cone they span in Sym(n)."""
    dual = dual01(vectors)
    rank = image_rank(dual)
    return SimpleNamespace(
        dual=dual, image_rank=rank, codimension=sym_dimension(len(dual[0])) - rank
    )


@pytest.mark.parametrize("n", range(5, 11))
def test_duals_match_fraction_oracle(n):
    families = big_simplex_dual_vectors(n)
    for vectors in (s_n_vertices(n), r_n_vertices(n), families):
        assert dual01(vectors) == fraction_dual01(vectors)
    dual = dual01(s_n_vertices(n))
    assert dual01(dual) == fraction_dual01(fraction_dual01(s_n_vertices(n)))


@settings(max_examples=200, deadline=None)
@given(
    st.integers(min_value=1, max_value=4).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(min_value=-3, max_value=3), min_size=n, max_size=n),
            min_size=1,
            max_size=7,
        )
    )
)
def test_dual_matches_fraction_oracle_on_random_sets(vectors):
    try:
        expected = fraction_dual01(vectors)
    except DualInfiniteError:
        with pytest.raises(DualInfiniteError):
            dual01(vectors)
        return
    assert dual01(vectors) == expected


def test_dual_of_big_simplex_matches_families():
    s6 = s_n_vertices(6)
    dual = dual01(s6)
    families = canonical_set(big_simplex_dual_vectors(6) + (tuple([0] * 6),))
    assert dual == families
    nonzero = [u for u in dual if any(u)]
    assert len(nonzero) == 20


def test_dual_of_unit_vectors():
    assert dual01([(1, 0), (0, 1)]) == ((0, 0), (0, 1), (1, 0), (1, 1))


def test_dual_one_dimensional():
    assert dual01([(1,)]) == ((0,), (1,))


def test_dual_of_s5_matches_box_oracle():
    s5 = s_n_vertices(5)
    dual = dual01(s5)
    assert dual == brute_force_dual_in_box(s5, 2)
    assert all(max(abs(x) for x in u) <= 2 for u in dual)


def test_dual_refuses_rank_deficient():
    with pytest.raises(DualInfiniteError):
        dual01([(1, 0), (2, 0)])


@pytest.mark.parametrize("n", range(6, 17))
def test_double_dual_adds_exactly_one_point(n):
    assert double_dual01(s_n_vertices(n)) == r_n_vertices(n)


def test_boundary_case_n5_dual_has_extra_vector():
    # At n=5 the last coordinate of a dual vector can be 2: (1,1,1,1,2)
    # pairs to 0 with (1,1,1,1,-2).  The four-family description and the
    # codimension-1 statement hold only from n=6 on.
    s5 = s_n_vertices(5)
    dual = dual01(s5)
    extra = set(dual) - set(big_simplex_dual_vectors(5)) - {(0, 0, 0, 0, 0)}
    assert extra == {(1, 1, 1, 1, 2)}
    assert len([u for u in dual if any(u)]) == 15
    assert image_rank(dual) == sym_dimension(5)  # codimension 0
    assert sym_codimension(dual, 5) == 0
    assert double_dual01(s5) == s5  # e_5 is excluded by the extra vector


def test_double_dual_of_unit_simplex_is_itself():
    simplex = canonical_set([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)])
    assert double_dual01(simplex) == simplex


def test_triple_dual_idempotence():
    for s in (s_n_vertices(5), s_n_vertices(6), [(1, 0), (0, 1)], [(1, 1), (0, 1)]):
        d = dual01(s)
        assert dual01(dual01(d)) == d


@pytest.mark.parametrize("n", range(6, 17))
def test_dual_cardinality_formula(n):
    nonzero = [u for u in dual01(s_n_vertices(n)) if any(u)]
    assert len(nonzero) == 2 * (n - 1) + comb(n - 1, 2)


def test_dual_has_no_dimension_guard():
    # n = 17 is past the CLI's default --max-dim; the library refuses no dimension.
    n = 17
    dual = dual01(s_n_vertices(n))
    assert dual == canonical_set(big_simplex_dual_vectors(n) + (tuple([0] * n),))
    assert dual01(dual) == r_n_vertices(n)


@settings(max_examples=100, deadline=None)
@given(
    st.integers(min_value=1, max_value=4).flatmap(
        lambda n: st.tuples(
            st.lists(
                st.lists(st.integers(min_value=-3, max_value=3), min_size=n, max_size=n),
                min_size=n,
                max_size=7,
            ),
            st.randoms(use_true_random=False),
        )
    )
)
def test_dual_invariant_under_order_repeats_and_zero(case):
    vectors, rng = case
    try:
        expected = fraction_dual01(vectors)
    except DualInfiniteError:
        expected = None
    variants = [list(vectors) for _ in range(4)]
    rng.shuffle(variants[1])
    variants[2].append(rng.choice(vectors))
    variants[3].append([0] * len(vectors[0]))
    for variant in variants:
        if expected is None:
            with pytest.raises(DualInfiniteError):
                dual01(variant)
        else:
            assert dual01(variant) == expected


def test_every_dual_vector_satisfies_products_exhaustively():
    for n in (5, 6, 7):
        s = s_n_vertices(n)
        for u in dual01(s):
            assert all(dot(u, v) in (0, 1) for v in s)


def test_source_contained_in_double_dual():
    for s in (s_n_vertices(5), s_n_vertices(6), canonical_set([(1, 0), (0, 1)])):
        dd = double_dual01(s)
        assert set(s) <= set(dd)


def test_cone_report_big_simplex():
    rep = delaunay_cone_report(s_n_vertices(6))
    assert rep.image_rank == 20
    assert rep.codimension == 1


@pytest.mark.parametrize("n", range(6, 10))
def test_cone_codimension_one(n):
    rep = delaunay_cone_report(s_n_vertices(n))
    assert rep.codimension == 1
    assert rep.image_rank == sym_dimension(n) - 1
    assert sym_codimension(rep.dual, n) == 1


def test_cone_report_two_unit_vectors():
    rep = delaunay_cone_report([(1, 0), (0, 1)])
    assert len(rep.dual) == 4
    assert rep.image_rank == 3
    assert rep.codimension == 0


def test_image_rank_empty():
    assert image_rank([(0, 0)]) == 0
