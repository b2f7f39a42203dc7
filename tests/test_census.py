"""The census walk over exterior products against the subset loop it
replaced, and the certified vertex orbits it walks through."""

import itertools
from fractions import Fraction as F
from math import comb

import pytest
from hypothesis import example, given, settings, strategies as st

from tamewall import delaunay, forms, isometry, kernels, lp, series
from tamewall.enumeration import closest_vectors
from tamewall.errors import InvariantError
from tamewall.forms import QuadraticForm


def subset_loop_histogram(points):
    """Oracle: one Bareiss determinant of the edge matrix per (d+1)-subset."""
    n = len(points[0])
    hist = {}
    for combo in itertools.combinations(range(len(points)), n + 1):
        base = points[combo[0]]
        flat = []
        for idx in combo[1:]:
            v = points[idx]
            flat.extend(v[k] - base[k] for k in range(n))
        vol = abs(kernels.det_int_flat(flat, n))
        hist[vol] = hist.get(vol, 0) + 1
    return hist


def singletons(points):
    return [[i] for i in range(len(points))]


@st.composite
def point_sets(draw):
    """Up to 9 points in Z^d, d = 2..4, with repeats and affinely dependent
    points mixed in so that whole subtrees of the walk have volume 0."""
    d = draw(st.integers(min_value=2, max_value=4))
    coord = st.integers(min_value=-3, max_value=3)
    points = draw(st.lists(st.tuples(*[coord] * d), min_size=1, max_size=6))
    for _ in range(draw(st.integers(min_value=0, max_value=9 - len(points)))):
        p = draw(st.sampled_from(points))
        q = draw(st.sampled_from(points))
        t = draw(st.integers(min_value=-2, max_value=2))
        points.append(tuple(a + t * (b - a) for a, b in zip(p, q)))
    return draw(st.permutations(points))


@settings(max_examples=300, deadline=None)
@given(point_sets())
@example([(0, 0), (1, 0), (0, 1), (1, 1), (2, 1)])
@example([(k, 2 * k, -k) for k in range(8)])  # collinear: all zero
@example([(1, 2, 3)] * 5)
def test_walk_matches_subset_loop(points):
    assert series._volume_histogram(points, singletons(points)) == subset_loop_histogram(points)


@pytest.fixture(scope="module")
def e6_cell():
    return closest_vectors(forms.standard_gram("E6"), series._CENSUS_CENTER)[1]


def test_census_centre_is_a_deep_hole_of_the_located_cell():
    e6 = forms.standard_gram("E6")
    d2, points = closest_vectors(e6, series._CENSUS_CENTER)
    assert d2 == F(4, 3) and len(points) == 27
    point = (F(1, 23), F(1, 29), F(1, 31), F(1, 37), F(1, 41), F(1, 43))
    assert delaunay.delaunay_cell_containing(e6, point) == points
    assert delaunay.is_delaunay_cell(e6, points).verdict


def test_census_makes_no_lp_call(monkeypatch):
    # counted through the module global, which a tracer may replace
    calls = []
    real = lp.lp_solve
    monkeypatch.setattr(lp, "lp_solve", lambda **kwargs: calls.append(kwargs) or real(**kwargs))
    assert series.gosset_census().matches_expected
    assert calls == []


def test_walk_matches_subset_loop_on_e6_cell_prefix(e6_cell):
    points = e6_cell[:12]
    hist = series._volume_histogram(points, singletons(points))
    assert hist == subset_loop_histogram(points)
    assert sum(hist.values()) == comb(12, 7)


def apply(a, c, p):
    return tuple(sum(x * y for x, y in zip(row, p)) + s for row, s in zip(a, c))


def check_map(f, points, a, c):
    """Re-verify an accepted map x -> A x + c from scratch: integral,
    Gram-preserving, and onto the point set."""
    assert all(type(x) is int for row in a for x in row) and all(type(x) is int for x in c)
    d = len(a)
    gram = [[f.gram[i, j] for j in range(d)] for i in range(d)]
    a_t_g_a = [[sum(a[k][i] * gram[k][l] * a[l][j] for k in range(d) for l in range(d))
                for j in range(d)] for i in range(d)]
    assert a_t_g_a == gram
    assert {apply(a, c, p) for p in points} == set(points)


def check_orbits(f, points):
    """The orbits are exactly those generated by the accepted maps, and the
    walk through them gives the subset loop's histogram."""
    orbits, maps = isometry._vertex_orbits(f, points)
    index = {p: i for i, p in enumerate(points)}
    orbit_of = {i: frozenset([i]) for i in range(len(points))}
    for a, c in maps:
        check_map(f, points, a, c)
        for i, p in enumerate(points):
            merged = orbit_of[i] | orbit_of[index[apply(a, c, p)]]
            orbit_of.update(dict.fromkeys(merged, merged))
    assert sorted(orbits) == sorted(sorted(o) for o in set(orbit_of.values()))
    assert series._volume_histogram(points, orbits) == subset_loop_histogram(points)
    return orbits, maps


@st.composite
def symmetric_point_sets(draw):
    """Distinct points: random ones, or subsets of {0,1}^d and {-1,0,1}^d,
    whose many partial symmetries give orbits of several sizes."""
    d = draw(st.integers(min_value=2, max_value=4))
    pool = draw(st.sampled_from([
        list(itertools.product((0, 1), repeat=d)),
        list(itertools.product((-1, 0, 1), repeat=d)),
        list(itertools.product(range(-3, 4), repeat=d)),
    ]))
    points = draw(st.lists(st.sampled_from(pool), min_size=d + 1, max_size=9, unique=True))
    return d, points


@settings(max_examples=200, deadline=None)
@given(symmetric_point_sets(), st.booleans())
@example((2, [(1, 0), (0, 0), (1, 1), (0, 1), (2, 0)]), False)
def test_orbit_walk_matches_subset_loop(case, root_lattice):
    d, points = case
    f = forms.standard_gram("A", d) if root_lattice else QuadraticForm.identity(d)
    check_orbits(f, points)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_unit_cube_is_one_orbit(d):
    cube = list(itertools.product((0, 1), repeat=d))
    orbits, _ = check_orbits(QuadraticForm.identity(d), cube)
    assert orbits == [list(range(2 ** d))]


def test_rational_isometry_is_not_a_lattice_automorphism():
    # The reflection [[3/5, 4/5], [4/5, -3/5]] fixes (0, 0), swaps (5, 0)
    # and (3, 4) and preserves the identity Gram, but it is not integral.
    orbits, maps = check_orbits(QuadraticForm.identity(2), [(5, 0), (0, 0), (3, 4)])
    assert orbits == [[0], [1], [2]]
    assert maps == []


def test_non_exact_orbit_weight_raises():
    points = [(0, 0), (1, 0), (0, 1), (2, 3)]
    with pytest.raises(InvariantError, match="not a multiple"):
        series._volume_histogram(points, [[0, 1, 2, 3]])


def test_e6_cell_is_one_certified_orbit(e6_cell):
    e6 = forms.standard_gram("E6")
    orbits, maps = isometry._vertex_orbits(e6, e6_cell)
    assert orbits == [list(range(27))]
    assert maps
    for a, c in maps:
        check_map(e6, e6_cell, a, c)
    hist = series._volume_histogram(e6_cell, orbits)
    assert hist == {0: 497070, 1: 381672, 2: 9072, 3: 216}
