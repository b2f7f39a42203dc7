"""The census walk over exterior products against the subset loop and the
one-vertex-per-orbit walk it replaced, and the certified orbits of vertex
pairs it walks through."""

import itertools
from collections import Counter
from fractions import Fraction as F
from math import comb
from operator import itemgetter, mul, neg

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


def vertex_walk_histogram(points, orbits):
    """Oracle: the census walk through one vertex r = O[0] per vertex orbit
    O, its counts weighted by |O| and divided by d + 1."""
    n = len(points[0]) + 1
    rows = [(*p, 1) for p in points]
    levels = [list(itertools.combinations(range(n), k)) for k in range(n + 1)]
    plans = []
    for k in range(n):
        where = {cols: i for i, cols in enumerate(levels[k])}
        size = len(levels[k])
        cols, minors = [], []
        for target in levels[k + 1]:
            for pos, col in enumerate(target):
                i = where[target[:pos] + target[pos + 1:]]
                cols.append(col)
                minors.append(i if (k - pos) % 2 == 0 else i + size)
        plans.append((itemgetter(*cols), itemgetter(*minors), k + 1))
    total = Counter()
    for orbit in orbits:
        r = orbit[0]
        others = rows[:r] + rows[r + 1:]
        m = len(others)
        hist = Counter()

        def walk(start, k, minors):
            signed = [*minors, *map(neg, minors)]
            if k == n - 1:
                cofactors = plans[k][1](signed)
                hist.update(abs(sum(map(mul, cofactors, w))) for w in others[start:])
                return
            pick_cols, pick_minors, width = plans[k]
            terms = pick_minors(signed)
            for i in range(start, m - (n - 1 - k)):
                products = list(map(mul, pick_cols(others[i]), terms))
                extended = list(map(sum, zip(*[iter(products)] * width)))
                if any(extended):
                    walk(i + 1, k + 1, extended)
                else:
                    hist[0] += comb(m - i - 1, n - k - 1)

        walk(0, 1, list(rows[r]))
        for volume, count in hist.items():
            total[volume] += len(orbit) * count
    histogram = {}
    for volume, count in sorted(total.items()):
        histogram[volume], rest = divmod(count, n)
        assert rest == 0
    return histogram


def singletons(points):
    """Every ordered pair of distinct indices as its own orbit."""
    return [[(r, s)] for r in range(len(points)) for s in range(len(points)) if r != s]


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
@example([(4, -1)])
def test_walk_matches_subset_loop(points):
    assert series._volume_histogram(points, singletons(points)) == subset_loop_histogram(points)


@pytest.mark.parametrize("points", [
    [(1, 2, 3)],
    [(0, 0), (1, 1)],
    [(0, 0, 0), (1, 0, 0), (0, 0, 0)],
    [(0,), (2,), (5,), (5,)],
])
def test_few_points_give_the_vertex_walk_histogram(points):
    # fewer than 2 points, fewer than d + 1 points, and d = 1
    hist = series._volume_histogram(points, singletons(points))
    assert hist == vertex_walk_histogram(points, [[i] for i in range(len(points))])
    assert hist == subset_loop_histogram(points)


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
    assert hist == vertex_walk_histogram(points, [[i] for i in range(12)])
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


def generated_orbits(points, maps, arity):
    """Orbits of the tuples of `arity` distinct indices under the maps."""
    index = {p: i for i, p in enumerate(points)}
    orbit_of = {t: frozenset([t]) for t in itertools.permutations(range(len(points)), arity)}
    for a, c in maps:
        perm = [index[apply(a, c, p)] for p in points]
        for t in list(orbit_of):
            merged = orbit_of[t] | orbit_of[tuple(perm[i] for i in t)]
            orbit_of.update(dict.fromkeys(merged, merged))
    return sorted(sorted(o) for o in set(orbit_of.values()))


def check_orbits(f, points):
    """The pair orbits are exactly those generated by the accepted maps, and
    the walk through them gives the subset loop's histogram and that of the
    vertex walk through the vertex orbits of the same maps."""
    orbits, maps = isometry._pair_orbits(f, points)
    for a, c in maps:
        check_map(f, points, a, c)
    assert sorted(orbits) == generated_orbits(points, maps, 2)
    assert all(orbit == sorted(orbit) for orbit in orbits) and orbits == sorted(orbits)
    vertex_orbits = [[i for (i,) in orbit] for orbit in generated_orbits(points, maps, 1)]
    hist = series._volume_histogram(points, orbits)
    assert hist == subset_loop_histogram(points)
    assert hist == vertex_walk_histogram(points, vertex_orbits)
    return orbits, vertex_orbits, maps


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
    _, vertex_orbits, _ = check_orbits(QuadraticForm.identity(d), cube)
    assert vertex_orbits == [list(range(2 ** d))]


def test_rational_isometry_is_not_a_lattice_automorphism():
    # The reflection [[3/5, 4/5], [4/5, -3/5]] fixes (0, 0), swaps (5, 0)
    # and (3, 4) and preserves the identity Gram, but it is not integral.
    points = [(5, 0), (0, 0), (3, 4)]
    orbits, vertex_orbits, maps = check_orbits(QuadraticForm.identity(2), points)
    assert orbits == singletons(points)
    assert vertex_orbits == [[0], [1], [2]]
    assert maps == []


def test_non_exact_orbit_weight_raises():
    # (0, 1) and (1, 0) lie on volumes 1 and 3, (0, 2) on volumes 1 and 2:
    # the false orbit gives volume 3 a weighted count of 7 and volume 2 one of 5
    points = [(0, 0), (1, 0), (0, 1), (2, 3)]
    false_orbit = [(0, 1), (0, 2), (1, 0)]
    orbits = [false_orbit] + [o for o in singletons(points) if o[0] not in false_orbit]
    with pytest.raises(InvariantError, match="not a multiple of 6"):
        series._volume_histogram(points, orbits)


E6_HISTOGRAM = {0: 497070, 1: 381672, 2: 9072, 3: 216}


@pytest.fixture(scope="module")
def e6_orbits(e6_cell):
    return isometry._pair_orbits(forms.standard_gram("E6"), e6_cell)


def test_e6_cell_is_one_certified_orbit(e6_cell, e6_orbits):
    _, maps = e6_orbits
    assert generated_orbits(e6_cell, maps, 1) == [[(i,) for i in range(27)]]
    assert vertex_walk_histogram(e6_cell, [list(range(27))]) == E6_HISTOGRAM


def test_e6_cell_has_two_certified_pair_orbits(e6_cell, e6_orbits):
    e6 = forms.standard_gram("E6")
    orbits, maps = e6_orbits
    for a, c in maps:
        check_map(e6, e6_cell, a, c)
    assert sorted(orbits) == generated_orbits(e6_cell, maps, 2)
    assert sorted(len(o) for o in orbits) == [270, 432]
    distances = {}
    for orbit in orbits:
        r, s = orbit[0]
        edge = [a - b for a, b in zip(e6_cell[r], e6_cell[s])]
        distances[len(orbit)] = e6.inner(edge, edge)
    assert distances == {432: 2, 270: 4}
    assert series._volume_histogram(e6_cell, orbits) == E6_HISTOGRAM
