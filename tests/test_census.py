"""The census walk over exterior products against the subset loop and the
one-vertex-per-orbit and one-ordered-pair-per-orbit walks it replaced, and
the certified orbits of unordered vertex triples it walks through."""

import itertools
import tracemalloc
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


def pair_walk_histogram(points, orbits):
    """Oracle: the census walk through one ordered pair (r, s) = O[0] per
    orbit O of ordered pairs of distinct indices, its counts weighted by |O|
    and divided by (d + 1) d."""
    n = len(points[0]) + 1
    if len(points) < n:
        return {}
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
        r, s = orbit[0]
        # s first: the walk from (r, 1) takes s at depth 1 and never passes it
        others = [rows[s], *(row for i, row in enumerate(rows) if i != r and i != s)]
        m = len(others)
        hist = Counter()

        def walk(start, stop, k, minors):
            signed = [*minors, *map(neg, minors)]
            if k == n - 1:
                cofactors = plans[k][1](signed)
                hist.update(abs(sum(map(mul, cofactors, w))) for w in others[start:stop])
                return
            pick_cols, pick_minors, width = plans[k]
            terms = pick_minors(signed)
            for i in range(start, stop):
                products = list(map(mul, pick_cols(others[i]), terms))
                extended = list(map(sum, zip(*[iter(products)] * width)))
                if any(extended):
                    walk(i + 1, m - (n - 2 - k), k + 1, extended)
                else:
                    hist[0] += comb(m - i - 1, n - k - 1)

        walk(0, 1, 1, list(rows[r]))
        for volume, count in hist.items():
            total[volume] += len(orbit) * count
    histogram = {}
    for volume, count in sorted(total.items()):
        histogram[volume], rest = divmod(count, n * (n - 1))
        assert rest == 0
    return histogram


def singletons(points, k):
    """Every k-subset of indices, as a sorted tuple, as its own orbit."""
    return [[t] for t in itertools.combinations(range(len(points)), k)]


def pair_singletons(points):
    """Every ordered pair of distinct indices as its own orbit."""
    return [[t] for t in itertools.permutations(range(len(points)), 2)]


def oracle_histograms(points, vertex_orbits, pair_orbits):
    """The subset loop's histogram, and those of the vertex and ordered-pair
    walks through the given orbits."""
    return (
        subset_loop_histogram(points),
        vertex_walk_histogram(points, vertex_orbits),
        pair_walk_histogram(points, pair_orbits),
    )


@st.composite
def point_sets(draw):
    """Up to 9 points in Z^d, d = 1..4, with repeats and affinely dependent
    points mixed in so that whole subtrees of the walk have volume 0."""
    d = draw(st.integers(min_value=1, max_value=4))
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
@example([(0,), (3,), (3,), (-1,)])
def test_walk_matches_subset_loop(points):
    k = min(3, len(points[0]) + 1)
    hist = series._volume_histogram(points, singletons(points, k))
    vertices = [[i] for i in range(len(points))]
    assert oracle_histograms(points, vertices, pair_singletons(points)) == (hist,) * 3


@pytest.mark.parametrize("points", [
    [(1, 2, 3)],
    [(0, 0), (1, 1)],
    [(0, 0, 0), (1, 0, 0), (0, 0, 0)],
    [(0,), (2,), (5,), (5,)],
])
def test_few_points_give_the_vertex_walk_histogram(points):
    # fewer than 2 points, fewer than d + 1 points, and d = 1, walked
    # through each arity up to 3
    vertices = [[i] for i in range(len(points))]
    expected = oracle_histograms(points, vertices, pair_singletons(points))
    for k in range(1, min(3, len(points[0]) + 1) + 1):
        assert (series._volume_histogram(points, singletons(points, k)),) * 3 == expected


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
    hist = series._volume_histogram(points, singletons(points, 3))
    vertices = [[i] for i in range(12)]
    assert oracle_histograms(points, vertices, pair_singletons(points)) == (hist,) * 3
    assert sum(hist.values()) == comb(12, 7)


def apply(a, c, p):
    return tuple(sum(x * y for x, y in zip(row, p)) + s for row, s in zip(a, c))


def check_map(f, points, a, c):
    """Re-verify an accepted map x -> A x + c from scratch: integral,
    Gram-preserving, and onto the point set."""
    assert all(type(x) is int for row in a for x in row) and all(type(x) is int for x in c)
    d = len(a)
    gram = [[f.gram[i][j] for j in range(d)] for i in range(d)]
    a_t_g_a = [[sum(a[k][i] * gram[k][l] * a[l][j] for k in range(d) for l in range(d))
                for j in range(d)] for i in range(d)]
    assert a_t_g_a == gram
    assert {apply(a, c, p) for p in points} == set(points)


def generated_orbits(points, maps, arity, ordered=True):
    """Orbits of the tuples of `arity` distinct indices under the maps, or
    of the sorted tuples (the unordered subsets) when not `ordered`, closed
    breadth first: each orbit a sorted list, the orbits sorted."""
    index = {p: i for i, p in enumerate(points)}
    perms = [[index[apply(a, c, p)] for p in points] for a, c in maps]
    tuples = itertools.permutations if ordered else itertools.combinations
    seen, orbits = set(), []
    for t in tuples(range(len(points)), arity):
        if t in seen:
            continue
        seen.add(t)
        orbit = [t]
        for u in orbit:
            for perm in perms:
                image = tuple(perm[i] for i in u)
                if not ordered:
                    image = tuple(sorted(image))
                if image not in seen:
                    seen.add(image)
                    orbit.append(image)
        orbits.append(sorted(orbit))
    return sorted(orbits)


def check_orbits(f, points):
    """The triple orbits are exactly the unordered ones generated by the
    accepted maps, and the walk through the orbits of k = min(3, d + 1)
    subsets of the same maps, and through singletons, gives the subset
    loop's histogram and those of the vertex and ordered-pair walks through
    the vertex and pair orbits of the same maps."""
    orbits, maps = isometry._triple_orbits(f, points)
    for a, c in maps:
        check_map(f, points, a, c)
    assert orbits == generated_orbits(points, maps, 3, ordered=False)
    assert all(orbit == sorted(orbit) for orbit in orbits) and orbits == sorted(orbits)
    vertex_orbits = [[i for (i,) in orbit] for orbit in generated_orbits(points, maps, 1)]
    expected = oracle_histograms(points, vertex_orbits, generated_orbits(points, maps, 2))
    k = min(3, f.n + 1)
    walked = orbits if k == 3 else generated_orbits(points, maps, k, ordered=False)
    assert (series._volume_histogram(points, walked),) * 3 == expected
    assert (series._volume_histogram(points, singletons(points, k)),) * 3 == expected
    return orbits, vertex_orbits, maps


@st.composite
def symmetric_point_sets(draw):
    """Distinct points: random ones, or subsets of {0,1}^d and {-1,0,1}^d,
    whose many partial symmetries give orbits of several sizes."""
    d = draw(st.integers(min_value=1, max_value=4))
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
@example((1, [(0,), (1,), (-1,)]), True)
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
    assert orbits == singletons(points, 3)
    assert vertex_orbits == [[0], [1], [2]]
    assert maps == []


def test_non_exact_orbit_weight_raises():
    # Of the five 4-subsets, (0,1,2,3) has volume 1, (0,1,2,4) 3 and
    # (0,1,3,4) 2: the triple (0, 1, 2) lies on volumes 1 and 3, (0, 1, 3)
    # on volumes 1 and 2, so the false orbit gives volume 2 a weighted
    # count of 4 - 1 = 3
    points = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 2, 3)]
    false_orbit = [(0, 1, 2), (0, 1, 3)]
    orbits = [false_orbit] + [o for o in singletons(points, 3) if o[0] not in false_orbit]
    assert series._volume_histogram(points, singletons(points, 3)) == {1: 2, 2: 1, 3: 1, 5: 1}
    with pytest.raises(InvariantError, match="volume 2 is not a multiple of 4"):
        series._volume_histogram(points, orbits)


FIVE_PLANE_POINTS = [(0, 0), (1, 0), (0, 1), (2, 3), (1, 1)]


@pytest.mark.parametrize("orbits", [
    [[()]],
    [[t] for t in itertools.combinations(range(5), 4)],
    [[(0, 1)], [(0, 2, 3)]] + [[t] for t in itertools.combinations(range(5), 2) if t != (0, 1)],
    [[(0, 1), (0, 1, 2)]] + [[t] for t in itertools.combinations(range(5), 3) if t != (0, 1, 2)],
    [],
], ids=["k=0", "k=d+2", "mixed-orbits", "mixed-in-one-orbit", "no-orbit"])
def test_orbits_of_mixed_or_oversized_arity_raise(orbits):
    with pytest.raises(ValueError, match="one size between 1 and 3"):
        series._volume_histogram(FIVE_PLANE_POINTS, orbits)


@pytest.mark.parametrize("orbits", [
    [[(0, 1, 2)]],
    [[t] for t in itertools.combinations(range(5), 2)] + [[(0, 1)]],
])
def test_orbits_of_the_wrong_total_size_raise(orbits):
    with pytest.raises(ValueError, match="partition"):
        series._volume_histogram(FIVE_PLANE_POINTS, orbits)

E6_HISTOGRAM = {0: 497070, 1: 381672, 2: 9072, 3: 216}


@pytest.fixture(scope="module")
def e6_orbits(e6_cell):
    return isometry._triple_orbits(forms.standard_gram("E6"), e6_cell)


def squared_distances(f, points, subset):
    """The f-norms of the edges between the points of an index subset."""
    edges = [[a - b for a, b in zip(points[r], points[s])] for r, s in itertools.combinations(subset, 2)]
    return sorted(f.evaluate(e) for e in edges)


def test_e6_cell_is_one_certified_orbit(e6_cell, e6_orbits):
    _, maps = e6_orbits
    assert generated_orbits(e6_cell, maps, 1) == [[(i,) for i in range(27)]]
    assert vertex_walk_histogram(e6_cell, [list(range(27))]) == E6_HISTOGRAM


def test_e6_cell_has_two_certified_pair_orbits(e6_cell, e6_orbits):
    e6 = forms.standard_gram("E6")
    _, maps = e6_orbits
    for a, c in maps:
        check_map(e6, e6_cell, a, c)
    orbits = generated_orbits(e6_cell, maps, 2)
    assert sorted(len(o) for o in orbits) == [270, 432]
    distances = {len(o): squared_distances(e6, e6_cell, o[0]) for o in orbits}
    assert distances == {432: [2], 270: [4]}
    assert pair_walk_histogram(e6_cell, orbits) == E6_HISTOGRAM


def test_e6_cell_has_four_certified_triple_orbits(e6_cell, e6_orbits):
    e6 = forms.standard_gram("E6")
    orbits, maps = e6_orbits
    assert orbits == generated_orbits(e6_cell, maps, 3, ordered=False)
    assert sorted(len(o) for o in orbits) == [45, 720, 1080, 1080]
    assert sum(map(len, orbits)) == comb(27, 3)
    distances = sorted((len(o), squared_distances(e6, e6_cell, o[0])) for o in orbits)
    assert distances == [(45, [4, 4, 4]), (720, [2, 2, 2]), (1080, [2, 2, 4]), (1080, [2, 4, 4])]
    # the tritangent triples: the vertices are the 27 lines on a cubic
    # surface, two at distance 4 when they meet; each line lies in 5 of the
    # 45 tritangent planes, and three lines meeting pairwise span one
    (tritangent,) = [o for o in orbits if len(o) == 45]
    assert tritangent == [t for t in itertools.combinations(range(27), 3)
                          if squared_distances(e6, e6_cell, t) == [4, 4, 4]]
    assert Counter(i for t in tritangent for i in t) == dict.fromkeys(range(27), 5)
    assert series._volume_histogram(e6_cell, orbits) == E6_HISTOGRAM


def test_census_walk_memory_stays_small():
    series.gosset_census()  # warm: the first call may build module state
    tracemalloc.start()
    try:
        series.gosset_census()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


# The Cartan matrix of E7 in Bourbaki's numbering (the branch node 2 on
# node 4 of the chain 1-3-4-5-6-7), the Gram matrix of its simple roots.
E7_CARTAN = [
    [2, 0, -1, 0, 0, 0, 0],
    [0, 2, 0, -1, 0, 0, 0],
    [-1, 0, 2, -1, 0, 0, 0],
    [0, -1, -1, 2, -1, 0, 0],
    [0, 0, 0, -1, 2, -1, 0],
    [0, 0, 0, 0, -1, 2, -1],
    [0, 0, 0, 0, 0, -1, 2],
]
# The fundamental weight of node 7 in simple-root coordinates: a deep hole
# of E7, the centre of its 56-vertex Gosset cell.
E7_OMEGA7 = (1, F(3, 2), 2, 3, F(5, 2), 2, F(3, 2))


def test_e7_cell_has_five_certified_triple_orbits():
    e7 = QuadraticForm(E7_CARTAN, 1)
    d2, cell = closest_vectors(e7, E7_OMEGA7)
    assert d2 == F(3, 2) and len(cell) == 56
    orbits, maps = isometry._triple_orbits(e7, cell)
    for a, c in maps:
        check_map(e7, cell, a, c)
    assert generated_orbits(cell, maps, 1) == [[(i,) for i in range(56)]]
    pairs = generated_orbits(cell, maps, 2)
    assert sorted((len(o), squared_distances(e7, cell, o[0])) for o in pairs) == [
        (56, [6]), (1512, [2]), (1512, [4])]
    assert orbits == generated_orbits(cell, maps, 3, ordered=False)
    assert sorted((len(o), squared_distances(e7, cell, o[0])) for o in orbits) == [
        (1512, [2, 4, 6]), (2520, [4, 4, 4]), (4032, [2, 2, 2]), (7560, [2, 2, 4]), (12096, [2, 4, 4])]
    assert sum(map(len, orbits)) == comb(56, 3)
