"""The census walk over exterior products against the subset loop it replaced."""

import itertools
from math import comb

from hypothesis import example, given, settings, strategies as st

from tamewall import delaunay, forms, kernels, series


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
    assert series._volume_histogram(points) == subset_loop_histogram(points)


def test_walk_matches_subset_loop_on_e6_cell_prefix():
    cell = delaunay.delaunay_cell_containing(forms.standard_gram("E6"), series._CENSUS_POINT)
    points = cell[:12]
    hist = series._volume_histogram(points)
    assert hist == subset_loop_histogram(points)
    assert sum(hist.values()) == comb(12, 7)
