"""Circumquadrics, cell certificates, cell location, circuits, perturbations."""

import dataclasses
import itertools
import math
import re
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings, strategies as st

from tamewall import delaunay, linalg, lp
from tamewall.delaunay import (
    CircumscribedQuadric,
    InhomogeneousQuadratic,
    NonGenericPointError,
    circumscribed_quadric,
    delaunay_cell_containing,
    find_level_vector,
    is_delaunay_cell,
    perturbation_check,
    radon_triangulations,
    relative_volume,
)
from tamewall.enumeration import closest_vectors, lattice_points_in_ellipsoid
from tamewall.errors import InvariantError
from tamewall.forms import (
    QuadraticForm,
    dn_neighbor_form,
    shifted,
    standard_gram,
    tf_form,
    wall_interior_form,
)
from tamewall.series import _CENSUS_CENTER, r_n_vertices, s_n_vertices, tw_normal
from tamewall.linalg import rank
from tamewall.vecset import canonical_set, sub

from rowmath import add, identity, matmul, matvec, scaled, transpose
from test_forms import fraction_evaluate, symmetric_forms

UNIT_SQUARE = [(0, 0), (1, 0), (0, 1), (1, 1)]


def test_circumscribed_unit_square():
    quad = circumscribed_quadric(QuadraticForm.identity(2), UNIT_SQUARE)
    assert quad.status == "ok"
    assert quad.center == (F(1, 2), F(1, 2))
    assert quad.r2 == F(1, 2)


def test_circumscribed_r6_wall_form_consistent():
    assert circumscribed_quadric(wall_interior_form(6), r_n_vertices(6)).status == "ok"


def test_circumscribed_r6_off_wall_inconsistent():
    assert circumscribed_quadric(tf_form(6), r_n_vertices(6)).status == "inconsistent"


def fraction_circumscribed_quadric(f, points):
    """The centre solve on Fraction rows 2 G (v - v_0) and Fraction values."""
    pts = canonical_set(points)
    if len(pts) < 2:
        raise ValueError("need at least two points")
    v0 = pts[0]
    f0 = fraction_evaluate(f, v0)
    rows = [[2 * x for x in matvec(f.gram, sub(v, v0))] for v in pts[1:]]
    rhs = [fraction_evaluate(f, v) - f0 for v in pts[1:]]
    sol = linalg.solve(rows, rhs)
    if sol.kind == "inconsistent":
        return CircumscribedQuadric("inconsistent")
    center = sol.particular
    return CircumscribedQuadric("ok", tuple(center), fraction_evaluate(f, [a - b for a, b in zip(v0, center)]))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_circumscribed_quadric_matches_fraction_oracle(data):
    f = data.draw(symmetric_forms(max_n=4))
    point = st.tuples(*[st.integers(-3, 3)] * f.n)
    pts = data.draw(st.lists(point, min_size=2, max_size=f.n + 3, unique=True))
    quad = circumscribed_quadric(f, pts)
    assert quad == fraction_circumscribed_quadric(f, pts)
    if quad.status == "ok":
        phi = InhomogeneousQuadratic.from_circumsphere(f, quad.center, quad.r2)
        assert phi.linear == tuple(-2 * x for x in matvec(f.gram, quad.center))
        assert phi.constant == fraction_evaluate(f, quad.center) - quad.r2
        assert all(phi.evaluate(v) == 0 for v in pts)


@pytest.mark.parametrize(
    "points",
    [
        [(0, 0), (1, 0), (0, 1)],  # every point one coordinate short
        [(0, 0, 0), (1, 0, 0), (0, 1)],  # one point short
        [(0, 0, 0), (1, 0, 0), (0, 1, 0, 0)],  # one point long
    ],
)
def test_circumscribed_quadric_rejects_points_of_another_dimension(points):
    with pytest.raises(ValueError, match="dimension mismatch"):
        circumscribed_quadric(QuadraticForm.identity(3), points)


def test_is_delaunay_cell_unit_square():
    cert = is_delaunay_cell(QuadraticForm.identity(2), UNIT_SQUARE)
    assert cert.verdict
    assert cert.r2 == F(1, 2)


@pytest.mark.parametrize("n", [5, 6, 7])
def test_repartition_complex_is_cell_of_wall_form(n):
    cert = is_delaunay_cell(wall_interior_form(n), r_n_vertices(n))
    assert cert.verdict
    assert len(cert.vertices) == n + 2


def test_is_delaunay_cell_detects_proper_subface():
    # Three corners of the unit square lie on a bigger empty circle's
    # boundary only together with the fourth: subset is flagged.
    cert = is_delaunay_cell(QuadraticForm.identity(2), [(0, 0), (1, 0), (0, 1)])
    assert not cert.verdict
    assert cert.missing_boundary == (1, 1)
    assert cert.proper_subface


def test_is_delaunay_cell_detects_interior_point():
    cert = is_delaunay_cell(QuadraticForm.identity(2), [(0, 0), (2, 0), (0, 2), (2, 2)])
    assert not cert.verdict
    inside = cert.offending_interior
    assert inside is not None
    # the witness really lies strictly inside the circumdisk around (1,1)
    assert (inside[0] - 1) ** 2 + (inside[1] - 1) ** 2 < 2


def assert_matches_full_enumeration(f, pts):
    """The early-exit certificate against the whole-ellipsoid rule: the
    verdict fails on an interior point exactly when the full enumeration
    finds one, the witness lies strictly inside, and an empty ellipsoid
    gets the boundary verdict computed from every lattice point."""
    cert = is_delaunay_cell(f, pts)
    report = lattice_points_in_ellipsoid(f, cert.center, cert.r2)
    if report.interior:
        witness = cert.offending_interior
        assert not cert.verdict and witness in report.interior
        assert f.evaluate([x - c for x, c in zip(witness, cert.center)]) < cert.r2
        return cert
    assert cert.offending_interior is None
    missing = sorted(set(report.boundary) - set(cert.vertices))
    assert cert.verdict == (not missing)
    assert cert.missing_boundary == (missing[0] if missing else None)
    assert cert.proper_subface == (bool(missing) and set(cert.vertices) < set(report.boundary))
    return cert


@settings(max_examples=150, deadline=None)
@given(
    st.integers(min_value=2, max_value=3).flatmap(
        lambda n: st.tuples(
            st.lists(st.lists(st.integers(-2, 2), min_size=n, max_size=n), min_size=n, max_size=n),
            st.lists(st.lists(st.integers(-1, 1), min_size=n, max_size=n), min_size=n + 1, max_size=n + 1),
        )
    )
)
def test_early_exit_verdict_matches_full_enumeration(data):
    rows, pts = data
    n = len(rows)
    f = QuadraticForm(add(matmul(transpose(rows), rows), identity(n)), 1)
    edges = [[p[i] - pts[0][i] for i in range(n)] for p in pts[1:]]
    assume(rank(edges) == n)
    assert_matches_full_enumeration(f, pts)


@pytest.mark.parametrize("n", [5, 6, 7])
def test_early_exit_matches_full_enumeration_on_theorem1_perturbations(n):
    # the perturbation sizes verify_theorem1 tries, down to the accepted one
    wall_form = wall_interior_form(n)
    normal = tw_normal(n).normal
    eps = F(1, 4)
    while True:
        cert = assert_matches_full_enumeration(shifted(wall_form, eps, normal), s_n_vertices(n))
        if cert.verdict:
            break
        eps /= 2
    assert eps == F(1, 2 ** (n - 1))


def test_is_delaunay_cell_rejects_degenerate():
    with pytest.raises(ValueError):
        is_delaunay_cell(QuadraticForm.identity(2), [(0, 0), (1, 0)])


def test_certificate_json_roundtrips():
    cert = is_delaunay_cell(QuadraticForm.identity(2), UNIT_SQUARE)
    data = cert.to_json()
    assert data["verdict"] is True
    assert data["r2"] == "1/2"
    assert data["center"] == ["1/2", "1/2"]


def test_relative_volume_unit_simplex():
    assert relative_volume([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]) == 1


@pytest.mark.parametrize("n", range(5, 13))
def test_relative_volume_of_series(n):
    assert relative_volume(s_n_vertices(n)) == n - 3


def test_relative_volume_other_large_cell_is_one():
    n = 6
    cell = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n - 1)]
    cell.append(tuple([0] * (n - 1) + [1]))
    cell.append(tuple([1] * (n - 1) + [-(n - 3)]))
    assert relative_volume(cell) == 1


def test_relative_volume_wrong_cardinality():
    with pytest.raises(ValueError):
        relative_volume([(0, 0), (1, 0)])


def test_cell_containing_unit_square():
    cell = delaunay_cell_containing(QuadraticForm.identity(2), (F(2, 5), F(1, 3)))
    assert cell == ((0, 0), (0, 1), (1, 0), (1, 1))


@pytest.mark.parametrize("n", [5, 6])
def test_cell_containing_cube_centre_side(n, monkeypatch):
    # [1/3]^n lies inside the unit cube, a Delaunay cell of Z^n with 2^n
    # vertices.  The cut LP's optimal dual is degenerate there (its
    # support is smaller than a simplex), so the location falls back to
    # the positive-weights LP over all 2^n vertices, once.
    calls = _count_positive_solutions(monkeypatch)
    cell = delaunay_cell_containing(QuadraticForm.identity(n), [F(1, 3)] * n)
    assert cell == tuple(itertools.product((0, 1), repeat=n))
    assert calls == [2**n]


def test_cell_containing_r5_barycenter():
    wall5 = wall_interior_form(5)
    r5 = r_n_vertices(5)
    bary = tuple(sum(F(v[i]) for v in r5) / len(r5) for i in range(5))
    assert delaunay_cell_containing(wall5, bary) == r5


def test_cell_containing_non_generic():
    # (1/2, 0) lies on the shared edge of two unit-square cells
    with pytest.raises(NonGenericPointError) as err:
        delaunay_cell_containing(QuadraticForm.identity(2), (F(1, 2), F(0)))
    assert set(err.value.face_vertices) == {(0, 0), (1, 0)}


@settings(max_examples=100, deadline=None)
@given(
    st.fractions(min_value=0, max_value=1, max_denominator=23),
    st.fractions(min_value=0, max_value=1, max_denominator=29),
)
def test_cell_roundtrip_identity(x, y):
    f = QuadraticForm.identity(2)
    try:
        cell = delaunay_cell_containing(f, (x, y))
    except NonGenericPointError:
        return
    assert is_delaunay_cell(f, cell).verdict


@settings(max_examples=100, deadline=None)
@given(
    st.fractions(min_value=F(-1, 2), max_value=F(1, 2), max_denominator=17),
    st.fractions(min_value=F(-1, 2), max_value=F(1, 2), max_denominator=19),
)
def test_cell_roundtrip_a2(x, y):
    f = standard_gram("A", 2)
    try:
        cell = delaunay_cell_containing(f, (x, y))
    except NonGenericPointError:
        return
    assert is_delaunay_cell(f, cell).verdict


def _count_positive_solutions(monkeypatch):
    """The number of unknowns of each lp.positive_solution call, in a list
    filled as they happen."""
    calls = []
    real = lp.positive_solution

    def counting(eqs):
        calls.append(len(eqs[0][0]))
        return real(eqs)

    monkeypatch.setattr(lp, "positive_solution", counting)
    return calls


def positive_weights_cell_containing(f, point):
    """The former location, kept as the oracle of the integer rows and the
    dual certificate: the cut loop on Fraction rows [v, 1] <= f(v), then
    positive weights on all of the cell's vertices from
    lp.positive_solution, or the minimal face."""
    n = f.n
    t = tuple(F(c) for c in point)
    ginv, d = linalg.inverse(f.int_gram)
    half = F(f.den, 2 * d)
    constraints = {}
    for corner in itertools.product((0, 1), repeat=n):
        v = tuple(math.floor(c) + e for c, e in zip(t, corner))
        constraints[v] = fraction_evaluate(f, v)
    while True:
        rows = [([*v, 1], fv) for v, fv in constraints.items()]
        res = lp.lp_solve(objective=[*t, 1], less_equal=rows)
        g, h = res.witness[:n], res.witness[n]
        m = [half * sum(a * b for a, b in zip(row, g)) for row in ginv]
        d2, pts = closest_vectors(f, m)
        if d2 == fraction_evaluate(f, m) + h:
            break
        for p in pts:
            constraints.setdefault(p, fraction_evaluate(f, p))
    vertices = canonical_set(pts)
    eqs = [([v[i] for v in vertices], t[i]) for i in range(n)]
    eqs.append(([1] * len(vertices), 1))
    if linalg.affine_rank(vertices) != n or lp.positive_solution(eqs) is None:
        raise NonGenericPointError(delaunay._minimal_face(vertices, t))
    return vertices


def _located(locate, f, point):
    try:
        return "cell", locate(f, point)
    except NonGenericPointError as err:
        return "face", err.face_vertices


_E6_POINT = tuple(F(1, p) for p in (23, 29, 31, 37, 41, 43))
_LOCATION_FORMS = {
    "I2": QuadraticForm.identity(2),
    "I3": QuadraticForm.identity(3),
    "I4": QuadraticForm.identity(4),
    "A2": standard_gram("A", 2),
    "E6": standard_gram("E6"),
    "tf_form(6)": tf_form(6),
    "dn_neighbor_form(6)": dn_neighbor_form(6),
    "wall_interior_form(6)": wall_interior_form(6),
}


@settings(max_examples=100, deadline=None)
@given(
    st.sampled_from(sorted(_LOCATION_FORMS)),
    st.data(),
)
def test_dual_certificate_matches_positive_weights_oracle(name, data):
    # small denominators put many points on faces of the tiling, large
    # primes make them generic
    f = _LOCATION_FORMS[name]
    den = data.draw(st.sampled_from([1, 2, 3, 4, 23, 29, 31]))
    point = tuple(F(x, den) for x in data.draw(st.lists(st.integers(-2 * den, 2 * den), min_size=f.n, max_size=f.n)))
    assert _located(delaunay_cell_containing, f, point) == _located(positive_weights_cell_containing, f, point)


def test_workload_locations_make_no_positive_solution_call(monkeypatch):
    # the two sign patterns of the census point on the four 6-dim forms:
    # each cut LP's dual is positive on a simplex of the cell
    calls = _count_positive_solutions(monkeypatch)
    queries = [
        (_LOCATION_FORMS[name], tuple(s * x for s, x in zip(signs, _E6_POINT)))
        for signs in [(1, 1, 1, 1, 1, 1), (-1, 1, -1, 1, -1, 1)]
        for name in ("E6", "tf_form(6)", "dn_neighbor_form(6)", "wall_interior_form(6)")
    ]
    cells = [delaunay_cell_containing(f, point) for f, point in queries]
    assert calls == []
    # the oracle reaches the same cells with one positive-weights LP each
    assert cells == [positive_weights_cell_containing(f, point) for f, point in queries]
    assert len(calls) == 8


@pytest.mark.parametrize(
    "tamper",
    [
        lambda y: (2 * y[0], *y[1:]),
        lambda y: tuple(-w for w in y),
        lambda y: y[:-1],
        lambda y: None,
    ],
    ids=["scaled", "negative", "short", "missing"],
)
def test_tampered_cut_lp_dual_raises_invariant_error(monkeypatch, tamper):
    real = lp.lp_solve

    def tampered(**kwargs):
        res = real(**kwargs)
        return dataclasses.replace(res, duals=tamper(res.duals))

    monkeypatch.setattr(lp, "lp_solve", tampered)
    with pytest.raises(InvariantError, match="cell LP"):
        delaunay_cell_containing(standard_gram("E6"), _E6_POINT)


def test_dual_moved_off_the_cell_raises_invariant_error(monkeypatch):
    # the weights of a simplex of the cell moved onto equal points outside
    # it: the sum still holds, the support check does not
    real = delaunay._dual_certifies

    def shifted_points(duals, constraints, vertices, t):
        far = {tuple(x + 5 for x in v): row for v, row in constraints.items()}
        return real(duals, far, vertices, t)

    monkeypatch.setattr(delaunay, "_dual_certifies", shifted_points)
    with pytest.raises(InvariantError, match="off the cell"):
        delaunay_cell_containing(QuadraticForm.identity(2), (F(2, 5), F(1, 3)))


def per_vertex_minimal_face(vertices, t):
    """The former _minimal_face, kept as its oracle: one LP per vertex,
    maximizing that vertex's weight over the convex representations of t."""
    k = len(vertices)
    n = len(t)
    eqs = [([F(v[i]) for v in vertices], t[i]) for i in range(n)]
    eqs.append(([F(1)] * k, F(1)))
    nonneg = []
    for idx in range(k):
        row = [F(0)] * k
        row[idx] = F(-1)
        nonneg.append((row, F(0)))
    face = []
    for idx in range(k):
        obj = [F(0)] * k
        obj[idx] = F(1)
        res = lp.lp_solve(objective=obj, equalities=eqs, less_equal=nonneg)
        if res.status == "optimal" and res.optimum > 0:
            face.append(vertices[idx])
    return tuple(face)


@settings(max_examples=100, deadline=None)
@given(
    st.integers(min_value=1, max_value=3).flatmap(
        lambda d: st.lists(
            st.tuples(*[st.integers(min_value=-2, max_value=2)] * d),
            min_size=2,
            max_size=6,
            unique=True,
        )
    ),
    st.data(),
)
def test_minimal_face_matches_per_vertex_lps(vertices, data):
    support = data.draw(st.lists(st.sampled_from(range(len(vertices))), min_size=1, unique=True))
    weights = data.draw(
        st.lists(st.integers(min_value=1, max_value=5), min_size=len(support), max_size=len(support))
    )
    total = sum(weights)
    d = len(vertices[0])
    t = tuple(sum(F(w, total) * vertices[u][i] for u, w in zip(support, weights)) for i in range(d))
    face = delaunay._minimal_face(vertices, t)
    assert face == per_vertex_minimal_face(vertices, t)
    assert set(vertices[u] for u in support) <= set(face)


def test_e6_non_generic_face_is_one_lp(monkeypatch):
    # (1/2, 1/2, 0, 0, 0, 0) lies on a 10-vertex face of a 27-vertex E6 cell;
    # the face is captured from the per-vertex LPs.
    face = (
        (0, 0, -1, -1, -1, -1), (0, 0, -1, -1, -1, 0), (0, 0, -1, -1, 0, 0),
        (0, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0), (1, 0, 0, 0, 0, 0),
        (1, 1, 0, 0, 0, 0), (1, 1, 1, 1, 0, 0), (1, 1, 1, 1, 1, 0),
        (1, 1, 1, 1, 1, 1),
    )
    t = (F(1, 2), F(1, 2), 0, 0, 0, 0)
    seen = []
    real_face = delaunay._minimal_face
    monkeypatch.setattr(delaunay, "_minimal_face", lambda v, t: seen.append(v) or real_face(v, t))
    with pytest.raises(NonGenericPointError) as err:
        delaunay_cell_containing(standard_gram("E6"), t)
    assert err.value.face_vertices == face
    assert [len(v) for v in seen] == [27]
    solves = []
    real_solve = lp.lp_solve
    monkeypatch.setattr(lp, "lp_solve", lambda **kw: solves.append(1) or real_solve(**kw))
    assert tuple(sorted(real_face(seen[0], t))) == face
    assert len(solves) == 1


def test_cell_lp_not_optimal_raises_invariant_error(monkeypatch):
    monkeypatch.setattr(lp, "lp_solve", lambda **kwargs: lp.LPResult("unbounded"))
    with pytest.raises(InvariantError, match="cell LP"):
        delaunay_cell_containing(QuadraticForm.identity(2), (F(2, 5), F(1, 3)))


def test_cell_location_refuses_no_dimension(monkeypatch):
    # n = 11 goes straight to the seed LP over its 2^11 box corners; the
    # stubbed solver stops the run there, before the slow cutting planes
    seeds = []

    def first_lp(**kwargs):
        seeds.append(len(kwargs["less_equal"]))
        return lp.LPResult("unbounded")

    monkeypatch.setattr(lp, "lp_solve", first_lp)
    with pytest.raises(InvariantError, match="cell LP"):
        delaunay_cell_containing(QuadraticForm.identity(11), [F(1, 3)] * 11)
    assert seeds == [2 ** 11]


def test_separation_oracle_without_new_point_raises_invariant_error(monkeypatch):
    # a "violated" constraint at a point the LP already has
    monkeypatch.setattr(delaunay, "closest_vectors", lambda f, m: (F(-100), ((0, 0),)))
    with pytest.raises(InvariantError, match="separation oracle"):
        delaunay_cell_containing(QuadraticForm.identity(2), (F(2, 5), F(1, 3)))


def test_support_function_off_the_lift_raises_invariant_error(monkeypatch):
    def too_far(f, m):
        d2, pts = closest_vectors(f, m)
        return d2 + 1, pts

    monkeypatch.setattr(delaunay, "closest_vectors", too_far)
    with pytest.raises(InvariantError, match="touch the lattice lift"):
        delaunay_cell_containing(QuadraticForm.identity(2), (F(2, 5), F(1, 3)))


def test_radon_r6():
    rad = radon_triangulations(r_n_vertices(6))
    vols = sorted(rad.volumes_plus), sorted(rad.volumes_minus)
    assert sorted(map(tuple, vols)) == [(1, 1, 1, 1, 1), (1, 1, 3)]


@pytest.mark.parametrize("n", range(5, 11))
def test_radon_volume_totals_match(n):
    rad = radon_triangulations(r_n_vertices(n))
    both = [sorted(rad.volumes_plus), sorted(rad.volumes_minus)]
    assert sorted(map(len, both)) == [3, n - 1]
    small = min(both, key=len)
    assert sorted(small) == [1, 1, n - 3]
    big = max(both, key=len)
    assert all(v == 1 for v in big)
    assert sum(small) == sum(big) == n - 1


def test_radon_planar_square():
    rad = radon_triangulations(UNIT_SQUARE)
    assert sorted(rad.volumes_plus) == [1, 1]
    assert sorted(rad.volumes_minus) == [1, 1]


def test_radon_rejects_non_circuit():
    # (2,0) is affinely redundant: dependence coefficient vanishes nowhere
    # only for genuine circuits.
    with pytest.raises(ValueError):
        radon_triangulations([(0, 0), (1, 0), (2, 0), (0, 1)])


def test_radon_invariant_under_unimodular_images():
    u = [[1, 2, 0, 0, 0], [0, 1, 0, 0, 0], [0, 0, 1, 0, 3], [0, 1, 0, 1, 0], [0, 0, 0, 0, 1]]
    pts = [matvec(u, p) for p in r_n_vertices(5)]
    rad = radon_triangulations(pts)
    assert sorted(sorted(v) for v in (rad.volumes_plus, rad.volumes_minus)) == [
        [1, 1, 1, 1],
        [1, 1, 2],
    ]


def test_level_vector_unit_square():
    assert find_level_vector((0, 0), UNIT_SQUARE) == (1, 1)


def test_level_vector_segment():
    assert find_level_vector((0,), [(0,), (1,)]) == (1,)


def test_level_vector_missing_is_none():
    # No integer p can put both 3e_1 and e_1 in {1,2}: products are 3k, k.
    assert find_level_vector((0,), [(0,), (1,), (3,)]) is None


def test_level_vector_falls_back_to_the_full_box(monkeypatch):
    # (0, 1).p in {1, 2} forces p_2 in {1, 2}, and then (1, -6).p in {1, 2}
    # needs p_1 >= 7: the boxes of size 2 and 4 miss, the box-8 pass finds it
    cell = [(0, 0), (0, 1), (1, -6)]
    assert delaunay._level_dfs([(0, 1), (1, -6)], 2, 4) is None
    calls = []
    solve = lp.lp_solve
    monkeypatch.setattr(lp, "lp_solve", lambda *a, **k: calls.append(1) or solve(*a, **k))
    assert find_level_vector((0, 0), cell) == (7, 1)
    assert calls  # the LP pre-check of the box-8 pass ran


def test_level_box_coordinate_range_of_one_integer():
    # 1 <= 2p <= 2 bounds p to [1/2, 1]: lo == hi == 1, so the box is scanned
    assert delaunay._level_via_lp_box([(2,)], 1) == (1,)


def test_level_box_empty_coordinate_range():
    # 1 <= 3p <= 2 bounds p to [1/3, 2/3], which holds no integer
    assert delaunay._level_via_lp_box([(3,)], 1) is None


def test_level_vector_requires_membership():
    with pytest.raises(ValueError):
        find_level_vector((5, 5), UNIT_SQUARE)


def test_level_vector_requires_another_vertex():
    # a repeated vertex is not another one
    with pytest.raises(ValueError, match="no other vertex"):
        find_level_vector((0, 0), [(0, 0), [0, 0]])


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_level_vector_ignores_row_order_and_repeats(data):
    """A shuffled cell with repeated vertices, given as lists, has the
    level vectors of its canonical form, None included."""
    if data.draw(st.booleans()):
        cell = list(_E6_CELL)
    else:
        n = data.draw(st.integers(1, 3))
        point = st.tuples(*[st.integers(-2, 2)] * n)
        cell = data.draw(st.lists(point, min_size=2, max_size=6, unique=True))
    v = data.draw(st.sampled_from(cell))
    repeats = data.draw(st.lists(st.sampled_from(cell), max_size=4))
    messy = [list(u) for u in data.draw(st.permutations(cell + repeats))]
    assert find_level_vector(v, messy) == find_level_vector(v, canonical_set(cell))


def _square_phi():
    f = QuadraticForm.identity(2)
    quad = circumscribed_quadric(f, UNIT_SQUARE)
    return f, InhomogeneousQuadratic.from_circumsphere(f, quad.center, quad.r2)


def test_perturbation_term_values_on_cell():
    # Each term ((x-v).p - 1)((x-v).p - 2) vanishes on every other cell
    # vertex and equals 2 at v itself; nonnegative on sampled lattice points.
    _, phi = _square_phi()
    for v in UNIT_SQUARE:
        p = find_level_vector(v, UNIT_SQUARE)
        term = lambda x: (
            (sum((xi - vi) * pi for xi, vi, pi in zip(x, v, p)) - 1)
            * (sum((xi - vi) * pi for xi, vi, pi in zip(x, v, p)) - 2)
        )
        for u in UNIT_SQUARE:
            assert term(u) == (2 if u == v else 0)
        for x in [(-3, 4), (5, 5), (-2, -2), (7, 0)]:
            assert term(x) >= 0


def test_perturbation_unit_square_triangle():
    f, phi = _square_phi()
    rep = perturbation_check(f, phi, UNIT_SQUARE, [(0, 0), (1, 1), (1, 0)], F(1, 4))
    assert rep.verdict
    assert rep.boundary == ((0, 0), (1, 0), (1, 1))
    assert rep.interior == ()


def test_perturbation_report_keeps_only_the_verdict_and_lattice_points():
    f, phi = _square_phi()
    rep = perturbation_check(f, phi, UNIT_SQUARE, [(0, 0)], F(1, 4))
    assert rep.verdict
    # neither the perturbed quadratic nor the level vectors, which are
    # find_level_vector's for the excluded vertices
    fields = [field.name for field in dataclasses.fields(rep)]
    assert fields == ["verdict", "boundary", "interior", "failure_reason"]


def test_perturbation_boundary_is_the_callers_vertices_when_the_verdict_holds():
    f, phi = _square_phi()
    rep = perturbation_check(f, phi, UNIT_SQUARE, [(1, 1), (0, 0), (1, 0)], F(1, 4))
    assert rep.verdict
    assert rep.boundary == ((0, 0), (1, 0), (1, 1))
    assert all(any(v is u for u in UNIT_SQUARE) for v in rep.boundary)
    # three corners given as the cell, with the circle through all four:
    # the verdict fails, and the report keeps the enumerated boundary
    triangle = [(0, 0), (1, 0), (0, 1)]
    rep = perturbation_check(f, phi, triangle, triangle, F(1, 4))
    assert not rep.verdict
    assert rep.boundary == ((0, 0), (0, 1), (1, 0), (1, 1))
    assert not any(v is u for v in rep.boundary for u in triangle)


def test_perturbation_full_cell_is_identity():
    f, phi = _square_phi()
    rep = perturbation_check(f, phi, UNIT_SQUARE, UNIT_SQUARE, F(1, 10))
    assert rep.verdict
    assert rep.boundary == tuple(sorted(UNIT_SQUARE))


def test_perturbation_validates_inputs():
    f, phi = _square_phi()
    with pytest.raises(ValueError):
        perturbation_check(f, phi, UNIT_SQUARE, [], F(1, 4))
    with pytest.raises(ValueError):
        perturbation_check(f, phi, UNIT_SQUARE, [(9, 9)], F(1, 4))
    with pytest.raises(ValueError):
        perturbation_check(f, phi, UNIT_SQUARE, [(0, 0)], F(-1, 4))


@pytest.mark.parametrize(
    "shift, vertex",
    [(F(0), (1, 1)), (F(1, 7), (0, 0))],
)
def test_perturbation_names_the_first_vertex_where_phi_does_not_vanish(shift, vertex):
    # phi through the circle of the first three points under a form with a
    # denominator: it misses (1, 1), and with its constant shifted every vertex
    f = QuadraticForm([[2, 1], [1, 2]], 3)
    cell = [(0, 0), (1, 0), (0, 1), (1, 1), (2, 1)]
    quad = circumscribed_quadric(f, cell[:3])
    phi = InhomogeneousQuadratic.from_circumsphere(f, quad.center, quad.r2 + shift)
    message = f"phi_const does not vanish on cell vertex {vertex}"
    with pytest.raises(ValueError, match=re.escape(message) + "$"):
        perturbation_check(f, phi, cell, cell[:3], F(1, 10))


def test_perturbation_of_mismatched_dimensions_is_refused():
    f, phi = _square_phi()
    cell = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]
    with pytest.raises(ValueError, match="^vector dimension mismatch$"):
        perturbation_check(f, phi, cell, cell[:1], F(1, 4))


def test_perturbed_wall_form_has_big_simplex_cell():
    n = 6
    wall_form = wall_interior_form(n)
    wall = tw_normal(n)
    g = shifted(wall_form, F(1, 32), wall.normal)
    assert g.is_positive_definite
    cert = is_delaunay_cell(g, s_n_vertices(n))
    assert cert.verdict
    assert len(cert.vertices) == n + 1


# -- the perturbed Gram against the Fraction matrix sum it replaced -----------

def fraction_perturbed_gram(f, cell, subset, alpha, levels):
    """G plus alpha p p^T for each cell vertex outside the subset, one
    Fraction matrix addition per vertex."""
    gram = f.gram
    for u in canonical_set(cell):
        if u not in set(canonical_set(subset)):
            p = levels[u]
            gram = add(gram, scaled(tuple(tuple(a * b for b in p) for a in p), alpha))
    return gram


def fraction_perturbed_terms(phi_const, cell, subset, alpha, levels):
    """The linear and constant terms of phi, one Fraction multiply-add of
    alpha ((x - u).p - 1)((x - u).p - 2)'s terms per excluded vertex u."""
    linear = list(phi_const.linear)
    const = phi_const.constant
    for u in canonical_set(cell):
        if u not in set(canonical_set(subset)):
            p = levels[u]
            pv = sum(F(a) * b for a, b in zip(p, u))
            linear = [b + alpha * (-2 * pv - 3) * x for b, x in zip(linear, p)]
            const += alpha * (pv * pv + 3 * pv + 2)
    return tuple(linear), const


def _perturbed_forms(monkeypatch):
    """The quadratic parts perturbation_check hands to the enumerator, and
    the perturbed quadratics whose square it completes."""
    seen, phis = [], []
    enumerate_points = delaunay.lattice_points_in_ellipsoid
    complete = InhomogeneousQuadratic.completed_square

    def recording(form, center, r2):
        seen.append(form)
        return enumerate_points(form, center, r2)

    monkeypatch.setattr(delaunay, "lattice_points_in_ellipsoid", recording)
    monkeypatch.setattr(InhomogeneousQuadratic, "completed_square", lambda phi: phis.append(phi) or complete(phi))
    return seen, phis


_E6 = standard_gram("E6")
_E6_CELL = closest_vectors(_E6, _CENSUS_CENTER)[1]
_E6_QUAD = circumscribed_quadric(_E6, _E6_CELL)
_E6_PHI = InhomogeneousQuadratic.from_circumsphere(_E6, _E6_QUAD.center, _E6_QUAD.r2)


@settings(max_examples=100, deadline=None)
@given(
    st.sets(st.integers(0, 26), min_size=1, max_size=26),
    st.fractions(min_value=F(1, 40), max_value=4, max_denominator=40),
)
def test_perturbed_gram_matches_fraction_oracle(indices, alpha):
    subset = [_E6_CELL[i] for i in sorted(indices)]
    with pytest.MonkeyPatch.context() as m:
        seen, phis = _perturbed_forms(m)
        rep = perturbation_check(_E6, _E6_PHI, _E6_CELL, subset, alpha)
    if rep.failure_reason is not None:
        assert seen == []
        return
    assert len(seen) == len(phis) == 1
    levels = {u: find_level_vector(u, _E6_CELL) for u in _E6_CELL if u not in subset}
    assert seen[0].gram == fraction_perturbed_gram(_E6, _E6_CELL, subset, alpha, levels)
    # the terms summed in integers and scaled by alpha once
    linear, const = fraction_perturbed_terms(_E6_PHI, _E6_CELL, subset, alpha, levels)
    assert phis[0].linear == linear and phis[0].constant == const
    assert all(type(x) is F for x in (*phis[0].linear, phis[0].constant))
