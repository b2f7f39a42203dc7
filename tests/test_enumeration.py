"""Lattice enumeration against an independent brute-force box oracle and
against the rational depth-first search it replaced, its per-query scaling
on the integer LDL data against the Fraction one, and the queries on the
integer visit contract against their former Fraction versions."""

import itertools
from fractions import Fraction as F
from math import floor, isqrt, lcm

import pytest
from hypothesis import example, given, settings, strategies as st

from tamewall import linalg
from tamewall.enumeration import (
    _STOP,
    _Enumerator,
    arithmetic_minimum,
    closest_vectors,
    first_interior_point,
    lattice_points_in_ellipsoid,
    vectors_up_to,
)
from tamewall.forms import (
    QuadraticForm,
    big_simplex_dual_vectors,
    dn_neighbor_form,
    standard_gram,
    tf_form,
    wall_interior_form,
)
from tamewall.series import complementary_vectors, r_n_vertices
from tamewall.vecset import canonical_set, canonical_sign
from tamewall.delaunay import circumscribed_quadric

from rowmath import add, form, identity, matmul, over, scaled, transpose
from test_linalg import fraction_ldl


def brute_force_minimum(f: QuadraticForm):
    """Independent oracle: exhaustive box search with a provable bound.

    Any v with f(v) <= C satisfies v_i^2 <= C * (G^{-1})_ii.
    """
    n = f.n
    bound = min(f.gram[i][i] for i in range(n))
    inv = over(*linalg.inverse(f.gram))
    radii = []
    for i in range(n):
        limit = bound * inv[i][i]
        radii.append(isqrt(limit.numerator // limit.denominator) + 1)
    best = None
    vecs = []
    for v in itertools.product(*[range(-r, r + 1) for r in radii]):
        if all(x == 0 for x in v):
            continue
        val = f.evaluate(v)
        if best is None or val < best:
            best, vecs = val, [v]
        elif val == best:
            vecs.append(v)
    return best, canonical_set(canonical_sign(v) for v in vecs)


pd_form = st.integers(min_value=1, max_value=3).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(min_value=-2, max_value=2), min_size=n, max_size=n),
        min_size=n,
        max_size=n,
    )
)


def _pd_from_rows(rows):
    return QuadraticForm(add(matmul(transpose(rows), rows), identity(len(rows))), 1)


@settings(max_examples=120, deadline=None)
@given(pd_form)
def test_minimum_matches_brute_force(rows):
    f = _pd_from_rows(rows)
    report = arithmetic_minimum(f)
    oracle_min, oracle_vecs = brute_force_minimum(f)
    assert report.minimum == oracle_min
    assert report.vectors == oracle_vecs
    assert report.total_count == 2 * report.pair_count


def test_minimum_tf5_matches_brute_force():
    f = tf_form(5)
    report = arithmetic_minimum(f)
    oracle_min, oracle_vecs = brute_force_minimum(f)
    assert (report.minimum, report.vectors) == (oracle_min, oracle_vecs)


def test_minimum_identity_n3():
    rep = arithmetic_minimum(QuadraticForm.identity(3))
    assert rep.minimum == 1
    assert rep.vectors == ((0, 0, 1), (0, 1, 0), (1, 0, 0))
    assert rep.total_count == 6


def test_minimum_counts_of_series_forms():
    assert arithmetic_minimum(tf_form(6)).total_count == 54
    assert arithmetic_minimum(dn_neighbor_form(6)).total_count == 60


def test_minimum_rejects_indefinite():
    with pytest.raises(ValueError):
        arithmetic_minimum(QuadraticForm([[1, 0], [0, -1]], 1))


@pytest.mark.parametrize("n", range(5, 10))
def test_minimal_vectors_are_dual_system_plus_complements(n):
    tf_vecs = arithmetic_minimum(tf_form(n)).vectors
    expected = canonical_set(big_simplex_dual_vectors(n) + complementary_vectors(n, "TF"))
    assert tf_vecs == expected
    dn_vecs = arithmetic_minimum(dn_neighbor_form(n)).vectors
    expected = canonical_set(big_simplex_dual_vectors(n) + complementary_vectors(n, "Dn"))
    assert dn_vecs == expected


def test_vectors_up_to_identity():
    pairs = vectors_up_to(QuadraticForm.identity(2), 2)
    by_value = {}
    for _, val in pairs:
        by_value[val] = by_value.get(val, 0) + 1
    assert by_value == {1: 2, 2: 2}


def test_vectors_up_to_e6_roots():
    pairs = vectors_up_to(standard_gram("E6"), 2)
    assert len(pairs) == 36  # 72 roots up to sign


def test_vectors_up_to_zero_bound():
    assert vectors_up_to(QuadraticForm.identity(3), 0) == []


def test_ellipsoid_unit_square():
    rep = lattice_points_in_ellipsoid(QuadraticForm.identity(2), (F(1, 2), F(1, 2)), F(1, 2))
    assert rep.interior == ()
    assert rep.boundary == ((0, 0), (0, 1), (1, 0), (1, 1))


def test_ellipsoid_one_dimensional():
    rep = lattice_points_in_ellipsoid(QuadraticForm.identity(1), (0,), 4)
    assert rep.boundary == ((-2,), (2,))
    assert rep.interior == ((-1,), (0,), (1,))


def test_ellipsoid_r6_on_wall_form():
    f = wall_interior_form(6)
    r6 = r_n_vertices(6)
    quad = circumscribed_quadric(f, r6)
    assert quad.status == "ok"
    rep = lattice_points_in_ellipsoid(f, quad.center, quad.r2)
    assert rep.interior == ()
    assert rep.boundary == r6


@settings(max_examples=100, deadline=None)
@given(pd_form, st.integers(min_value=1, max_value=7), st.integers(min_value=1, max_value=5))
def test_ellipsoid_classification_scale_invariant(rows, num, den):
    f = _pd_from_rows(rows)
    n = f.n
    c = tuple(F(1, 3) for _ in range(n))
    r2 = F(3, 2)
    base = lattice_points_in_ellipsoid(f, c, r2)
    s = F(num, den)
    scaled_report = lattice_points_in_ellipsoid(form(scaled(f.gram, s)), c, r2 * s)
    assert base == scaled_report


def test_closest_vectors_examples():
    idf = QuadraticForm.identity(2)
    assert closest_vectors(idf, (F(1, 4), 0)) == (F(1, 16), ((0, 0),))
    assert closest_vectors(idf, (F(1, 2), 0)) == (F(1, 4), ((0, 0), (1, 0)))
    assert closest_vectors(idf, (3, -2)) == (0, ((3, -2),))


@settings(max_examples=100, deadline=None)
@given(
    pd_form,
    st.lists(st.fractions(min_value=-2, max_value=2, max_denominator=7), min_size=3, max_size=3),
)
def test_closest_vector_beats_box_neighborhood(rows, target):
    f = _pd_from_rows(rows)
    n = f.n
    t = target[:n]
    d2, pts = closest_vectors(f, t)
    assert pts
    # every reported point attains d2, and no nearby integer point does better
    for p in pts:
        assert f.evaluate([a - b for a, b in zip(p, t)]) == d2
    base = [x.numerator // x.denominator for x in map(F, t)]
    for delta in itertools.product(range(-2, 3), repeat=n):
        q = tuple(b + d for b, d in zip(base, delta))
        assert f.evaluate([a - b for a, b in zip(q, t)]) >= d2


def test_no_dimension_guard():
    # the library refuses no dimension; bounding n is the CLI's --max-dim
    rep = arithmetic_minimum(QuadraticForm.identity(17))
    assert rep.minimum == 1
    assert rep.pair_count == 17


# -- the rational depth-first search, kept as the oracle of the integer core --

def _floor_sqrt(r):
    """floor(sqrt(r)) for rational r >= 0."""
    return isqrt(r.numerator * r.denominator) // r.denominator


def _floor_frac(a):
    return a.numerator // a.denominator


def _range_bounds(offset, r):
    """Integer interval {x : (x + offset)^2 <= r}, exact."""
    if r < 0:
        return 1, 0
    s = _floor_sqrt(r)
    a = -offset
    hi = _floor_frac(a) + s + 1
    while True:
        d = hi + offset
        if d <= 0 or d * d <= r:
            break
        hi -= 1
    lo = -(_floor_frac(-a)) - s - 1
    while True:
        d = lo + offset
        if d >= 0 or d * d <= r:
            break
        lo += 1
    return lo, hi


def fraction_run(form, center, bound, visit, half=False, shrink=False):
    """The former _Enumerator.run: every offset, interval and partial cost
    in Fraction."""
    n = form.n
    L, D = fraction_ldl(form.gram)
    c = [F(t) for t in center]
    x = [0] * n
    state = {"bound": F(bound)}

    def offset_at(i):
        off = -c[i]
        for j in range(i + 1, n):
            lji = L[j][i]
            if lji:
                off += lji * (x[j] - c[j])
        return off

    def rec(i, cost):
        if i < 0:
            new_bound = visit(tuple(x), cost)
            if new_bound is _STOP:
                return True
            if shrink and new_bound is not None:
                state["bound"] = new_bound
            return False
        rem = state["bound"] - cost
        if rem < 0:
            return False
        d_i = D[i]
        off = offset_at(i)
        lo, hi = _range_bounds(off, rem / d_i)
        if half and all(x[j] == 0 for j in range(i + 1, n)):
            lo = max(lo, 0)
        for xi in range(lo, hi + 1):
            e = xi + off
            new_cost = cost + d_i * e * e
            if new_cost <= state["bound"]:
                x[i] = xi
                if rec(i - 1, new_cost):
                    return True
        x[i] = 0
        return False

    rec(n - 1, F(0))


def _recorder(shrink, slack, stop_at):
    """A visit callback that logs every call; with shrink it lowers the
    bound to the smallest nonzero value seen plus slack, and it asks to
    stop at call number stop_at."""
    log = []
    best = []

    def visit(x, value):
        log.append((x, value))
        if len(log) == stop_at:
            return _STOP
        if shrink and value != 0 and (not best or value < best[0]):
            best[:] = [value]
            return value + slack
        return None

    return log, visit


rational_pd_form = st.tuples(
    pd_form,
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=1, max_value=4),
).map(
    lambda t: form(
        add(
            scaled(matmul(transpose(t[0]), t[0]), F(1, t[1])),
            scaled(identity(len(t[0])), F(1, t[2])),
        )
    )
)


def _integer_contract(visit, seen):
    """The integer run contract in front of a Fraction recorder: each
    (cost, m) becomes the value cost / m, and a bound the recorder returns
    goes back as the scaled integer floor(m * bound).  seen collects the
    raw (cost, m) pairs."""

    def scaled(x, cost, m):
        seen.append((cost, m))
        got = visit(x, F(cost, m))
        if got is None or got is _STOP:
            return got
        return _floor_frac(m * got)

    return scaled


def _run_both(form, c, bound, shrink, slack, stop_at, half):
    """(Fraction log, integer-contract log) of one query, after checking the
    raw contract: integer costs, one scale m per call, the m run returns."""
    expected, visit = _recorder(shrink, slack, stop_at)
    fraction_run(form, c, bound, visit, half=half, shrink=shrink)
    got, visit = _recorder(shrink, slack, stop_at)
    seen = []
    m = _Enumerator(form).run(c, bound, _integer_contract(visit, seen), half=half)
    assert all(type(cost) is int and scale == m for cost, scale in seen)
    return expected, got


@settings(max_examples=400, deadline=None)
@given(
    st.one_of(pd_form.map(_pd_from_rows), rational_pd_form),
    st.lists(st.fractions(min_value=-2, max_value=2, max_denominator=7), min_size=3, max_size=3),
    st.fractions(min_value=0, max_value=6, max_denominator=6),
    st.sampled_from(["plain", "half", "shrink", "half_shrink"]),
    st.fractions(min_value=0, max_value=1, max_denominator=5),
    st.one_of(st.none(), st.integers(min_value=1, max_value=12)),
)
# a shrunk bound of 3/2 must admit no point of value 2
@example(QuadraticForm.identity(2), [0, 0, 0], F(2), "shrink", F(1, 2), None)
def test_integer_core_matches_fraction_dfs(form, center, bound, mode, slack, stop_at):
    half = mode.startswith("half")
    shrink = mode.endswith("shrink")
    c = [0] * form.n if half else center[: form.n]
    expected, got = _run_both(form, c, bound, shrink, slack, stop_at, half)
    assert got == expected


def _wall_ellipsoid():
    f = wall_interior_form(6)
    quad = circumscribed_quadric(f, r_n_vertices(6))
    return f, quad.center, quad.r2 * F(3, 2)


@pytest.mark.parametrize(
    "form, center, bound",
    [
        (tf_form(7), None, 2),
        (dn_neighbor_form(6), None, 2),
        (standard_gram("E6*"), None, F(8, 3)),
        _wall_ellipsoid(),
    ],
)
def test_integer_core_matches_fraction_dfs_on_series_forms(form, center, bound):
    half = center is None
    c = [0] * form.n if half else center
    for shrink in (False, True):
        expected, got = _run_both(form, c, bound, shrink, 0, None, half)
        assert got == expected


# -- the per-query scaling as it was on Fraction L and D, kept as its oracle ---

def fraction_scaled(form, center):
    """The former _Enumerator._scaled: (q, k, cols, weights, m) read off the
    Fraction L and D of the Gram matrix."""
    n = form.n
    L, D = fraction_ldl(form.gram)
    c = [F(t) for t in center]
    q, k, cols = [], [], []
    for i in range(n):
        k_i = -c[i] - sum(L[j][i] * c[j] for j in range(i + 1, n))
        q_i = lcm(k_i.denominator, *(L[j][i].denominator for j in range(i + 1, n)))
        q.append(q_i)
        k.append(floor(q_i * k_i))
        cols.append([floor(q_i * L[j][i]) for j in range(i + 1, n)])
    rel = [d / (q_i * q_i) for d, q_i in zip(D, q)]
    m = lcm(*(r.denominator for r in rel))
    return q, k, cols, [floor(m * r) for r in rel], m


@st.composite
def scaled_queries(draw):
    """A positive definite integer Gram B^T B + diag(s) over a denominator,
    and a rational centre (zero about one time in five)."""
    n = draw(st.integers(min_value=1, max_value=5))
    b = draw(st.lists(st.lists(st.integers(-3, 3), min_size=n, max_size=n), min_size=n, max_size=n))
    shift = draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))
    diagonal = [[shift[i] if i == j else 0 for j in range(n)] for i in range(n)]
    gram = add(matmul(transpose(b), b), diagonal)
    den = draw(st.integers(min_value=1, max_value=12))
    zero = draw(st.integers(min_value=0, max_value=4)) == 0
    center = [0] * n if zero else draw(st.lists(
        st.fractions(min_value=-5, max_value=5, max_denominator=12), min_size=n, max_size=n
    ))
    return QuadraticForm(gram, den), center


@settings(max_examples=200, deadline=None)
@given(scaled_queries())
def test_scaling_matches_fraction_ldl(query):
    form, center = query
    assert _Enumerator(form)._scaled(center) == fraction_scaled(form, center)


@pytest.mark.parametrize(
    "form, center",
    [
        (tf_form(7), [0] * 7),
        (standard_gram("E6*"), [F(1, 3)] * 6),
        _wall_ellipsoid()[:2],
    ],
)
def test_scaling_matches_fraction_ldl_on_series_forms(form, center):
    assert _Enumerator(form)._scaled(center) == fraction_scaled(form, center)


# -- the queries as they were on Fraction visits, kept as their oracles --------

def fraction_arithmetic_minimum(f):
    bound = min(f.gram[i][i] for i in range(f.n))
    found = {"min": bound, "vecs": []}

    def visit(x, value):
        if value == 0 or all(v == 0 for v in x):
            return None
        if value < found["min"]:
            found["min"] = value
            found["vecs"] = [x]
            return value
        if value == found["min"]:
            found["vecs"].append(x)
        return None

    fraction_run(f, [0] * f.n, bound, visit, half=True, shrink=True)
    vecs = tuple(sorted(canonical_sign(v) for v in found["vecs"]))
    return found["min"], vecs


def fraction_vectors_up_to(f, bound):
    out = []

    def visit(x, value):
        if value != 0:
            out.append((canonical_sign(x), value))

    fraction_run(f, [0] * f.n, bound, visit, half=True)
    return sorted(out, key=lambda p: (p[1], p[0]))


def fraction_ellipsoid(f, center, r2):
    """(interior, boundary, first interior point in enumeration order)."""
    interior, boundary = [], []

    def visit(x, value):
        (interior if value < r2 else boundary).append(x)

    fraction_run(f, center, r2, visit)
    return tuple(sorted(interior)), tuple(sorted(boundary)), interior[0] if interior else None


def fraction_closest_vectors(f, target):
    t = [F(v) for v in target]
    start = [_floor_frac(v + F(1, 2)) for v in t]
    found = {"best": f.evaluate([s - v for s, v in zip(start, t)]), "pts": []}

    def visit(x, value):
        if value < found["best"]:
            found["best"] = value
            found["pts"] = [x]
            return value
        if value == found["best"]:
            found["pts"].append(x)
        return None

    fraction_run(f, t, found["best"], visit, shrink=True)
    return found["best"], tuple(sorted(set(found["pts"])))


centre3 = st.lists(st.fractions(min_value=-2, max_value=2, max_denominator=7), min_size=3, max_size=3)


@settings(max_examples=100, deadline=None)
@given(
    st.one_of(pd_form.map(_pd_from_rows), rational_pd_form),
    centre3,
    st.fractions(min_value=0, max_value=6, max_denominator=6),
)
def test_queries_match_their_fraction_versions(form, center, r2):
    c = center[: form.n]
    rep = arithmetic_minimum(form)
    assert (rep.minimum, rep.vectors) == fraction_arithmetic_minimum(form)
    assert type(rep.minimum) is F
    listed = vectors_up_to(form, r2)
    assert listed == fraction_vectors_up_to(form, r2)
    assert all(type(value) is F for _, value in listed)
    interior, boundary, first = fraction_ellipsoid(form, c, r2)
    report = lattice_points_in_ellipsoid(form, c, r2)
    assert (report.interior, report.boundary) == (interior, boundary)
    assert first_interior_point(form, c, r2) == ((first, None) if first else (None, boundary))
    d2, pts = closest_vectors(form, c)
    assert (d2, pts) == fraction_closest_vectors(form, c)
    assert type(d2) is F
