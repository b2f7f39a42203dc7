"""Acceptance suite: every criterion at its stated (exact) tolerance.

Each check prints one `[criterion N] PASS/FAIL` line (run pytest with -s
to see them).  All arithmetic is exact, so every comparison is equality.

Known boundary case, also documented in the README: the four-family dual
description fails at n = 5, where S_5^0 contains the extra vector
(1,1,1,1,2) (the last coordinate of a dual vector is forced into {0,1}
only when 2(n-3) > n-1, i.e. n >= 6).  Criteria 2 and 3 assert the stated
range n = 5..10 anyway; their n = 5 instances are strict expected
failures.
"""

import itertools
import re
import time
from fractions import Fraction as F
from math import comb
from pathlib import Path

import pytest

from tamewall import delaunay, dual01, forms, isometry, kernels, perfect, series
from tamewall.enumeration import arithmetic_minimum
from tamewall.forms import (
    QuadraticForm,
    big_simplex_dual_vectors,
    dn_neighbor_form,
    standard_gram,
    tf_form,
    wall_interior_form,
)
from tamewall.vecset import canonical_set

from rowmath import add, form, image_rank, matmul, scaled, transpose

N5_DEFECT = pytest.mark.xfail(
    strict=True,
    reason="boundary case: S_5^0 contains (1,1,1,1,2) beyond the four "
    "families, so the count, double-dual, and codimension-1 claims hold "
    "only from n=6 on (see README)",
)


def _line(num, ok, detail):
    print(f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'}: {detail}")


# -- criterion 1: volume series ------------------------------------------------

def test_criterion_01_volume_series():
    t0 = time.time()
    vols = {n: delaunay.relative_volume(series.s_n_vertices(n)) for n in range(5, 13)}
    ok = all(vols[n] == n - 3 for n in vols)
    _line(1, ok, f"relative volumes {vols} in {time.time() - t0:.2f}s")
    assert ok


# -- criteria 2 and 3: dual system and codimension ------------------------------

@pytest.mark.parametrize(
    "n", [pytest.param(5, marks=N5_DEFECT), 6, 7, 8, 9, 10]
)
def test_criterion_02_dual_system(n):
    t0 = time.time()
    s_n = series.s_n_vertices(n)
    dual = dual01.dual01(s_n)
    families = canonical_set(big_simplex_dual_vectors(n) + (tuple([0] * n),))
    nonzero = [u for u in dual if any(u)]
    dd = dual01.double_dual01(s_n)
    ok = (
        dual == families
        and len(nonzero) == 2 * (n - 1) + comb(n - 1, 2)
        and dd == series.r_n_vertices(n)
    )
    _line(2, ok, f"n={n}: |dual\\0|={len(nonzero)}, double dual adds e_n: "
                 f"{dd == series.r_n_vertices(n)} ({time.time() - t0:.2f}s)")
    assert ok


@pytest.mark.parametrize(
    "n", [pytest.param(5, marks=N5_DEFECT), 6, 7, 8, 9, 10]
)
def test_criterion_03_codimension(n):
    t0 = time.time()
    dual = dual01.dual01(series.s_n_vertices(n))
    rank = image_rank(dual)
    codim = series.sym_codimension(dual, n)
    expected = n * (n + 1) // 2 - 1
    ok = rank == expected
    _line(3, ok, f"n={n}: image rank {rank}, S_{n - 1} block codimension {codim}, "
                 f"expected {expected} ({time.time() - t0:.2f}s)")
    assert ok


# -- criterion 4: the perfect-form series ---------------------------------------

@pytest.mark.parametrize("n", [5, 6, 7, 8, 9])
def test_criterion_04_tf_minima(n):
    t0 = time.time()
    f = tf_form(n)
    pd = f.is_positive_definite
    rep = arithmetic_minimum(f)
    expected = n * (n + 3) if n % 2 == 0 else n * (n + 1)
    ok = pd and rep.minimum == 1 and rep.total_count == expected
    _line(4, ok, f"n={n}: PD={pd}, min={rep.minimum}, 2s={rep.total_count} "
                 f"(expected {expected}) ({time.time() - t0:.2f}s)")
    assert ok


# -- criterion 5: perfectness with reconstruction -------------------------------

@pytest.mark.parametrize("n", [5, 6, 7, 8])
def test_criterion_05_perfectness(n):
    t0 = time.time()
    results = []
    for f in (tf_form(n), dn_neighbor_form(n)):
        rep = perfect.perfection_report(f)
        sol = forms.solve_form_from_unit_norms(arithmetic_minimum(f).vectors, 1)
        results.append(
            rep.is_perfect
            and rep.rank == rep.sym_dim
            and sol.kind == "unique"
            and forms.form_from_solution(sol, n) == f
        )
    ok = all(results)
    _line(5, ok, f"n={n}: both forms rank N and uniquely reconstructed "
                 f"({time.time() - t0:.2f}s)")
    assert ok


@pytest.mark.parametrize("n", range(9, 17))
def test_criterion_05_tf_eutaxy(n):
    # Voronoi: TF_n is extreme iff it is also eutactic
    t0 = time.time()
    f = tf_form(n)
    verdict, weights = perfect.is_eutactic(f)
    vecs = arithmetic_minimum(f).vectors
    dual = forms.dual_form(f).gram
    ok = (
        verdict is True
        and len(weights) == len(vecs)
        and all(w > 0 for w in weights)
        and all(
            sum(w * v[i] * v[j] for w, v in zip(weights, vecs)) == dual[i][j]
            for i in range(n)
            for j in range(n)
        )
    )
    _line(5, ok, f"n={n}: eutactic, {len(vecs)} positive weights reproduce the "
                 f"dual Gram ({time.time() - t0:.2f}s)")
    assert ok


# -- criterion 6: D_n identification --------------------------------------------

@pytest.mark.parametrize("n", range(5, 17))
def test_criterion_06_dn_identification(n):
    t0 = time.time()
    a = dn_neighbor_form(n)
    b = forms.scale(standard_gram("D", n), F(1, 2))
    u = isometry.are_equivalent(a, b)
    ok = u is not None
    if ok:
        ok = all(type(x) is int for row in u for x in row)
        ok = ok and kernels.det_int(u) in (1, -1)
        ok = ok and matmul(matmul(transpose(u), a.gram), u) == b.gram
    _line(6, ok, f"n={n}: unimodular witness verified ({time.time() - t0:.2f}s)")
    assert ok


def test_criterion_06_theorem2_pipeline_n10():
    t0 = time.time()
    rep = series.verify_theorem2(10, include_isometry=True)
    failing = [s.name for s in rep.steps if not s.ok]
    ok = rep.ok and not failing and "dn_identification" in [s.name for s in rep.steps]
    _line(6, ok, f"n=10: every theorem-2 step ok, D_n identification included "
                 f"(failing {failing}) ({time.time() - t0:.2f}s)")
    assert ok


def test_criterion_06_theorem2_pipeline_n20():
    t0 = time.time()
    rep = series.verify_theorem2(20, include_isometry=True)
    failing = [s.name for s in rep.steps if not s.ok]
    ok = rep.ok and not failing and "dn_identification" in [s.name for s in rep.steps]
    _line(6, ok, f"n=20: every theorem-2 step ok, D_n identification included "
                 f"(failing {failing}) ({time.time() - t0:.2f}s)")
    assert ok


# -- criterion 7: E6* identification --------------------------------------------

def test_criterion_07_e6star_identification():
    t0 = time.time()
    a = tf_form(6)
    sim = isometry.are_similar(a, standard_gram("E6*"))
    ok = sim is not None and sim[0] == F(3, 4)
    if ok:
        c, u = sim
        b = forms.scale(standard_gram("E6*"), c)
        ok = matmul(matmul(transpose(u), a.gram), u) == b.gram
    _line(7, ok, f"scale 3/4 with verified witness ({time.time() - t0:.2f}s)")
    assert ok


# -- criterion 8: the wall ------------------------------------------------------

@pytest.mark.parametrize("n", range(5, 11))
def test_criterion_08_wall(n):
    t0 = time.time()
    wall = series.tw_normal(n)
    shared_ok = all(
        series.classify_side(wall, u) == "on_wall" for u in big_simplex_dual_vectors(n)
    )
    tf_ok = all(
        series.classify_side(wall, u) == "tf_side"
        for u in series.complementary_vectors(n, "TF")
    )
    dn_ok = all(
        series.classify_side(wall, u) == "dn_side"
        for u in series.complementary_vectors(n, "Dn")
    )
    printed = wall.printed_formula_report
    discrepancy_documented = (
        not printed["annihilates_as_quadratic"] and not printed["annihilates_upper_once"]
    )
    ok = shared_ok and tf_ok and dn_ok and discrepancy_documented
    _line(8, ok, f"n={n}: shared on wall, extras split, printed formula "
                 f"non-annihilating ({time.time() - t0:.2f}s)")
    assert ok


# -- criterion 9: Delaunay on the wall ------------------------------------------

@pytest.mark.parametrize("n", [5, 6, 7, 8])
def test_criterion_09_delaunay_on_wall(n):
    t0 = time.time()
    wall_form = wall_interior_form(n)
    r_n = series.r_n_vertices(n)
    cert = delaunay.is_delaunay_cell(wall_form, r_n)
    ok = cert.verdict and len(cert.vertices) == n + 2

    wall = series.tw_normal(n)
    s_n = series.s_n_vertices(n)
    simplex_ok = False
    eps = F(1, 4)
    for _ in range(20):
        g = form(add(wall_form.gram, scaled(wall.normal, eps)))
        try:
            pd = g.is_positive_definite
        except ValueError:
            pd = False
        if pd:
            cert2 = delaunay.is_delaunay_cell(g, s_n)
            if cert2.verdict and len(cert2.vertices) == n + 1:
                simplex_ok = True
                break
        eps /= 2
    ok = ok and simplex_ok
    _line(9, ok, f"n={n}: complex Delaunay on wall; perturbed simplex has exactly "
                 f"{n + 1} boundary points at eps={eps} ({time.time() - t0:.2f}s)")
    assert ok


@pytest.mark.parametrize("n", range(9, 21))
def test_criterion_09_theorem1_pipeline(n):
    t0 = time.time()
    rep = series.verify_theorem1(n)
    failing = [s.name for s in rep.steps if not s.ok]
    vol = delaunay.relative_volume(series.s_n_vertices(n))
    ok = rep.ok and not failing and vol == n - 3
    _line(9, ok, f"n={n}: every theorem-1 step ok (failing {failing}), simplex "
                 f"volume {vol} at eps={rep.data.get('epsilon')} ({time.time() - t0:.2f}s)")
    assert ok


# -- criterion 10: Radon structure ----------------------------------------------

@pytest.mark.parametrize("n", range(5, 11))
def test_criterion_10_radon(n):
    t0 = time.time()
    rad = delaunay.radon_triangulations(series.r_n_vertices(n))
    small = min((rad.volumes_plus, rad.volumes_minus), key=len)
    big = max((rad.volumes_plus, rad.volumes_minus), key=len)
    ok = (
        sorted(small) == [1, 1, n - 3]
        and list(big) == [1] * (n - 1)
        and sum(small) == sum(big)
    )
    _line(10, ok, f"n={n}: volumes {sorted(small)} and {sorted(big)} "
                  f"({time.time() - t0:.2f}s)")
    assert ok


# -- criteria 11 and 12: the 27-vertex cell --------------------------------------

@pytest.fixture(scope="module")
def census():
    return series.gosset_census()


def test_criterion_11_census(census):
    t0 = time.time()
    total = sum(census.volume_histogram.values())
    ok = (
        census.vertex_count == 27
        and total == comb(27, 7) == 888030
        and census.max_volume == 3
        and census.count_at_max == 216
    )
    _line(11, ok, f"27 vertices; {total} subsets; max volume {census.max_volume} "
                  f"attained {census.count_at_max} times ({time.time() - t0:.2f}s)")
    assert ok


def test_criterion_12_perturbation(census):
    t0 = time.time()
    e6 = standard_gram("E6")
    cell = census.cell_vertices
    quad = delaunay.circumscribed_quadric(e6, cell)
    assert quad.status == "ok"
    phi = delaunay.InhomogeneousQuadratic.from_circumsphere(e6, quad.center, quad.r2)

    vol3 = None
    for combo in itertools.combinations(range(27), 7):
        pts = [cell[i] for i in combo]
        if delaunay.relative_volume(pts) == 3:
            vol3 = pts
            break
    assert vol3 is not None

    subsets = [
        ("volume-3 simplex", vol3),
        ("single edge", [cell[0], cell[1]]),
        ("single vertex", [cell[4]]),
        ("13 vertices", list(cell[:13])),
        ("all but one vertex", list(cell[:-1])),
    ]
    verdicts = {}
    for name, subset in subsets:
        rep = delaunay.perturbation_check(e6, phi, cell, subset, F(1, 10))
        verdicts[name] = rep.verdict
    ok = len(subsets) >= 5 and all(verdicts.values())
    _line(12, ok, f"subsets {verdicts} with alpha 1/10 ({time.time() - t0:.2f}s)")
    assert ok


def test_criterion_12_cube_cell_location():
    # the unit cube is a 128-vertex Delaunay cell of Z^7; locating [1/3]^7
    # must return all of its vertices
    t0 = time.time()
    n = 7
    cell = delaunay.delaunay_cell_containing(QuadraticForm.identity(n), [F(1, 3)] * n)
    ok = cell == tuple(itertools.product((0, 1), repeat=n))
    _line(12, ok, f"the cell of [1/3]^{n} in Z^{n} is the unit cube, {len(cell)} vertices "
                  f"({time.time() - t0:.2f}s)")
    assert ok


# -- criterion 13: property suites -----------------------------------------------

def test_criterion_13_property_suites():
    # The randomized property suites live in the module test files and run
    # in the same pytest session as this acceptance module; here we check
    # that every hypothesis settings block requests at least 100 examples.
    t0 = time.time()
    counts = []
    for path in Path(__file__).parent.glob("test_*.py"):
        text = path.read_text()
        counts += [
            (path.name, int(m)) for m in re.findall(r"max_examples=(\d+)", text)
        ]
    ok = counts and all(c >= 100 for _, c in counts)
    _line(13, ok, f"{len(counts)} randomized property suites, all with >= 100 "
                  f"examples ({time.time() - t0:.2f}s)")
    assert ok
