"""Vertex factories, wall normal, side classification, parser, pipelines."""

import dataclasses
import itertools
import sys
from fractions import Fraction as F
from functools import partial
from math import comb

import pytest
from hypothesis import assume, given, settings, strategies as st

from tamewall import delaunay, dual01, enumeration, forms, linalg, perfect, series
from tamewall.delaunay import circumscribed_quadric, relative_volume
from tamewall.enumeration import arithmetic_minimum
from tamewall.errors import InvariantError
from tamewall.forms import (
    QuadraticForm,
    big_simplex_dual_vectors,
    coords_to_sym,
    dn_neighbor_form,
    pairing,
    sym_dimension,
    tf_form,
    value_row,
    wall_interior_form,
)
from tamewall.series import (
    CheckStep,
    FamilyCountError,
    FamilyParseError,
    classify_side,
    complementary_vectors,
    parse_family,
    r_n_vertices,
    s_n_vertices,
    sym_codimension,
    tw_normal,
    verify_theorem1,
    verify_theorem2,
)
from tamewall.vecset import canonical_sign

from rowmath import add, image_rank, outer, scaled


def test_s6_vertices():
    s6 = s_n_vertices(6)
    assert len(s6) == 7
    assert (1, 1, 1, 1, 1, -3) in s6
    assert tuple([0] * 6) in s6


def test_s_n_volume_series():
    assert relative_volume(s_n_vertices(7)) == 4
    assert relative_volume(s_n_vertices(4)) == 1  # degenerate start


def test_s_n_rejects_tiny():
    with pytest.raises(ValueError):
        s_n_vertices(3)


def test_r6_is_s6_plus_unit_vector():
    r6 = r_n_vertices(6)
    assert len(r6) == 8
    assert tuple([0] * 5 + [1]) in r6
    assert set(s_n_vertices(6)) < set(r6)


def test_complementary_tf_6():
    comp = complementary_vectors(6, "TF")
    assert len(comp) == 7
    assert (1, 1, 1, 1, 1, 2) in comp
    assert (2, 2, 2, 2, 2, 3) in comp
    assert sum(1 for v in comp if sorted(v[:5]) == [1, 1, 1, 1, 2] and v[5] == 2) == 5


def test_complementary_tf_5():
    assert complementary_vectors(5, "TF") == ((1, 1, 1, 1, 2),)


def test_complementary_dn_6():
    comp = complementary_vectors(6, "Dn")
    assert len(comp) == 10  # (n-1)(n-2)/2 up to sign
    assert all(v[5] == 0 and sorted(v)[:1] == [-1] for v in comp)


def test_tw6_frozen_normal():
    w = tw_normal(6).normal
    assert all(w[i][i] == 0 for i in range(5))
    assert all(w[i][j] == 1 for i in range(5) for j in range(5) if i != j)
    assert all(w[i][5] == -3 for i in range(5))
    assert w[5][5] == 12


@pytest.mark.parametrize("n", range(5, 13))
def test_tw_closed_pattern(n):
    w = tw_normal(n).normal
    assert all(w[i][i] == 0 for i in range(n - 1))
    assert all(w[i][j] == 1 for i in range(n - 1) for j in range(n - 1) if i != j)
    assert all(w[i][n - 1] == -(n - 3) for i in range(n - 1))
    assert w[n - 1][n - 1] == (n - 2) * (n - 3)


@pytest.mark.parametrize("n", range(5, 13))
def test_tw_pairings(n):
    wall = tw_normal(n)
    for u in big_simplex_dual_vectors(n):
        assert classify_side(wall, u) == "on_wall"
    for u in complementary_vectors(n, "TF"):
        assert classify_side(wall, u) == "tf_side"
    for u in complementary_vectors(n, "Dn"):
        assert classify_side(wall, u) == "dn_side"


def test_tw_hand_values():
    wall = tw_normal(6)
    assert QuadraticForm(wall.normal, 1).evaluate((1, -1, 0, 0, 0, 0)) == -2
    assert QuadraticForm(wall.normal, 1).evaluate((1, 1, 1, 1, 1, 2)) == 8


def test_printed_formula_is_reported_as_discrepancy():
    rep = tw_normal(6).printed_formula_report
    assert not rep["annihilates_as_quadratic"]
    assert not rep["annihilates_upper_once"]
    assert rep["max_abs_quadratic"] > 0


def test_wall_form_pairs_to_zero_with_normal():
    for n in (5, 6, 7):
        wall = tw_normal(n)
        assert pairing(wall.normal, wall_interior_form(n).gram) == 0
        assert classify_side(wall, wall_interior_form(n)) == "on_wall"


def test_classify_side_of_forms():
    wall = tw_normal(6)
    v = (1, -1, 0, 0, 0, 0)
    assert classify_side(wall, QuadraticForm(outer(v, v), 1)) == "dn_side"


def test_classify_side_rejects_wrong_length_vector():
    wall = tw_normal(6)
    for x in ((1, 0, 0, 0, 0), (1, 0, 0, 0, 0, 0, 0)):
        with pytest.raises(ValueError, match="dimension mismatch"):
            classify_side(wall, x)


def test_parse_family_examples():
    assert len(parse_family("[1^{n-3},0^2;3]", 5).vectors) == 6
    assert parse_family("[0^n]", 4).vectors == ((0, 0, 0, 0),)
    assert len(parse_family("[1,0^{n-2};0]", 6).vectors) == 5


def test_parse_family_counts_match_proof_annotations():
    assert len(parse_family("[1,0^{n-2};0]^{n-1}", 6).vectors) == 5
    assert len(parse_family("[1^{n-2},0;1]^{n-1}", 6).vectors) == 5
    assert len(parse_family("[1^{n-3},0^2;1]^{\\binom{n-1}{2}}", 6).vectors) == 10
    assert len(parse_family("[1^{n-3},0^2;1]^{C(n-1,2)}", 7).vectors) == comb(6, 2)


def test_parse_family_count_mismatch_reported():
    with pytest.raises(FamilyCountError) as err:
        parse_family("[1,-1,0^{n-3};0]^{\\frac{n-1}{2}}", 6)
    assert err.value.declared == F(5, 2)
    assert err.value.actual == 20


def test_parse_family_malformed():
    for bad in ("1,0", "[1,0", "[1^x;0]", "[]", "[1;;0]"):
        with pytest.raises(FamilyParseError):
            parse_family(bad, 2)


def test_parse_family_wrong_length():
    with pytest.raises(FamilyParseError):
        parse_family("[1,0]", 3)


def test_family_segments_permute_independently():
    fam = parse_family("[1,0;1,0]", 4)
    assert fam.vectors == (
        (0, 1, 0, 1),
        (0, 1, 1, 0),
        (1, 0, 0, 1),
        (1, 0, 1, 0),
    )


def test_dual_family_union_matches_parser():
    n = 6
    from tamewall.vecset import canonical_set

    built = canonical_set(
        parse_family("[1,0^{n-2};0]", n).vectors
        + parse_family("[1^{n-2},0;1]", n).vectors
        + parse_family("[1^{n-3},0^2;1]", n).vectors
    )
    assert built == big_simplex_dual_vectors(n)


def test_verify_theorem1_n6():
    rep = verify_theorem1(6)
    assert rep.ok
    assert {s.name for s in rep.steps} == {
        "dual_families",
        "double_dual",
        "codimension_one",
        "wall_form_pd",
        "repartition_cell",
        "big_simplex_on_positive_side",
    }


def test_verify_theorem1_n5_reports_dual_system_failures():
    # The dual-system lemma steps fail at the boundary case n=5 (the dual
    # has the extra vector (1,1,1,1,2)); the Delaunay construction itself
    # still verifies.
    rep = verify_theorem1(5)
    assert not rep.ok
    failing = {s.name for s in rep.failing()}
    assert failing == {"dual_families", "double_dual", "codimension_one"}
    passing = {s.name for s in rep.steps if s.ok}
    assert {"wall_form_pd", "repartition_cell", "big_simplex_on_positive_side"} <= passing


def test_verify_theorem2_n6():
    rep = verify_theorem2(6)
    assert rep.ok
    assert rep.data["minimal_vector_count"] == 54
    names = {s.name for s in rep.steps}
    assert "dn_identification" in names
    assert "tf6_e6star" in names


def test_verify_theorem2_n5():
    rep = verify_theorem2(5)
    assert rep.ok


def test_minimal_counts_in_theorem2_reports():
    assert verify_theorem2(7, include_isometry=False).data["minimal_vector_count"] == 56


@pytest.mark.parametrize("n", [6, 7, 8, 9])
def test_verify_theorem1_passes_from_six_up(n):
    assert verify_theorem1(n).ok


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=5, max_value=9))
def test_theorem1_perturbed_forms_match_fraction_oracle(n):
    # theorem 1 builds one G + eps N, at its epsilon, equal to the Fraction
    # matrix sum
    tried = []
    build = forms.shifted

    def recording(f, c, rows):
        g = build(f, c, rows)
        tried.append((c, g))
        return g

    with pytest.MonkeyPatch.context() as m:
        m.setattr(forms, "shifted", recording)
        rep = verify_theorem1(n)
    assert [c for c, _ in tried] == [rep.data["epsilon"]]
    c, g = tried[0]
    assert g.gram == add(wall_interior_form(n).gram, scaled(tw_normal(n).normal, c))


def halving_epsilon_step(n):
    """The former search for theorem 1's perturbation size, kept as its
    oracle: (ok, detail, eps) from a full cell check at each of 1/4, 1/8,
    ..., 2^-21 until one holds."""
    wall_form = wall_interior_form(n)
    normal = tw_normal(n).normal
    s_n = s_n_vertices(n)
    eps = F(1, 4)
    for _ in range(20):
        g = forms.shifted(wall_form, eps, normal)
        if g.is_positive_definite:
            cert = delaunay.is_delaunay_cell(g, s_n)
            if cert.verdict and len(cert.vertices) == n + 1:
                vol = relative_volume(s_n)
                return vol == n - 3, f"epsilon {eps}, simplex volume {vol}", eps
        eps /= 2
    return False, "no admissible perturbation size found", None


THEOREM1_STEPS = [
    "dual_families",
    "double_dual",
    "codimension_one",
    "wall_form_pd",
    "repartition_cell",
    "big_simplex_on_positive_side",
]


@pytest.mark.parametrize("n", range(5, 21))
def test_theorem1_epsilon_matches_halving_oracle(n):
    rep = verify_theorem1(n)
    ok, detail, eps = halving_epsilon_step(n)
    assert [s.name for s in rep.steps] == THEOREM1_STEPS
    assert rep.steps[-1] == CheckStep("big_simplex_on_positive_side", ok, detail)
    assert rep.data.get("epsilon") == eps
    assert ok and rep.ok == (n >= 6)


@pytest.mark.parametrize("n", [5, 6, 8])
def test_theorem1_makes_one_perturbed_cell_check(monkeypatch, n):
    checks = _counted(monkeypatch, delaunay, "is_delaunay_cell")
    verify_theorem1(n)
    wall_form = wall_interior_form(n)
    assert [f == wall_form for f, _ in checks] == [True, False]


@pytest.mark.parametrize("factor", [F(2), F(1, 2)])
def test_theorem1_refuses_a_wrong_closed_form(monkeypatch, factor):
    closed_form = series._epsilon_star
    monkeypatch.setattr(series, "_epsilon_star", lambda n: factor * closed_form(n))
    checks = _counted(monkeypatch, delaunay, "is_delaunay_cell")
    rep = verify_theorem1(7)
    step = rep.steps[-1]
    assert not rep.ok and not step.ok
    assert step.detail == (
        f"epsilon* {factor * F(8, 390)} not certified: z = (1, 1, 0, 0, 0, 0, -1) "
        "is not on the sphere of G + epsilon* N"
    )
    assert "epsilon" not in rep.data
    assert len(checks) == 1  # the repartitioning cell only


def test_theorem1_step_fails_when_the_cell_check_fails(monkeypatch):
    real = delaunay.is_delaunay_cell
    wall_form = wall_interior_form(6)

    def refusing(f, points):
        cert = real(f, points)
        return cert if f == wall_form else dataclasses.replace(cert, verdict=False)

    monkeypatch.setattr(delaunay, "is_delaunay_cell", refusing)
    step = verify_theorem1(6).steps[-1]
    assert not step.ok
    assert step.detail == "S_n is not a Delaunay cell of G + epsilon N at epsilon 1/32"


def _normal_value(n):
    return partial(series._value_at, tw_normal(n).coords)


@pytest.mark.parametrize("n", range(5, 13))
def test_normal_lifts_e_n_above_the_big_simplex(n):
    # h_N(e_n) > 0: in the lifted picture e_n lies above the hyperplane
    # through S_n, so S_n is the cell of R_n's circuit that the normal
    # selects: the triangulation of the part with the sign of
    # sum_i lambda_i N[p_i] for the affine dependence lambda
    e_n = tuple([0] * (n - 1) + [1])
    value = _normal_value(n)
    assert series._simplex_gap(value, e_n) > 0
    pts = r_n_vertices(n)
    rad = delaunay.radon_triangulations(pts)
    side = sum(lam * value(p) for lam, p in zip(rad.dependence, pts))
    cells = rad.cells_plus if side > 0 else rad.cells_minus
    assert set(s_n_vertices(n)) in [set(cell) for cell in cells]
    assert (e_n in rad.plus_part) == (side > 0)


@pytest.mark.parametrize("n", range(5, 13))
def test_simplex_gap_matches_the_circumsphere(n):
    # h_Q(x) = Q[x - c] - r^2 for the sphere (c, r^2) through S_n
    wall_form = wall_interior_form(n)
    quad = circumscribed_quadric(wall_form, s_n_vertices(n))
    for x in [tuple([1, 1] + [0] * (n - 3) + [-1]), tuple([0] * (n - 1) + [1]), tuple(range(n))]:
        shifted_x = [a - b for a, b in zip(x, quad.center)]
        assert series._simplex_gap(wall_form.evaluate, x) == wall_form.evaluate(shifted_x) - quad.r2


@pytest.mark.parametrize("n", [7, 8, 9])
def test_verify_theorem2_passes_through_nine(n):
    # the D_n isometry step runs by default only up to n = 7
    assert verify_theorem2(n).ok


def test_s4_warns_degenerate():
    with pytest.warns(UserWarning):
        s_n_vertices(4)


# -- S_{n-1} blocks against one elimination of all value rows -----------------

@st.composite
def invariant_sets(draw):
    """A dimension n = 5..7 and a union of S_{n-1} orbits of small integer
    vectors of mixed signs, sometimes with the zero vector."""
    n = draw(st.integers(min_value=5, max_value=7))
    # a few values per set, so that repeated entries (small orbits) are common
    values = draw(st.lists(st.integers(min_value=-2, max_value=2), min_size=1, max_size=4))
    entries = st.sampled_from(values)
    seeds = draw(st.lists(st.lists(entries, min_size=n, max_size=n), min_size=1, max_size=4))
    vectors = {(*p, v[-1]) for v in seeds for p in itertools.permutations(v[:-1])}
    if draw(st.booleans()):
        vectors.add((0,) * n)
    return n, sorted(vectors)


@settings(max_examples=100, deadline=None)
@given(invariant_sets())
def test_block_codimension_matches_one_elimination(case):
    n, vectors = case
    assert sym_dimension(n) - sym_codimension(vectors, n) == image_rank(vectors)


@pytest.mark.parametrize("n", [5, 6])
def test_block_codimension_of_every_small_orbit(n):
    # one orbit at a time, so no other orbit can make up for a missing row
    for x in itertools.combinations_with_replacement((-1, 0, 1, 2), n - 1):
        for y in (-1, 0, 2):
            orbit = {(*p, y) for p in itertools.permutations(x)}
            assert sym_dimension(n) - sym_codimension(orbit, n) == image_rank(orbit)


@settings(max_examples=100, deadline=None)
@given(invariant_sets(), st.data())
def test_block_codimension_refuses_a_set_that_is_not_invariant(case, data):
    n, vectors = case
    moved = [v for v in vectors if len(set(v[:-1])) > 1]
    assume(moved)
    v = canonical_sign(data.draw(st.sampled_from(moved)))
    rest = [u for u in vectors if canonical_sign(u) != v]
    with pytest.raises(InvariantError, match="not S_"):
        sym_codimension(rest, n)


@pytest.mark.parametrize("n", range(5, 13))
def test_closed_form_normal_is_the_oriented_primitive_nullspace(n):
    kernel = linalg.nullspace([value_row(u) for u in big_simplex_dual_vectors(n)])
    assert len(kernel) == 1
    coords = linalg.primitive_row(kernel[0])
    anchor = tuple([n // 2 - 1] * (n - 1) + [n // 2])
    if sum(a * b for a, b in zip(coords, value_row(anchor))) < 0:
        coords = [-x for x in coords]
    wall = tw_normal(n)
    assert wall.coords == tuple(coords)
    assert wall.normal == coords_to_sym(coords, n)


@pytest.mark.parametrize("n", range(5, 13))
def test_perfect_steps_match_perfection_report(n):
    details = {s.name: s.detail for s in verify_theorem2(n, include_isometry=False).steps}
    for name, f in (("tf", tf_form(n)), ("dn", dn_neighbor_form(n))):
        perf = perfect.perfection_report(f)
        recon_ok = perf.reconstruction == f
        assert details[f"{name}_perfect"] == (
            f"rank {perf.rank} of {perf.sym_dim}; reconstruction unique: {recon_ok}"
        )


@pytest.mark.parametrize("n", [5, 6, 7])
def test_block_codimension_of_an_imperfect_form(n):
    # the minimal vectors of the identity, +-e_i, span only the diagonal
    f = QuadraticForm.identity(n)
    codim = sym_codimension(arithmetic_minimum(f).vectors, n)
    assert codim == sym_dimension(n) - perfect.perfection_report(f).rank == comb(n, 2)


def test_block_codimension_needs_n_at_least_4():
    with pytest.raises(ValueError, match="n >= 4"):
        sym_codimension([(1, 0, 0)], 3)


def _counted(monkeypatch, module, name):
    """The list of calls of module.name, through every binding of it in the
    package (a `from .enumeration import ...` copies the binding)."""
    original = getattr(module, name)
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for modname, mod in list(sys.modules.items()):
        if modname.split(".")[0] == "tamewall" and getattr(mod, name, None) is original:
            monkeypatch.setattr(mod, name, counting)
    return calls


def test_theorem2_enumerates_each_minimum_once_and_no_sym_n_system(monkeypatch):
    minima = _counted(monkeypatch, enumeration, "arithmetic_minimum")
    reports = _counted(monkeypatch, perfect, "perfection_report")
    nullspaces = _counted(monkeypatch, linalg, "nullspace")
    assert verify_theorem2(8, include_isometry=False).ok
    assert (len(minima), len(reports), len(nullspaces)) == (2, 0, 0)


def test_theorem1_computes_two_duals_and_no_nullspace(monkeypatch):
    duals = _counted(monkeypatch, dual01, "dual01")
    nullspaces = _counted(monkeypatch, linalg, "nullspace")
    assert verify_theorem1(8).ok
    assert (len(duals), len(nullspaces)) == (2, 0)


@pytest.mark.parametrize("n", [5, 6, 8])
def test_theorem1_ranks_the_dual_images_once_when_they_are_the_families(monkeypatch, n):
    # from n = 6 the dual is the families with zero, and the wall normal's
    # certificate reuses the codimension_one step's rank; S_5's dual holds
    # one more orbit, so tw_normal ranks the families itself
    expected = tw_normal(n)
    ranks = _counted(monkeypatch, series, "sym_codimension")
    walls = []
    certified = series._certified_normal
    monkeypatch.setattr(series, "_certified_normal", lambda *args: walls.append(certified(*args)) or walls[-1])
    verify_theorem1(n)
    assert len(ranks) == (2 if n == 5 else 1)
    assert walls == [expected]
