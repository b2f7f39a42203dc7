"""Vertex factories, wall normal, side classification, parser, pipelines."""

from fractions import Fraction as F
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from tamewall import forms
from tamewall.delaunay import relative_volume
from tamewall.forms import (
    QuadraticForm,
    big_simplex_dual_vectors,
    pairing,
    wall_interior_form,
)
from tamewall.series import (
    FamilyCountError,
    FamilyParseError,
    classify_side,
    complementary_vectors,
    parse_family,
    r_n_vertices,
    s_n_vertices,
    tw_normal,
    verify_theorem1,
    verify_theorem2,
)

from rowmath import add, outer, scaled


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
    # every G + eps N that theorem 1 tries, against the Fraction matrix sum
    tried = []
    build = forms.shifted

    def recording(f, c, rows):
        g = build(f, c, rows)
        tried.append((c, g))
        return g

    with pytest.MonkeyPatch.context() as m:
        m.setattr(forms, "shifted", recording)
        rep = verify_theorem1(n)
    assert [c for c, _ in tried] == [F(1, 2**k) for k in range(2, 2 + len(tried))]
    assert tried[-1][0] == rep.data["epsilon"]
    wall_gram = wall_interior_form(n).gram
    normal = tw_normal(n).normal
    for c, g in tried:
        assert g.gram == add(wall_gram, scaled(normal, c))


@pytest.mark.parametrize("n", [7, 8, 9])
def test_verify_theorem2_passes_through_nine(n):
    # the D_n isometry step runs by default only up to n = 7
    assert verify_theorem2(n).ok


def test_s4_warns_degenerate():
    with pytest.warns(UserWarning):
        s_n_vertices(4)
