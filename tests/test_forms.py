"""Form constructors, the rank-1 map, recovery from norms, fixtures, IO."""

from fractions import Fraction as F
from math import gcd, lcm

import pytest
from hypothesis import given, settings, strategies as st

from tamewall import forms, kernels, linalg
from tamewall.enumeration import arithmetic_minimum
from tamewall.forms import (
    QuadraticForm,
    big_simplex_dual_vectors,
    dn_neighbor_form,
    dual_form,
    pairing,
    parse_form,
    format_form,
    scale,
    solve_form_from_unit_norms,
    standard_gram,
    tf_form,
    wall_interior_form,
)
from tamewall.series import complementary_vectors, verify_theorem2

from rowmath import add, form, matvec, outer, scaled
from test_linalg import fraction_inverse


def test_evaluate_identity_unit_vector():
    assert QuadraticForm.identity(4).evaluate((1, 0, 0, 0)) == 1


def test_evaluate_dimension_mismatch():
    with pytest.raises(ValueError):
        QuadraticForm.identity(2).evaluate((1, 0, 0))


# -- the integer Gram against the Fraction code it replaced ------------------

def fraction_evaluate(f, v):
    """v.G.v as a sum of Fraction products over the rational Gram."""
    if len(v) != f.n:
        raise ValueError("vector dimension mismatch")
    rows = f.gram
    total = F(0)
    for i, vi in enumerate(v):
        if vi == 0:
            continue
        row = rows[i]
        total += vi * sum(row[j] * vj for j, vj in enumerate(v) if vj != 0)
    return total


def fraction_determinant(f):
    """det G with G's denominators cleared row by row, one factor per row."""
    factor = 1
    rows = []
    for row in f.gram:
        mult = lcm(*(x.denominator for x in row))
        factor *= mult
        rows.append([int(x * mult) for x in row])
    return F(kernels.det_int(rows), factor)


_ENTRIES = st.fractions(min_value=-5, max_value=5, max_denominator=12)


@st.composite
def symmetric_forms(draw, max_n=5):
    """A form with a random symmetric rational Gram (not always PD)."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    rows = [[F(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            rows[i][j] = rows[j][i] = draw(_ENTRIES)
    return form(rows)


def _vectors(n):
    return st.one_of(
        st.lists(st.integers(-4, 4), min_size=n, max_size=n),
        st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=7), min_size=n, max_size=n),
    )


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_integer_gram_matches_fraction_oracles(data):
    f = data.draw(symmetric_forms())
    z = data.draw(st.lists(st.integers(-4, 4), min_size=f.n, max_size=f.n))
    v = data.draw(_vectors(f.n))
    assert f.evaluate(v) == fraction_evaluate(f, v)
    assert type(f.int_value(z)) is int and f.int_value(z) == f.den * fraction_evaluate(f, z)
    w, s = f.int_image(v)
    assert all(isinstance(t, int) for t in (*w, s))
    assert tuple(F(t, s) for t in w) == matvec(f.gram, v)
    assert f.determinant() == fraction_determinant(f)
    assert all(isinstance(x, F) for x in (f.evaluate(v), f.determinant()))


@settings(max_examples=200, deadline=None)
@given(symmetric_forms())
def test_integer_gram_is_reduced_over_its_denominator(f):
    assert gcd(f.den, *(x for row in f.int_gram for x in row)) == 1
    assert all(isinstance(x, int) for row in f.int_gram for x in row)
    assert [[F(x, f.den) for x in row] for row in f.int_gram] == [list(row) for row in f.gram]


@pytest.mark.parametrize(
    "f, den",
    [(tf_form(6), 4), (tf_form(7), 6), (dn_neighbor_form(6), 2), (standard_gram("E6"), 1)],
)
def test_paper_forms_carry_small_denominators(f, den):
    assert f.den == den
    assert f.determinant() == fraction_determinant(f)


def test_tf5_frozen_entries():
    g = tf_form(5).gram
    assert g[4][4] == F(5, 2)
    assert all(g[i][i] == 1 for i in range(4))
    assert all(g[i][j] == F(1, 4) for i in range(4) for j in range(4) if i != j)
    assert all(g[i][4] == -1 for i in range(4))


def test_tf6_frozen_entries():
    g = tf_form(6).gram
    assert [g[i][i] for i in range(6)] == [1, 1, 1, 1, 1, 4]
    assert all(g[i][j] == F(1, 4) for i in range(5) for j in range(5) if i != j)
    assert all(g[i][5] == F(-5, 4) for i in range(5))


def test_tf_values_on_marked_vectors():
    assert tf_form(5).evaluate((1, 1, 1, 0, 1)) == 1
    assert tf_form(6).evaluate((2, 2, 2, 2, 2, 3)) == 1


def test_tf_rejects_small_dimension():
    with pytest.raises(ValueError):
        tf_form(4)


def test_dn_neighbor_frozen_entries():
    g = dn_neighbor_form(6).gram
    assert [g[i][i] for i in range(6)] == [1, 1, 1, 1, 1, 7]
    assert all(g[i][j] == F(1, 2) for i in range(5) for j in range(5) if i != j)
    assert all(g[i][5] == -2 for i in range(5))


def test_dn_neighbor_values():
    f = dn_neighbor_form(6)
    assert f.evaluate((1, 1, 1, 1, 0, 1)) == 1
    assert f.evaluate((1, -1, 0, 0, 0, 0)) == 1
    with pytest.raises(ValueError):
        dn_neighbor_form(4)


@pytest.mark.parametrize("n", range(5, 13))
def test_value_one_on_dual_system_and_complements(n):
    tf = tf_form(n)
    dn = dn_neighbor_form(n)
    for u in big_simplex_dual_vectors(n):
        assert tf.evaluate(u) == 1
        assert dn.evaluate(u) == 1
    for u in complementary_vectors(n, "TF"):
        assert tf.evaluate(u) == 1
    for u in complementary_vectors(n, "Dn"):
        assert dn.evaluate(u) == 1


@pytest.mark.parametrize("n", range(5, 13))
def test_series_forms_positive_definite(n):
    assert tf_form(n).is_positive_definite
    assert dn_neighbor_form(n).is_positive_definite


def _count_ldl(monkeypatch):
    calls = []
    factor = linalg.ldl

    def counting(rows):
        calls.append(rows)
        return factor(rows)

    monkeypatch.setattr(linalg, "ldl", counting)
    return calls


def test_theorem2_factors_each_form_once(monkeypatch):
    # tf_form(6) and dn_neighbor_form(6) are factored once each, although
    # both are tested for positive definiteness and enumerated several times
    calls = _count_ldl(monkeypatch)
    verify_theorem2(6, include_isometry=False)
    assert len(calls) == 2


def test_form_keeps_its_factors_and_its_refusal(monkeypatch):
    calls = _count_ldl(monkeypatch)
    f = tf_form(6)
    assert f.is_positive_definite and f.ldl() is f.ldl()
    arithmetic_minimum(f)
    indefinite = QuadraticForm([[1, 2], [2, 1]], 1)
    assert not indefinite.is_positive_definite
    for _ in range(2):
        with pytest.raises(linalg.NotPositiveDefiniteError, match="matrix is not positive definite"):
            arithmetic_minimum(indefinite)
    assert len(calls) == 2


def test_voronoi_image_frozen():
    assert outer((1, 0), (1, 0)) == ((1, 0), (0, 0))
    assert outer((1, -1), (1, -1)) == ((1, -1), (-1, 1))


@settings(max_examples=150, deadline=None)
@given(
    st.integers(min_value=1, max_value=4).flatmap(
        lambda n: st.tuples(
            st.lists(st.integers(min_value=-5, max_value=5), min_size=n, max_size=n),
            st.lists(
                st.lists(st.integers(min_value=-4, max_value=4), min_size=n, max_size=n),
                min_size=n,
                max_size=n,
            ),
        )
    )
)
def test_pairing_of_image_evaluates_form(data):
    v, rows = data
    n = len(v)
    sym = [[rows[i][j] + rows[j][i] for j in range(n)] for i in range(n)]
    f = QuadraticForm(sym, 1)
    assert pairing(outer(v, v), f.gram) == f.evaluate(v)


def test_wall_interior_form_is_dual_image_sum():
    n = 5
    total = ((0,) * n,) * n
    for u in big_simplex_dual_vectors(n):
        total = add(total, outer(u, u))
    assert wall_interior_form(n).gram == total
    assert wall_interior_form(n).is_positive_definite


def test_solve_form_from_unit_norms_reconstructs_tf6():
    tf = tf_form(6)
    rep = arithmetic_minimum(tf)
    sol = solve_form_from_unit_norms(rep.vectors, 1)
    assert sol.kind == "unique"
    assert forms.form_from_solution(sol, 6) == tf


def test_solve_form_from_unit_norms_underdetermined():
    sol = solve_form_from_unit_norms([(1, 0), (0, 1)], 1)
    assert sol.kind == "affine"
    assert len(sol.nullspace) == 1


def test_solve_form_from_unit_norms_inconsistent():
    sol = solve_form_from_unit_norms([(1, 0), (2, 0)], 1)
    assert sol.kind == "inconsistent"


def test_solve_form_from_unit_norms_takes_any_iterable():
    vectors = [(1, 0), (0, 1), (1, 1)]
    assert solve_form_from_unit_norms(iter(vectors), 1) == solve_form_from_unit_norms(vectors, 1)
    with pytest.raises(ValueError, match="at least one vector"):
        solve_form_from_unit_norms(iter(()), 1)


def test_dual_form_identity_and_involution():
    e6 = standard_gram("E6")
    assert dual_form(QuadraticForm.identity(3)) == QuadraticForm.identity(3)
    assert dual_form(dual_form(e6)) == e6
    assert dual_form(dual_form(tf_form(5))) == tf_form(5)


def test_standard_a2_frozen():
    assert standard_gram("A", 2).gram == ((2, 1), (1, 2))


def test_standard_d4_minimum():
    rep = arithmetic_minimum(standard_gram("D", 4))
    assert rep.minimum == 2
    assert rep.total_count == 24


def test_e6_star_minimum():
    rep = arithmetic_minimum(standard_gram("E6*"))
    assert rep.minimum == F(4, 3)
    assert rep.total_count == 54


def test_standard_gram_rejects_bad_combos():
    with pytest.raises(ValueError):
        standard_gram("E6", 7)
    with pytest.raises(ValueError):
        standard_gram("Z", 3)
    with pytest.raises(ValueError):
        standard_gram("D", 2)


def test_scale():
    f = QuadraticForm.identity(2)
    assert scale(f, 2).gram == ((2, 0), (0, 2))
    with pytest.raises(ValueError):
        scale(f, 0)


def test_scaled_minimum_and_vectors():
    e6s = standard_gram("E6*")
    rep = arithmetic_minimum(scale(e6s, F(3, 4)))
    assert rep.minimum == 1
    assert rep.vectors == arithmetic_minimum(e6s).vectors


def test_form_text_roundtrip():
    for f in (tf_form(6), standard_gram("E6*"), QuadraticForm.identity(3)):
        assert parse_form(format_form(f)) == f


def test_form_text_rejects_asymmetric():
    with pytest.raises(forms.FormParseError):
        parse_form("2\n1 2\n3 1\n")


def test_form_text_diagnostics_carry_line():
    with pytest.raises(forms.FormParseError) as err:
        parse_form("2\n1 x\n0 1\n")
    assert err.value.line == 2


# -- scale, dual_form and the text format against their Fraction oracles ------

@settings(max_examples=200, deadline=None)
@given(symmetric_forms(), st.fractions(min_value=F(1, 30), max_value=30, max_denominator=30))
def test_scale_matches_fraction_oracle(f, c):
    g = scale(f, c)
    assert g.gram == scaled(f.gram, c)
    assert g == form(scaled(f.gram, c))


@settings(max_examples=200, deadline=None)
@given(symmetric_forms())
def test_dual_form_matches_fraction_oracle(f):
    expected = fraction_inverse(f.gram)
    if expected is None:
        with pytest.raises(ValueError, match="singular"):
            dual_form(f)
    else:
        assert dual_form(f).gram == expected


@settings(max_examples=200, deadline=None)
@given(symmetric_forms())
def test_text_round_trip_matches_fraction_rows(f):
    text = format_form(f)
    header, *lines = text.splitlines()
    assert int(header) == f.n
    assert tuple(tuple(F(x) for x in line.split()) for line in lines) == f.gram
    assert parse_form(text) == f


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_shifted_matches_fraction_oracle(data):
    # G + c M for a rational Gram G and an integer symmetric M, the sum
    # perturbation_check and theorem 1 form, against Fraction arithmetic
    f = data.draw(symmetric_forms())
    entries = st.integers(min_value=-6, max_value=6)
    m = [[0] * f.n for _ in range(f.n)]
    for i in range(f.n):
        for j in range(i, f.n):
            m[i][j] = m[j][i] = data.draw(entries)
    c = data.draw(st.fractions(min_value=-5, max_value=5, max_denominator=40))
    assert forms.shifted(f, c, m).gram == add(f.gram, scaled(m, c))


def test_form_is_canonical_over_its_denominator():
    # one rational Gram, three integer spellings: equal, with equal hashes
    spellings = [
        QuadraticForm([[2, 1], [1, 2]], 4),
        QuadraticForm([[4, 2], [2, 4]], 8),
        form([[F(1, 2), F(1, 4)], [F(1, 4), F(1, 2)]]),
    ]
    assert all(f == spellings[0] and hash(f) == hash(spellings[0]) for f in spellings)
    assert spellings[0].int_gram == ((2, 1), (1, 2)) and spellings[0].den == 4
    with pytest.raises(TypeError):
        QuadraticForm([[F(1, 2)]], 1)
    with pytest.raises(ValueError):
        QuadraticForm([[1]], 0)
