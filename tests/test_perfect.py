"""Perfectness, eutaxy, extremeness; equivalences and invariances."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from tamewall import linalg
from tamewall.enumeration import arithmetic_minimum
from tamewall.forms import (
    QuadraticForm,
    dn_neighbor_form,
    dual_form,
    form_from_solution,
    scale,
    solve_form_from_unit_norms,
    standard_gram,
    tf_form,
    value_row,
)
from tamewall.perfect import is_eutactic, is_extreme, perfection_report

from rowmath import form, matmul, transpose


def test_identity_not_perfect():
    rep = perfection_report(QuadraticForm.identity(2))
    assert (rep.rank, rep.sym_dim, rep.is_perfect) == (2, 3, False)


def test_tf6_perfect():
    rep = perfection_report(tf_form(6))
    assert rep.rank == 21 == rep.sym_dim
    assert rep.is_perfect


def test_a2_perfect():
    rep = perfection_report(standard_gram("A", 2))
    assert rep.is_perfect
    assert rep.minimal_pair_count == 3


@pytest.mark.parametrize(
    "f",
    [
        QuadraticForm.identity(2),
        QuadraticForm.identity(3),
        standard_gram("A", 2),
        standard_gram("A", 3),
        standard_gram("D", 4),
        tf_form(5),
        tf_form(6),
        dn_neighbor_form(5),
    ],
)
def test_perfection_equals_unique_reconstruction(f):
    rep = arithmetic_minimum(f)
    sol = solve_form_from_unit_norms(rep.vectors, rep.minimum)
    assert perfection_report(f).is_perfect == (sol.kind == "unique")
    if sol.kind == "unique":
        assert form_from_solution(sol, f.n) == f


def rational_perfection(f):
    """The former perfection_report and reconstruction, kept as their
    oracle: a rank over Fraction rows, then a second elimination of the
    unit-norm system."""
    vectors = arithmetic_minimum(f).vectors
    m = [[F(x) for x in value_row(v)] for v in vectors]
    sol = linalg.solve(m, [F(1)] * len(vectors))
    recon = form_from_solution(sol, f.n) if sol.is_unique else None
    return linalg.rank(m), recon


@pytest.mark.parametrize(
    "f",
    [
        QuadraticForm.identity(3),
        standard_gram("A", 3),
        standard_gram("D", 4),
        standard_gram("E6"),
        scale(standard_gram("E6*"), 3),
    ]
    + [tf_form(n) for n in range(5, 10)]
    + [dn_neighbor_form(n) for n in range(5, 10)],
)
def test_one_elimination_gives_rank_and_reconstruction(f):
    rep = perfection_report(f)
    rk, recon = rational_perfection(f)
    assert (rep.rank, rep.reconstruction) == (rk, recon)
    assert rep.is_perfect == (recon is not None)
    if recon is not None:
        assert scale(recon, arithmetic_minimum(f).minimum) == f


def test_eutactic_identity():
    verdict, weights = is_eutactic(QuadraticForm.identity(2))
    assert verdict
    assert weights == (1, 1)


def test_eutactic_tf_forms():
    assert is_eutactic(tf_form(5))[0]
    assert is_eutactic(tf_form(6))[0]


@pytest.mark.parametrize(
    "f",
    [QuadraticForm.identity(2), standard_gram("A", 2), standard_gram("A", 3), tf_form(5)],
)
def test_eutaxy_weights_reproduce_dual_exactly(f):
    verdict, weights = is_eutactic(f)
    assert verdict
    vecs = arithmetic_minimum(f).vectors
    n = f.n
    total = [[F(0)] * n for _ in range(n)]
    for w, v in zip(weights, vecs):
        assert w > 0
        for i in range(n):
            for j in range(n):
                total[i][j] += w * v[i] * v[j]
    assert tuple(map(tuple, total)) == dual_form(f).gram


def test_extreme_verdicts():
    assert is_extreme(standard_gram("A", 2))
    assert not is_extreme(QuadraticForm.identity(2))


def test_extreme_scale_invariance():
    for f in (standard_gram("A", 2), QuadraticForm.identity(2)):
        assert is_extreme(f) == is_extreme(scale(f, F(7, 3)))


def _random_unimodular(n, seed_rows):
    """Small unimodular matrix from integer shear operations."""
    u = [[F(1) if i == j else F(0) for j in range(n)] for i in range(n)]
    for (i, j, c) in seed_rows:
        ii, jj = i % n, j % n
        if ii == jj:
            continue
        for k in range(n):
            u[ii][k] += c * u[jj][k]
    return u


@settings(max_examples=100, deadline=None)
@given(
    st.sampled_from(["A2", "A3", "I2", "TF5"]),
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=4),
            st.integers(min_value=0, max_value=4),
            st.integers(min_value=-2, max_value=2),
        ),
        min_size=0,
        max_size=4,
    ),
)
def test_perfection_and_eutaxy_unimodular_invariant(name, shears):
    f = {
        "A2": standard_gram("A", 2),
        "A3": standard_gram("A", 3),
        "I2": QuadraticForm.identity(2),
        "TF5": tf_form(5),
    }[name]
    u = _random_unimodular(f.n, shears)
    conjugated = form(matmul(matmul(transpose(u), f.gram), u))
    assert perfection_report(conjugated).is_perfect == perfection_report(f).is_perfect
    assert is_eutactic(conjugated)[0] == is_eutactic(f)[0]
