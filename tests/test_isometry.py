"""Unimodular equivalence: witnesses, definitive negatives, invariances."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from tamewall import cli, isometry, linalg
from tamewall.enumeration import _diagonal_minimum, arithmetic_minimum, vectors_up_to
from tamewall.errors import InvariantError
from tamewall.forms import QuadraticForm, dn_neighbor_form, scale, standard_gram, tf_form
from tamewall.isometry import _reference_basis, are_equivalent, are_similar

from rowmath import add, form, identity, matmul, matvec, scaled, transpose
from test_enumeration import fraction_run
from test_kernels import cofactor_det
from test_linalg import fraction_inverse


def doubling_fingerprint(f, levels=3):
    """The former fingerprint: (dimension, determinant, minimum, pair count,
    the pair counts of the first `levels` values), the last from the whole
    vectors_up_to list at each doubled bound from the minimum.  It is the
    Fraction search's pre-filter and the oracle of the CLI's refutation
    payload."""
    rep = arithmetic_minimum(f)
    bound = rep.minimum
    while True:
        by_value = {}
        for _, val in vectors_up_to(f, bound):
            by_value[val] = by_value.get(val, 0) + 1
        histogram = sorted(by_value.items())
        if len(histogram) >= levels:
            histogram = histogram[:levels]
            break
        bound *= 2
    return f.n, f.determinant(), rep.minimum, rep.pair_count, tuple(histogram)


def fraction_minimum(f):
    """(minimum, pair count) from Fraction visits that shrink the bound to
    each smaller value seen: the oracle of the integer enumeration behind
    the CLI's refutation payload."""
    best = [min(f.gram[i][i] for i in range(f.n)), 0]

    def visit(x, value):
        if value == 0:
            return None
        if value < best[0]:
            best[:] = [value, 1]
            return value
        if value == best[0]:
            best[1] += 1
        return None

    fraction_run(f, [0] * f.n, best[0], visit, half=True, shrink=True)
    return tuple(best)


def greedy_reference_basis(f):
    """The former _reference_basis, kept as its oracle: each candidate in
    vectors_up_to order is kept when one rank call shows it independent of
    those kept before it; the bound doubles until n are kept."""
    n = f.n
    bound = _diagonal_minimum(f)
    while True:
        candidates = vectors_up_to(f, bound)
        chosen = []
        for v, _ in candidates:
            trial = chosen + [v]
            if linalg.rank(trial) == len(trial):
                chosen = trial
                if len(chosen) == n:
                    return chosen, candidates
        bound *= 2


def fraction_are_equivalent(a, b):
    """The former search, kept as the oracle of the integer one: each inner
    product is a Fraction Gram(a).v, cached per pair, and the witness is the
    Fraction product of the images with the inverse basis."""
    if a == b:
        return identity(a.n)
    if doubling_fingerprint(a) != doubling_fingerprint(b):
        return None
    n = a.n
    basis = greedy_reference_basis(b)[0]
    b_inv = fraction_inverse(transpose(basis))
    images = [b.int_image(u) for u in basis]  # Gram(b).u as integers over a scale
    target = [[F(sum(x * y for x, y in zip(u, w)), s) for w, s in images] for u in basis]
    by_norm = {}
    for v, val in vectors_up_to(a, max(target[i][i] for i in range(n))):
        by_norm.setdefault(val, []).extend([v, tuple(-x for x in v)])
    for val in by_norm:
        by_norm[val].sort()
    cache = {}

    def inner_a(u, v):
        got = cache.get((u, v))
        if got is None:
            got = sum(x * y for x, y in zip(matvec(a.gram, v), u))
            cache[(u, v)] = cache[(v, u)] = got
        return got

    chosen = []

    def extend(level):
        if level == n:
            u = matmul(transpose(chosen), b_inv)
            if any(x.denominator != 1 for row in u for x in row):
                return None
            ints = tuple(tuple(int(x) for x in row) for row in u)
            return ints if cofactor_det(ints) in (1, -1) else None
        for cand in by_norm.get(target[level][level], ()):
            if all(inner_a(chosen[j], cand) == target[j][level] for j in range(level)):
                chosen.append(cand)
                found = extend(level + 1)
                if found is not None:
                    return found
                chosen.pop()
        return None

    return extend(0)


# The one fingerprint left is the refutation payload of `tamewall equiv`,
# read off arithmetic_minimum and the determinant: it must keep the values
# of the former fingerprint.

def payload(f):
    return cli._fingerprint_diff(f, f)["fingerprint_a"]


def former_payload(f):
    dimension, determinant, minimum, pair_count, _ = doubling_fingerprint(f)
    return {
        "dimension": dimension,
        "determinant": str(determinant),
        "minimum": str(minimum),
        "pair_count": pair_count,
        "total_count": 2 * pair_count,
    }


def test_fingerprint_identity_two():
    fp = payload(QuadraticForm.identity(2))
    assert fp == {"dimension": 2, "determinant": "1", "minimum": "1", "pair_count": 2, "total_count": 4}


def test_fingerprint_tf5():
    fp = payload(tf_form(5))
    assert (fp["minimum"], fp["pair_count"]) == ("1", 15)


def test_fingerprint_scaling():
    f = standard_gram("A", 2)
    fp, fp2 = payload(f), payload(scale(f, 2))
    assert F(fp2["minimum"]) == 2 * F(fp["minimum"])
    assert fp2["pair_count"] == fp["pair_count"]


@pytest.mark.parametrize(
    "f",
    [pytest.param(scale(standard_gram("D", n), F(1, 2)), id=f"D{n}/2") for n in range(5, 11)]
    + [pytest.param(tf_form(n), id=f"tf{n}") for n in range(5, 9)]
    + [pytest.param(standard_gram("E6*"), id="E6*"), pytest.param(dn_neighbor_form(7), id="dn7")],
)
def test_fingerprint_matches_doubling_oracle(f):
    assert payload(f) == former_payload(f)


@settings(max_examples=150, deadline=None)
@given(
    st.integers(min_value=1, max_value=4).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(min_value=-2, max_value=2), min_size=n, max_size=n),
            min_size=n,
            max_size=n,
        )
    ),
    st.integers(min_value=1, max_value=5),
)
def test_fingerprint_matches_doubling_oracle_on_random_forms(rows, k):
    f = form(add(scaled(matmul(transpose(rows), rows), F(1, k)), identity(len(rows))))
    assert payload(f) == former_payload(f)


@settings(max_examples=150, deadline=None)
@given(
    st.integers(min_value=1, max_value=4).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(min_value=-2, max_value=2), min_size=n, max_size=n),
            min_size=n,
            max_size=n,
        )
    ),
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=1, max_value=6),
)
def test_fingerprint_matches_fraction_visits_on_random_forms(rows, k, d):
    f = form(add(scaled(matmul(transpose(rows), rows), F(1, k)), scaled(identity(len(rows)), F(1, d))))
    fp = payload(f)
    assert (F(fp["minimum"]), fp["pair_count"]) == fraction_minimum(f)


@pytest.mark.parametrize(
    "f",
    [pytest.param(tf_form(n), id=f"tf{n}") for n in range(5, 10)]
    + [pytest.param(dn_neighbor_form(n), id=f"dn{n}") for n in range(5, 9)]
    + [pytest.param(standard_gram("E6*"), id="E6*")],
)
def test_fingerprint_matches_fraction_visits(f):
    fp = payload(f)
    assert (F(fp["minimum"]), fp["pair_count"]) == fraction_minimum(f)


@pytest.mark.parametrize(
    "f",
    [pytest.param(scale(standard_gram("D", n), F(1, 2)), id=f"D{n}/2") for n in range(5, 10)]
    + [pytest.param(tf_form(n), id=f"tf{n}") for n in range(5, 10)]
    + [pytest.param(dn_neighbor_form(n), id=f"dn{n}") for n in range(5, 10)]
    + [pytest.param(standard_gram("E6*"), id="E6*"), pytest.param(QuadraticForm.identity(4), id="I4")],
)
def test_reference_basis_matches_greedy_rank_oracle(f):
    assert _reference_basis(f) == greedy_reference_basis(f)


@settings(max_examples=150, deadline=None)
@given(
    st.integers(min_value=1, max_value=4).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(min_value=-2, max_value=2), min_size=n, max_size=n),
            min_size=n,
            max_size=n,
        )
    ),
    st.integers(min_value=1, max_value=5),
)
def test_reference_basis_matches_greedy_rank_oracle_on_random_forms(rows, k):
    # forms with many short vectors in a few directions make the greedy
    # loop skip dependent candidates, and double the bound
    f = form(add(scaled(matmul(transpose(rows), rows), F(1, k)), scaled(identity(len(rows)), F(1, 7))))
    assert _reference_basis(f) == greedy_reference_basis(f)


def test_self_equivalence_gives_identity():
    f = tf_form(5)
    assert are_equivalent(f, f) == identity(5)


def _check_witness(a, b, u):
    assert all(type(x) is int for row in u for x in row)
    assert cofactor_det(u) in (1, -1)
    assert matmul(matmul(transpose(u), a.gram), u) == b.gram


@pytest.mark.parametrize("n", [5, 6, 7])
def test_dn_neighbor_is_scaled_dn(n):
    a = dn_neighbor_form(n)
    b = scale(standard_gram("D", n), F(1, 2))
    u = are_equivalent(a, b)
    assert u is not None
    _check_witness(a, b, u)


def test_tf6_similar_to_e6_dual():
    sim = are_similar(tf_form(6), standard_gram("E6*"))
    assert sim is not None
    c, u = sim
    assert c == F(3, 4)
    _check_witness(tf_form(6), scale(standard_gram("E6*"), c), u)


def test_tf5_not_equivalent_to_scaled_d5():
    assert are_equivalent(tf_form(5), scale(standard_gram("D", 5), F(1, 2))) is None
    fa = arithmetic_minimum(tf_form(5))
    fb = arithmetic_minimum(scale(standard_gram("D", 5), F(1, 2)))
    assert (fa.pair_count, fb.pair_count) == (15, 20)


def test_tf5_not_similar_to_a5():
    assert are_similar(tf_form(5), standard_gram("A", 5)) is None


def test_trivial_similarity_scale():
    f = standard_gram("A", 3)
    sim = are_similar(f, scale(f, 5))
    assert sim is not None
    assert sim[0] == F(1, 5)


def direct_sum(*blocks):
    """The block-diagonal form of square blocks given as rows."""
    n = sum(map(len, blocks))
    rows = [[0] * n for _ in range(n)]
    k = 0
    for block in blocks:
        for i, row in enumerate(block):
            rows[k + i][k:k + len(row)] = row
        k += len(block)
    return form(rows)


# Inequivalent pairs that agree in dimension, determinant, minimum and pair
# count.  The vector counts at a larger norm tell them apart, except from
# I5+A2+[8/3] to I5+2I3: there the counts agree up to norm 2, where the
# vectors of I5+A2+[8/3] span only rank 7.
AGREEING_NEGATIVES = [
    pytest.param(
        direct_sum(identity(5), scaled(identity(3), 2)),
        direct_sum(identity(5), ((2, -1), (-1, 2)), ((F(8, 3),),)),
        id="I5+2I3-I5+A2+[8/3]",
    ),
    pytest.param(
        direct_sum(identity(6), scaled(identity(2), 2)),
        direct_sum(identity(6), ((2, 1), (1, F(5, 2)))),
        id="I6+2I2-I6+[[2,1],[1,5/2]]",
    ),
]


@pytest.mark.parametrize("a, b", AGREEING_NEGATIVES)
def test_prefilter_refutes_without_search(monkeypatch, a, b):
    def search(*args):
        raise AssertionError("the pre-filter let the pair through to the search")

    def cheap_invariants(f):
        rep = arithmetic_minimum(f)
        return f.n, f.determinant(), rep.minimum, rep.pair_count

    assert cheap_invariants(a) == cheap_invariants(b)
    monkeypatch.setattr(isometry, "_first_image", search)
    assert are_equivalent(a, b) is None
    assert are_equivalent(b, a) is None


def test_outcome_is_symmetric():
    pairs = [
        (dn_neighbor_form(5), scale(standard_gram("D", 5), F(1, 2))),
        (tf_form(5), scale(standard_gram("D", 5), F(1, 2))),
        (standard_gram("A", 3), standard_gram("A", 3)),
    ] + [param.values for param in AGREEING_NEGATIVES]
    for a, b in pairs:
        assert (are_equivalent(a, b) is None) == (are_equivalent(b, a) is None)


@pytest.mark.parametrize(
    "a, b",
    [pytest.param(dn_neighbor_form(n), scale(standard_gram("D", n), F(1, 2)), id=f"dn{n}") for n in range(5, 10)]
    + [
        pytest.param(tf_form(6), scale(standard_gram("E6*"), F(3, 4)), id="tf6-E6*"),
        pytest.param(scale(standard_gram("E6*"), F(3, 4)), tf_form(6), id="E6*-tf6"),
        pytest.param(tf_form(5), scale(standard_gram("D", 5), F(1, 2)), id="tf5-d5"),
        pytest.param(tf_form(7), dn_neighbor_form(7), id="tf7-dn7"),
    ],
)
def test_witness_matches_fraction_search(a, b):
    assert are_equivalent(a, b) == fraction_are_equivalent(a, b)


def test_dimension_mismatch_rejected():
    with pytest.raises(ValueError):
        are_equivalent(QuadraticForm.identity(2), QuadraticForm.identity(3))


def test_non_pd_rejected():
    bad = QuadraticForm([[1, 0], [0, -1]], 1)
    with pytest.raises(ValueError):
        are_equivalent(bad, QuadraticForm.identity(2))


def _unimodular_from_shears(n, shears):
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    for (i, j, c) in shears:
        ii, jj = i % n, j % n
        if ii == jj:
            continue
        for k in range(n):
            u[ii][k] += c * u[jj][k]
    return tuple(map(tuple, u))


@settings(max_examples=100, deadline=None)
@given(
    st.sampled_from(["A2", "A3", "D4"]),
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=3),
            st.integers(min_value=0, max_value=3),
            st.integers(min_value=-2, max_value=2),
        ),
        min_size=0,
        max_size=4,
    ),
)
def test_equivalence_invariant_under_unimodular_precomposition(name, shears):
    f = {"A2": standard_gram("A", 2), "A3": standard_gram("A", 3), "D4": standard_gram("D", 4)}[name]
    u = _unimodular_from_shears(f.n, shears)
    conjugated = form(matmul(matmul(transpose(u), f.gram), u))
    w = are_equivalent(f, conjugated)
    assert w is not None
    _check_witness(f, conjugated, w)
    assert w == fraction_are_equivalent(f, conjugated)


def test_witness_failing_gram_identity_raises_invariant_error(monkeypatch):
    # A search that skips the inner-product pruning hands accept a basis
    # image whose U is unimodular but fails U^T Gram(a) U = Gram(b).
    monkeypatch.setattr(isometry, "_first_image", lambda candidates, fits, accept: accept([(1, 0), (1, 1)]))
    a = QuadraticForm.identity(2)
    b = QuadraticForm([[1, 1], [1, 2]], 1)
    with pytest.raises(InvariantError, match="Gram identity"):
        are_equivalent(a, b)


def test_integral_map_refuses_a_non_integral_product():
    # U B^-1 with B^-1 = diag(1/2, 1): integral for U = diag(2, 3), not for U = I
    inverse = linalg.inverse([[2, 0], [0, 1]])
    assert isometry._integral_map([(2, 0), (0, 3)], inverse) == ((1, 0), (0, 3))
    assert isometry._integral_map([(1, 0), (0, 1)], inverse) is None
