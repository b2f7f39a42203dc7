"""Exact simplex LP: frozen cases and witness-exactness properties."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from tamewall import lp
from tamewall.errors import InvariantError
from tamewall.lp import lp_solve


def test_maximize_with_upper_bound():
    res = lp_solve(objective=[1], less_equal=[((1,), 1)])
    assert res.status == "optimal"
    assert res.optimum == 1
    assert res.witness == (1,)


def test_contradictory_stricts_infeasible():
    res = lp_solve(strict_less=[((-1,), 0), ((1,), 0)])
    assert res.status == "infeasible"


def test_eutaxy_system_identity_two_vars():
    # alpha_1 e1 e1^T + alpha_2 e2 e2^T = I with strictly positive weights
    res = lp_solve(
        equalities=[((1, 0), 1), ((0, 1), 1)],
        strict_less=[((-1, 0), 0), ((0, -1), 0)],
    )
    assert res.status == "feasible"
    assert res.witness == (1, 1)


def test_unbounded():
    assert lp_solve(objective=[1, 0]).status == "unbounded"


def test_minimize():
    res = lp_solve(objective=[1], less_equal=[((-1,), 2)], maximize=False)
    assert res.status == "optimal"
    assert res.optimum == -2


def test_equality_feasibility():
    res = lp_solve(equalities=[((2, 3), 12)])
    assert res.status == "feasible"
    x, y = res.witness
    assert 2 * x + 3 * y == 12


def test_infeasible_equalities():
    res = lp_solve(equalities=[((1, 1), 1), ((1, 1), 2)])
    assert res.status == "infeasible"


def test_degenerate_cycling_guard():
    # Classic degenerate instance (nonnegative variables); Bland's rule
    # must terminate at the known optimum.
    nonneg = [(tuple(-1 if j == i else 0 for j in range(4)), 0) for i in range(4)]
    res = lp_solve(
        objective=[F(3, 4), -150, F(1, 50), -6],
        less_equal=[
            ((F(1, 4), -60, F(-1, 25), 9), 0),
            ((F(1, 2), -90, F(-1, 50), 3), 0),
            ((0, 0, 1, 0), 1),
        ]
        + nonneg,
    )
    assert res.status == "optimal"
    assert res.optimum == F(1, 20)


def test_strict_with_objective_rejected():
    with pytest.raises(ValueError):
        lp_solve(objective=[1], strict_less=[((1,), 1)])


def test_no_variables():
    assert lp_solve(equalities=[((), 0)]).status == "feasible"
    assert lp_solve(equalities=[((), 1)]).status == "infeasible"


constraint_rows = st.lists(
    st.tuples(
        st.lists(st.integers(min_value=-4, max_value=4), min_size=3, max_size=3),
        st.integers(min_value=-3, max_value=3),
    ),
    min_size=1,
    max_size=6,
)


@settings(max_examples=150, deadline=None)
@given(constraint_rows, st.lists(st.integers(min_value=-3, max_value=3), min_size=3, max_size=3))
def test_witness_satisfies_all_constraints(rows, anchor):
    # Shift every right-hand side so the anchor point is feasible; the
    # solver must then report a witness satisfying everything exactly.
    leqs = [(coeffs, sum(c * a for c, a in zip(coeffs, anchor)) + max(rhs, 0)) for coeffs, rhs in rows]
    res = lp_solve(less_equal=leqs, num_vars=3)
    assert res.status == "feasible"
    for coeffs, rhs in leqs:
        assert sum(c * w for c, w in zip(coeffs, res.witness)) <= rhs


@settings(max_examples=150, deadline=None)
@given(constraint_rows)
def test_optimal_witness_attains_reported_optimum(rows):
    # Box-bounded so the problem is never unbounded.
    leqs = [(coeffs, F(rhs)) for coeffs, rhs in rows]
    for i in range(3):
        e = [0, 0, 0]
        e[i] = 1
        leqs.append((tuple(e), 5))
        leqs.append((tuple(-x for x in e), 5))
    res = lp_solve(objective=[1, 1, 1], less_equal=leqs, num_vars=3)
    if res.status == "optimal":
        assert sum(res.witness) == res.optimum
        for coeffs, rhs in leqs:
            assert sum(c * w for c, w in zip(coeffs, res.witness)) <= rhs
    else:
        assert res.status == "infeasible"


def test_unbounded_slack_lp_raises_invariant_error(monkeypatch):
    # the auxiliary slack is bounded by 1, so its LP cannot be unbounded
    monkeypatch.setattr(lp, "_run", lambda *args: lp.LPResult("unbounded"))
    with pytest.raises(InvariantError, match="slack"):
        lp_solve(strict_less=[((-1,), 0)])
