"""Exact simplex LP: frozen cases, witness-exactness properties, and a
differential test of equality elimination against the equality tableau."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from tamewall import linalg, lp
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


def test_unique_equality_solution_with_objective():
    # the equalities pin x, so no simplex variable is left
    res = lp_solve(objective=[1, 2], equalities=[((1, 1), 3), ((1, -1), 1)], less_equal=[((1, 0), 5)])
    assert res == lp.LPResult("optimal", (2, 1), 4)
    assert lp_solve(equalities=[((1, 1), 3), ((1, -1), 1)], less_equal=[((1, 0), 1)]).status == "infeasible"
    assert lp_solve(equalities=[((1, 1), 3), ((1, -1), 1)], strict_less=[((1, 0), 2)]).status == "infeasible"


def test_rank_deficient_equalities():
    # the second equality repeats the first; x_1 + x_2 = 2, x_3 = 1 remain
    rows = dict(
        equalities=[((1, 1, 0), 2), ((2, 2, 0), 4), ((0, 0, 1), 1)],
        less_equal=[((1, 0, 0), 7)],
    )
    res = lp_solve(objective=[1, 1, 1], maximize=False, **rows)
    assert res.status == "optimal" and res.optimum == 3
    assert lp_solve(objective=[1, 0, 0], maximize=False, **rows).status == "unbounded"
    res = lp_solve(objective=[1, 0, 0], **rows)
    assert res == lp.LPResult("optimal", (7, -5, 1), 7)


def test_one_elimination_per_call_with_equalities(monkeypatch):
    calls = []
    real = linalg.solve

    def counting_solve(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(linalg, "solve", counting_solve)
    lp_solve(objective=[1], less_equal=[((1,), 1)])
    assert calls == []
    lp_solve(equalities=[((1, 1), 1), ((1, -1), 0)], strict_less=[((-1, 0), 0)])
    assert len(calls) == 1


# -- oracle: equalities kept as tableau rows ---------------------------------


class _TableauWithEqualities(lp._Simplex):
    """The simplex with equality rows in the tableau.

    Each equality gets a zero slack column and an artificial that phase 1
    pivots out; the pivoting, pricing and phase logic are those of
    lp._Simplex.  This is the equality handling that lp_solve replaced by
    exact elimination.
    """

    def __init__(self, nfree, equalities, leqs):
        self.nfree = nfree
        ncols = 2 * nfree
        rows = [(self._split(c), rhs, "eq") for c, rhs in equalities]
        rows += [(self._split(c), rhs, "leq") for c, rhs in leqs]
        self.ncols_struct = ncols + len(rows)
        normalized = []
        for ridx, (row, rhs, kind) in enumerate(rows):
            row = row + [F(0)] * len(rows)
            if kind == "leq":
                row[ncols + ridx] = F(1)
            if rhs < 0:
                row = [-x for x in row]
                rhs = -rhs
            normalized.append((row, rhs))
        art_col_of_row = {}
        for i, (row, _) in enumerate(normalized):
            if row[ncols + i] != 1:
                art_col_of_row[i] = self.ncols_struct + len(art_col_of_row)
        self.nart = len(art_col_of_row)
        self.total_cols = self.ncols_struct + self.nart
        self.T = []
        self.basis = []
        for i, (row, rhs) in enumerate(normalized):
            full = row + [F(0)] * self.nart + [rhs]
            if i in art_col_of_row:
                full[art_col_of_row[i]] = F(1)
            self.T.append(full)
            self.basis.append(art_col_of_row.get(i, ncols + i))


def _oracle_run(nvars, objective, eqs, leqs):
    sim = _TableauWithEqualities(nvars, eqs, leqs)
    status = sim.solve(lp._objective_split(objective, nvars, sim.ncols_struct))
    if status != "optimal":
        return lp.LPResult(status)
    witness = sim.witness()
    return lp.LPResult("optimal", witness, sum(c * w for c, w in zip(objective, witness)))


def oracle_lp_solve(objective=None, equalities=(), less_equal=(), strict_less=(), maximize=True, num_vars=None):
    """lp_solve with the equalities pivoted through the tableau."""
    nvars = num_vars if num_vars is not None else lp._infer_nvars(objective, equalities, less_equal, strict_less)
    eqs = lp._coerce_constraints(equalities, nvars)
    leqs = lp._coerce_constraints(less_equal, nvars)
    stricts = lp._coerce_constraints(strict_less, nvars)
    if stricts:
        aug_leqs = [(row + [F(1)], rhs) for row, rhs in stricts]
        aug_leqs += [(row + [F(0)], rhs) for row, rhs in leqs]
        aug_leqs.append(([F(0)] * nvars + [F(1)], F(1)))
        aug_leqs.append(([F(0)] * nvars + [F(-1)], F(0)))
        aug_eqs = [(row + [F(0)], rhs) for row, rhs in eqs]
        res = _oracle_run(nvars + 1, [F(0)] * nvars + [F(1)], aug_eqs, aug_leqs)
        if res.status == "optimal" and res.optimum > 0:
            return lp.LPResult("feasible", witness=res.witness[:nvars])
        return lp.LPResult("infeasible")
    if objective is None:
        res = _oracle_run(nvars, [F(0)] * nvars, eqs, leqs)
        if res.status == "infeasible":
            return res
        return lp.LPResult("feasible", witness=res.witness)
    obj = [F(c) for c in objective] + [F(0)] * (nvars - len(objective))
    if not maximize:
        obj = [-c for c in obj]
    res = _oracle_run(nvars, obj, eqs, leqs)
    if res.status == "optimal" and not maximize:
        return lp.LPResult("optimal", res.witness, -res.optimum)
    return res


small = st.integers(min_value=-3, max_value=3)


@st.composite
def random_lps(draw):
    """LPs with equalities that may be rank-deficient, inconsistent or pin
    every variable (empty nullspace), plus <= or strict rows and an optional
    objective; right-hand sides are shifted around an integer anchor so
    that feasible instances are common."""
    n = draw(st.integers(min_value=1, max_value=4))
    anchor = draw(st.lists(small, min_size=n, max_size=n))

    def rows(max_size):
        out = []
        for coeffs in draw(st.lists(st.lists(small, min_size=n, max_size=n), max_size=max_size)):
            out.append((coeffs, sum(c * a for c, a in zip(coeffs, anchor))))
        return out

    eqs = rows(n + 1)
    if eqs and draw(st.booleans()):
        # a dependent row: the sum of two rows (or a row doubled)
        (a, b), (c, d) = draw(st.sampled_from(eqs)), draw(st.sampled_from(eqs))
        eqs.append(([x + y for x, y in zip(a, c)], b + d))
    if eqs and draw(st.booleans()):
        i = draw(st.integers(min_value=0, max_value=len(eqs) - 1))
        eqs[i] = (eqs[i][0], eqs[i][1] + draw(small))  # often inconsistent
    leqs = [(c, b + draw(st.integers(min_value=-1, max_value=3))) for c, b in rows(5)]
    kind = draw(st.sampled_from(["max", "min", "strict", "feasibility"]))
    objective = list(draw(st.lists(small, min_size=n, max_size=n))) if kind in ("max", "min") else None
    stricts = []
    if kind == "strict":
        stricts = [(c, b + draw(st.integers(min_value=0, max_value=2))) for c, b in rows(4)]
    return dict(
        objective=objective,
        equalities=eqs,
        less_equal=leqs,
        strict_less=stricts,
        maximize=kind != "min",
        num_vars=n,
    )


def _check_witness(lp_args, res):
    def dot(coeffs):
        return sum(F(c) * w for c, w in zip(coeffs, res.witness))

    assert len(res.witness) == lp_args["num_vars"]
    assert all(dot(c) == b for c, b in lp_args["equalities"])
    assert all(dot(c) <= b for c, b in lp_args["less_equal"])
    assert all(dot(c) < b for c, b in lp_args["strict_less"])
    if res.status == "optimal":
        assert dot(lp_args["objective"]) == res.optimum


@settings(max_examples=400, deadline=None)
@given(random_lps())
def test_elimination_matches_equality_tableau(lp_args):
    res = lp_solve(**lp_args)
    ref = oracle_lp_solve(**lp_args)
    assert res.status == ref.status
    assert res.optimum == ref.optimum
    for r in (res, ref):
        if r.status in ("optimal", "feasible"):
            _check_witness(lp_args, r)
        else:
            assert r.witness is None
