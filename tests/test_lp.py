"""Exact simplex LP: frozen cases, witness-exactness properties, and
differential tests of `lp_solve` and `positive_solution` against an oracle
that keeps the former API (strict rows, minimization, feasibility) over
the equality tableau, and prices its reduced costs afresh from the basis
before every pivot.  A second oracle keeps the dense pivot, which rebuilt
every touched row over all of its columns, and must make the same pivots
through the same tableaux."""

import inspect
from fractions import Fraction as F
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from tamewall import delaunay, linalg, lp, perfect
from tamewall.errors import InvariantError
from tamewall.forms import standard_gram, tf_form
from tamewall.lp import lp_solve, positive_solution


def test_one_problem_shape():
    assert list(inspect.signature(lp_solve).parameters) == ["objective", "equalities", "less_equal"]


def test_maximize_with_upper_bound():
    res = lp_solve(objective=[1], less_equal=[((1,), 1)])
    assert res.status == "optimal"
    assert res.optimum == 1
    assert res.witness == (1,)


def test_contradictory_stricts_infeasible():
    # x = -1 contradicts x > 0
    assert positive_solution([((1,), -1)]) is None
    assert positive_solution([((1, 1), 0)]) is None


def test_eutaxy_system_identity_two_vars():
    # alpha_1 e1 e1^T + alpha_2 e2 e2^T = I with strictly positive weights
    assert positive_solution([((1, 0), 1), ((0, 1), 1)]) == (1, 1)


def test_unbounded():
    assert lp_solve(objective=[1, 0]).status == "unbounded"


def test_minimize():
    # min x subject to x >= -2, as max -x
    res = lp_solve(objective=[-1], less_equal=[((-1,), 2)])
    assert res.status == "optimal"
    assert res.optimum == 2
    assert res.witness == (-2,)


def test_equality_feasibility():
    res = lp_solve(objective=[0, 0], equalities=[((2, 3), 12)])
    assert res.status == "optimal" and res.optimum == 0
    x, y = res.witness
    assert 2 * x + 3 * y == 12


def test_infeasible_equalities():
    res = lp_solve(objective=[0, 0], equalities=[((1, 1), 1), ((1, 1), 2)])
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


def test_row_longer_than_objective_rejected():
    with pytest.raises(ValueError, match="more coefficients"):
        lp_solve(objective=[1], less_equal=[((1, 1), 1)])


def test_no_variables():
    assert lp_solve(objective=[], equalities=[((), 0)]) == lp.LPResult("optimal", (), 0)
    assert lp_solve(objective=[], equalities=[((), 1)]).status == "infeasible"
    assert lp_solve(objective=[], less_equal=[((), -1)]).status == "infeasible"


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
    res = lp_solve(objective=[0, 0, 0], less_equal=leqs)
    assert res.status == "optimal"
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
    res = lp_solve(objective=[1, 1, 1], less_equal=leqs)
    if res.status == "optimal":
        assert sum(res.witness) == res.optimum
        for coeffs, rhs in leqs:
            assert sum(c * w for c, w in zip(coeffs, res.witness)) <= rhs
    else:
        assert res.status == "infeasible"


def test_unbounded_slack_lp_raises_invariant_error(monkeypatch):
    # the auxiliary slack is bounded by 1, so its LP cannot be unbounded
    monkeypatch.setattr(lp, "lp_solve", lambda **kwargs: lp.LPResult("unbounded"))
    with pytest.raises(InvariantError, match="slack"):
        positive_solution([((1,), 1)])


def test_unique_equality_solution_with_objective():
    # the equalities pin x, so no simplex variable is left
    eqs = [((1, 1), 3), ((1, -1), 1)]
    res = lp_solve(objective=[1, 2], equalities=eqs, less_equal=[((1, 0), 5)])
    assert res == lp.LPResult("optimal", (2, 1), 4)
    assert lp_solve(objective=[1, 2], equalities=eqs, less_equal=[((1, 0), 1)]).status == "infeasible"
    assert positive_solution(eqs) == (2, 1)
    assert positive_solution([((1, 1), 3), ((1, -1), 5)]) is None  # x = (4, -1)


def test_rank_deficient_equalities():
    # the second equality repeats the first; x_1 + x_2 = 2, x_3 = 1 remain
    rows = dict(
        equalities=[((1, 1, 0), 2), ((2, 2, 0), 4), ((0, 0, 1), 1)],
        less_equal=[((1, 0, 0), 7)],
    )
    res = lp_solve(objective=[-1, -1, -1], **rows)
    assert res.status == "optimal" and res.optimum == -3
    assert lp_solve(objective=[-1, 0, 0], **rows).status == "unbounded"
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
    positive_solution([((1, 1), 1), ((1, -1), 0)])
    assert len(calls) == 1


def test_positive_solution_is_one_traceable_lp(monkeypatch):
    # it goes through the module's lp_solve, which a tracer may replace
    calls = []
    real = lp.lp_solve
    monkeypatch.setattr(lp, "lp_solve", lambda **kwargs: calls.append(kwargs) or real(**kwargs))
    assert positive_solution([((1, 1), 2)]) == (1, 1)
    assert len(calls) == 1


# -- oracle: the former API, over the equality tableau -----------------------


def _split(coeffs):
    # x_j = x_j^+ - x_j^-: one block of positive parts, then the negatives
    return [c for c in coeffs] + [-c for c in coeffs]


def _objective_split(objective, nfree, ncols_struct):
    obj = [F(c) for c in objective]
    return [*obj, *(-c for c in obj)] + [F(0)] * (ncols_struct - 2 * nfree)


class _RepricingSimplex:
    """The tableau simplex that lp._Simplex replaced: the same Bland's rule
    and drive-out step, but the reduced costs are priced afresh from the
    basis before every pivot, and phase 1 reads the basic artificials back
    from the tableau.  A subclass builds the tableau T and its basis."""

    def _price(self, cost):
        """Reduced-cost row for the current basis (cost over all columns)."""
        z = list(cost)
        for i in range(len(self.T)):
            cb = cost[self.basis[i]]
            if cb != 0:
                row = self.T[i]
                for j in range(self.total_cols):
                    z[j] -= cb * row[j]
        return z

    def _pivot(self, r, c):
        row = self.T[r]
        piv = row[c]
        inv = 1 / piv
        self.T[r] = [x * inv for x in row]
        prow = self.T[r]
        for i in range(len(self.T)):
            if i != r and self.T[i][c] != 0:
                f = self.T[i][c]
                self.T[i] = [a - f * b for a, b in zip(self.T[i], prow)]
        self.basis[r] = c

    def _iterate(self, cost, allowed):
        while True:
            z = self._price(cost)
            enter = next((j for j in range(self.total_cols) if allowed[j] and z[j] > 0), None)
            if enter is None:
                return "optimal"
            leave = None
            best = None
            for i in range(len(self.T)):
                a = self.T[i][enter]
                if a > 0:
                    ratio = self.T[i][-1] / a
                    if best is None or ratio < best or (
                        ratio == best and self.basis[i] < self.basis[leave]
                    ):
                        best = ratio
                        leave = i
            if leave is None:
                return "unbounded"
            self._pivot(leave, enter)

    def solve(self, objective_split):
        allowed = [True] * self.total_cols
        if self.nart:
            phase1 = [F(0)] * self.total_cols
            for c in range(self.ncols_struct, self.total_cols):
                phase1[c] = F(-1)
            self._iterate(phase1, allowed)
            total_art = sum(
                self.T[i][-1] for i in range(len(self.T)) if self.basis[i] >= self.ncols_struct
            )
            if total_art != 0:
                return "infeasible"
            for i in range(len(self.T)):
                if self.basis[i] >= self.ncols_struct:
                    col = next((j for j in range(self.ncols_struct) if self.T[i][j] != 0), None)
                    if col is not None:
                        self._pivot(i, col)
            for c in range(self.ncols_struct, self.total_cols):
                allowed[c] = False
        cost = list(objective_split) + [F(0)] * (self.total_cols - len(objective_split))
        return self._iterate(cost, allowed)

    def witness(self):
        vals = [F(0)] * self.total_cols
        for i, b in enumerate(self.basis):
            vals[b] = self.T[i][-1]
        n = self.nfree
        return tuple(vals[j] - vals[n + j] for j in range(n))


class _TableauWithEqualities(_RepricingSimplex):
    """The simplex with equality rows in the tableau.

    Each equality gets a zero slack column and an artificial that phase 1
    pivots out; the pivoting, pricing and phase logic are those of
    _RepricingSimplex.  This is the equality handling that lp_solve
    replaced by exact elimination.  Without equality rows it builds
    lp._Simplex's tableau.  A redundant equality can leave an artificial
    basic at level zero with no structural column to pivot on.
    """

    def __init__(self, nfree, equalities, leqs):
        self.nfree = nfree
        ncols = 2 * nfree
        rows = [(_split(c), rhs, "eq") for c, rhs in equalities]
        rows += [(_split(c), rhs, "leq") for c, rhs in leqs]
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
    status = sim.solve(_objective_split(objective, nvars, sim.ncols_struct))
    if status != "optimal":
        return lp.LPResult(status)
    witness = sim.witness()
    return lp.LPResult("optimal", witness, sum(c * w for c, w in zip(objective, witness)))


def _oracle_nvars(objective, *constraint_groups):
    n = len(objective) if objective is not None else 0
    for group in constraint_groups:
        for coeffs, _ in group:
            n = max(n, len(coeffs))
    return n


def oracle_lp_solve(
    objective=None,
    equalities=(),
    less_equal=(),
    strict_less=(),
    maximize=True,
    num_vars=None,
    eliminate=False,
):
    """The former lp_solve API: maximize or minimize an objective, or, with
    none, decide feasibility ('feasible' and a witness); strict rows are
    certified by a slack bounded by 1 that must reach a positive optimum.

    By default the equalities are pivoted through the tableau.  With
    eliminate=True they are first solved by lp._eliminate and the rest is
    restated over the nullspace, which reproduces the former lp_solve
    exactly, witnesses included."""
    if num_vars is None:
        num_vars = _oracle_nvars(objective, equalities, less_equal, strict_less)
    nvars = num_vars
    eqs = lp._coerce_constraints(equalities, nvars)
    leqs = lp._coerce_constraints(less_equal, nvars)
    stricts = lp._coerce_constraints(strict_less, nvars)
    obj = None if objective is None else lp._coerce_row(objective, nvars)
    if eliminate and eqs:
        solutions = lp._eliminate(eqs, nvars)
        if solutions is None:
            return lp.LPResult("infeasible")
        origin, basis = solutions
        res = oracle_lp_solve(
            None if obj is None else [lp._dot(obj, z) for z in basis],
            (),
            lp._substitute(leqs, origin, basis),
            lp._substitute(stricts, origin, basis),
            maximize,
            len(basis),
        )
        if res.witness is None:
            return res
        x = tuple(o + sum(t * z[j] for t, z in zip(res.witness, basis)) for j, o in enumerate(origin))
        return lp.LPResult(res.status, x, None if obj is None else lp._dot(obj, x))
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
    if obj is None:
        res = _oracle_run(nvars, [F(0)] * nvars, eqs, leqs)
        if res.status == "infeasible":
            return res
        return lp.LPResult("feasible", witness=res.witness)
    if not maximize:
        obj = [-c for c in obj]
    res = _oracle_run(nvars, obj, eqs, leqs)
    if res.status == "optimal" and not maximize:
        return lp.LPResult("optimal", res.witness, -res.optimum)
    return res


small = st.integers(min_value=-3, max_value=3)


def _equalities(draw, n, anchor, min_size=0):
    """Rows through an integer anchor that may be rank-deficient,
    inconsistent or pin every variable (empty nullspace)."""
    eqs = [
        (coeffs, sum(c * a for c, a in zip(coeffs, anchor)))
        for coeffs in draw(st.lists(st.lists(small, min_size=n, max_size=n), min_size=min_size, max_size=n + 1))
    ]
    if eqs and draw(st.booleans()):
        # a dependent row: the sum of two rows (or a row doubled)
        (a, b), (c, d) = draw(st.sampled_from(eqs)), draw(st.sampled_from(eqs))
        eqs.append(([x + y for x, y in zip(a, c)], b + d))
    if eqs and draw(st.booleans()):
        i = draw(st.integers(min_value=0, max_value=len(eqs) - 1))
        eqs[i] = (eqs[i][0], eqs[i][1] + draw(small))  # often inconsistent
    return eqs


@st.composite
def random_lps(draw):
    """LPs in the former API's three kinds with an objective or none:
    'max', 'min' and 'feasibility', with equalities and <= rows whose
    right-hand sides are shifted around an integer anchor so that feasible
    instances are common."""
    n = draw(st.integers(min_value=1, max_value=4))
    anchor = draw(st.lists(small, min_size=n, max_size=n))
    eqs = _equalities(draw, n, anchor)
    leqs = [
        (coeffs, sum(c * a for c, a in zip(coeffs, anchor)) + draw(st.integers(min_value=-1, max_value=3)))
        for coeffs in draw(st.lists(st.lists(small, min_size=n, max_size=n), max_size=5))
    ]
    kind = draw(st.sampled_from(["max", "min", "feasibility"]))
    objective = list(draw(st.lists(small, min_size=n, max_size=n))) if kind != "feasibility" else None
    return dict(objective=objective, equalities=eqs, less_equal=leqs, maximize=kind != "min", num_vars=n)


def _one_shape(lp_args):
    """The former call as one maximization: min c.x is max -c.x, and a
    feasibility question maximizes the zero objective."""
    n = lp_args["num_vars"]
    objective = lp_args["objective"] or [0] * n
    if not lp_args["maximize"]:
        objective = [-c for c in objective]
    res = lp_solve(objective=objective, equalities=lp_args["equalities"], less_equal=lp_args["less_equal"])
    if res.status != "optimal":
        return res
    if lp_args["objective"] is None:
        assert res.optimum == 0
        return lp.LPResult("feasible", witness=res.witness)
    if not lp_args["maximize"]:
        return lp.LPResult("optimal", res.witness, -res.optimum)
    return res


def _check_witness(lp_args, res):
    def dot(coeffs):
        return sum(F(c) * w for c, w in zip(coeffs, res.witness))

    assert len(res.witness) == lp_args["num_vars"]
    assert all(dot(c) == b for c, b in lp_args["equalities"])
    assert all(dot(c) <= b for c, b in lp_args["less_equal"])
    assert all(dot(c) < b for c, b in lp_args.get("strict_less", ()))
    if res.status == "optimal":
        assert dot(lp_args["objective"]) == res.optimum


@settings(max_examples=400, deadline=None)
@given(random_lps())
def test_elimination_matches_equality_tableau(lp_args):
    res = _one_shape(lp_args)
    # the former lp_solve: the same status, witness and optimum
    assert res == oracle_lp_solve(**lp_args, eliminate=True)
    # the equality tableau: the same status and optimum, maybe another vertex
    ref = oracle_lp_solve(**lp_args)
    assert res.status == ref.status
    assert res.optimum == ref.optimum
    for r in (res, ref):
        if r.status in ("optimal", "feasible"):
            _check_witness(lp_args, r)
        else:
            assert r.witness is None


class _PivotedTableauWithEqualities(lp._Simplex):
    """lp._Simplex's pivoted cost rows over the equality tableau."""

    __init__ = _TableauWithEqualities.__init__


@settings(max_examples=400, deadline=None)
@given(random_lps())
def test_pivoted_cost_rows_match_repricing_oracle(lp_args):
    """Every LP that lp_solve runs, called directly or by positive_solution,
    has the status, witness and optimum of the re-pricing oracle after
    elimination.  The draws reach phase 1 (rows with a negative right-hand
    side after substitution), degenerate ratio ties (rows through the
    anchor, and positive_solution's rows delta - x_k <= 0), and unbounded
    and infeasible outcomes.  After elimination every row keeps its own
    slack column, so a zero-level artificial can always be driven out; in
    the equality tableau a redundant equality leaves one that cannot be,
    and there the pivoted cost rows must reach the oracle's status and
    witness too."""
    n = lp_args["num_vars"]
    eqs, leqs = lp_args["equalities"], lp_args["less_equal"]
    calls = []
    real = lp.lp_solve

    def recording(**kwargs):
        calls.append((kwargs, real(**kwargs)))
        return calls[-1][1]

    pivots = []
    real_pivot = lp._Simplex._pivot

    def counted_pivot(self, r, c):
        # these LPs end in a few Bland pivots; a cost row left stale by a
        # pivot keeps entering the same column forever
        pivots.append(c)
        assert len(pivots) < 1000, "the simplex does not terminate"
        real_pivot(self, r, c)

    with mock.patch.object(lp._Simplex, "_pivot", counted_pivot):
        with mock.patch.object(lp, "lp_solve", recording):
            lp.lp_solve(objective=lp_args["objective"] or [0] * n, equalities=eqs, less_equal=leqs)
            if eqs:
                positive_solution(eqs)
        assert len(calls) == 1 + bool(eqs)
        for kwargs, res in calls:
            assert res == oracle_lp_solve(**kwargs, eliminate=True)
            nvars = len(kwargs["objective"])
            obj = lp._coerce_row(kwargs["objective"], nvars)
            rows = [lp._coerce_constraints(kwargs[k], nvars) for k in ("equalities", "less_equal")]
            pivoted = _PivotedTableauWithEqualities(nvars, *rows)
            repriced = _TableauWithEqualities(nvars, *rows)
            status = pivoted.solve(obj)
            assert status == repriced.solve(_objective_split(obj, nvars, repriced.ncols_struct))
            if status == "optimal":
                assert pivoted.witness() == repriced.witness()


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_positive_solution_matches_strict_rows(data):
    n = data.draw(st.integers(min_value=1, max_value=5))
    anchor = data.draw(st.lists(st.integers(min_value=-1, max_value=3), min_size=n, max_size=n))
    eqs = _equalities(data.draw, n, anchor, min_size=1)
    stricts = [(tuple(-int(j == i) for j in range(n)), 0) for i in range(n)]
    x = positive_solution(eqs)
    # the former strict path, eliminated first: the very same weights
    old = oracle_lp_solve(equalities=eqs, strict_less=stricts, num_vars=n, eliminate=True)
    assert (old.status, old.witness) == (("infeasible", None) if x is None else ("feasible", x))
    # the strict path over the equality tableau: the same verdict
    ref = oracle_lp_solve(equalities=eqs, strict_less=stricts, num_vars=n)
    assert ref.status == ("infeasible" if x is None else "feasible")
    if x is not None:
        _check_witness(dict(equalities=eqs, less_equal=(), strict_less=stricts, num_vars=n), ref)
        _check_witness(
            dict(equalities=eqs, less_equal=(), strict_less=stricts, num_vars=n),
            lp.LPResult("feasible", x),
        )


def test_positive_solution_row_order_sets_the_weights():
    # Degenerate pivots: with the two bounds on delta ahead of the rows
    # delta - x_k <= 0, Bland's tie-breaks return (1, 11/5, 9/5, 1, 11/5)
    # instead of the former strict path's weights.
    eqs = [((0, -1, -2, 1, -1), -7), ((-1, -1, 2, -1, -2), -5), ((-2, 0, 2, 2, 2), 8)]
    stricts = [(tuple(-int(j == i) for j in range(5)), 0) for i in range(5)]
    old = oracle_lp_solve(equalities=eqs, strict_less=stricts, eliminate=True)
    assert positive_solution(eqs) == old.witness == (1, 4, 2, 2, 1)


# -- oracle: the dense pivot -------------------------------------------------


class _DensePivotSimplex(lp._Simplex):
    """lp._Simplex with the pivot it replaced: the pivot row and every row
    with a nonzero in the pivot column are rebuilt over all columns."""

    def _pivot(self, r, c):
        row = self.T[r]
        inv = 1 / row[c]
        self.T[r] = [x * inv for x in row]
        prow = self.T[r]
        for i in range(len(self.T)):
            if i != r and self.T[i][c] != 0:
                f = self.T[i][c]
                self.T[i] = [a - f * b for a, b in zip(self.T[i], prow)]
        for k, z in enumerate(self.costs):
            if z[c] != 0:
                f = z[c]
                self.costs[k] = [a - f * b for a, b in zip(z, prow)]
        self.basis[r] = c


def _pivot_trace(simplex, call):
    """call() with every LP run on a recording subclass of simplex: its
    result, and per pivot the (row, col) with the basis, tableau and cost
    rows right after it."""
    trace = []

    class Recording(simplex):
        def _pivot(self, r, c):
            # these calls take at most a few hundred pivots; a faulty pivot
            # can cycle, and every recorded tableau is kept
            assert len(trace) < 2000, "the simplex does not terminate"
            super()._pivot(r, c)
            trace.append(
                ((r, c), list(self.basis), [list(row) for row in self.T], [list(z) for z in self.costs])
            )

    with mock.patch.object(lp, "_Simplex", Recording):
        return call(), trace


def _assert_dense_pivots(call):
    """The sparse pivot makes the dense oracle's pivots, through equal
    tableaux and cost rows, to the same result; returns the pivot count."""
    res, trace = _pivot_trace(lp._Simplex, call)
    ref, ref_trace = _pivot_trace(_DensePivotSimplex, call)
    assert [t[0] for t in trace] == [t[0] for t in ref_trace]
    for step, ref_step in zip(trace, ref_trace):
        assert step == ref_step
    assert res == ref
    return len(trace)


@settings(max_examples=400, deadline=None)
@given(random_lps())
def test_sparse_pivot_matches_dense_pivot(lp_args):
    eqs = lp_args["equalities"]

    def call():
        return _one_shape(lp_args), positive_solution(eqs) if eqs else None

    _assert_dense_pivots(call)


@pytest.mark.parametrize("n", [5, 6, 7, 8])
def test_sparse_pivot_matches_dense_pivot_on_tf_eutaxy(n):
    assert _assert_dense_pivots(lambda: perfect.is_eutactic(tf_form(n))) > 0


# the two E6 points that the cells benchmark locates: the census base
# point and its sign pattern (-1, 1, -1, 1, -1, 1)
E6_POINT = tuple(F(1, p) for p in (23, 29, 31, 37, 41, 43))


@pytest.mark.parametrize("signs", [(1, 1, 1, 1, 1, 1), (-1, 1, -1, 1, -1, 1)])
def test_sparse_pivot_matches_dense_pivot_on_e6_location(signs):
    point = tuple(s * x for s, x in zip(signs, E6_POINT))
    call = lambda: delaunay.delaunay_cell_containing(standard_gram("E6"), point)
    assert _assert_dense_pivots(call) > 0


def test_pivot_touches_only_the_pivot_rows_nonzero_columns():
    # columns where the pivot row is zero keep their very objects
    sim = lp._Simplex(2, [([F(1), F(0)], F(4)), ([F(1), F(1)], F(6))])
    sim.costs = [[F(1), F(0), F(-1), F(0), F(0), F(0), F(0)]]
    before = [list(row) for row in sim.T] + [list(sim.costs[0])]
    sim._pivot(0, 0)
    after = sim.T + sim.costs
    assert sim.T[0] == [1, 0, -1, 0, 1, 0, 4]
    assert sim.T[1] == [0, 1, 0, -1, -1, 1, 2]
    assert sim.costs[0] == [0, 0, 0, 0, -1, 0, -4]
    for row, old in zip(after, before):
        for j in (1, 3, 5):
            assert row[j] is old[j]
