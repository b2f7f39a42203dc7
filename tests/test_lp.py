"""Exact simplex LP: frozen cases, witness-exactness properties, and
differential tests of `lp_solve` and `positive_solution` against Fraction
oracles.  `_FractionSimplex` is the sparse Fraction tableau that the
integer tableau replaced: fed the same rows, it must make the same pivots
through tableaux of equal values, and so must the dense pivot built on it,
which rebuilt every touched row over all of its columns.  A third oracle
keeps the former API (strict rows, minimization, feasibility) over the
equality tableau, and prices its reduced costs afresh from the basis
before every pivot."""

import inspect
from fractions import Fraction as F
from math import gcd
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from tamewall import delaunay, linalg, lp, perfect
from tamewall.errors import InvariantError
from tamewall.forms import QuadraticForm, standard_gram, tf_form
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


@pytest.mark.parametrize("equalities", [(), [((), 0)]], ids=["inequalities", "equalities"])
def test_empty_objective_on_both_paths(equalities):
    for res in (
        lp_solve(objective=[], equalities=equalities),
        lp_solve(objective=[], equalities=equalities, less_equal=[((), 0), ((), F(1, 2))]),
    ):
        assert res == lp.LPResult("optimal", (), 0)
        assert type(res.optimum) is F
    res = lp_solve(objective=[], equalities=equalities, less_equal=[((), 1), ((), F(-1, 3))])
    assert res.status == "infeasible"


@pytest.mark.parametrize(
    "rows",
    [
        dict(less_equal=[((1, 0.5), 1)]),
        dict(less_equal=[((1, 1), 0.5)]),
        dict(equalities=[((1, 0.5), 1)]),
        dict(equalities=[((1, 1), 0.5)]),
    ],
    ids=["leq-coefficient", "leq-rhs", "eq-coefficient", "eq-rhs"],
)
def test_float_raises_type_error(rows):
    # a float is never rounded into a rational
    with pytest.raises(TypeError, match="exact rational"):
        lp_solve(objective=[1, 0], **rows)


def test_witness_and_optimum_are_fractions():
    for eqs in ((), [((1, 1), 3)]):
        res = lp_solve(objective=[1, 0], equalities=eqs, less_equal=[((1, 0), 2), ((0, -1), 0)])
        assert res.status == "optimal"
        assert all(type(x) is F for x in (*res.witness, res.optimum))


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


# -- oracle: the Fraction tableau ---------------------------------------------


def _coerce_row(coeffs, nvars):
    row = [linalg._frac(c) for c in coeffs]
    if len(row) > nvars:
        raise ValueError("more coefficients than variables")
    return row + [F(0)] * (nvars - len(row))


def _coerce_constraints(constraints, nvars):
    return [(_coerce_row(coeffs, nvars), linalg._frac(rhs)) for coeffs, rhs in constraints]


def _dot(row, vec):
    return sum((a * v for a, v in zip(row, vec) if a), F(0))


def _eliminate(eqs, nvars):
    """(x0, Z) with x0 + Z t exactly the solutions of eqs; None if there are none."""
    if nvars == 0:
        return ((), ()) if all(rhs == 0 for _, rhs in eqs) else None
    sol = linalg.solve([row for row, _ in eqs], [rhs for _, rhs in eqs])
    if sol.kind == "inconsistent":
        return None
    return sol.particular, sol.nullspace


def _substitute(rows, origin, basis):
    """Rows a . x <= b restated over t, where x = origin + sum t_i basis_i."""
    return [([_dot(row, z) for z in basis], rhs - _dot(row, origin)) for row, rhs in rows]


class _FractionSimplex:
    """The tableau simplex that the integer lp._Simplex replaced, over
    Fractions (maximization, Bland's rule), with the same rows, phases,
    tie-breaks and drive-out step.

    Every row is an inequality coeffs . x <= rhs with its own slack column.
    Original free variables are split into positive and negative parts
    (one block of positive parts, then the negatives); rows are normalized
    to b >= 0, and a row whose rhs was negative starts on an artificial
    column because its slack coefficient became -1.  Each phase's
    reduced-cost row is kept beside the tableau and pivots with it; the
    last one is the row being maximized.
    """

    def __init__(self, nfree, leqs):
        self.nfree = nfree
        ncols = 2 * nfree
        m = len(leqs)
        self.ncols_struct = ncols + m  # split vars + slack block
        self.nart = sum(1 for _, rhs in leqs if rhs < 0)
        self.total_cols = self.ncols_struct + self.nart
        self.T = []
        self.basis = []
        self.costs = []
        art = self.ncols_struct
        for i, (coeffs, rhs) in enumerate(leqs):
            row = [*coeffs, *(-c for c in coeffs)] + [F(0)] * (m + self.nart) + [rhs]
            row[ncols + i] = F(1)
            if rhs < 0:
                row = [-x for x in row]
                row[art] = F(1)
                self.basis.append(art)
                art += 1
            else:
                self.basis.append(ncols + i)
            self.T.append(row)

    def _pivot(self, r, c):
        """Pivot on (r, c), in place.  Only the pivot row's nonzero columns
        change in the other rows, since a - f*0 = a."""
        prow = self.T[r]
        inv = 1 / prow[c]
        nonzero = [j for j, x in enumerate(prow) if x]
        for j in nonzero:
            prow[j] *= inv
        for row in (*self.T, *self.costs):
            f = row[c]
            if f and row is not prow:
                for j in nonzero:
                    row[j] -= f * prow[j]
        self.basis[r] = c

    def _iterate(self, allowed):
        """Maximize the last cost row over the current feasible dictionary (Bland)."""
        while True:
            z = self.costs[-1]
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

    def solve(self, objective):
        """Two-phase run maximizing objective . x: 'optimal', 'infeasible'
        or 'unbounded'."""
        # the starting basis has zero cost in phase 2, so this row is priced
        self.costs = [
            [*objective, *(-c for c in objective)]
            + [F(0)] * (self.total_cols - 2 * self.nfree + 1)
        ]
        allowed = [True] * self.total_cols
        if self.nart:
            # maximize -sum(artificials), priced against the starting basis;
            # its rhs is then the sum of the basic artificials
            phase1 = [F(0)] * self.ncols_struct + [F(-1)] * self.nart + [F(0)]
            for row, b in zip(self.T, self.basis):
                if b >= self.ncols_struct:
                    phase1 = [a + x for a, x in zip(phase1, row)]
            self.costs.append(phase1)
            self._iterate(allowed)
            if self.costs.pop()[-1] != 0:
                return "infeasible"
            # Drive any zero-level artificial out of the basis if possible.
            for i in range(len(self.T)):
                if self.basis[i] >= self.ncols_struct:
                    col = next(
                        (j for j in range(self.ncols_struct) if self.T[i][j] != 0), None
                    )
                    if col is not None:
                        self._pivot(i, col)
            # Forbid artificials from re-entering.
            for c in range(self.ncols_struct, self.total_cols):
                allowed[c] = False
        return self._iterate(allowed)

    def witness(self):
        vals = [F(0)] * self.total_cols
        for i, b in enumerate(self.basis):
            vals[b] = self.T[i][-1]
        n = self.nfree
        return tuple(vals[j] - vals[n + j] for j in range(n))


class _DensePivotSimplex(_FractionSimplex):
    """_FractionSimplex with the pivot it replaced: the pivot row and every
    row with a nonzero in the pivot column are rebuilt over all columns."""

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


# -- oracle: the former API, over the equality tableau -----------------------


def _split(coeffs):
    # x_j = x_j^+ - x_j^-: one block of positive parts, then the negatives
    return [c for c in coeffs] + [-c for c in coeffs]


def _objective_split(objective, nfree, ncols_struct):
    obj = [F(c) for c in objective]
    return [*obj, *(-c for c in obj)] + [F(0)] * (ncols_struct - 2 * nfree)


class _RepricingSimplex(_DensePivotSimplex):
    """The tableau simplex that the pivoted cost rows replaced: the same
    Bland's rule, dense pivot and drive-out step, but the reduced costs are
    priced afresh from the basis before every pivot, and phase 1 reads the
    basic artificials back from the tableau.  A subclass builds the tableau
    T and its basis; no cost row is kept beside it."""

    costs = ()

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


class _TableauWithEqualities(_RepricingSimplex):
    """The simplex with equality rows in the tableau.

    Each equality gets a zero slack column and an artificial that phase 1
    pivots out; the pivoting, pricing and phase logic are those of
    _RepricingSimplex.  This is the equality handling that lp_solve
    replaced by exact elimination.  Without equality rows it builds
    _FractionSimplex's tableau.  A redundant equality can leave an artificial
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
    eliminate=True they are first solved by _eliminate and the rest is
    restated over the nullspace, which reproduces the former lp_solve
    exactly, witnesses included.  The Fraction front end that lp_solve
    replaced by integer rows coerces the arguments."""
    if num_vars is None:
        num_vars = _oracle_nvars(objective, equalities, less_equal, strict_less)
    nvars = num_vars
    eqs = _coerce_constraints(equalities, nvars)
    leqs = _coerce_constraints(less_equal, nvars)
    stricts = _coerce_constraints(strict_less, nvars)
    obj = None if objective is None else _coerce_row(objective, nvars)
    if eliminate and eqs:
        solutions = _eliminate(eqs, nvars)
        if solutions is None:
            return lp.LPResult("infeasible")
        origin, basis = solutions
        res = oracle_lp_solve(
            None if obj is None else [_dot(obj, z) for z in basis],
            (),
            _substitute(leqs, origin, basis),
            _substitute(stricts, origin, basis),
            maximize,
            len(basis),
        )
        if res.witness is None:
            return res
        x = tuple(o + sum(t * z[j] for t, z in zip(res.witness, basis)) for j, o in enumerate(origin))
        return lp.LPResult(res.status, x, None if obj is None else _dot(obj, x))
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


def _equalities(draw, n, anchor, min_size=0, numbers=small):
    """Rows through an integer anchor that may be rank-deficient,
    inconsistent or pin every variable (empty nullspace)."""
    eqs = [
        (coeffs, sum(c * a for c, a in zip(coeffs, anchor)))
        for coeffs in draw(st.lists(st.lists(numbers, min_size=n, max_size=n), min_size=min_size, max_size=n + 1))
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
def random_lps(draw, numbers=small):
    """LPs in the former API's three kinds with an objective or none:
    'max', 'min' and 'feasibility', with equalities and <= rows whose
    right-hand sides are shifted around an integer anchor so that feasible
    instances are common.  The coefficients are drawn from numbers."""
    n = draw(st.integers(min_value=1, max_value=4))
    anchor = draw(st.lists(small, min_size=n, max_size=n))
    eqs = _equalities(draw, n, anchor, numbers=numbers)
    leqs = [
        (coeffs, sum(c * a for c, a in zip(coeffs, anchor)) + draw(st.integers(min_value=-1, max_value=3)))
        for coeffs in draw(st.lists(st.lists(numbers, min_size=n, max_size=n), max_size=5))
    ]
    kind = draw(st.sampled_from(["max", "min", "feasibility"]))
    objective = list(draw(st.lists(numbers, min_size=n, max_size=n))) if kind != "feasibility" else None
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


class _PivotedTableauWithEqualities(_FractionSimplex):
    """_FractionSimplex's pivoted cost rows over the equality tableau."""

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
            obj = _coerce_row(kwargs["objective"], nvars)
            rows = [_coerce_constraints(kwargs[k], nvars) for k in ("equalities", "less_equal")]
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


# -- the integer tableau against the Fraction tableau ------------------------


def _on_integer_rows(simplex):
    """The Fraction simplex class fed lp._Simplex's integer rows, as the
    Fractions they stand for."""

    class OnIntegerRows(simplex):
        def __init__(self, nfree, leqs):
            super().__init__(nfree, [([F(a, row[-1]) for a in row[:-2]], F(row[-2], row[-1])) for row in leqs])

        def solve(self, objective):
            return super().solve([F(c, objective[-1]) for c in objective[:-1]])

    return OnIntegerRows


def _pivot_trace(simplex, call):
    """call() with every LP run on a recording subclass of simplex, which
    is lp._Simplex or a Fraction oracle fed the same integer rows: its
    result, and per pivot the (row, col) and basis with the tableau rows,
    then the cost rows, right after it as (entries, den); a Fraction row
    has den 1."""
    trace = []
    integer = simplex is lp._Simplex

    class Recording(simplex if integer else _on_integer_rows(simplex)):
        def _pivot(self, r, c):
            # these calls take at most a few hundred pivots; a faulty pivot
            # can cycle, and every recorded tableau is kept
            assert len(trace) < 2000, "the simplex does not terminate"
            super()._pivot(r, c)
            rows = self.T + self.costs
            rows = [(tuple(row[:-1]), row[-1]) for row in rows] if integer else [(tuple(row), 1) for row in rows]
            trace.append(((r, c), tuple(self.basis), rows))

    with mock.patch.object(lp, "_Simplex", Recording):
        return call(), trace


def _equal_values(rows, ref_rows):
    """Rows of entries over their denominators stand for the same values."""
    return len(rows) == len(ref_rows) and all(
        len(row) == len(ref)
        and all(x * y.denominator * ref_den == y.numerator * den for x, y in zip(row, ref))
        for (row, den), (ref, ref_den) in zip(rows, ref_rows)
    )


def _assert_oracle_pivots(call, oracles=(_FractionSimplex, _DensePivotSimplex)):
    """The integer tableau makes each Fraction oracle's pivots, with the
    same basis and tableau and cost rows of equal values after each, to
    the same result; returns the pivot count."""
    res, trace = _pivot_trace(lp._Simplex, call)
    for oracle in oracles:
        ref, ref_trace = _pivot_trace(oracle, call)
        assert [step[:2] for step in trace] == [step[:2] for step in ref_trace]
        for (_, _, rows), (_, _, ref_rows) in zip(trace, ref_trace):
            assert _equal_values(rows, ref_rows)
        assert res == ref
    return len(trace)


@settings(max_examples=400, deadline=None)
@given(random_lps())
def test_sparse_pivot_matches_dense_pivot(lp_args):
    eqs = lp_args["equalities"]

    def call():
        return _one_shape(lp_args), positive_solution(eqs) if eqs else None

    _assert_oracle_pivots(call)


rationals = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@settings(max_examples=100, deadline=None)
@given(random_lps(rationals))
def test_integer_pivot_matches_fraction_pivot_on_rational_rows(lp_args):
    eqs = lp_args["equalities"]

    def call():
        return _one_shape(lp_args), positive_solution(eqs) if eqs else None

    _assert_oracle_pivots(call)
    assert _one_shape(lp_args) == oracle_lp_solve(**lp_args, eliminate=True)


@settings(max_examples=100, deadline=None)
@given(random_lps(rationals))
def test_every_tableau_entry_is_an_int_after_every_pivot(lp_args):
    # each row also stays reduced: its entries and denominator are coprime
    eqs = lp_args["equalities"]
    _, trace = _pivot_trace(
        lp._Simplex, lambda: (_one_shape(lp_args), positive_solution(eqs) if eqs else None)
    )
    for _, _, rows in trace:
        assert all(type(x) is int for row, den in rows for x in row)
        assert all(type(den) is int and den > 0 and gcd(den, *row) == 1 for row, den in rows)


@pytest.mark.parametrize("n", [5, 6, 7, 8])
def test_sparse_pivot_matches_dense_pivot_on_tf_eutaxy(n):
    assert _assert_oracle_pivots(lambda: perfect.is_eutactic(tf_form(n))) > 0


# the two E6 points that the cells benchmark locates: the census base
# point and its sign pattern (-1, 1, -1, 1, -1, 1)
E6_POINT = tuple(F(1, p) for p in (23, 29, 31, 37, 41, 43))


@pytest.mark.parametrize("signs", [(1, 1, 1, 1, 1, 1), (-1, 1, -1, 1, -1, 1)])
def test_sparse_pivot_matches_dense_pivot_on_e6_location(signs):
    point = tuple(s * x for s, x in zip(signs, E6_POINT))
    call = lambda: delaunay.delaunay_cell_containing(standard_gram("E6"), point)
    assert _assert_oracle_pivots(call) > 0


@pytest.mark.parametrize("n", [5, 6])
def test_integer_pivot_matches_fraction_pivot_on_cube_cell(n):
    # [1/3]^n lies on an edge of a Freudenthal simplex of the unit cube,
    # whose 2^n vertices make the genericity LP large and degenerate
    call = lambda: delaunay.delaunay_cell_containing(QuadraticForm.identity(n), [F(1, 3)] * n)
    assert _assert_oracle_pivots(call, oracles=(_FractionSimplex,)) > 0


def test_pivot_keeps_rows_with_a_zero_in_the_pivot_column():
    # rows [*coeffs, rhs, den]: x <= 2 as 2x <= 4, x + y <= 6, and
    # y <= 3/2 as (2y)/2 <= 3/2
    sim = lp._Simplex(2, [[2, 0, 4, 1], [1, 1, 6, 1], [0, 2, 3, 2]])
    sim.costs = [[1, 0, -1, 0, 0, 0, 0, 0, 1]]
    untouched = sim.T[2]
    sim._pivot(0, 0)
    # the third row has a zero in column 0: the very same list, unchanged
    assert sim.T[2] is untouched and untouched == [0, 2, 0, -2, 0, 0, 2, 3, 2]
    # the pivot entry 2 becomes the pivot row's denominator; the others
    # become row*2 - f*prow over den*2
    assert sim.T[0] == [2, 0, -2, 0, 1, 0, 0, 4, 2]
    assert sim.T[1] == [0, 2, 0, -2, -1, 2, 0, 8, 2]
    assert sim.costs[0] == [0, 0, 0, 0, -1, 0, 0, -4, 2]
    assert sim.basis == [0, 5, 6]


def test_pivot_divides_out_the_row_gcd():
    # x + 2y <= 3 held as (2x + 4y)/2 <= 6/2: pivoting on its entry 2
    # divides out the gcd 2 of the row and its denominator
    sim = lp._Simplex(2, [[2, 4, 6, 2], [4, 2, 1, 1]])
    sim.costs = [[3, 0, -3, 0, 0, 0, 0, 1]]
    sim._pivot(0, 0)
    assert sim.T[0] == [1, 2, -1, -2, 1, 0, 3, 1]
    assert sim.T[1] == [0, -6, 0, 6, -4, 1, -11, 1]
    assert sim.costs[0] == [0, -6, 0, 6, -3, 0, -9, 1]
