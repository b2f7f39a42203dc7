"""Exact linear programming: equality elimination, then a dense two-phase
simplex with Bland's rule on the inequalities.

Every number is a `fractions.Fraction`, so feasibility, optimality and
unboundedness are decided exactly.  Variables are free; nonnegativity is
expressed through constraints.  The equalities are solved once by the
fraction-free `linalg.solve`: an inconsistent system is infeasible, and
otherwise x = x0 + Z t over their particular solution x0 and nullspace
basis Z, so the simplex sees only the inequality rows over t.  Strict
inequalities are handled by maximizing an auxiliary slack bounded by 1
and requiring its optimum to be positive.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .errors import InvariantError
from .linalg import RationalMatrix, _frac


@dataclass(frozen=True)
class LPResult:
    status: str  # 'optimal' | 'feasible' | 'infeasible' | 'unbounded'
    witness: tuple | None = None
    optimum: Fraction | None = None


def _coerce_row(coeffs, nvars):
    row = [_frac(c) for c in coeffs]
    if len(row) > nvars:
        raise ValueError("more coefficients than variables")
    return row + [Fraction(0)] * (nvars - len(row))


def _coerce_constraints(constraints, nvars):
    return [(_coerce_row(coeffs, nvars), _frac(rhs)) for coeffs, rhs in constraints]


def _infer_nvars(objective, *constraint_groups):
    n = len(objective) if objective is not None else 0
    for group in constraint_groups:
        for coeffs, _ in group:
            n = max(n, len(coeffs))
    return n


class _Simplex:
    """Tableau simplex over Fractions (maximization, Bland's rule).

    Every row is an inequality coeffs . x <= rhs with its own slack column.
    Original free variables are split into positive and negative parts;
    rows are normalized to b >= 0, and a row whose rhs was negative starts
    on an artificial column because its slack coefficient became -1.
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
        art = self.ncols_struct
        for i, (coeffs, rhs) in enumerate(leqs):
            row = self._split(coeffs) + [Fraction(0)] * (m + self.nart) + [rhs]
            row[ncols + i] = Fraction(1)
            if rhs < 0:
                row = [-x for x in row]
                row[art] = Fraction(1)
                self.basis.append(art)
                art += 1
            else:
                self.basis.append(ncols + i)
            self.T.append(row)

    def _split(self, coeffs):
        # x_j = x_j^+ - x_j^-: one block of positive parts, then the negatives
        return [c for c in coeffs] + [-c for c in coeffs]

    def _price(self, cost):
        """Reduced-cost row for the current basis (cost over all columns)."""
        m = len(self.T)
        z = list(cost)
        rhs_val = Fraction(0)
        for i in range(m):
            cb = cost[self.basis[i]]
            if cb != 0:
                row = self.T[i]
                rhs_val += cb * row[-1]
                for j in range(self.total_cols):
                    z[j] -= cb * row[j]
        return z, rhs_val

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
        """Maximize cost over the current feasible dictionary (Bland)."""
        while True:
            z, _ = self._price(cost)
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
        """Two-phase run; objective_split is over the split+slack columns."""
        allowed = [True] * self.total_cols
        if self.nart:
            phase1 = [Fraction(0)] * self.total_cols
            for c in range(self.ncols_struct, self.total_cols):
                phase1[c] = Fraction(-1)
            self._iterate(phase1, allowed)
            total_art = sum(
                self.T[i][-1] for i in range(len(self.T)) if self.basis[i] >= self.ncols_struct
            )
            if total_art != 0:
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

        cost = list(objective_split) + [Fraction(0)] * (self.total_cols - len(objective_split))
        status = self._iterate(cost, allowed)
        if status == "unbounded":
            return "unbounded"
        return "optimal"

    def witness(self):
        vals = [Fraction(0)] * self.total_cols
        for i, b in enumerate(self.basis):
            vals[b] = self.T[i][-1]
        n = self.nfree
        return tuple(vals[j] - vals[n + j] for j in range(n))


def _objective_split(objective, nfree, ncols_struct):
    obj = [_frac(c) for c in objective]
    obj += [Fraction(0)] * (nfree - len(obj))
    return [*obj, *(-c for c in obj)] + [Fraction(0)] * (ncols_struct - 2 * nfree)


def lp_solve(
    objective=None,
    equalities=(),
    less_equal=(),
    strict_less=(),
    maximize=True,
    num_vars=None,
):
    """Exact LP over free rational variables.

    Constraints are (coefficients, rhs) pairs meaning coeffs . x = rhs,
    <= rhs, or (strictly) < rhs.  With an objective, returns status
    'optimal' (witness, optimum), 'infeasible', or 'unbounded'.  Without
    one, decides feasibility; strict constraints are certified by an
    auxiliary maximized slack (optimum > 0).  Combining an objective with
    strict constraints is not supported.

    The equalities are solved exactly first: on their solution set
    x = x0 + Z t the other rows and the objective become rows over t, and
    the simplex runs on t alone.
    """
    equalities = list(equalities)
    less_equal = list(less_equal)
    strict_less = list(strict_less)
    if objective is not None and strict_less:
        raise ValueError("objective together with strict constraints is unsupported")
    nvars = num_vars if num_vars is not None else _infer_nvars(
        objective, equalities, less_equal, strict_less
    )
    leqs = _coerce_constraints(less_equal, nvars)
    stricts = _coerce_constraints(strict_less, nvars)
    obj = None if objective is None else _coerce_row(objective, nvars)
    if not equalities:
        return _solve_free(nvars, obj, leqs, stricts, maximize)

    solutions = _eliminate(_coerce_constraints(equalities, nvars), nvars)
    if solutions is None:
        return LPResult("infeasible")
    origin, basis = solutions
    res = _solve_free(
        len(basis),
        None if obj is None else [_dot(obj, z) for z in basis],
        _substitute(leqs, origin, basis),
        _substitute(stricts, origin, basis),
        maximize,
    )
    if res.witness is None:
        return res
    terms = [(t, z) for t, z in zip(res.witness, basis) if t]
    x = tuple(o + sum(t * z[j] for t, z in terms) for j, o in enumerate(origin))
    return LPResult(res.status, x, None if res.optimum is None else _dot(obj, x))


def _dot(row, vec):
    return sum((a * v for a, v in zip(row, vec) if a), Fraction(0))


def _eliminate(eqs, nvars):
    """(x0, Z) with x0 + Z t exactly the solutions of eqs; None if there are none."""
    if nvars == 0:
        return ((), ()) if all(rhs == 0 for _, rhs in eqs) else None
    sol = linalg.solve(RationalMatrix([row for row, _ in eqs]), [rhs for _, rhs in eqs])
    if sol.kind == "inconsistent":
        return None
    return sol.particular, sol.nullspace


def _substitute(rows, origin, basis):
    """Rows a . x <= b restated over t, where x = origin + sum t_i basis_i."""
    return [([_dot(row, z) for z in basis], rhs - _dot(row, origin)) for row, rhs in rows]


def _solve_free(nvars, objective, leqs, stricts, maximize):
    """lp_solve on coerced inequality rows over nvars free variables."""
    if nvars == 0:
        # No variables: constraints are numeric assertions.
        if any(rhs < 0 for _, rhs in leqs) or any(rhs <= 0 for _, rhs in stricts):
            return LPResult("infeasible")
        if objective is None:
            return LPResult("feasible", witness=())
        return LPResult("optimal", (), Fraction(0))

    if stricts:
        # Auxiliary variable delta (index nvars): maximize delta <= 1.
        aug_leqs = [(row + [Fraction(1)], rhs) for row, rhs in stricts]
        aug_leqs += [(row + [Fraction(0)], rhs) for row, rhs in leqs]
        aug_leqs.append(([Fraction(0)] * nvars + [Fraction(1)], Fraction(1)))
        aug_leqs.append(([Fraction(0)] * nvars + [Fraction(-1)], Fraction(0)))  # delta >= 0
        obj = [Fraction(0)] * nvars + [Fraction(1)]
        res = _run(nvars + 1, obj, aug_leqs)
        if res.status == "infeasible":
            return LPResult("infeasible")
        if res.status != "optimal":
            raise InvariantError(f"bounded slack LP unexpectedly {res.status}")
        if res.optimum > 0:
            return LPResult("feasible", witness=res.witness[:nvars])
        return LPResult("infeasible")

    if objective is None:
        res = _run(nvars, [Fraction(0)] * nvars, leqs)
        if res.status == "infeasible":
            return LPResult("infeasible")
        return LPResult("feasible", witness=res.witness)

    obj = objective if maximize else [-c for c in objective]
    res = _run(nvars, obj, leqs)
    if res.status == "optimal" and not maximize:
        return LPResult("optimal", res.witness, -res.optimum)
    return res


def _run(nvars, objective, leqs):
    sim = _Simplex(nvars, leqs)
    obj_split = _objective_split(objective, nvars, sim.ncols_struct)
    status = sim.solve(obj_split)
    if status in ("infeasible", "unbounded"):
        return LPResult(status)
    witness = sim.witness()
    value = sum(c * w for c, w in zip(objective, witness))
    return LPResult("optimal", witness, value)
