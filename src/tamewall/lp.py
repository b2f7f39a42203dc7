"""Exact linear programming: equality elimination, then a two-phase tableau
simplex with Bland's rule on the inequalities.  A pivot touches only the
columns where the pivot row is nonzero.

Every number is a `fractions.Fraction`, so feasibility, optimality and
unboundedness are decided exactly.  Variables are free; nonnegativity is
expressed through constraints.  The equalities are solved once by the
fraction-free `linalg.solve`: an inconsistent system is infeasible, and
otherwise x = x0 + Z t over their particular solution x0 and nullspace
basis Z, so the simplex sees only the inequality rows over t.  Each
phase's reduced-cost row pivots with the tableau rows, so nothing is
priced afresh from the basis.  The one problem shape is a maximization;
`positive_solution` asks for a solution with every coordinate positive by
maximizing a slack bounded by 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .errors import InvariantError
from .linalg import _frac


@dataclass(frozen=True)
class LPResult:
    status: str  # 'optimal' | 'infeasible' | 'unbounded'
    witness: tuple | None = None
    optimum: Fraction | None = None


def _coerce_row(coeffs, nvars):
    row = [_frac(c) for c in coeffs]
    if len(row) > nvars:
        raise ValueError("more coefficients than variables")
    return row + [Fraction(0)] * (nvars - len(row))


def _coerce_constraints(constraints, nvars):
    return [(_coerce_row(coeffs, nvars), _frac(rhs)) for coeffs, rhs in constraints]


class _Simplex:
    """Tableau simplex over Fractions (maximization, Bland's rule).

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
            row = [*coeffs, *(-c for c in coeffs)] + [Fraction(0)] * (m + self.nart) + [rhs]
            row[ncols + i] = Fraction(1)
            if rhs < 0:
                row = [-x for x in row]
                row[art] = Fraction(1)
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
            + [Fraction(0)] * (self.total_cols - 2 * self.nfree + 1)
        ]
        allowed = [True] * self.total_cols
        if self.nart:
            # maximize -sum(artificials), priced against the starting basis;
            # its rhs is then the sum of the basic artificials
            phase1 = [Fraction(0)] * self.ncols_struct + [Fraction(-1)] * self.nart + [Fraction(0)]
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
        vals = [Fraction(0)] * self.total_cols
        for i, b in enumerate(self.basis):
            vals[b] = self.T[i][-1]
        n = self.nfree
        return tuple(vals[j] - vals[n + j] for j in range(n))


def lp_solve(objective, equalities=(), less_equal=()):
    """Maximize objective . x over free rational x, exactly.

    x has len(objective) coordinates.  Constraints are (coefficients, rhs)
    pairs meaning coeffs . x = rhs or coeffs . x <= rhs; a row shorter
    than the objective is padded with zeros.  Returns status 'optimal'
    (witness, optimum), 'infeasible', or 'unbounded'.

    The equalities are solved exactly first: on their solution set
    x = x0 + Z t the other rows and the objective become rows over t, and
    the simplex runs on t alone.
    """
    nvars = len(objective)
    obj = _coerce_row(objective, nvars)
    leqs = _coerce_constraints(less_equal, nvars)
    if not equalities:
        return _run(nvars, obj, leqs)

    solutions = _eliminate(_coerce_constraints(equalities, nvars), nvars)
    if solutions is None:
        return LPResult("infeasible")
    origin, basis = solutions
    res = _run(len(basis), [_dot(obj, z) for z in basis], _substitute(leqs, origin, basis))
    if res.status != "optimal":
        return res
    terms = [(t, z) for t, z in zip(res.witness, basis) if t]
    x = tuple(o + sum(t * z[j] for t, z in terms) for j, o in enumerate(origin))
    return LPResult("optimal", x, _dot(obj, x))


def positive_solution(equalities):
    """x with every equality holding and every x_k > 0, or None.

    The equality rows share one length k, the number of unknowns.  One LP
    maximizes delta over (x, delta) with the rows delta - x_k <= 0 for each
    k, then delta <= 1, then -delta <= 0: a positive solution exists iff
    the optimum is positive, and the bound delta <= 1 keeps the LP bounded.
    The row order sets Bland's tie-breaks, and with them the x returned.
    """
    k = len(equalities[0][0])
    eqs = [([*coeffs, 0], rhs) for coeffs, rhs in equalities]
    leqs = []
    for i in range(k):
        row = [0] * (k + 1)
        row[i], row[k] = -1, 1
        leqs.append((row, 0))
    leqs.append(([0] * k + [1], 1))
    leqs.append(([0] * k + [-1], 0))
    res = lp_solve(objective=[0] * k + [1], equalities=eqs, less_equal=leqs)
    if res.status == "unbounded":
        raise InvariantError("bounded slack LP unexpectedly unbounded")
    if res.status == "infeasible" or res.optimum <= 0:
        return None
    return res.witness[:k]


def _dot(row, vec):
    return sum((a * v for a, v in zip(row, vec) if a), Fraction(0))


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


def _run(nvars, objective, leqs):
    sim = _Simplex(nvars, leqs)
    status = sim.solve(objective)
    if status != "optimal":
        return LPResult(status)
    witness = sim.witness()
    return LPResult("optimal", witness, _dot(objective, witness))
