"""Exact linear programming: equality elimination, then a two-phase tableau
simplex with Bland's rule on the inequalities, in integers.

Coefficients are ints or `fractions.Fraction`s (a float raises TypeError),
and each row is cleared once to integers followed by its positive
denominator.  Variables are free; nonnegativity is expressed through
constraints.  The equalities are solved once by the fraction-free
`linalg.solve`: an inconsistent system is infeasible, and otherwise
x = (x0 + Z t) / q over their particular solution and nullspace basis
cleared over one q, so the simplex sees only the inequality rows over t.
Each tableau row, the reduced-cost rows included, keeps its actual values
as integers over its own denominator (Edmonds, Bareiss), so a pivot
rewrites only the rows with a nonzero in the pivot column, and Bland's
rule makes the pivots a `Fraction` tableau would.  Only the witness, the
optimum and, without equalities, the optimal duals of the rows are formed
as Fractions.  The one problem shape is a maximization;
`positive_solution` asks for a solution with every coordinate positive by
maximizing a slack bounded by 1.

An optimum without equalities keeps its final tableau, and `lp_solve`
can resume from it when rows are appended (`start`): each new row gets
its own slack column and is written over the optimal basis, which stays
dual feasible, and a dual simplex (Lemke) restores primal feasibility in
a few pivots instead of solving again from the slack basis.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd

from . import linalg
from .errors import InvariantError
from .linalg import _frac


@dataclass(frozen=True)
class LPResult:
    """status is 'optimal', 'infeasible' or 'unbounded'.  An optimum of a
    problem without equalities also carries duals: one Fraction y_i >= 0
    per <= row, in row order, with sum y_i a_i equal to the objective and
    sum y_i b_i to the optimum.  They are left out of equality.  Such an
    optimum also keeps its final tableau, from which `lp_solve` resumes."""

    status: str
    witness: tuple | None = None
    optimum: Fraction | None = None
    duals: tuple | None = field(default=None, compare=False)
    tableau: _Simplex | None = field(default=None, compare=False, repr=False)


def _cleared(values):
    """[*integers, den]: exact rationals times den, the lcm of their
    denominators, which leaves the integers coprime to den."""
    if all(type(x) is int for x in values):
        return [*values, 1]
    (row,), den = linalg.cleared([[x if isinstance(x, int) else _frac(x) for x in values]])
    return [*row, den]


def _cleared_row(coeffs, rhs, nvars):
    """The row coeffs . x (= or <=) rhs as [a_1..a_nvars, b, den], with
    coeffs padded by zeros to nvars."""
    if len(coeffs) > nvars:
        raise ValueError("more coefficients than variables")
    *row, b, den = _cleared([*coeffs, rhs])
    return [*row, *[0] * (nvars - len(row)), b, den]


def _reduced(row):
    """An integer row ending in its denominator, with their gcd divided out."""
    g = gcd(*row) if row[-1] > 1 else 1
    return [x // g for x in row] if g > 1 else row


def _eliminated(row, c, prow, nonzero):
    """row·p − f·prow over den·p, reduced, where f and p are the entries of
    row and prow in column c, p equals prow's denominator, and nonzero
    lists prow's nonzero (j, entry) pairs, its denominator left out.  p
    and f are divided by their gcd first; when that leaves p at 1, row
    changes in place."""
    f, p = row[c], prow[c]
    h = gcd(f, p)
    a, b = p // h, f // h
    if a != 1:
        row = [x * a for x in row]
    for j, x in nonzero:
        row[j] -= b * x
    return _reduced(row)


class _Simplex:
    """Tableau simplex over integer rows (maximization, Bland's rule).

    Every row is an inequality coeffs . x <= rhs with its own slack column,
    given as [*coeffs, rhs, den]: integers standing for their values over
    the positive den.  A tableau row is its entries, rhs last, followed by
    its denominator; its slack and artificial entries equal that
    denominator, so every entry keeps its value in a Fraction tableau.
    Original free variables are split into positive and negative parts
    (one block of positive parts, then the negatives); rows are normalized
    to b >= 0, and a row whose rhs was negative starts on an artificial
    column because its slack coefficient became -1.  Each phase's
    reduced-cost row is kept beside the tableau and pivots with it; the
    last one is the row being maximized.  rows and objective keep the
    problem as given, for `resumed`.
    """

    def __init__(self, nfree, leqs):
        self.rows = leqs
        self.nfree = nfree
        ncols = 2 * nfree
        m = len(leqs)
        self.ncols_struct = ncols + m  # split vars + slack block
        self.nart = sum(1 for row in leqs if row[-2] < 0)
        self.total_cols = self.ncols_struct + self.nart
        self.T = []
        self.basis = []
        self.costs = []
        art = self.ncols_struct
        pad = [0] * (m + self.nart)
        for i, (*a, rhs, den) in enumerate(leqs):
            row = [*a, *(-c for c in a), *pad, rhs]
            row[ncols + i] = den
            if rhs < 0:
                row = [-x for x in row]
                row[art] = den
                self.basis.append(art)
                art += 1
            else:
                self.basis.append(ncols + i)
            self.T.append([*row, den])

    def _pivot(self, r, c):
        """Pivot on (r, c), in place.  The pivot row's new denominator is
        its entry there, made positive with the row's gcd divided out;
        every other row with a nonzero there, cost rows included, is
        `_eliminated` by it, and a row with a zero there is not touched."""
        *prow, _ = self.T[r]
        g = gcd(*prow)
        if prow[c] < 0:
            g = -g
        prow = [x // g for x in prow]
        self.T[r] = prow = [*prow, prow[c]]
        nonzero = [(j, x) for j, x in enumerate(prow[:-1]) if x]
        for rows in (self.T, self.costs):
            for i, row in enumerate(rows):
                if row[c] and row is not prow:
                    rows[i] = _eliminated(row, c, prow, nonzero)
        self.basis[r] = c

    def _iterate(self, allowed):
        """Maximize the last cost row over the current feasible dictionary (Bland)."""
        while True:
            z = self.costs[-1]
            enter = next((j for j in range(self.total_cols) if allowed[j] and z[j] > 0), None)
            if enter is None:
                return "optimal"
            # the least ratio rhs / a over a > 0, compared by
            # cross-multiplying; the row denominators cancel
            leave = None
            for i, row in enumerate(self.T):
                a = row[enter]
                if a > 0:
                    b = row[-2]
                    if leave is None:
                        leave, best_b, best_a = i, b, a
                        continue
                    d = b * best_a - best_b * a
                    if d < 0 or (d == 0 and self.basis[i] < self.basis[leave]):
                        leave, best_b, best_a = i, b, a
            if leave is None:
                return "unbounded"
            self._pivot(leave, enter)

    def solve(self, objective):
        """Two-phase run maximizing objective . x, given as the integer row
        [c_1..c_nfree, den]: 'optimal', 'infeasible' or 'unbounded'."""
        self.objective = objective
        *coeffs, den = objective
        # the starting basis has zero cost in phase 2, so this row is priced
        self.costs = [[*coeffs, *(-c for c in coeffs)] + [0] * (self.total_cols - 2 * self.nfree + 1) + [den]]
        allowed = [True] * self.total_cols
        if self.nart:
            # maximize -sum(artificials), priced against the starting basis
            # by clearing each basic artificial's column; its rhs is then
            # the sum of the basic artificials
            phase1 = [0] * self.ncols_struct + [-1] * self.nart + [0, 1]
            for row, b in zip(self.T, self.basis):
                if b >= self.ncols_struct:
                    phase1 = _eliminated(phase1, b, row, [(j, x) for j, x in enumerate(row[:-1]) if x])
            self.costs.append(phase1)
            self._iterate(allowed)
            if self.costs.pop()[-2] != 0:
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

    def resumed(self, rows):
        """A copy of this optimal tableau with rows appended, each on a new
        slack column of its own and written over the basis by eliminating
        the basic columns (a row's basic entry is its denominator); self is
        not changed.  The artificial columns are dropped: every row has its
        own slack column, so phase 1 leaves none of them basic."""
        nstruct, k = self.ncols_struct, len(rows)
        if any(b >= nstruct for b in self.basis):
            raise InvariantError("an artificial column is still basic")
        sim = copy.copy(self)
        sim.rows = [*self.rows, *rows]
        sim.ncols_struct = sim.total_cols = nstruct + k
        sim.nart = 0
        pad = [0] * k
        sim.T = [[*row[:nstruct], *pad, *row[-2:]] for row in self.T]
        sim.costs = [[*row[:nstruct], *pad, *row[-2:]] for row in self.costs]
        sim.basis = list(self.basis)
        for i, (*a, rhs, den) in enumerate(rows, start=len(self.T)):
            row = [*a, *(-c for c in a), *[0] * (sim.total_cols - 2 * self.nfree), rhs, den]
            row[2 * self.nfree + i] = den
            for prow, b in zip(sim.T, sim.basis):
                if row[b]:
                    row = _eliminated(row, b, prow, [(j, x) for j, x in enumerate(prow[:-1]) if x])
            sim.T.append(row)
            sim.basis.append(2 * self.nfree + i)
        return sim

    def reoptimize(self):
        """Restore feasibility of a dual feasible tableau by the dual
        simplex, then confirm optimality: 'optimal' or 'infeasible'.  The
        leaving row is the infeasible row whose basic column is least; the
        entering column has the least ratio z_j / a_j over a_j < 0 in that
        row, compared by cross-multiplying, the least index on ties.  Both
        choices follow Bland's rule on the dual, so the loop terminates."""
        while True:
            infeasible = [i for i, row in enumerate(self.T) if row[-2] < 0]
            if not infeasible:
                return self._iterate([True] * self.total_cols)
            r = min(infeasible, key=self.basis.__getitem__)
            row, z = self.T[r], self.costs[-1]
            enter = None
            for j in range(self.total_cols):
                a = row[j]
                # z_j / a < best_z / best_a, both a negative
                if a < 0 and (enter is None or z[j] * best_a < best_z * a):
                    enter, best_z, best_a = j, z[j], a
            if enter is None:
                return "infeasible"
            self._pivot(r, enter)

    def witness(self):
        vals = [Fraction(0)] * self.total_cols
        for row, b in zip(self.T, self.basis):
            vals[b] = Fraction(row[-2], row[-1])
        n = self.nfree
        return tuple(vals[j] - vals[n + j] for j in range(n))

    def duals(self):
        """The optimal dual of each row, read off the final cost row: its
        entry at a row's slack column is 0 - y.(that column), and the
        column is +-e_i as the row was stored, so y_i = -z[slack_i] in
        either case."""
        *z, den = self.costs[-1]
        slack = 2 * self.nfree
        zero = Fraction(0)
        return tuple(Fraction(-x, den) if x else zero for x in z[slack:slack + len(self.T)])


def lp_solve(objective, equalities=(), less_equal=(), *, start=None):
    """Maximize objective . x over free rational x, exactly.

    x has len(objective) coordinates.  Constraints are (coefficients, rhs)
    pairs meaning coeffs . x = rhs or coeffs . x <= rhs; a row shorter
    than the objective is padded with zeros.  Returns status 'optimal'
    (witness, optimum), 'infeasible', or 'unbounded'.

    The equalities are solved exactly first: on their solution set
    x = (x0 + Z t) / q the other rows and the objective become integer
    rows over t, and the simplex runs on t alone.

    start, an optimal result of this objective without equalities whose
    rows are a prefix of less_equal, resumes from its final tableau with
    the rows after that prefix appended (a dual simplex); start is not
    changed.  Any other start raises ValueError.
    """
    nvars = len(objective)
    obj = _cleared(objective)
    leqs = [_cleared_row(coeffs, rhs, nvars) for coeffs, rhs in less_equal]
    if start is not None:
        old = start.tableau
        if equalities or old is None or old.objective != obj or leqs[:len(old.rows)] != old.rows:
            raise ValueError("start is not an optimum of this objective over a prefix of these rows")
        sim = old.resumed(leqs[len(old.rows):])
        return _result(sim, sim.reoptimize(), obj, resumable=True)
    if not equalities:
        sim = _Simplex(nvars, leqs)
        return _result(sim, sim.solve(obj), obj, resumable=True)

    # an equality keeps its solutions without its denominator
    solutions = _eliminate([_cleared_row(c, rhs, nvars)[:-1] for c, rhs in equalities], nvars)
    if solutions is None:
        return LPResult("infeasible")
    origin, basis, q = solutions
    nz = [(j, a) for j, a in enumerate(obj[:-1]) if a]
    reduced_obj = _reduced([*(sum(a * z[j] for j, a in nz) for z in basis), obj[-1] * q])
    sim = _Simplex(len(basis), [_restated(row, origin, basis, q) for row in leqs])
    res = _result(sim, sim.solve(reduced_obj), reduced_obj)
    if res.status != "optimal":
        return res
    *t, tden = _cleared(res.witness)
    terms = [(a, z) for a, z in zip(t, basis) if a]
    x = tuple(Fraction(o * tden + sum(a * z[j] for a, z in terms), q * tden) for j, o in enumerate(origin))
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
    """The Fraction value at vec of an integer row [*coeffs, den]."""
    return Fraction(sum(a * v for a, v in zip(row, vec) if a), row[-1])


def _eliminate(eqs, nvars):
    """(x0, Z, q): integer vectors whose (x0 + Z t) / q are exactly the
    solutions of the integer rows [a | b] of eqs; None if there are none."""
    if nvars == 0:
        return ((), (), 1) if all(row[-1] == 0 for row in eqs) else None
    sol = linalg.solve([row[:-1] for row in eqs], [row[-1] for row in eqs])
    if sol.kind == "inconsistent":
        return None
    (origin, *basis), q = linalg.cleared([sol.particular, *sol.nullspace])
    return origin, basis, q


def _restated(row, origin, basis, q):
    """The row a . x <= b over den restated over t, where
    x = (origin + sum t_i basis_i) / q: (a.Z) t <= b q - a.x0 over den q."""
    *a, b, den = row
    nz = [(j, x) for j, x in enumerate(a) if x]
    coeffs = [sum(x * z[j] for j, x in nz) for z in basis]
    return _reduced([*coeffs, b * q - sum(x * origin[j] for j, x in nz), den * q])


def _result(sim, status, objective, resumable=False):
    """The LPResult of a solved tableau; a resumable optimum carries its
    duals and the tableau itself."""
    if status != "optimal":
        return LPResult(status)
    witness = sim.witness()
    optimum = _dot(objective, witness)
    if not resumable:
        return LPResult("optimal", witness, optimum)
    return LPResult("optimal", witness, optimum, sim.duals(), sim)
