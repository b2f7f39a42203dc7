"""Exact linear programming: dense two-phase simplex with Bland's rule.

Every number is a `fractions.Fraction`, so feasibility, optimality and
unboundedness are decided exactly.  Variables are free; nonnegativity is
expressed through constraints.  Strict inequalities are handled by
maximizing an auxiliary slack bounded by 1 and requiring its optimum to
be positive.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import InvariantError
from .linalg import _frac


@dataclass(frozen=True)
class LPResult:
    status: str  # 'optimal' | 'feasible' | 'infeasible' | 'unbounded'
    witness: tuple | None = None
    optimum: Fraction | None = None


def _coerce_constraints(constraints, nvars):
    out = []
    for coeffs, rhs in constraints:
        row = [_frac(c) for c in coeffs]
        if len(row) > nvars:
            raise ValueError("constraint longer than the variable count")
        row += [Fraction(0)] * (nvars - len(row))
        out.append((row, _frac(rhs)))
    return out


def _infer_nvars(objective, *constraint_groups):
    n = len(objective) if objective is not None else 0
    for group in constraint_groups:
        for coeffs, _ in group:
            n = max(n, len(coeffs))
    return n


class _Simplex:
    """Tableau simplex over Fractions (maximization, Bland's rule).

    Original free variables are split into positive and negative parts;
    rows are normalized to b >= 0; artificials complete the basis where a
    slack column cannot.
    """

    def __init__(self, nfree, equalities, leqs):
        self.nfree = nfree
        ncols = 2 * nfree
        rows = []
        basis_hint = []
        # (row coefficients over split vars, rhs, kind)
        for coeffs, rhs in equalities:
            rows.append((self._split(coeffs), rhs, "eq"))
        for coeffs, rhs in leqs:
            rows.append((self._split(coeffs), rhs, "leq"))

        self.slack_cols = {}
        tableau = []
        for ridx, (row, rhs, kind) in enumerate(rows):
            if kind == "leq":
                row = row + [Fraction(0)] * len(rows)
                row[ncols + ridx] = Fraction(1)
            else:
                row = row + [Fraction(0)] * len(rows)
            tableau.append((row, rhs))
        self.ncols_struct = ncols + len(rows)  # split vars + slack block

        # Normalize rhs >= 0 (flips slack signs too).
        self.rows = []
        for row, rhs in tableau:
            if rhs < 0:
                row = [-x for x in row]
                rhs = -rhs
            self.rows.append((row, rhs))

        # Basis: slack column when usable (+1 coefficient), else artificial.
        self.nart = 0
        self.art_col_of_row = {}
        for i, (row, rhs) in enumerate(self.rows):
            scol = ncols + i
            if row[scol] == 1:
                basis_hint.append(scol)
            else:
                basis_hint.append(None)
                self.art_col_of_row[i] = self.ncols_struct + self.nart
                self.nart += 1
        self.total_cols = self.ncols_struct + self.nart
        self.T = []
        for i, (row, rhs) in enumerate(self.rows):
            full = row + [Fraction(0)] * self.nart + [rhs]
            if i in self.art_col_of_row:
                full[self.art_col_of_row[i]] = Fraction(1)
            self.T.append(full)
        self.basis = [
            basis_hint[i] if basis_hint[i] is not None else self.art_col_of_row[i]
            for i in range(len(self.rows))
        ]

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
    """
    equalities = list(equalities)
    less_equal = list(less_equal)
    strict_less = list(strict_less)
    nvars = num_vars if num_vars is not None else _infer_nvars(
        objective, equalities, less_equal, strict_less
    )
    if nvars == 0:
        # No variables: constraints are numeric assertions.
        for _, rhs in equalities:
            if _frac(rhs) != 0:
                return LPResult("infeasible")
        for _, rhs in less_equal:
            if _frac(rhs) < 0:
                return LPResult("infeasible")
        for _, rhs in strict_less:
            if _frac(rhs) <= 0:
                return LPResult("infeasible")
        return LPResult("feasible", witness=())

    eqs = _coerce_constraints(equalities, nvars)
    leqs = _coerce_constraints(less_equal, nvars)
    stricts = _coerce_constraints(strict_less, nvars)

    if stricts:
        if objective is not None:
            raise ValueError("objective together with strict constraints is unsupported")
        # Auxiliary variable delta (index nvars): maximize delta <= 1.
        aug_leqs = [(row + [Fraction(1)], rhs) for row, rhs in stricts]
        aug_leqs += [(row + [Fraction(0)], rhs) for row, rhs in leqs]
        aug_leqs.append(([Fraction(0)] * nvars + [Fraction(1)], Fraction(1)))
        aug_leqs.append(([Fraction(0)] * nvars + [Fraction(-1)], Fraction(0)))  # delta >= 0
        aug_eqs = [(row + [Fraction(0)], rhs) for row, rhs in eqs]
        obj = [Fraction(0)] * nvars + [Fraction(1)]
        res = _run(nvars + 1, obj, aug_eqs, aug_leqs)
        if res.status == "infeasible":
            return LPResult("infeasible")
        if res.status != "optimal":
            raise InvariantError(f"bounded slack LP unexpectedly {res.status}")
        if res.optimum > 0:
            return LPResult("feasible", witness=res.witness[:nvars])
        return LPResult("infeasible")

    if objective is None:
        obj = [Fraction(0)] * nvars
        res = _run(nvars, obj, eqs, leqs)
        if res.status == "infeasible":
            return LPResult("infeasible")
        return LPResult("feasible", witness=res.witness)

    obj = [_frac(c) for c in objective] + [Fraction(0)] * (nvars - len(objective))
    if not maximize:
        obj = [-c for c in obj]
    res = _run(nvars, obj, eqs, leqs)
    if res.status == "optimal" and not maximize:
        return LPResult("optimal", res.witness, -res.optimum)
    return res


def _run(nvars, objective, eqs, leqs):
    sim = _Simplex(nvars, eqs, leqs)
    obj_split = _objective_split(objective, nvars, sim.ncols_struct)
    status = sim.solve(obj_split)
    if status in ("infeasible", "unbounded"):
        return LPResult(status)
    witness = sim.witness()
    value = sum(c * w for c, w in zip(objective, witness))
    return LPResult("optimal", witness, value)
