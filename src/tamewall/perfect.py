"""Perfectness, eutaxy, and extremeness tests for positive definite forms."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import lp
from .enumeration import arithmetic_minimum
from .errors import InvariantError
from .forms import (
    QuadraticForm,
    dual_form,
    form_from_solution,
    solve_form_from_unit_norms,
    sym_dimension,
)


@dataclass(frozen=True)
class PerfectionReport:
    """Rank of the minimal-vector images inside Sym(n).

    reconstruction is the unique form taking the value 1 on every minimal
    vector (f divided by its minimum) when f is perfect, else None.
    """

    rank: int
    sym_dim: int
    minimal_pair_count: int
    is_perfect: bool
    reconstruction: QuadraticForm | None


def perfection_report(f: QuadraticForm) -> PerfectionReport:
    """Perfect iff the rank-1 images of the minimal vectors span Sym(n).

    One fraction-free elimination of the unit-norm system (value 1 on every
    minimal vector, integer value rows) gives both the rank and the
    reconstruction.  The system is consistent, because f divided by its
    minimum solves it, so its rank is N minus the nullity, and at rank N its
    unique solution is the reconstruction.
    """
    report = arithmetic_minimum(f)
    sol = solve_form_from_unit_norms(report.vectors, 1)
    if sol.kind == "inconsistent":
        raise InvariantError("f / min(f) fails the unit-norm system of its minimal vectors")
    big_n = sym_dimension(f.n)
    rk = big_n - len(sol.nullspace)
    recon = form_from_solution(sol, f.n) if sol.is_unique else None
    return PerfectionReport(rk, big_n, report.pair_count, rk == big_n, recon)


def is_eutactic(f: QuadraticForm):
    """Exact strict-feasibility test for eutaxy.

    True iff the dual Gram equals sum_k alpha_k v_k v_k^T with every
    alpha_k > 0 over one representative per +-pair of minimal vectors.
    Returns (verdict, weights or None).
    """
    vecs = arithmetic_minimum(f).vectors
    dual = dual_form(f)
    n = f.n
    equalities = [
        ([v[i] * v[j] for v in vecs], Fraction(dual.int_gram[i][j], dual.den))
        for i in range(n)
        for j in range(i, n)
    ]
    weights = lp.positive_solution(equalities)
    return weights is not None, weights


def is_extreme(f: QuadraticForm) -> bool:
    """Voronoi: extreme (local packing maximum) iff perfect and eutactic."""
    if not perfection_report(f).is_perfect:
        return False
    verdict, _ = is_eutactic(f)
    return verdict
