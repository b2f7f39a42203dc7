"""The benchmark's workloads: fixed job lists with their expected outputs.

Each job is a call into `tamewall` plus an exact check of what it returned.
The paper fixes the inputs of theorem1, census and forms, so there the seed
only orders the jobs.  In cells the seed draws the perturbation subsets and
the job order.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from tamewall import delaunay, forms, perfect, series
from tamewall.vecset import canonical_set

# verify_theorem1 at n = 5 is refuted on exactly these steps: S_5's dual
# holds (1,1,1,1,2) beyond the four families (see the README).
N5_FAILING = {"dual_families", "double_dual", "codimension_one"}
# The perturbation size verify_theorem1 settles on, per n.
THEOREM1_EPSILON = {5: Fraction(1, 16), 6: Fraction(1, 32), 7: Fraction(1, 64), 8: Fraction(1, 128)}
CENSUS_HISTOGRAM = {0: 497070, 1: 381672, 2: 9072, 3: 216}
# The generic point `tamewall gosset-census` locates the E6 cell from.
CENSUS_POINT = tuple(Fraction(1, p) for p in (23, 29, 31, 37, 41, 43))
# Sign patterns applied to CENSUS_POINT to get the cell-location queries.
CELL_SIGNS = ((1, 1, 1, 1, 1, 1), (-1, 1, -1, 1, -1, 1))
PERTURBATIONS = 24
ALPHA = Fraction(1, 10)


@dataclass(frozen=True)
class Job:
    kind: str
    label: str
    run: Callable[[], object]
    check: Callable[[object], bool]


@dataclass(frozen=True)
class Workload:
    name: str
    jobs: tuple
    # passes after the first one find the module caches filled
    cold_first: bool
    # end-to-end metrics beyond the common ones: (name, aggregate, job kind)
    kind_metrics: tuple


def _theorem1_job(n):
    def check(rep):
        failing = {s.name for s in rep.steps if not s.ok}
        return (
            rep.n == n
            and failing == (N5_FAILING if n == 5 else set())
            and rep.data.get("epsilon") == THEOREM1_EPSILON[n]
        )

    return Job("theorem1", f"verify_theorem1({n})", lambda: series.verify_theorem1(n), check)


def _theorem2_job(n, include_isometry=None):
    expected = n * (n + 3) if n % 2 == 0 else n * (n + 1)

    def check(rep):
        names = {s.name for s in rep.steps}
        return (
            rep.ok
            and rep.data["minimal_vector_count"] == expected
            and (include_isometry is not True or "dn_identification" in names)
        )

    label = f"verify_theorem2({n}{', include_isometry=True' if include_isometry else ''})"
    return Job("theorem2", label, lambda: series.verify_theorem2(n, include_isometry=include_isometry), check)


def _eutaxy_job(n):
    f = forms.tf_form(n)
    return Job("eutaxy", f"is_eutactic(tf_form({n}))", lambda: perfect.is_eutactic(f), lambda out: out[0] is True)


def _census_job():
    def check(rep):
        return rep.vertex_count == 27 and rep.volume_histogram == CENSUS_HISTOGRAM

    return Job("census", "gosset_census()", lambda: series.gosset_census(), check)


class _CellCheck:
    """Exact check of a located cell: it is a Delaunay cell of the form.

    The certificate is computed once per distinct answer, so warm passes
    that return the same cell are not checked again.
    """

    def __init__(self, f, vertex_count=None):
        self.f = f
        self.vertex_count = vertex_count
        self.verified = set()

    def __call__(self, cell):
        if cell in self.verified:
            return True
        ok = (self.vertex_count is None or len(cell) == self.vertex_count) and (
            delaunay.is_delaunay_cell(self.f, cell).verdict
        )
        if ok:
            self.verified.add(cell)
        return ok


def _locate_job(name, f, point, vertex_count=None):
    return Job(
        "locate",
        f"delaunay_cell_containing({name}, {'/'.join(str(x) for x in point)})",
        lambda: delaunay.delaunay_cell_containing(f, point),
        _CellCheck(f, vertex_count),
    )


def _perturb_job(e6, phi, cell, subset):
    expected = canonical_set(subset)
    return Job(
        "perturb",
        f"perturbation_check(E6 cell, {len(subset)} vertices)",
        lambda: delaunay.perturbation_check(e6, phi, cell, subset, ALPHA),
        lambda rep: rep.verdict and rep.boundary == expected,
    )


def e6_cell():
    """The 27-vertex E6 cell and the quadric vanishing on it."""
    e6 = forms.standard_gram("E6")
    cell = delaunay.delaunay_cell_containing(e6, CENSUS_POINT)
    quad = delaunay.circumscribed_quadric(e6, cell)
    phi = delaunay.InhomogeneousQuadratic.from_circumsphere(e6, quad.center, quad.r2)
    return e6, cell, phi


KIND_METRICS = {
    "theorem1": (("theorem1_s", "pass_sum", "theorem1"),),
    "census": (),
    "forms": (("theorem2_s", "pass_sum", "theorem2"), ("eutaxy_s", "pass_sum", "eutaxy")),
    "cells": (("cell_p50_s", "job_median", "locate"), ("perturb_s", "pass_sum", "perturb")),
}


def build(name: str, seed: int, tiny: bool = False) -> Workload:
    """The workload's jobs in seeded order.

    tiny=True is for the benchmark's own test: it keeps every job kind and
    layer but drops the slowest jobs.
    """
    if name not in KIND_METRICS:
        raise ValueError(f"unknown workload {name!r}")
    rng = random.Random(seed)
    if name == "theorem1":
        jobs = [_theorem1_job(n) for n in ((5, 6) if tiny else (5, 6, 7, 8))]
    elif name == "census":
        jobs = [_census_job()]
    elif name == "forms":
        jobs = [_theorem2_job(n) for n in ((6,) if tiny else range(6, 12))]
        if not tiny:
            jobs.append(_theorem2_job(9, include_isometry=True))
        jobs += [_eutaxy_job(n) for n in ((6,) if tiny else range(6, 9))]
    else:
        e6, cell, phi = e6_cell()
        cell_forms = (
            ("E6", e6, 27),
            ("tf_form(6)", forms.tf_form(6), None),
            ("dn_neighbor_form(6)", forms.dn_neighbor_form(6), None),
            ("wall_interior_form(6)", forms.wall_interior_form(6), None),
        )
        jobs = [
            _locate_job(label, f, tuple(s * x for s, x in zip(sign, CENSUS_POINT)), count)
            for sign in (CELL_SIGNS[:1] if tiny else CELL_SIGNS)
            for label, f, count in cell_forms
        ]
        for _ in range(4 if tiny else PERTURBATIONS):
            subset = rng.sample(cell, rng.randint(1, len(cell) - 1))
            jobs.append(_perturb_job(e6, phi, cell, subset))
    rng.shuffle(jobs)
    return Workload(name, tuple(jobs), cold_first=name == "cells", kind_metrics=KIND_METRICS[name])
