"""Delaunay machinery: circumscribed quadrics, exact cell verification,
cell location by cutting planes, simplex volumes, the two triangulations
of a circuit, level vectors, and lattice perturbations that isolate a
chosen sub-polytope of a cell.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import ceil, floor

from . import kernels, linalg, lp
from .enumeration import closest_vectors, first_interior_point, lattice_points_in_ellipsoid
from .errors import InvariantError
from .forms import QuadraticForm, shifted
from .linalg import _frac
from .vecset import canonical_set, dot, sub

# find_level_vector searches level vectors p with every |p_i| at most this.
_LEVEL_BOX = 8


class NonGenericPointError(ValueError):
    """Query point lies on a face of the tiling; carries the face's vertices."""

    def __init__(self, face_vertices):
        super().__init__(
            "non-generic point: it lies on a face with vertices "
            + ", ".join(str(v) for v in face_vertices)
        )
        self.face_vertices = tuple(face_vertices)


@dataclass(frozen=True)
class CircumscribedQuadric:
    status: str  # 'ok' | 'inconsistent'
    center: tuple | None = None
    r2: Fraction | None = None


@dataclass(frozen=True)
class DelaunayCertificate:
    """Exact verdict that a point set is a full Delaunay cell of a form."""

    vertices: tuple
    center: tuple | None
    r2: Fraction | None
    verdict: bool
    cospherical: bool = True
    offending_interior: tuple | None = None
    missing_boundary: tuple | None = None
    proper_subface: bool = False

    def to_json(self):
        def frac(x):
            return f"{x.numerator}/{x.denominator}" if x is not None else None

        return {
            "vertices": [list(v) for v in self.vertices],
            "center": [frac(c) for c in self.center] if self.center else None,
            "r2": frac(self.r2),
            "verdict": self.verdict,
            "cospherical": self.cospherical,
            "offending_interior": list(self.offending_interior) if self.offending_interior else None,
            "missing_boundary": list(self.missing_boundary) if self.missing_boundary else None,
            "proper_subface": self.proper_subface,
        }


@dataclass(frozen=True)
class InhomogeneousQuadratic:
    """phi(x) = x.A.x + b.x + c with exact rational coefficients."""

    quadratic: QuadraticForm
    linear: tuple
    constant: Fraction

    def evaluate(self, x):
        return (
            self.quadratic.evaluate(x)
            + sum(b * xi for b, xi in zip(self.linear, x))
            + self.constant
        )

    def completed_square(self):
        """(center m, r2) with phi(x) = A(x - m) - r2: m solves
        den A m = -den b / 2 over A's integer rows."""
        a = self.quadratic
        sol = linalg.solve(a.int_gram, [-a.den * b / 2 for b in self.linear])
        if not sol.is_unique:
            raise ValueError("quadratic part is singular")
        m = sol.particular
        r2 = self.quadratic.evaluate(m) - self.constant
        return m, r2

    @classmethod
    def from_circumsphere(cls, f: QuadraticForm, center, r2):
        center = tuple(_frac(c) for c in center)
        w, s = f.int_image(center)
        linear = tuple(Fraction(-2 * t, s) for t in w)
        const = f.evaluate(center) - _frac(r2)
        return cls(f, linear, const)


@dataclass(frozen=True)
class PerturbationReport:
    verdict: bool
    boundary: tuple
    interior: tuple
    failure_reason: str | None = None


@dataclass(frozen=True)
class RadonTriangulations:
    """The two triangulations of a circuit on n+2 points."""

    dependence: tuple  # primitive integer coefficients, input order
    plus_part: tuple
    minus_part: tuple
    cells_plus: tuple  # triangulation indexed by the plus part
    cells_minus: tuple
    volumes_plus: tuple
    volumes_minus: tuple


def circumscribed_quadric(f: QuadraticForm, points) -> CircumscribedQuadric:
    """Center and squared radius of the quadric through the points, if any.

    Solves 2(v_i - v_0).G.c = f(v_i) - f(v_0) exactly, over den * G; an
    overdetermined inconsistent system is a reported outcome, not an error.
    """
    pts = canonical_set(points)
    if len(pts) < 2:
        raise ValueError("need at least two points")
    images = [f.int_image(v)[0] for v in pts]  # den G v
    norms = [dot(v, w) for v, w in zip(pts, images)]
    rows = [[2 * (a - b) for a, b in zip(w, images[0])] for w in images[1:]]
    sol = linalg.solve(rows, [q - norms[0] for q in norms[1:]])
    if sol.kind == "inconsistent":
        return CircumscribedQuadric("inconsistent")
    center = sol.particular
    r2 = f.evaluate([a - b for a, b in zip(pts[0], center)])
    return CircumscribedQuadric("ok", tuple(center), r2)


def is_delaunay_cell(f: QuadraticForm, points) -> DelaunayCertificate:
    """Exact Delaunay-cell certificate.

    True iff the points are co-spherical under f, the circumscribed
    ellipsoid is empty, and the point list is the complete boundary set.
    A strict subset of the boundary is flagged as a proper subface.
    The offending_interior witness is the first strictly interior point
    in enumeration order; the search stops there.
    """
    pts = canonical_set(points)
    n = f.n
    if linalg.affine_rank(pts) != n:
        raise ValueError("point set must affinely span the space")
    quad = circumscribed_quadric(f, pts)
    if quad.status != "ok":
        return DelaunayCertificate(pts, None, None, False, cospherical=False)
    inside, boundary = first_interior_point(f, quad.center, quad.r2)
    if inside is not None:
        return DelaunayCertificate(
            pts, quad.center, quad.r2, False, offending_interior=inside
        )
    boundary = set(boundary)
    missing = sorted(boundary - set(pts))
    if missing:
        return DelaunayCertificate(
            pts,
            quad.center,
            quad.r2,
            False,
            missing_boundary=missing[0],
            proper_subface=set(pts) < boundary,
        )
    return DelaunayCertificate(pts, quad.center, quad.r2, True)


def relative_volume(points) -> int:
    """|det| of the edge matrix of a lattice simplex on n+1 points."""
    pts = [tuple(p) for p in points]
    if not pts:
        raise ValueError("empty point set")
    n = len(pts[0])
    if len(pts) != n + 1:
        raise ValueError(f"a simplex in dimension {n} needs exactly {n + 1} points")
    base = pts[0]
    rows = [list(sub(p, base)) for p in pts[1:]]
    return abs(kernels.det_int(rows))


def delaunay_cell_containing(f: QuadraticForm, point):
    """Vertex set of the Delaunay cell of f containing a generic point.

    Cutting planes: maximize l(t) over affine l with l(v) <= f(v) for all
    lattice v, generating violated constraints through the closest-vector
    oracle.  The LP is seeded with the corners of the unit box around the
    point, which makes it bounded from the first iteration.  A query point
    on a lower-dimensional face raises NonGenericPointError carrying the
    face's vertex set.

    Cost: the seed alone is 2^n constraints, every LP of the cutting-plane
    loop carries all of them, and each round adds a closest-vector search;
    no dimension is refused here.
    """
    n = f.n
    t = tuple(_frac(c) for c in point)
    if len(t) != n:
        raise ValueError("point dimension mismatch")
    ginv, d = linalg.inverse(f.int_gram)  # G^-1 = den ginv / d
    half = Fraction(f.den, 2 * d)

    base = [floor(c) for c in t]
    constraints = {}  # lattice point v -> f(v), in insertion order
    for corner in itertools.product((0, 1), repeat=n):
        v = tuple(b + d for b, d in zip(base, corner))
        constraints[v] = f.evaluate(v)
    while True:
        rows = [([*v, 1], fv) for v, fv in constraints.items()]
        res = lp.lp_solve(objective=[*t, 1], less_equal=rows)
        if res.status != "optimal":
            raise InvariantError(f"cell LP unexpectedly {res.status}")
        g = res.witness[:n]
        h = res.witness[n]
        m = [half * dot(row, g) for row in ginv]
        d2, pts = closest_vectors(f, m)
        mu = d2 - (f.evaluate(m) + h)
        if mu < 0:
            new = [p for p in pts if p not in constraints]
            if not new:
                raise InvariantError("separation oracle failed to add a violated constraint")
            for p in new:
                constraints[p] = f.evaluate(p)
            continue
        if mu != 0:
            raise InvariantError("optimal support function must touch the lattice lift")
        vertices = canonical_set(pts)
        break

    # t is generic iff the cell spans and t is a convex combination of all
    # its vertices with every weight positive
    eqs = [([v[i] for v in vertices], t[i]) for i in range(n)]
    eqs.append(([1] * len(vertices), 1))
    if linalg.affine_rank(vertices) != n or lp.positive_solution(eqs) is None:
        raise NonGenericPointError(_minimal_face(vertices, t))
    return vertices


def _minimal_face(vertices, t):
    """Vertices that can carry positive weight in a convex representation.

    One max-support LP over (mu_1..mu_k, s, y_1..y_k): sum mu_u v_u = s t,
    sum mu_u = s, mu >= 0 and y_u <= min(1, mu_u); maximize sum y_u.
    A feasible mu with s > 0 is s times a convex representation of t, and
    s = 0 forces mu = 0, so y_u <= 0 off the face; scaling a representation
    that is positive on the whole face reaches y_u = 1 there.  The optimum
    is therefore the face size, reached only with y_u = 1 on the face and
    y_u = 0 off it, so the rows y_u >= 0 would be redundant and are left out.
    """
    k = len(vertices)
    n = len(t)
    width = 2 * k + 1
    s_col = k

    def row(coeffs):
        out = [0] * width
        for col, c in coeffs:
            out[col] = c
        return out

    eqs = [
        (row([*((u, v[i]) for u, v in enumerate(vertices)), (s_col, -t[i])]), 0)
        for i in range(n)
    ]
    eqs.append((row([*((u, 1) for u in range(k)), (s_col, -1)]), 0))
    leqs = []
    for u in range(k):
        y = s_col + 1 + u
        leqs.append((row([(u, -1)]), 0))  # mu_u >= 0
        leqs.append((row([(y, 1)]), 1))  # y_u <= 1
        leqs.append((row([(y, 1), (u, -1)]), 0))  # y_u <= mu_u
    res = lp.lp_solve(
        objective=row((s_col + 1 + u, 1) for u in range(k)), equalities=eqs, less_equal=leqs
    )
    if res.status != "optimal":
        raise InvariantError(f"max-support LP unexpectedly {res.status}")
    return tuple(v for u, v in enumerate(vertices) if res.witness[s_col + 1 + u] == 1)


def radon_triangulations(points) -> RadonTriangulations:
    """The two triangulations T_+ and T_- of a circuit on n+2 points.

    Computes the unique affine dependence, splits the points by its sign,
    and triangulates by dropping one point of the respective part.
    """
    pts = [tuple(p) for p in points]
    if len(set(pts)) != len(pts):
        raise ValueError("points must be distinct")
    n = len(pts[0])
    if len(pts) != n + 2:
        raise ValueError(f"a circuit in dimension {n} needs exactly {n + 2} points")
    if linalg.affine_rank(pts) != n:
        raise ValueError("points must affinely span the space")
    rows = [[p[i] for p in pts] for i in range(n)]
    rows.append([1] * len(pts))
    kernel = linalg.nullspace(rows)
    if len(kernel) != 1:
        raise ValueError("points do not form a circuit (dependence not unique)")
    lam = linalg.primitive_row(kernel[0])
    first = next((x for x in lam if x != 0), 0)
    if first < 0:
        lam = [-x for x in lam]
    if any(x == 0 for x in lam):
        raise ValueError("points do not form a circuit (a point is affinely redundant)")

    plus = [pts[i] for i in range(len(pts)) if lam[i] > 0]
    minus = [pts[i] for i in range(len(pts)) if lam[i] < 0]

    def triangulate(part):
        cells = []
        vols = []
        for drop in part:
            cell = tuple(p for p in pts if p != drop)
            cells.append(cell)
            vols.append(relative_volume(cell))
        return tuple(cells), tuple(vols)

    cells_p, vols_p = triangulate(plus)
    cells_m, vols_m = triangulate(minus)
    return RadonTriangulations(
        tuple(lam), tuple(plus), tuple(minus), cells_p, cells_m, vols_p, vols_m
    )


def _level_dfs(diffs, n, box):
    """First integer p in a small-magnitude-first order with all products
    in [1, 2]; products are integers, so the range forces {1, 2}."""
    suffix = []
    for d in diffs:
        s = [0] * (n + 1)
        for i in range(n - 1, -1, -1):
            s[i] = s[i + 1] + abs(d[i])
        suffix.append(s)
    candidates = [0]
    for mag in range(1, box + 1):
        candidates += [mag, -mag]
    p = [0] * n

    def rec(i, partial):
        if i == n:
            return all(1 <= s <= 2 for s in partial)
        for cand in candidates:
            nxt = []
            ok = True
            for k, d in enumerate(diffs):
                s = partial[k] + d[i] * cand
                slack = box * suffix[k][i + 1]
                if s + slack < 1 or s - slack > 2:
                    ok = False
                    break
                nxt.append(s)
            if ok:
                p[i] = cand
                if rec(i + 1, nxt):
                    return True
        p[i] = 0
        return False

    if rec(0, [0] * len(diffs)):
        return tuple(p)
    return None


def _level_via_lp_box(diffs, n):
    """Exhaustive fallback: scan the whole box |p_i| <= _LEVEL_BOX.

    Exact LP bounds on each coordinate of the relaxed polytope
    {1 <= d.p <= 2} can first prove the box empty (the relaxation is
    infeasible, or a coordinate's integer range inside the box is empty),
    which skips the scan; they never shrink the box that is scanned.
    From n = 6 on, the scans they skip cost more than the 2n LPs.
    """
    rows = []
    for d in diffs:
        rows.append((d, 2))  # d.p <= 2
        rows.append(([-x for x in d], -1))  # d.p >= 1
    for i in range(n):
        obj = [0] * n
        obj[i] = 1
        res_max = lp.lp_solve(objective=obj, less_equal=rows)
        if res_max.status == "infeasible":
            return None
        res_min = lp.lp_solve(objective=[-c for c in obj], less_equal=rows)  # max -p_i
        hi = min(floor(res_max.optimum), _LEVEL_BOX) if res_max.status == "optimal" else _LEVEL_BOX
        lo = max(ceil(-res_min.optimum), -_LEVEL_BOX) if res_min.status == "optimal" else -_LEVEL_BOX
        if lo > hi:
            return None
    return _level_dfs(diffs, n, _LEVEL_BOX)


def find_level_vector(v, cell):
    """Integer p with (u - v).p in {1, 2} for every other cell vertex u.

    A propagation-pruned integer search over the boxes |p_i| <= 2 and
    <= 4 finds small solutions quickly; if it misses, the box
    |p_i| <= _LEVEL_BOX is searched exhaustively.  Returns the first
    solution in a deterministic small-magnitude-first order, or None when
    that box holds none (existence is only asserted for the two-distance
    cell).
    """
    v = tuple(v)
    cell_pts = canonical_set(cell)
    if v not in cell_pts:
        raise ValueError("vertex must belong to the cell")
    diffs = sorted({sub(u, v) for u in cell_pts if u != v})
    if not diffs:
        raise ValueError("cell has no other vertex")
    n = len(v)
    result = _level_dfs(diffs, n, 2)
    if result is None:
        result = _level_dfs(diffs, n, 4)
    if result is None:
        result = _level_via_lp_box(diffs, n)
    return result


def perturbation_check(
    f: QuadraticForm,
    phi_const: InhomogeneousQuadratic,
    cell,
    subset,
    alpha,
) -> PerturbationReport:
    """Perturb a vanishing quadratic so a chosen sub-polytope becomes a cell.

    phi = phi_const + alpha * sum over excluded vertices v of
    ((x - v).p_v - 1)((x - v).p_v - 2).  Each term is nonnegative on the
    lattice and vanishes on every cell vertex except v, so the zero set
    of phi on the lattice should shrink to exactly the subset; that is
    verified by exact enumeration, and the verdict reports it.  p_v is
    `find_level_vector(v, cell)`; the report keeps the lattice points, not
    the level vectors.
    """
    alpha = _frac(alpha)
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    cell_pts = canonical_set(cell)
    sub_pts = canonical_set(subset)
    if not sub_pts:
        raise ValueError("subset must be nonempty")
    if not set(sub_pts) <= set(cell_pts):
        raise ValueError("subset must consist of cell vertices")
    if phi_const.quadratic != f:
        raise ValueError("phi_const must have the given form as quadratic part")
    bad = [u for u in cell_pts if phi_const.evaluate(u) != 0]
    if bad:
        raise ValueError(f"phi_const does not vanish on cell vertex {bad[0]}")

    outside = [u for u in cell_pts if u not in set(sub_pts)]
    levels = {}
    for u in outside:
        p = find_level_vector(u, cell_pts)
        if p is None:
            reason = f"no level vector for vertex {u}"
            return PerturbationReport(False, (), (), failure_reason=reason)
        levels[u] = p

    linear = list(phi_const.linear)
    const = phi_const.constant
    for u in outside:
        p = levels[u]
        pv = dot(p, u)
        linear = [b + alpha * (-2 * pv - 3) * x for b, x in zip(linear, p)]
        const += alpha * (pv * pv + 3 * pv + 2)
    # one integer Gram: f plus alpha times the sum of the level vectors' p p^T
    n = f.n
    images = [[sum(levels[u][i] * levels[u][j] for u in outside) for j in range(n)] for i in range(n)]
    phi = InhomogeneousQuadratic(shifted(f, alpha, images), tuple(linear), const)
    if not phi.quadratic.is_positive_definite:
        return PerturbationReport(False, (), (), failure_reason="quadratic part not PD")
    center, r2 = phi.completed_square()
    if r2 < 0:
        return PerturbationReport(False, (), (), failure_reason="empty sublevel set")
    report = lattice_points_in_ellipsoid(phi.quadratic, center, r2)
    verdict = not report.interior and report.boundary == sub_pts
    # a verdict that holds keeps the caller's vertex tuples, not equal copies
    boundary = sub_pts if verdict else report.boundary
    return PerturbationReport(verdict, boundary, report.interior)
