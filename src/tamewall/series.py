"""The object factory and end-to-end verification pipelines.

Builds the big-simplex series and its repartitioning complexes, ranks
the value rows of S_{n-1}-invariant vector sets by isotypic blocks,
certifies the closed-form wall normal in form space with them, classifies
sides, parses the bracket shorthand for vector families, and bundles the
full theorem verifications plus the 27-vertex cell census.
"""

from __future__ import annotations

import itertools
import re
import warnings
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from math import comb
from operator import itemgetter, mul, neg

from . import delaunay, dual01, forms, isometry, linalg
from .enumeration import arithmetic_minimum, closest_vectors
from .errors import InvariantError
from .forms import QuadraticForm, big_simplex_dual_vectors, pairing, value_row
from .vecset import canonical_set, canonical_sign, canonical_sign_set


# -- vertex factories ---------------------------------------------------------

def s_n_vertices(n: int):
    """Vertices of the big simplex: 0, e_1..e_{n-1}, (1,..,1,-(n-3))."""
    if n < 4:
        raise ValueError("the series needs n >= 4 (volume n-3 is 1 at n=4)")
    if n == 4:
        warnings.warn("n=4 is the degenerate start of the series (volume 1)")
    pts = [tuple([0] * n)]
    for i in range(n - 1):
        v = [0] * n
        v[i] = 1
        pts.append(tuple(v))
    pts.append(tuple([1] * (n - 1) + [-(n - 3)]))
    return canonical_set(pts)


def r_n_vertices(n: int):
    """The repartitioning complex: the big simplex plus e_n."""
    if n < 5:
        raise ValueError("the repartitioning complex needs n >= 5")
    e_n = tuple([0] * (n - 1) + [1])
    return canonical_set(s_n_vertices(n) + (e_n,))


def complementary_vectors(n: int, side: str):
    """Vectors completing the shared dual system to a perfect configuration.

    One representative per +-pair, canonically signed and sorted.  The
    D_n side consists of all e_i - e_j supported on the first n-1
    coordinates; the other side depends on the parity of n through
    w = floor(n/2).
    """
    if n < 5:
        raise ValueError("needs n >= 5")
    key = side.upper().replace("_", "")
    w = n // 2
    if key in ("DN", "D"):
        out = []
        for i, j in itertools.combinations(range(n - 1), 2):
            v = [0] * n
            v[i], v[j] = 1, -1
            out.append(tuple(v))
        return canonical_sign_set(out)
    if key == "TF":
        out = [tuple([w - 1] * (n - 1) + [w])]
        if n % 2 == 0:
            out.append(tuple([w - 2] * (n - 1) + [w - 1]))
            for i in range(n - 1):
                v = [w - 2] * (n - 1) + [w - 1]
                v[i] = w - 1
                out.append(tuple(v))
        return canonical_sign_set(out)
    raise ValueError(f"unknown side {side!r}; expected 'Dn' or 'TF'")


# -- S_{n-1} blocks -----------------------------------------------------------
#
# Permuting the first n-1 coordinates splits Sym(n) into the trivial
# representation of S_{n-1} four times (the common diagonal entry, the
# common off-diagonal entry among the first n-1 coordinates, the common
# entry of the last column, the corner), the standard one three times, and
# the (n-3,2) one once (inside the off-diagonal block).  The value rows of
# an invariant vector set span an invariant subspace, so its annihilator
# splits block by block, each block a system with one row per orbit.

def _orbit_representatives(vectors, n):
    """The (sorted x, y) of the +-classes (x, y) of an S_{n-1}-invariant set
    of integer n-vectors; InvariantError when the set is not invariant
    under the generators (1 2) and (1 2 ... n-1)."""
    classes = {canonical_sign(v) for v in vectors}
    for v in classes:
        for w in ((v[1], v[0], *v[2:]), (*v[1:n - 1], v[0], v[n - 1])):
            if canonical_sign(w) not in classes:
                raise InvariantError(f"vector set is not S_{n - 1}-invariant at {v}")
    return {(tuple(sorted(v[:n - 1])), v[n - 1]) for v in classes}


def sym_codimension(vectors, n: int) -> int:
    """Codimension in Sym(n) of the span of the value rows of an
    S_{n-1}-invariant set of integer n-vectors (n >= 4).

    For a representative (x, y) with s = sum(x) and q = sum(x_i^2): the
    trivial row (q, s^2 - q, 2ys, y^2) is its value on the invariant forms;
    each two adjacent distinct values a < b of x give the standard row
    (a^2 - b^2, 2a(s-a) - 2b(s-b), 2y(a-b)); and x_i x_j has no (n-3,2)
    component iff one value fills at least n-2 of the n-1 entries of x.
    """
    if n < 4:
        raise ValueError("the S_{n-1} blocks need n >= 4")
    trivial, standard = [(0,) * 4], [(0,) * 3]  # a zero row keeps each system nonempty
    annihilated = True
    for x, y in _orbit_representatives(vectors, n):
        s, q = sum(x), sum(a * a for a in x)
        trivial.append((q, s * s - q, 2 * y * s, y * y))
        values = sorted(set(x))
        standard += [
            (a * a - b * b, 2 * a * (s - a) - 2 * b * (s - b), 2 * y * (a - b))
            for a, b in zip(values, values[1:])
        ]
        annihilated = annihilated and max(Counter(x).values()) >= n - 2
    return (
        4 - linalg.rank(trivial)
        + (n - 2) * (3 - linalg.rank(standard))
        + annihilated * (n - 1) * (n - 4) // 2
    )


# -- wall normal --------------------------------------------------------------

@dataclass(frozen=True)
class WallDescriptor:
    """Primitive integer symmetric normal of the wall in form space.

    normal holds the matrix as integer rows.  Frobenius convention:
    pairing(normal, v v^T) is the value of the normal at v.  coords holds
    the same normal in Sym(n) coordinates (diagonal first, then i<j), so
    its value at an integer v is the integer coords . value_row(v).  Sign fixed so the complementary
    vectors of the big-simplex side pair positively.
    printed_formula_report compares the derived normal against the closed
    formula printed alongside the construction, which fails to annihilate
    the dual system (documented discrepancy); its "printed" matrix is
    rows of Fractions.  It is computed when read, not by tw_normal.
    """

    n: int
    normal: tuple
    coords: tuple

    @property
    def printed_formula_report(self) -> dict:
        n = self.n
        duals = big_simplex_dual_vectors(n)
        scaled = _printed_wall_formula(n)
        den = 2 * (n - 4)
        as_quadratic = [sum(u[i] * sum(map(mul, scaled[i], u)) for i in range(n)) for u in duals]
        upper_once = [
            sum(scaled[i][j] * u[i] * u[j] for i in range(n) for j in range(i, n))
            for u in duals
        ]
        return dict(
            printed=tuple(tuple(Fraction(x, den) for x in row) for row in scaled),
            annihilates_as_quadratic=not any(as_quadratic),
            annihilates_upper_once=not any(upper_once),
            max_abs_quadratic=Fraction(max(map(abs, as_quadratic)), den),
        )


def _printed_wall_formula(n: int):
    """The printed closed formula scaled by 2(n-4), as integer rows."""
    rows = [[0] * n for _ in range(n)]
    for i in range(n - 1):
        rows[i][n - 1] = rows[n - 1][i] = n - 2
        for j in range(n - 1):
            if i != j:
                rows[i][j] = 2 * (n - 4)
    rows[n - 1][n - 1] = n**3 - 9 * n * n + 24 * n - 19
    return rows


def _value_at(coords, v):
    """Value at the integer vector v of the symmetric matrix with Sym(n)
    coordinates coords."""
    return sum(map(mul, coords, value_row(v)))


def tw_normal(n: int) -> WallDescriptor:
    """The closed-form wall normal: 0 on the first n-1 diagonal entries,
    (n-2)(n-3) in the corner, 1 between two of the first n-1 coordinates
    and -(n-3) between one of them and the last.  It is certified as the
    primitive annihilator of the dual images: they span codimension 1 (by
    the S_{n-1} blocks), the normal vanishes on each of them, and its
    entries are coprime; the orientation anchor fixes its sign."""
    if n < 5:
        raise ValueError("needs n >= 5")
    duals = big_simplex_dual_vectors(n)
    return _certified_normal(n, duals, sym_codimension(duals, n))


def _certified_normal(n, duals, codim):
    """tw_normal's certificate, given the codimension of the dual images."""
    if codim != 1:
        raise InvariantError(f"dual images span codimension {codim}, expected exactly 1")
    coords = [0] * (n - 1) + [(n - 2) * (n - 3)]
    coords += [1 if j < n - 1 else 3 - n for i in range(n) for j in range(i + 1, n)]
    if any(_value_at(coords, u) for u in duals):
        raise InvariantError("the closed-form normal does not vanish on the dual images")
    anchor = tuple([n // 2 - 1] * (n - 1) + [n // 2])  # big-simplex-side vector
    val = _value_at(coords, anchor)
    if val == 0:
        raise InvariantError("normal orientation anchor lies on the wall")
    if val < 0:
        coords = [-x for x in coords]
    return WallDescriptor(n, forms.coords_to_sym(coords, n), tuple(coords))


def classify_side(wall: WallDescriptor, x) -> str:
    """Sign of the Frobenius pairing with the wall normal.

    Integer vectors are classified through their rank-1 image, forms
    through their integer Gram rows (the denominator is positive), both
    in integers.
    """
    if isinstance(x, QuadraticForm):
        val = pairing(wall.normal, x.int_gram)
    else:
        if len(x) != wall.n:
            raise ValueError("vector dimension mismatch")
        val = _value_at(wall.coords, x)
    if val == 0:
        return "on_wall"
    return "tf_side" if val > 0 else "dn_side"


# -- family shorthand parser --------------------------------------------------

class FamilyParseError(ValueError):
    pass


class FamilyCountError(ValueError):
    """Declared cardinality does not match the expansion."""

    def __init__(self, declared, actual, vectors):
        super().__init__(f"declared count {declared} but expansion has {actual} vectors")
        self.declared = declared
        self.actual = actual
        self.vectors = vectors


@dataclass(frozen=True)
class FamilyPattern:
    n: int
    vectors: tuple
    declared_count: Fraction | None


_LIN_TOKEN = re.compile(r"\s*([+-]|\d+|n)\s*")


def _eval_linear(expr: str, n: int) -> Fraction:
    """Evaluate +-combinations of integers and the symbol n."""
    pos = 0
    total = Fraction(0)
    sign = 1
    seen_value = False
    while pos < len(expr):
        m = _LIN_TOKEN.match(expr, pos)
        if not m:
            raise FamilyParseError(f"cannot parse expression {expr!r}")
        tok = m.group(1)
        pos = m.end()
        if tok == "+":
            continue
        if tok == "-":
            sign = -sign
            continue
        total += sign * (Fraction(n) if tok == "n" else Fraction(int(tok)))
        sign = 1
        seen_value = True
    if not seen_value:
        raise FamilyParseError(f"empty expression {expr!r}")
    return total


def _eval_count(expr: str, n: int) -> Fraction:
    expr = expr.strip()
    m = re.fullmatch(r"\\binom\{([^{}]*)\}\{([^{}]*)\}", expr)
    if not m:
        m = re.fullmatch(r"C\(([^(),]*),([^(),]*)\)", expr)
    if m:
        top = _eval_linear(m.group(1), n)
        bot = _eval_linear(m.group(2), n)
        if top.denominator != 1 or bot.denominator != 1 or bot < 0:
            raise FamilyParseError(f"binomial arguments must be nonnegative integers: {expr!r}")
        return Fraction(comb(int(top), int(bot))) if top >= bot >= 0 else Fraction(0)
    m = re.fullmatch(r"\\frac\{([^{}]*)\}\{([^{}]*)\}", expr)
    if m:
        denom = _eval_linear(m.group(2), n)
        if denom == 0:
            raise FamilyParseError("zero denominator in count")
        return _eval_linear(m.group(1), n) / denom
    return _eval_linear(expr, n)


def _distinct_permutations(multiset):
    """All distinct orderings of a multiset, lexicographically."""
    items = sorted(multiset)
    k = len(items)
    out = []

    def rec(prefix, remaining):
        if len(prefix) == k:
            out.append(tuple(prefix))
            return
        last = None
        for i, x in enumerate(remaining):
            if x == last:
                continue
            last = x
            rec(prefix + [x], remaining[:i] + remaining[i + 1:])

    rec([], items)
    return out


def parse_family(pattern: str, n: int) -> FamilyPattern:
    """Expand the bracket shorthand for a family of integer n-vectors.

    m^k repeats entry m in k consecutive positions (k may involve the
    symbol n, e.g. 1^{n-3}); semicolons delimit segments and every
    distinct permutation is taken inside each segment independently; a
    trailing ^count annotation, when present, is validated against the
    expansion (FamilyCountError on mismatch).
    """
    m = re.fullmatch(r"\[([^\[\]]*)\](?:\^(\{.*\}|\S+))?", pattern.strip())
    if not m:
        raise FamilyParseError(f"pattern must look like [entries](^count): {pattern!r}")
    body, count_src = m.group(1), m.group(2)
    declared = None
    if count_src is not None:
        inner = count_src[1:-1] if count_src.startswith("{") else count_src
        declared = _eval_count(inner, n)

    runs = []  # per segment, its (value, repeat count) pairs
    for seg_src in body.split(";"):
        seg_src = seg_src.strip()
        if not seg_src:
            raise FamilyParseError("empty segment")
        entries = []
        for item in seg_src.split(","):
            item = item.strip()
            im = re.fullmatch(r"(-?\d+)(?:\^(\{[^{}]*\}|-?\d+|n))?", item)
            if not im:
                raise FamilyParseError(f"cannot parse entry {item!r}")
            value = int(im.group(1))
            rep_src = im.group(2)
            if rep_src is None:
                rep = 1
            else:
                inner = rep_src[1:-1] if rep_src.startswith("{") else rep_src
                rep_val = _eval_linear(inner, n)
                if rep_val.denominator != 1 or rep_val < 0:
                    raise FamilyParseError(f"exponent must be a nonnegative integer: {item!r}")
                rep = int(rep_val)
            entries.append((value, rep))
        runs.append(entries)

    # the length is checked before anything is expanded: m^k may be huge
    total_len = sum(rep for entries in runs for _, rep in entries)
    if total_len != n:
        raise FamilyParseError(
            f"entries expand to length {total_len}, expected the dimension {n}"
        )
    segments = [tuple(value for value, rep in entries for _ in range(rep)) for entries in runs]
    vectors = set()
    per_segment = [_distinct_permutations(seg) for seg in segments]
    for combo in itertools.product(*per_segment):
        vectors.add(tuple(x for part in combo for x in part))
    vectors = tuple(sorted(vectors))
    if declared is not None and declared != len(vectors):
        raise FamilyCountError(declared, len(vectors), vectors)
    return FamilyPattern(n, vectors, declared)


# -- theorem pipelines --------------------------------------------------------

@dataclass(frozen=True)
class CheckStep:
    name: str
    ok: bool
    detail: str


@dataclass(frozen=True)
class TheoremReport:
    n: int
    ok: bool
    steps: tuple
    data: dict = field(compare=False, default_factory=dict)

    def failing(self):
        return [s for s in self.steps if not s.ok]


def _dual_count(n):
    return 2 * (n - 1) + comb(n - 1, 2)


# Theorem 1's perturbation size is a power of 2 from 1/4 down to this one.
_EPSILON_FLOOR = Fraction(1, 2**21)


def _epsilon_star(n):
    """The closed form of the end of theorem 1's perturbation interval:
    S_n is a Delaunay cell of G + eps N exactly for 0 < eps < eps*."""
    return Fraction(2 * (n - 3), (n - 1) * (n - 2) * (n * n - 7 * n + 13))


def _simplex_gap(value, x):
    """h_Q(x) = Q[x] - A_Q(x) for the quadratic function Q given by its
    values, A_Q being the affine function equal to Q on the vertices 0,
    e_1..e_{n-1}, w = (1, .., 1, -(n-3)) of S_n:
    A_Q(x) = sum_{i<n} Q[e_i] x_i + a x_n with
    a = (sum_{i<n} Q[e_i] - Q[w]) / (n - 3).  For a form Q, h_Q(x) is
    Q[x - c] - r^2 over the sphere (c, r^2) through S_n, so x is inside,
    on or outside it as h_Q(x) is negative, zero or positive."""
    n = len(x)
    units = [value(tuple(int(i == j) for j in range(n))) for i in range(n - 1)]
    a = Fraction(sum(units) - value(tuple([1] * (n - 1) + [3 - n])), n - 3)
    return value(x) - sum(map(mul, units, x)) - a * x[-1]


def _perturbed_simplex(n, wall_form, wall, s_n):
    """(ok, detail, eps) of the step showing S_n a Delaunay simplex of volume
    n - 3 of G + eps N, for the wall form G and the wall normal N.

    h is linear in the form, so the eps for which S_n is a cell of
    G + eps N form one interval (0, eps*).  The closed form of eps* is
    certified at this n by z = (1, 1, 0, .., 0, -1): h_N(z) < 0 and
    h_G(z) + eps* h_N(z) = 0, so z lies inside or on the sphere of
    G + eps N for every eps >= eps*.  One cell check at eps, the largest
    2^-k <= 1/4 below eps*, then shows that eps admissible: it is the
    first admissible size in the sequence 1/4, 1/8, ...  eps is None
    unless the cell check holds.
    """
    eps_star = _epsilon_star(n)
    z = tuple([1, 1] + [0] * (n - 3) + [-1])
    h_g = _simplex_gap(wall_form.evaluate, z)
    h_n = _simplex_gap(partial(_value_at, wall.coords), z)
    uncertified = f"epsilon* {eps_star} not certified:"
    if h_n >= 0:
        return False, f"{uncertified} h_N(z) = {h_n} is not negative at z = {z}", None
    if h_g + eps_star * h_n:
        return False, f"{uncertified} z = {z} is not on the sphere of G + epsilon* N", None
    eps = Fraction(1, 4)
    while eps >= eps_star and eps >= _EPSILON_FLOOR:
        eps /= 2
    if eps < _EPSILON_FLOOR:
        return False, "no admissible perturbation size found", None
    g = forms.shifted(wall_form, eps, wall.normal)
    if not g.is_positive_definite:
        return False, f"G + epsilon N is not positive definite at epsilon {eps}", None
    if not delaunay.is_delaunay_cell(g, s_n).verdict:
        return False, f"S_n is not a Delaunay cell of G + epsilon N at epsilon {eps}", None
    vol = delaunay.relative_volume(s_n)
    return vol == n - 3, f"epsilon {eps}, simplex volume {vol}", eps


def verify_theorem1(n: int) -> TheoremReport:
    """Dual system, double dual, codimension, wall form, repartitioning
    cell, and the perturbed form with the big simplex as a Delaunay cell
    (see `_perturbed_simplex` for how the perturbation size is chosen)."""
    if n < 5:
        raise ValueError("needs n >= 5")
    steps = []
    data = {}
    s_n = s_n_vertices(n)
    r_n = r_n_vertices(n)

    dual = dual01.dual01(s_n)
    family_duals = big_simplex_dual_vectors(n)
    families = canonical_set(family_duals + (tuple([0] * n),))
    nonzero = [u for u in dual if any(u)]
    ok = dual == families and len(nonzero) == _dual_count(n)
    steps.append(CheckStep(
        "dual_families",
        ok,
        f"|dual\\0| = {len(nonzero)}, expected {_dual_count(n)}",
    ))

    try:
        double_dual = dual01.dual01(dual)
    except dual01.DualInfiniteError:
        double_dual = None
    steps.append(CheckStep("double_dual", double_dual == r_n, "double dual adds exactly e_n"))

    big_n = forms.sym_dimension(n)
    codim = sym_codimension(dual, n)
    rk = big_n - codim
    steps.append(CheckStep(
        "codimension_one", rk == big_n - 1, f"rank {rk} of N = {big_n}"
    ))

    wall_form = forms.wall_interior_form(n)
    steps.append(CheckStep("wall_form_pd", wall_form.is_positive_definite, "LDL pivots positive"))

    cert = delaunay.is_delaunay_cell(wall_form, r_n)
    steps.append(CheckStep(
        "repartition_cell", cert.verdict, f"complex has {len(r_n)} boundary points"
    ))

    # a dual equal to the families ranks as they do, the zero vector's
    # image adding nothing, so the normal's certificate reuses its
    # codimension
    if dual == families:
        wall = _certified_normal(n, family_duals, codim)
    else:
        wall = tw_normal(n)
    ok, detail, eps = _perturbed_simplex(n, wall_form, wall, s_n)
    steps.append(CheckStep("big_simplex_on_positive_side", ok, detail))
    if eps is not None:
        data["epsilon"] = eps

    return TheoremReport(n, all(s.ok for s in steps), tuple(steps), data)


def _perfect_form_steps(steps, name, f, expected_vectors, expected_total):
    """Append the four checks that f is a perfect form of minimum 1 with
    the expected minimal vectors: positive definiteness, minimum, minimal
    vectors, perfection with reconstruction.  Returns the minimal-vector
    count 2s."""
    steps.append(CheckStep(f"{name}_pd", f.is_positive_definite, "LDL pivots positive"))
    rep = arithmetic_minimum(f)
    steps.append(CheckStep(f"{name}_minimum", rep.minimum == 1, f"minimum {rep.minimum}"))
    steps.append(CheckStep(
        f"{name}_minimal_vectors",
        rep.vectors == expected_vectors and rep.total_count == expected_total,
        f"2s = {rep.total_count}, expected {expected_total}",
    ))
    big_n = forms.sym_dimension(f.n)
    rank = big_n - sym_codimension(rep.vectors, f.n)
    # at rank N the unit-norm system has the one solution f / min(f)
    recon_ok = rank == big_n and rep.minimum == 1
    steps.append(CheckStep(
        f"{name}_perfect",
        recon_ok,
        f"rank {rank} of {big_n}; reconstruction unique: {recon_ok}",
    ))
    return rep.total_count


def verify_theorem2(n: int, include_isometry=None) -> TheoremReport:
    """Both perfect forms across the wall: positive definiteness, exact
    minima, complete minimal-vector sets, perfectness with reconstruction,
    side classification, and (by default up to n = 7) the identification
    of the neighbor with D_n."""
    if n < 5:
        raise ValueError("needs n >= 5")
    if include_isometry is None:
        include_isometry = n <= 7
    steps = []
    data = {}
    duals = big_simplex_dual_vectors(n)
    wall = tw_normal(n)

    tf = forms.tf_form(n)
    data["minimal_vector_count"] = _perfect_form_steps(
        steps,
        "tf",
        tf,
        canonical_set(duals + complementary_vectors(n, "TF")),
        n * (n + 3) if n % 2 == 0 else n * (n + 1),
    )
    dn = forms.dn_neighbor_form(n)
    _perfect_form_steps(
        steps, "dn", dn, canonical_set(duals + complementary_vectors(n, "Dn")), 2 * n * (n - 1)
    )

    shared_ok = all(classify_side(wall, u) == "on_wall" for u in duals)
    tf_extra_ok = all(
        classify_side(wall, u) == "tf_side" for u in complementary_vectors(n, "TF")
    )
    dn_extra_ok = all(
        classify_side(wall, u) == "dn_side" for u in complementary_vectors(n, "Dn")
    )
    steps.append(CheckStep(
        "side_classification",
        shared_ok and tf_extra_ok and dn_extra_ok,
        "shared on wall, extras strictly on opposite sides",
    ))

    if include_isometry:
        dn_fixture = forms.scale(forms.standard_gram("D", n), Fraction(1, 2))
        witness = isometry.are_equivalent(dn, dn_fixture)
        steps.append(CheckStep(
            "dn_identification",
            witness is not None,
            "unimodular witness to scaled D_n found" if witness else "no witness",
        ))
        if witness is not None:
            data["dn_witness"] = witness
        if n == 6:
            sim = isometry.are_similar(tf, forms.standard_gram("E6*"))
            ok = sim is not None and sim[0] == Fraction(3, 4)
            steps.append(CheckStep(
                "tf6_e6star", ok, f"similarity scale {sim[0] if sim else None}"
            ))
            if sim is not None:
                data["tf6_witness"] = sim

    return TheoremReport(n, all(s.ok for s in steps), tuple(steps), data)


# -- census of the 27-vertex cell ----------------------------------------------

@dataclass(frozen=True)
class GossetCensusReport:
    cell_vertices: tuple
    vertex_count: int
    volume_histogram: dict
    max_volume: int
    count_at_max: int

    @property
    def matches_expected(self):
        return self.vertex_count == 27 and self.max_volume == 3 and self.count_at_max == 216


# The centre of the 27-vertex cell of standard_gram("E6"): a deep hole at
# squared distance 4/3, E6's squared covering radius at minimum 2.  The
# closest vectors to a point lie on a sphere with no lattice point inside,
# so a set of them that spans affinely is a Delaunay cell.
_CENSUS_CENTER = (Fraction(1, 3), 0, Fraction(-1, 3), -1, Fraction(-2, 3), Fraction(-1, 3))


def _volume_histogram(points, orbits):
    """Histogram of |det| over all (d+1)-subsets of points in Z^d, walking
    only the subsets through one representative per orbit of k-subsets.

    The orbits partition the k-subsets of indices for one k, 1 <= k <= d+1
    (ValueError otherwise).  |det| of the d x d edge matrix of a subset
    equals |det| of its d+1 homogeneous points (v, 1) in Z^(d+1).  For each
    orbit O with representative R = O[0], the exterior product of R's k
    rows is built through a signed-term plan per level (its C(d+1, j) j x j
    minors extended by one row at a time: Laplace expansion along the new
    row), and a depth-first walk over the other points extends it to the
    subsets through R, carrying the exterior product of the chosen prefix.
    At depth d the minors are the cofactors of the last row, so each
    subset costs a (d+1)-term dot product.  A prefix whose minors all
    vanish has a zero exterior product, so all its completions (C(m - k,
    d + 1 - k) for R itself) are counted as volume 0.  Every member of O
    lies on as many subsets of each volume as R when the orbits come from
    volume-preserving maps of the points, so |O| times the counts of R,
    summed over the orbits, count every subset once per k-subset of its
    points: C(d + 1, k) times; a division that is not exact is an
    InvariantError.  Singleton orbits give the exact full count.
    """
    n = len(points[0]) + 1
    if len(points) < n:
        return {}
    arities = {len(subset) for orbit in orbits for subset in orbit}
    arity = arities.pop() if len(arities) == 1 else 0
    if not 1 <= arity <= n:
        raise ValueError(f"orbits must hold index subsets of one size between 1 and {n}")
    if sum(map(len, orbits)) != comb(len(points), arity):
        raise ValueError(f"orbits must partition the {arity}-subsets of the points")
    rows = [(*p, 1) for p in points]
    levels = [list(itertools.combinations(range(n), k)) for k in range(n + 1)]
    # plans[k] maps the k-minors of a prefix and a new row to its (k+1)-minors:
    # picks of the row's columns and of the signed k-minors (a minor's
    # negation sits len(levels[k]) places after it), summed k + 1 at a time.
    plans = []
    for k in range(n):
        where = {cols: i for i, cols in enumerate(levels[k])}
        size = len(levels[k])
        cols, minors = [], []
        for target in levels[k + 1]:
            for pos, col in enumerate(target):
                i = where[target[:pos] + target[pos + 1:]]
                cols.append(col)
                minors.append(i if (k - pos) % 2 == 0 else i + size)
        plans.append((itemgetter(*cols), itemgetter(*minors), k + 1))

    def signed_terms(k, minors):
        return plans[k][1]([*minors, *map(neg, minors)])

    def extend(k, terms, row):
        pick_cols, _, width = plans[k]
        products = list(map(mul, pick_cols(row), terms))
        return list(map(sum, zip(*[iter(products)] * width)))

    total = Counter()
    for orbit in orbits:
        rep = orbit[0]
        others = [row for i, row in enumerate(rows) if i not in rep]
        m = len(others)
        hist = Counter()

        def walk(start, k, minors):
            if k == n - 1:
                # the last plan has one target, all columns in order: cofactors
                cofactors = signed_terms(k, minors)
                hist.update(abs(sum(map(mul, cofactors, w))) for w in others[start:])
                return
            prefix = signed_terms(k, minors)
            for i in range(start, m - (n - 1 - k)):
                extended = extend(k, prefix, others[i])
                if any(extended):
                    walk(i + 1, k + 1, extended)
                else:
                    hist[0] += comb(m - i - 1, n - k - 1)

        minors = list(rows[rep[0]])
        for k, i in enumerate(rep[1:], 1):
            minors = extend(k, signed_terms(k, minors), rows[i])
        if not any(minors):
            hist[0] += comb(m, n - arity)
        elif arity == n:
            hist[abs(minors[0])] += 1
        else:
            walk(0, arity, minors)
        for volume, count in hist.items():
            total[volume] += len(orbit) * count
    histogram = {}
    per_subset = comb(n, arity)  # arity-subsets of one subset's points
    for volume, count in sorted(total.items()):
        histogram[volume], rest = divmod(count, per_subset)
        if rest:
            raise InvariantError(f"orbit-weighted count of volume {volume} is not a multiple of {per_subset}")
    return histogram


def gosset_census() -> GossetCensusReport:
    """Take the 27-vertex cell of the E6 fixture as the closest lattice
    vectors to its centre (see `_CENSUS_CENTER`) and count the relative
    volumes of all 7-point sub-simplexes (C(27,7) subsets), walking only
    the subsets through one unordered vertex triple per certified orbit of
    triples: the 45 tritangent triples and three orbits of 720, 1080 and
    1080, so 4 C(24,4) leaf subsets instead of C(27,7)."""
    e6 = forms.standard_gram("E6")
    _, cell = closest_vectors(e6, _CENSUS_CENTER)
    if linalg.affine_rank(cell) != e6.n:
        raise InvariantError("closest vectors to the census centre do not span a cell")
    orbits, _ = isometry._triple_orbits(e6, cell)
    hist = _volume_histogram(cell, orbits)
    nondegenerate = [v for v in hist if v > 0]
    max_vol = max(nondegenerate) if nondegenerate else 0
    return GossetCensusReport(cell, len(cell), hist, max_vol, hist.get(max_vol, 0))
