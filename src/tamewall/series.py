"""The object factory and end-to-end verification pipelines.

Builds the big-simplex series and its repartitioning complexes, derives
the wall normal in form space from the exact nullspace of the dual-system
images, classifies sides, parses the bracket shorthand for vector
families, and bundles the full theorem verifications plus the 27-vertex
cell census.
"""

from __future__ import annotations

import itertools
import re
import warnings
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb, gcd, lcm
from operator import itemgetter, mul, neg

from . import delaunay, dual01, forms, isometry, linalg
from .enumeration import arithmetic_minimum
from .forms import QuadraticForm, big_simplex_dual_vectors, pairing, value_row
from .linalg import RationalMatrix
from .perfect import perfection_report
from .vecset import canonical_set, canonical_sign_set


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


# -- wall normal --------------------------------------------------------------

@dataclass(frozen=True)
class WallDescriptor:
    """Primitive integer symmetric normal of the wall in form space.

    Frobenius convention: pairing(normal, v v^T) is the value of the
    normal at v.  Sign fixed so the complementary vectors of the
    big-simplex side pair positively.  printed_formula_report compares
    the derived normal against the closed formula printed alongside the
    construction, which fails to annihilate the dual system (documented
    discrepancy).
    """

    n: int
    normal: RationalMatrix
    printed_formula_report: dict = field(compare=False)


def _printed_wall_formula(n: int) -> RationalMatrix:
    rows = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n - 1):
        rows[i][n - 1] = rows[n - 1][i] = Fraction(n - 2, 2 * (n - 4))
        for j in range(n - 1):
            if i != j:
                rows[i][j] = Fraction(1)
    rows[n - 1][n - 1] = Fraction(n**3 - 9 * n * n + 24 * n - 19, 2 * (n - 4))
    return RationalMatrix(rows)


def tw_normal(n: int) -> WallDescriptor:
    """Derive the wall normal from the exact nullspace of the dual images."""
    if n < 5:
        raise ValueError("needs n >= 5")
    duals = big_simplex_dual_vectors(n)
    rows = [value_row(u) for u in duals]
    kernel = linalg.nullspace(RationalMatrix(rows))
    if len(kernel) != 1:
        raise ArithmeticError(
            f"dual images span codimension {len(kernel)}, expected exactly 1"
        )
    mult = lcm(*(x.denominator for x in kernel[0]))
    coords = [int(x * mult) for x in kernel[0]]
    g = gcd(*(abs(x) for x in coords))
    coords = [x // g for x in coords]
    normal = forms.coords_to_sym(coords, n)
    anchor = tuple([n // 2 - 1] * (n - 1) + [n // 2])  # big-simplex-side vector
    val = QuadraticForm(normal).evaluate(anchor)
    if val == 0:
        raise ArithmeticError("normal orientation anchor lies on the wall")
    if val < 0:
        normal = normal.scaled(-1)

    printed = _printed_wall_formula(n)
    as_quadratic = [QuadraticForm(printed).evaluate(u) for u in duals]
    upper_once = [
        sum(printed[i, j] * u[i] * u[j] for i in range(n) for j in range(i, n))
        for u in duals
    ]
    report = dict(
        printed=printed,
        annihilates_as_quadratic=all(x == 0 for x in as_quadratic),
        annihilates_upper_once=all(x == 0 for x in upper_once),
        max_abs_quadratic=max(abs(x) for x in as_quadratic),
        max_abs_upper_once=max(abs(x) for x in upper_once),
    )
    return WallDescriptor(n, normal, report)


def classify_side(wall: WallDescriptor, x) -> str:
    """Sign of the Frobenius pairing with the wall normal.

    Integer vectors are classified through their rank-1 image; forms
    through their Gram matrix.
    """
    if isinstance(x, QuadraticForm):
        val = pairing(wall.normal, x.gram)
    elif isinstance(x, RationalMatrix):
        val = pairing(wall.normal, x)
    else:
        val = QuadraticForm(wall.normal).evaluate(x)
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
    source: str
    n: int
    segments: tuple  # tuple of entry multisets (tuples)
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


def parse_family(pattern: str, n: int, enforce_count: bool = True) -> FamilyPattern:
    """Expand the bracket shorthand for a family of integer n-vectors.

    m^k repeats entry m in k consecutive positions (k may involve the
    symbol n, e.g. 1^{n-3}); semicolons delimit segments and every
    distinct permutation is taken inside each segment independently; a
    trailing ^count annotation, when present, is validated against the
    expansion (FamilyCountError on mismatch unless enforce_count=False).
    """
    src = pattern.strip()
    m = re.fullmatch(r"\[([^\[\]]*)\](?:\^(\{.*\}|\S+))?", src)
    if not m:
        raise FamilyParseError(f"pattern must look like [entries](^count): {pattern!r}")
    body, count_src = m.group(1), m.group(2)
    declared = None
    if count_src is not None:
        inner = count_src[1:-1] if count_src.startswith("{") else count_src
        declared = _eval_count(inner, n)

    segments = []
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
            entries.extend([value] * rep)
        segments.append(tuple(entries))

    total_len = sum(len(s) for s in segments)
    if total_len != n:
        raise FamilyParseError(
            f"entries expand to length {total_len}, expected the dimension {n}"
        )
    vectors = set()
    per_segment = [_distinct_permutations(seg) for seg in segments]
    for combo in itertools.product(*per_segment):
        vectors.add(tuple(x for part in combo for x in part))
    vectors = tuple(sorted(vectors))
    if declared is not None and enforce_count and declared != len(vectors):
        raise FamilyCountError(declared, len(vectors), vectors)
    return FamilyPattern(src, n, tuple(segments), vectors, declared)


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


def verify_theorem1(n: int, allow_large=False) -> TheoremReport:
    """Dual system, double dual, codimension, wall form, repartitioning
    cell, and the perturbed form with the big simplex as a Delaunay cell."""
    if n < 5:
        raise ValueError("needs n >= 5")
    steps = []
    data = {}
    s_n = s_n_vertices(n)
    r_n = r_n_vertices(n)

    dual = dual01.dual01(s_n)
    families = canonical_set(big_simplex_dual_vectors(n) + (tuple([0] * n),))
    nonzero = [u for u in dual if any(u)]
    ok = dual == families and len(nonzero) == _dual_count(n)
    steps.append(CheckStep(
        "dual_families",
        ok,
        f"|dual\\0| = {len(nonzero)}, expected {_dual_count(n)}",
    ))

    dd = dual01.dual01(dual)
    ok = dd == r_n
    steps.append(CheckStep("double_dual", ok, "double dual adds exactly e_n"))

    rk = dual01.image_rank(dual)
    big_n = forms.sym_dimension(n)
    steps.append(CheckStep(
        "codimension_one", rk == big_n - 1, f"rank {rk} of N = {big_n}"
    ))

    wall_form = forms.wall_interior_form(n)
    steps.append(CheckStep("wall_form_pd", wall_form.is_positive_definite, "LDL pivots positive"))

    cert = delaunay.is_delaunay_cell(wall_form, r_n, allow_large=allow_large)
    steps.append(CheckStep(
        "repartition_cell", cert.verdict, f"complex has {len(r_n)} boundary points"
    ))
    data["wall_cell"] = cert

    wall = tw_normal(n)
    eps = Fraction(1, 4)
    perturbed_ok = False
    detail = "no admissible perturbation size found"
    for _ in range(20):
        g = QuadraticForm(wall_form.gram + wall.normal.scaled(eps))
        if linalg.is_positive_definite(g.gram):
            cert2 = delaunay.is_delaunay_cell(g, s_n, allow_large=allow_large)
            if cert2.verdict and len(cert2.vertices) == n + 1:
                vol = delaunay.relative_volume(s_n)
                perturbed_ok = vol == n - 3
                detail = f"epsilon {eps}, simplex volume {vol}"
                data["perturbed_cert"] = cert2
                data["epsilon"] = eps
                break
        eps /= 2
    steps.append(CheckStep("big_simplex_on_positive_side", perturbed_ok, detail))

    return TheoremReport(n, all(s.ok for s in steps), tuple(steps), data)


def verify_theorem2(n: int, include_isometry=None, allow_large=False) -> TheoremReport:
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
    steps.append(CheckStep("tf_pd", tf.is_positive_definite, "LDL pivots positive"))
    rep = arithmetic_minimum(tf, allow_large=allow_large)
    expected_2s = n * (n + 3) if n % 2 == 0 else n * (n + 1)
    expected_vecs = canonical_set(duals + complementary_vectors(n, "TF"))
    data["minimal_vector_count"] = rep.total_count
    steps.append(CheckStep(
        "tf_minimum", rep.minimum == 1, f"minimum {rep.minimum}"
    ))
    steps.append(CheckStep(
        "tf_minimal_vectors",
        rep.vectors == expected_vecs and rep.total_count == expected_2s,
        f"2s = {rep.total_count}, expected {expected_2s}",
    ))
    perf = perfection_report(tf, allow_large=allow_large)
    recon = forms.solve_form_from_unit_norms(rep.vectors, 1)
    recon_ok = recon.is_unique and forms.form_from_solution(recon, n) == tf
    steps.append(CheckStep(
        "tf_perfect",
        perf.is_perfect and recon_ok,
        f"rank {perf.rank} of {perf.sym_dim}; reconstruction unique: {recon_ok}",
    ))

    dn = forms.dn_neighbor_form(n)
    steps.append(CheckStep("dn_pd", dn.is_positive_definite, "LDL pivots positive"))
    rep_dn = arithmetic_minimum(dn, allow_large=allow_large)
    expected_dn = canonical_set(duals + complementary_vectors(n, "Dn"))
    steps.append(CheckStep(
        "dn_minimum", rep_dn.minimum == 1, f"minimum {rep_dn.minimum}"
    ))
    steps.append(CheckStep(
        "dn_minimal_vectors",
        rep_dn.vectors == expected_dn and rep_dn.total_count == 2 * n * (n - 1),
        f"2s = {rep_dn.total_count}, expected {2 * n * (n - 1)}",
    ))
    perf_dn = perfection_report(dn, allow_large=allow_large)
    recon_dn = forms.solve_form_from_unit_norms(rep_dn.vectors, 1)
    recon_dn_ok = recon_dn.is_unique and forms.form_from_solution(recon_dn, n) == dn
    steps.append(CheckStep(
        "dn_perfect",
        perf_dn.is_perfect and recon_dn_ok,
        f"rank {perf_dn.rank} of {perf_dn.sym_dim}; reconstruction unique: {recon_dn_ok}",
    ))

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
        witness = isometry.are_equivalent(dn, dn_fixture, allow_large=allow_large)
        steps.append(CheckStep(
            "dn_identification",
            witness is not None,
            "unimodular witness to scaled D_n found" if witness else "no witness",
        ))
        if witness is not None:
            data["dn_witness"] = witness
        if n == 6:
            sim = isometry.are_similar(tf, forms.standard_gram("E6*"), allow_large=allow_large)
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


_CENSUS_POINT = (
    Fraction(1, 23),
    Fraction(1, 29),
    Fraction(1, 31),
    Fraction(1, 37),
    Fraction(1, 41),
    Fraction(1, 43),
)


def _volume_histogram(points):
    """Histogram of |det| over all (d+1)-subsets of points in Z^d.

    |det| of the d x d edge matrix of a subset equals |det| of its d+1
    homogeneous points (v, 1) in Z^(d+1).  A depth-first walk over the
    subsets carries the exterior product of the chosen prefix: its
    C(d+1, k) k x k minors, extended by one point per level through a
    signed-term plan (Laplace expansion along the new row).  At depth d
    the minors are the cofactors of the last row, so each subset costs a
    (d+1)-term dot product.  A prefix whose minors all vanish has a zero
    exterior product, so its whole subtree is counted as volume 0.
    """
    n = len(points[0]) + 1
    rows = [(*p, 1) for p in points]
    m = len(rows)
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
    hist = Counter()

    def walk(start, k, minors):
        signed = [*minors, *map(neg, minors)]
        if k == n - 1:
            # the last plan has one target, all columns in order: cofactors
            cofactors = plans[k][1](signed)
            hist.update(abs(sum(map(mul, cofactors, w))) for w in rows[start:])
            return
        pick_cols, pick_minors, width = plans[k]
        terms = pick_minors(signed)
        for i in range(start, m - (n - 1 - k)):
            products = list(map(mul, pick_cols(rows[i]), terms))
            extended = list(map(sum, zip(*[iter(products)] * width)))
            if any(extended):
                walk(i + 1, k + 1, extended)
            else:
                hist[0] += comb(m - i - 1, n - k - 1)

    walk(0, 0, [1])
    return dict(sorted(hist.items()))


def gosset_census(point=None, allow_large=False) -> GossetCensusReport:
    """Locate the 27-vertex cell of the E6 fixture and enumerate the
    relative volumes of all 7-point sub-simplexes (C(27,7) subsets)."""
    e6 = forms.standard_gram("E6")
    t = tuple(point) if point is not None else _CENSUS_POINT
    cell = delaunay.delaunay_cell_containing(e6, t, allow_large=allow_large)
    hist = _volume_histogram(cell)
    nondegenerate = [v for v in hist if v > 0]
    max_vol = max(nondegenerate) if nondegenerate else 0
    return GossetCensusReport(cell, len(cell), hist, max_vol, hist.get(max_vol, 0))
