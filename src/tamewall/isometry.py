"""Integral (unimodular) equivalence of positive definite forms, and
automorphisms of a cell.

Backtracking over images of a reference basis of short vectors, pruned by
exact integer inner products.  Unimodular invariants refute first: the
determinant, the number of vectors at each norm up to the largest
reference norm, and whether those vectors span, all read off the two
vector lists that the search enumerates anyway.  The cost lies in those
enumerations and in the backtracking tree they feed, not in n as such.
The same backtracking over images of an affine basis among a cell's
vertices certifies the orbits of unordered vertex triples that the cell
census walks through.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import comb
from operator import mul

from . import kernels, linalg
from .enumeration import _diagonal_minimum, arithmetic_minimum, vectors_up_to
from .errors import InvariantError
from .forms import QuadraticForm, scale
from .vecset import sub


def _reference_basis(f: QuadraticForm):
    """n linearly independent vectors of lowest norms, greedily, with the
    vectors_up_to list they were drawn from: the candidates at the pivot
    columns of one echelon form of the list taken as columns, which are
    those that are independent of the candidates before them."""
    n = f.n
    bound = _diagonal_minimum(f)
    while True:
        candidates = vectors_up_to(f, bound)
        pivots = linalg._echelon(list(zip(*(v for v, _ in candidates))))[0]
        if len(pivots) == n:
            return [candidates[j][0] for j in pivots], candidates
        bound *= 2


def are_equivalent(a: QuadraticForm, b: QuadraticForm):
    """Unimodular U with U^T Gram(a) U = Gram(b) as integer rows, or None
    (definitive).

    Candidates for the image of each reference vector of b are the
    vectors of a with the same norm; partial maps are pruned on exact
    pairwise inner products.  Before the search, a different determinant,
    a different number of vectors at some norm up to the largest reference
    norm, or vectors of a up to that norm that do not span, refutes.  A
    full tuple is accepted only if the induced matrix is integral with
    determinant +-1, both checked in integers (then the Gram identity holds
    automatically and is checked); a negative answer means the finite
    compatible tree was exhausted.
    """
    if a.n != b.n:
        raise ValueError("dimension mismatch")
    if not (a.is_positive_definite and b.is_positive_definite):
        raise ValueError("both forms must be positive definite")
    if a == b:
        return tuple(tuple(int(i == j) for j in range(a.n)) for i in range(a.n))
    if a.determinant() != b.determinant():
        return None

    n = a.n
    basis, b_vectors = _reference_basis(b)
    b_inv = linalg.inverse(list(zip(*basis)))  # B: the basis as columns
    target = _congruence(basis, b.int_gram)  # b.den * B^T Gram(b) B

    # Equivalent forms have equal counts at every norm, and a's vectors up
    # to the norm the search needs span, as b's do.  Both lists are sorted
    # by value, so equal value sequences are equal counts.
    norm_needed = Fraction(max(target[i][i] for i in range(n)), b.den)
    a_vectors = vectors_up_to(a, norm_needed)
    if [val for _, val in a_vectors] != [val for _, val in b_vectors if val <= norm_needed]:
        return None
    if linalg.rank([v for v, _ in a_vectors]) < n:
        return None
    by_norm = {}
    for v, val in a_vectors:
        by_norm.setdefault(val, []).extend([v, tuple(-x for x in v)])
    for val in by_norm:
        by_norm[val].sort()

    # u.Gram(a).cand against the target, over the denominator a.den * b.den
    goal = [[a.den * x for x in row] for row in target]
    images = {}

    def fits(chosen, cand):
        g_cand = images.get(cand)
        if g_cand is None:
            g_cand = images[cand] = [b.den * sum(map(mul, row, cand)) for row in a.int_gram]
        level = len(chosen)
        return all(sum(map(mul, u, g_cand)) == goal[j][level] for j, u in enumerate(chosen))

    def accept(chosen):
        u = _integral_map(chosen, b_inv)
        if u is None or kernels.det_int(u) not in (1, -1):
            return None
        image = _congruence(list(zip(*u)), a.int_gram)
        if any(x * b.den != y * a.den for ra, rb in zip(image, b.int_gram) for x, y in zip(ra, rb)):
            raise InvariantError("unimodular witness fails the Gram identity")
        return u

    return _first_image([by_norm.get(Fraction(target[k][k], b.den), ()) for k in range(n)], fits, accept)


def _integral_map(columns, inverse):
    """U B^-1 as integer rows, for U given by its columns and B^-1 as the
    (rows, d) of linalg.inverse, or None when an entry is not an integer."""
    inv, d = inverse
    product = [[sum(map(mul, row, col)) for col in zip(*inv)] for row in zip(*columns)]
    if any(x % d for row in product for x in row):
        return None
    return tuple(tuple(x // d for x in row) for row in product)


def _congruence(columns, rows):
    """U^T R U in integers, for U given by its columns and R by its rows."""
    r_cols = [[sum(map(mul, row, col)) for row in rows] for col in columns]
    return tuple(tuple(sum(map(mul, u, rc)) for rc in r_cols) for u in columns)


def _first_image(candidates, fits, accept):
    """Depth-first search over images of a basis: image k runs through
    candidates[k] in order and must fit the images before it.  Returns the
    first non-None accept(images) of a complete tuple, or None once the
    compatible tree is exhausted."""
    images = []

    def extend(level):
        if level == len(candidates):
            return accept(images)
        for cand in candidates[level]:
            if fits(images, cand):
                images.append(cand)
                found = extend(level + 1)
                if found is not None:
                    return found
                images.pop()
        return None

    return extend(0)


def _triple_orbits(f: QuadraticForm, cell):
    """Orbits of the unordered triples of distinct vertices of a cell under
    certified automorphisms: (orbits, maps).

    An affine basis b_0 = cell[0], b_1..b_d of the vertices (the greedy
    one: the pivot columns of the edges b - b_0 as columns) is sent to
    vertices at the same pairwise f-distances.  A complete image u_0..u_d
    gives A = U.B^-1 (columns u_k - u_0 and b_k - b_0), accepted only if A
    is integral, A^T G A = G, and x -> A x + c with c = u_0 - A b_0 maps the
    vertex set onto itself.  Such a map is a lattice automorphism that
    preserves f and the cell, hence |det| of every sub-simplex.  One map
    (A, c) is sought for each vertex not yet in the orbit of vertex 0.  The
    vertex permutation of each accepted map joins, in one union-find, every
    vertex i with perm[i] and every triple x < y < z with the sorted image
    of (perm[x], perm[y], perm[z]); a triple's node is its rank
    x + C(y, 2) + C(z, 3) in the combinatorial number system.  Orbits are
    sorted lists of sorted triples, ordered by their smallest triple.  A
    cell that does not span affinely gets singletons.
    """
    points = [tuple(p) for p in cell]
    m, d = len(points), f.n
    index = {p: i for i, p in enumerate(points)}
    if len(index) != m:
        raise ValueError("cell vertices must be distinct")

    def norm(e):
        return sum(x * sum(map(mul, row, e)) for x, row in zip(e, f.int_gram))

    dist = [[norm(sub(p, q)) for q in points] for p in points]
    origin = points[0]
    candidates = [sub(p, origin) for p in points[1:]]
    pivots = linalg._echelon(list(zip(*candidates)))[0]
    if len(pivots) < d:
        return [[t] for t in combinations(range(m), 3)], []
    basis = [0] + [j + 1 for j in pivots]
    b_inv = linalg.inverse(list(zip(*(candidates[j] for j in pivots))))

    def fits(images, cand):
        k = len(images)
        return all(dist[cand][images[j]] == dist[basis[k]][basis[j]] for j in range(k))

    def accept(images):
        a = _integral_map([sub(points[i], points[images[0]]) for i in images[1:]], b_inv)
        if a is None:
            return None
        if _congruence(list(zip(*a)), f.int_gram) != f.int_gram:
            return None
        c = sub(points[images[0]], [sum(map(mul, row, origin)) for row in a])
        perm = [index.get(tuple(sum(map(mul, row, p)) + s for row, s in zip(a, c))) for p in points]
        if None in perm:
            return None
        return a, c, perm

    # vertex i is node i, the triple x < y < z is node m + x + C(y, 2) + C(z, 3)
    pair_rank = [comb(b, 2) for b in range(m)]
    triple_rank = [m + comb(c, 3) for c in range(m)]
    parent = list(range(m + comb(m, 3)))

    def root(i):
        while parent[i] != i:
            parent[i] = i = parent[parent[i]]
        return i

    maps = []
    for t in range(1, m):
        if root(t) == root(0):
            continue
        found = _first_image([[t]] + [range(m)] * d, fits, accept)
        if found is not None:
            a, c, perm = found
            maps.append((a, c))
            for i, j in enumerate(perm):
                parent[root(i)] = root(j)
            node = m  # the triples in colex order, rank by rank
            for z in range(m):
                for y in range(z):
                    lo, hi = sorted((perm[y], perm[z]))
                    for x in range(y):
                        # the rank of the sorted image, with perm[x] put in place
                        p = perm[x]
                        if p < lo:
                            image = p + pair_rank[lo] + triple_rank[hi]
                        elif p < hi:
                            image = lo + pair_rank[p] + triple_rank[hi]
                        else:
                            image = lo + pair_rank[hi] + triple_rank[p]
                        parent[root(node)] = root(image)
                        node += 1
    orbits = {}
    for x, y, z in combinations(range(m), 3):
        orbits.setdefault(root(x + pair_rank[y] + triple_rank[z]), []).append((x, y, z))
    return list(orbits.values()), maps


def are_similar(a: QuadraticForm, b: QuadraticForm):
    """Equivalence up to positive scale: (scale c, witness U) or None.

    Tries c = min(a)/min(b), the only scale that can match minima.
    """
    rep_a = arithmetic_minimum(a)
    rep_b = arithmetic_minimum(b)
    c = rep_a.minimum / rep_b.minimum
    witness = are_equivalent(a, scale(b, c))
    if witness is None:
        return None
    return c, witness
