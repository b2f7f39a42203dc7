"""Exact-arithmetic toolkit for big lattice Delaunay simplexes,
repartitioning complexes, tame perfect-domain walls, and the perfect
forms adjacent to the D_n domain.
"""

from .delaunay import (
    DelaunayCertificate,
    InhomogeneousQuadratic,
    NonGenericPointError,
    circumscribed_quadric,
    delaunay_cell_containing,
    find_level_vector,
    is_delaunay_cell,
    perturbation_check,
    radon_triangulations,
    relative_volume,
)
from .dual01 import (
    DualInfiniteError,
    double_dual01,
)
from .enumeration import (
    EllipsoidPointReport,
    MinimumReport,
    arithmetic_minimum,
    closest_vectors,
    lattice_points_in_ellipsoid,
    vectors_up_to,
)
from .forms import (
    QuadraticForm,
    dn_neighbor_form,
    dual_form,
    format_form,
    pairing,
    parse_form,
    scale,
    solve_form_from_unit_norms,
    standard_gram,
    tf_form,
    wall_interior_form,
)
from .isometry import are_equivalent, are_similar
from .linalg import (
    LinearSystemSolution,
    nullspace,
    rank,
    solve,
)
from .lp import LPResult, lp_solve
from .perfect import PerfectionReport, is_eutactic, is_extreme, perfection_report
from .series import (
    FamilyCountError,
    FamilyPattern,
    WallDescriptor,
    classify_side,
    complementary_vectors,
    gosset_census,
    parse_family,
    r_n_vertices,
    s_n_vertices,
    tw_normal,
    verify_theorem1,
    verify_theorem2,
)

__version__ = "0.1.0"

__all__ = [
    "DelaunayCertificate",
    "DualInfiniteError",
    "EllipsoidPointReport",
    "FamilyCountError",
    "FamilyPattern",
    "InhomogeneousQuadratic",
    "LPResult",
    "LinearSystemSolution",
    "MinimumReport",
    "NonGenericPointError",
    "PerfectionReport",
    "QuadraticForm",
    "WallDescriptor",
    "are_equivalent",
    "are_similar",
    "arithmetic_minimum",
    "circumscribed_quadric",
    "classify_side",
    "closest_vectors",
    "complementary_vectors",
    "delaunay_cell_containing",
    "dn_neighbor_form",
    "double_dual01",
    "dual_form",
    "find_level_vector",
    "format_form",
    "gosset_census",
    "is_delaunay_cell",
    "is_eutactic",
    "is_extreme",
    "lattice_points_in_ellipsoid",
    "lp_solve",
    "nullspace",
    "pairing",
    "parse_family",
    "parse_form",
    "perfection_report",
    "perturbation_check",
    "r_n_vertices",
    "radon_triangulations",
    "rank",
    "relative_volume",
    "s_n_vertices",
    "scale",
    "solve",
    "solve_form_from_unit_norms",
    "standard_gram",
    "tf_form",
    "tw_normal",
    "vectors_up_to",
    "verify_theorem1",
    "verify_theorem2",
    "wall_interior_form",
]
