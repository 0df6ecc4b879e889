"""quadpreim: rational pre-image trees, pre-image curves and surfaces, and
height-bounded arrangement searches for the quadratic family f_c(x) = x^2 + c.
"""

from .dynamics import (
    CriticalData,
    PreimageTree,
    critical_avalues,
    critical_poly,
    iterate,
    preimage_tree,
)
from .elliptic import (
    ECPoint,
    INFINITY,
    TorsionGroup,
    TorsionKind,
    WeierstrassCurve,
    curve_244,
    point_order,
    specialize_e222,
    specialize_e24,
    torsion_family_a,
    torsion_subgroup,
)
from .exactmath import (
    NFElem,
    QPoly,
    Rat,
    eliminate_c,
    format_rat,
    int_sqrt,
    parse_rat,
    rat_sqrt,
)
from .models import (
    QuadricModel,
    arrangement_curve,
    genus_closed,
    genus_hilbert,
    genus_with_delta,
    ideal_j,
    infinity_points,
    jacobian_minors,
    plane_genus_with_delta,
)
from .search import (
    SearchConfig,
    SearchRecord,
    scan_forward,
    scan_thirdpair,
    verify_pair,
)

__version__ = "0.1.0"

__all__ = [
    "CriticalData", "ECPoint", "INFINITY", "NFElem", "PreimageTree", "QPoly",
    "QuadricModel", "Rat", "SearchConfig", "SearchRecord", "TorsionGroup",
    "TorsionKind", "WeierstrassCurve", "arrangement_curve",
    "critical_avalues", "critical_poly", "curve_244", "eliminate_c",
    "format_rat", "genus_closed", "genus_hilbert", "genus_with_delta",
    "ideal_j", "infinity_points", "int_sqrt", "iterate", "jacobian_minors",
    "parse_rat", "plane_genus_with_delta", "point_order", "preimage_tree",
    "rat_sqrt", "scan_forward", "scan_thirdpair", "specialize_e222",
    "specialize_e24", "torsion_family_a", "torsion_subgroup", "verify_pair",
]
