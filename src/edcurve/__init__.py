"""Exact toolkit for critical-point counts (ED degrees) of curve multiview varieties.

Layers, bottom up:

* :mod:`edcurve.exactnum` — rational polynomial arithmetic, stored as integer
  numerators over one denominator: gcd, squarefree parts, resultants,
  discriminants, binary forms, Sturm real-root isolation.
* :mod:`edcurve.multidegree` — the truncated multigraded ring recording
  multidegrees of subvarieties of products of projective spaces.
* :mod:`edcurve.scene` — parameterized rational curves, cameras,
  arrangements, and the exact genericity certificate.
* :mod:`edcurve.grassmann` — Pluecker lines, wedge cameras, the conic of
  lines meeting three skew lines, and Bezier scrolls.
* :mod:`edcurve.eddeg` — the critical polynomial, ED degrees of affine
  multiview curves, the reseeding runner for one (e, n, h) cell, the
  Euler-characteristic cross-check, projective smooth-curve counts, and
  certified triangulation.
* :mod:`edcurve.cli` — seeded, reproducible command-line drivers.
"""

from .exactnum import (
    HomPoly2,
    IsolatingInterval,
    Rat,
    UniPoly,
    distinct_root_count,
    hom_discriminant,
    hom_distinct_root_count,
    hom_gcd,
    hom_resultant,
    poly_gcd,
    rat_from_str,
    rat_to_str,
    refine_root,
    squarefree_part,
    sturm_isolate,
)
from .multidegree import (
    MultiDeg,
    curve_multidegree,
    isotropic_hypersurface_multidegree,
    md_mul,
    md_top_coefficient,
    point_multiview_multidegree,
)
from .scene import (
    Arrangement,
    Camera,
    GenericityCertificate,
    RationalCurve,
    Scene,
    apply_camera,
    arrangement_from_dict,
    arrangement_to_dict,
    camera_from_dict,
    camera_to_dict,
    curve_from_dict,
    curve_to_dict,
    genericity_certificate,
    random_camera,
    random_camera_block_pairs,
    random_camera_degree_drop,
    random_curve,
    rational_normal_curve,
)
from .grassmann import (
    BezierCurve,
    PlueckerLine,
    WedgeCamera,
    bezier_scroll,
    l3_curve,
    l3_meet_form,
    pluecker_from_span,
    segre_quadric_eval,
    three_skew_lines,
    wedge_camera,
)
from .eddeg import (
    CellExhaustedError,
    CellOutcome,
    CuspError,
    DataInstabilityError,
    DataPoint,
    EDReport,
    NonGenericBetaError,
    TriangulationResult,
    count_cell,
    critical_polynomial,
    ed_degree_affine,
    euler_cross_check,
    projective_ed_degree_smooth_curve,
    random_data_point,
    triangulate,
)

__all__ = [
    "Arrangement",
    "BezierCurve",
    "Camera",
    "CellExhaustedError",
    "CellOutcome",
    "CuspError",
    "DataInstabilityError",
    "DataPoint",
    "EDReport",
    "GenericityCertificate",
    "HomPoly2",
    "IsolatingInterval",
    "MultiDeg",
    "NonGenericBetaError",
    "PlueckerLine",
    "Rat",
    "RationalCurve",
    "Scene",
    "TriangulationResult",
    "UniPoly",
    "WedgeCamera",
    "apply_camera",
    "arrangement_from_dict",
    "arrangement_to_dict",
    "bezier_scroll",
    "camera_from_dict",
    "camera_to_dict",
    "count_cell",
    "critical_polynomial",
    "curve_from_dict",
    "curve_multidegree",
    "curve_to_dict",
    "distinct_root_count",
    "ed_degree_affine",
    "euler_cross_check",
    "genericity_certificate",
    "hom_discriminant",
    "hom_distinct_root_count",
    "hom_gcd",
    "hom_resultant",
    "isotropic_hypersurface_multidegree",
    "l3_curve",
    "l3_meet_form",
    "md_mul",
    "md_top_coefficient",
    "pluecker_from_span",
    "point_multiview_multidegree",
    "poly_gcd",
    "projective_ed_degree_smooth_curve",
    "random_camera",
    "random_camera_block_pairs",
    "random_camera_degree_drop",
    "random_curve",
    "random_data_point",
    "rat_from_str",
    "rat_to_str",
    "rational_normal_curve",
    "refine_root",
    "segre_quadric_eval",
    "squarefree_part",
    "sturm_isolate",
    "three_skew_lines",
    "triangulate",
    "wedge_camera",
]

__version__ = "1.0.0"
