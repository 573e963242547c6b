"""Krawtchouk polynomials: exact rational evaluation and WKB-style
asymptotic approximations over twelve matched regions, with tooling to
quantify approximation error against the exact values.
"""

from .exact_core import (
    DomainError,
    ExactTable,
    Params,
    SingularityError,
    build_table,
    gram_matrix,
    krawtchouk_sum,
    lemma3_value,
    symmetry_image,
)
from .state_space import (
    DEFAULT_CONFIG,
    REGION_TAGS,
    ClassifierConfig,
    RegionId,
    Row,
    ScaledPoint,
    StripCoeffs,
    classify,
    classify_row,
    ellipse_residual,
    region_runs,
    u0,
    u_pm,
    y_pm,
)
from .region_formulas import ApproxValue, approx, approx_row, evaluate_region
from .wkb_core import k_pm, k_pm_log, l_pm, phi0, psi_pm

__version__ = "0.1.0"

__all__ = [
    "DomainError",
    "ExactTable",
    "Params",
    "build_table",
    "krawtchouk_sum",
    "lemma3_value",
    "gram_matrix",
    "symmetry_image",
    "DEFAULT_CONFIG",
    "REGION_TAGS",
    "ClassifierConfig",
    "RegionId",
    "Row",
    "ScaledPoint",
    "classify",
    "classify_row",
    "ellipse_residual",
    "region_runs",
    "u0",
    "u_pm",
    "y_pm",
    "ApproxValue",
    "approx",
    "approx_row",
    "evaluate_region",
    "SingularityError",
    "StripCoeffs",
    "k_pm",
    "k_pm_log",
    "l_pm",
    "phi0",
    "psi_pm",
    "__version__",
]
