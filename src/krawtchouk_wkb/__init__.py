"""Krawtchouk polynomials: exact rational evaluation and WKB-style
asymptotic approximations over twelve matched regions, with tooling to
quantify approximation error against the exact values.
"""

from .exact_core import (
    DomainError,
    ExactRow,
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
    StripCoeffs,
    classify,
    classify_row,
    region_runs,
    u0,
    u_pm,
    y_pm,
)
from .region_formulas import ApproxValue, approx, approx_row, evaluate_region
from .wkb_core import k_pm_log, phi0

__version__ = "0.1.0"

__all__ = [
    "DomainError",
    "ExactRow",
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
    "classify",
    "classify_row",
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
    "k_pm_log",
    "phi0",
    "__version__",
]
