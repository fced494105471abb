"""Schur-algorithm interpolation and variability regions of analytic functions.

The package peels Carathéodory coefficient data into Schur parameters,
classifies the data against the coefficient body, builds the associated
polynomial quadruple, and computes the variability region of the weighted
primitive functional over all admissible maps into a convex target domain
— including its extremal boundary parametrization, a closed-form
cross-check for the bounded-derivative special case, and Monte-Carlo
membership verification.
"""

from .domains import DomainMap, disk, half_plane, parse_domain, strip
from .errors import (
    BranchCutHit,
    ContractViolation,
    DegenerateDenominator,
    GeometryDegenerate,
    QuadratureNonConvergence,
    SchurvarError,
)
from .polynomials import (
    SchurPolynomialSet,
    VariabilityDisk,
    build_polynomials,
    eval_poly,
    identity_residuals,
    lift,
    mobius,
    omega_nested,
    variability_disk,
)
from .quadrature import integrate_segment
from .regions import (
    Empty,
    Jordan,
    OracleSample,
    RegionRequest,
    RegionResult,
    SinglePoint,
    boundary_curve,
    containment_depths,
    contains,
    convex_hull,
    convexity_defect,
    distance_to_boundary,
    enclosed_area,
    hausdorff_distance,
    integrand,
    log_derivative_curve,
    log_derivative_setup,
    oracle_samples,
    q_value,
    region,
)
from .schur import (
    Boundary,
    CaratheodoryData,
    Exterior,
    ExteriorReason,
    Interior,
    SchurClassification,
    ToleranceConfig,
    data_from_parameters,
    schur_parameters,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "SchurvarError",
    "ContractViolation",
    "DegenerateDenominator",
    "QuadratureNonConvergence",
    "GeometryDegenerate",
    "BranchCutHit",
    # peeling
    "CaratheodoryData",
    "ToleranceConfig",
    "SchurClassification",
    "Interior",
    "Boundary",
    "Exterior",
    "ExteriorReason",
    "schur_parameters",
    "data_from_parameters",
    # polynomials
    "mobius",
    "SchurPolynomialSet",
    "VariabilityDisk",
    "build_polynomials",
    "eval_poly",
    "lift",
    "omega_nested",
    "variability_disk",
    "identity_residuals",
    # domains
    "DomainMap",
    "half_plane",
    "disk",
    "strip",
    "parse_domain",
    # quadrature
    "integrate_segment",
    # regions
    "RegionRequest",
    "RegionResult",
    "Empty",
    "SinglePoint",
    "Jordan",
    "OracleSample",
    "integrand",
    "q_value",
    "boundary_curve",
    "region",
    "log_derivative_curve",
    "log_derivative_setup",
    "oracle_samples",
    "contains",
    "containment_depths",
    "convexity_defect",
    "convex_hull",
    "distance_to_boundary",
    "hausdorff_distance",
    "enclosed_area",
]
