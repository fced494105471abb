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
from .polynomials import SchurPolynomialSet, build_polynomials, identity_residuals
from .regions import (
    Empty,
    Jordan,
    OracleSample,
    RegionRequest,
    RegionResult,
    SinglePoint,
    containment_depths,
    contains,
    oracle_samples,
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

# Each module's ``__all__`` lists exactly the names re-exported here.  The
# kernels behind them stay importable from their modules and check nothing
# that RegionRequest, ToleranceConfig and CaratheodoryData guarantee.
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
    "SchurPolynomialSet",
    "build_polynomials",
    "identity_residuals",
    # domains
    "DomainMap",
    "half_plane",
    "disk",
    "strip",
    "parse_domain",
    # regions
    "RegionRequest",
    "RegionResult",
    "Empty",
    "SinglePoint",
    "Jordan",
    "OracleSample",
    "region",
    "oracle_samples",
    "contains",
    "containment_depths",
]
