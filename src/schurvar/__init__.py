"""Schur-algorithm interpolation and variability regions of analytic functions.

The package peels Carathéodory coefficient data into Schur parameters,
classifies the data against the coefficient body, builds the associated
polynomial quadruple, and computes the variability region of the weighted
primitive functional over all admissible maps into a convex target domain
— including its extremal boundary parametrization and Monte-Carlo
membership verification.

``import schurvar`` does not import numpy.  The peeling and the errors
are pure Python and bound here; the names of ``polynomials``, ``domains``
and ``regions``, and the numeric submodules themselves, are imported on
first use (PEP 562).
"""

from importlib import import_module

from .errors import (
    ContractViolation,
    DegenerateDenominator,
    GeometryDegenerate,
    QuadratureNonConvergence,
    SchurvarError,
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

#: The module that holds each public name not bound above.  A resolved name
#: is not kept here: the benchmark's tracer swaps module attributes, and a
#: name first resolved while one is swapped would keep the swapped object.
_HOME = {
    "SchurPolynomialSet": "polynomials",
    "build_polynomials": "polynomials",
    "identity_residuals": "polynomials",
    "DomainMap": "domains",
    "half_plane": "domains",
    "disk": "domains",
    "strip": "domains",
    "parse_domain": "domains",
    "RegionRequest": "regions",
    "RegionResult": "regions",
    "Empty": "regions",
    "SinglePoint": "regions",
    "Jordan": "regions",
    "OracleSample": "regions",
    "region": "regions",
    "oracle_samples": "regions",
    "contains": "regions",
    "containment_depths": "regions",
}
_SUBMODULES = ("domains", "polynomials", "quadrature", "regions")

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
    # polynomials, domains and regions
    *_HOME,
]


def __getattr__(name: str):
    home = _HOME.get(name)
    if home is not None:
        # the import system binds a submodule here once it is imported
        return getattr(globals().get(home) or import_module(f"{__name__}.{home}"), name)
    if name in _SUBMODULES:
        return import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_SUBMODULES})
