"""Exception types shared across the package."""

__all__ = [
    "SchurvarError",
    "ContractViolation",
    "DegenerateDenominator",
    "QuadratureNonConvergence",
    "GeometryDegenerate",
]


class SchurvarError(Exception):
    """Base class for every failure raised by this package."""


class ContractViolation(SchurvarError):
    """An argument violated a documented precondition."""


class DegenerateDenominator(SchurvarError):
    """A rational evaluation hit a (numerically) vanishing denominator."""


class QuadratureNonConvergence(SchurvarError):
    """Adaptive quadrature exhausted its bisection budget before converging."""


class GeometryDegenerate(SchurvarError):
    """A sampled boundary polygon failed a basic geometric sanity check."""
