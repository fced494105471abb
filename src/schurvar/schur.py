"""Coefficient peeling for Caratheodory interpolation data.

An analytic self-map ``omega`` of the closed unit disk with
``omega(0) = c_0`` factors as ``omega = sigma_{c_0}(z * omega_1)`` where
``sigma_a(z) = (z + a) / (1 + conj(a) z)`` is the disk automorphism moving
0 to ``a`` and ``omega_1`` is again a self-map of the disk.  Peeling one
prescribed Taylor coefficient per step turns a coefficient vector
``c = (c_0, ..., c_n)`` into its parameter sequence
``gamma = (gamma_0, ..., gamma_k)`` and classifies ``c`` against the body
of coefficient vectors attainable by such maps:

* every ``|gamma_p| < 1``       -- interior data, a full disk of interpolants;
* ``|gamma_i| = 1`` and the rest of the current vector zero
                                 -- a unique interpolant (a finite Blaschke
                                    product determined by the prefix);
* anything else                  -- no interpolant exists.

In coefficient space the peeling step is the recursion

    c^(j+1)_0 = c^(j)_1 / (1 - |gamma_j|^2)
    c^(j+1)_p = (c^(j)_{p+1}
                 + conj(gamma_j) * sum_{l=1..p} c^(j+1)_{p-l} c^(j)_l)
                / (1 - |gamma_j|^2)            for 1 <= p <= n - j - 1

with ``gamma_j = c^(j)_0``.  Note the convolution mixes entries of the new
vector with entries of the old one, so it must be evaluated in increasing
``p``.  All functions here are pure and safe for concurrent use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterator, Sequence

import numpy as np

from .errors import ContractViolation, DegenerateDenominator

__all__ = [
    "CaratheodoryData",
    "ToleranceConfig",
    "Interior",
    "Boundary",
    "Exterior",
    "ExteriorReason",
    "SchurClassification",
    "mobius",
    "schur_step",
    "schur_parameters",
    "data_from_parameters",
]

#: Denominators smaller than this are treated as exact zeros.
_DENOM_FLOOR = 1e-300


def _as_finite_complex(value, what: str) -> complex:
    w = complex(value)
    if not (math.isfinite(w.real) and math.isfinite(w.imag)):
        raise ContractViolation(f"{what} must be finite, got {w!r}")
    return w


@dataclass(frozen=True)
class CaratheodoryData:
    """Prospective initial Taylor coefficients ``(c_0, ..., c_n)``.

    At least one entry; every entry finite.  ``order`` is ``n``.
    """

    coeffs: tuple[complex, ...]

    def __post_init__(self) -> None:
        coeffs = tuple(
            _as_finite_complex(c, "coefficient") for c in self.coeffs
        )
        if not coeffs:
            raise ContractViolation("coefficient vector must be non-empty")
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def __len__(self) -> int:
        return len(self.coeffs)

    def __iter__(self) -> Iterator[complex]:
        return iter(self.coeffs)

    def __getitem__(self, index):
        return self.coeffs[index]


@dataclass(frozen=True)
class ToleranceConfig:
    """Numerical tolerances used across the package.

    cls_tol   half-width of the band around modulus 1 inside which a
              parameter counts as unimodular (and below which a trailing
              coefficient counts as zero) during classification;
    quad_tol  absolute error target for contour quadrature;
    geom_tol  slack for polygon containment / convexity checks.
    """

    cls_tol: float = 1e-12
    quad_tol: float = 1e-10
    geom_tol: float = 1e-6

    def __post_init__(self) -> None:
        if not (0.0 < self.cls_tol < 1.0):
            raise ContractViolation("cls_tol must lie in (0, 1)")
        if not (0.0 < self.quad_tol < math.inf and 0.0 < self.geom_tol < math.inf):
            raise ContractViolation("quad_tol and geom_tol must be positive and finite")


class ExteriorReason(Enum):
    MODULUS_EXCEEDS_ONE = "modulus_exceeds_one"
    UNIMODULAR_WITH_NONZERO_TAIL = "unimodular_with_nonzero_tail"


@dataclass(frozen=True)
class Interior:
    """All peeled parameters are strictly inside the disk."""

    gamma: tuple[complex, ...]


@dataclass(frozen=True)
class Boundary:
    """A unimodular parameter with an all-zero remainder: unique interpolant.

    ``gamma_prefix`` is ``(gamma_0, ..., gamma_i)`` with ``|gamma_i| = 1``
    (within tolerance) and every earlier modulus < 1; ``unimodular_index``
    is ``i``.
    """

    gamma_prefix: tuple[complex, ...]
    unimodular_index: int


@dataclass(frozen=True)
class Exterior:
    """No interpolant exists; ``witness_index`` is the offending step."""

    witness_index: int
    reason: ExteriorReason


SchurClassification = Interior | Boundary | Exterior


def mobius(a, z):
    """Evaluate ``sigma_a(z) = (z + a) / (1 + conj(a) z)``.

    ``a`` must satisfy ``|a| < 1``; ``z`` may be a complex scalar or a
    numpy array.  Raises DegenerateDenominator if the denominator falls
    below 1e-300 in modulus (unreachable for ``|z| <= 1``).
    """
    a = complex(a)
    if abs(a) >= 1.0:
        raise ContractViolation(f"mobius parameter must have |a| < 1, got |a| = {abs(a)}")
    den = 1.0 + a.conjugate() * z
    if np.min(np.abs(den)) < _DENOM_FLOOR:
        raise DegenerateDenominator("mobius denominator 1 + conj(a) z vanished")
    return (z + a) / den


def schur_step(c_j: Sequence[complex], gamma_j: complex) -> tuple[complex, ...]:
    """One peeling step: map ``c^(j)`` (length m >= 2) to ``c^(j+1)`` (length m-1).

    ``gamma_j`` must be the first entry of ``c_j`` and satisfy ``|gamma_j| < 1``.
    """
    c = tuple(complex(x) for x in c_j)
    if len(c) < 2:
        raise ContractViolation("schur_step needs at least two coefficients")
    g = complex(gamma_j)
    if g != c[0]:
        raise ContractViolation("gamma_j must equal the first entry of c_j")
    if abs(g) >= 1.0:
        raise ContractViolation(f"schur_step requires |gamma_j| < 1, got {abs(g)}")
    d = 1.0 - abs(g) ** 2
    gbar = g.conjugate()
    out: list[complex] = [c[1] / d]
    for p in range(1, len(c) - 1):
        conv = sum(out[p - l] * c[l] for l in range(1, p + 1))
        out.append((c[p + 1] + gbar * conv) / d)
    return tuple(out)


def schur_parameters(
    c: CaratheodoryData | Sequence[complex],
    tol: ToleranceConfig = ToleranceConfig(),
) -> SchurClassification:
    """Peel ``c`` completely and classify it.

    The trichotomy is exhaustive: interior (all moduli < 1 - cls_tol),
    boundary (a modulus within cls_tol of 1 whose remaining coefficients
    are all below cls_tol), or exterior (modulus beyond 1 + cls_tol, or a
    unimodular parameter followed by a non-zero coefficient).
    """
    data = c if isinstance(c, CaratheodoryData) else CaratheodoryData(tuple(c))
    band = tol.cls_tol
    work: tuple[complex, ...] = data.coeffs
    gamma: list[complex] = []
    j = 0
    while True:
        g = work[0]
        m = abs(g)
        if m > 1.0 + band:
            return Exterior(witness_index=j, reason=ExteriorReason.MODULUS_EXCEEDS_ONE)
        if abs(m - 1.0) <= band:
            if any(abs(x) > band for x in work[1:]):
                return Exterior(
                    witness_index=j,
                    reason=ExteriorReason.UNIMODULAR_WITH_NONZERO_TAIL,
                )
            return Boundary(gamma_prefix=tuple(gamma) + (g,), unimodular_index=j)
        gamma.append(g)
        if len(work) == 1:
            return Interior(gamma=tuple(gamma))
        work = schur_step(work, g)
        j += 1


def _series_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Product of two power series, truncated to the common length."""
    return np.convolve(a, b)[: len(a)]


def _series_reciprocal(b: np.ndarray) -> np.ndarray:
    """Reciprocal series of ``b`` with ``b[0] = 1``, truncated."""
    inv = np.zeros_like(b)
    inv[0] = 1.0
    for p in range(1, len(b)):
        inv[p] = -np.dot(b[1 : p + 1], inv[p - 1 :: -1])
    return inv


def data_from_parameters(gamma: Sequence[complex]) -> CaratheodoryData:
    """Reconstruct the coefficient vector realized by interior parameters.

    Composes the nested automorphism form
    ``sigma_{gamma_0}(z sigma_{gamma_1}(... z sigma_{gamma_n}(0) ...))``
    as a truncated power series to order ``n``; the result is the unique
    coefficient vector whose peeling returns ``gamma``.
    """
    gams = tuple(_as_finite_complex(g, "parameter") for g in gamma)
    if not gams:
        raise ContractViolation("parameter sequence must be non-empty")
    for k, g in enumerate(gams):
        if abs(g) >= 1.0:
            raise ContractViolation(
                f"data_from_parameters requires |gamma_{k}| < 1, got {abs(g)}"
            )
    n1 = len(gams)  # series length n + 1
    w = np.zeros(n1, dtype=np.complex128)  # innermost factor: the zero series
    for g in reversed(gams):
        u = np.zeros(n1, dtype=np.complex128)  # u = z * w, truncated
        u[1:] = w[:-1]
        num = u.copy()
        num[0] += g
        den = g.conjugate() * u
        den[0] += 1.0
        w = _series_product(num, _series_reciprocal(den))
    return CaratheodoryData(tuple(complex(x) for x in w))
