"""Schur parameters of Caratheodory interpolation data, and back.

An analytic self-map ``omega`` of the closed unit disk factors as
``omega = sigma_{gamma_0}(z * omega_1)`` with ``gamma_0 = omega(0)``,
``sigma_a(z) = (z + a) / (1 + conj(a) z)`` and ``omega_1`` again a self-map
of the disk.  Peeling one prescribed Taylor coefficient per step turns
``c = (c_0, ..., c_n)`` into its parameter sequence
``gamma = (gamma_0, ..., gamma_k)`` and classifies ``c`` against the body
of coefficient vectors attainable by such maps:

* every ``|gamma_p| < 1``       -- interior data, a full disk of interpolants;
* ``|gamma_i| = 1`` and the rest of the current series zero
                                 -- a unique interpolant (a finite Blaschke
                                    product determined by the prefix);
* anything else                  -- no interpolant exists.

Both directions run the Schur algorithm in generator form.  Level ``j``
holds ``omega_j = p_j / q_j`` as two power series truncated to length
``n + 1 - j`` with ``q_j[0] = 1``, from ``p_0 = c``, ``q_0 = 1``.  With
``gamma_j = p_j[0]`` and ``d_j = 1 - |gamma_j|^2`` one step,
``omega_{j+1} = (omega_j - gamma_j) / (z (1 - conj(gamma_j) omega_j))``,
costs O(n - j):

    p_{j+1} = (p_j[1:]  - gamma_j       q_j[1:])  / d_j
    q_{j+1} = (q_j[:-1] - conj(gamma_j) p_j[:-1]) / d_j

The peel (:func:`schur_parameters`) runs these forward, one
:func:`schur_step` per parameter.  The inverse
(:func:`data_from_parameters`) sweeps the anti-diagonals ``k = 0..n`` of
the same table: with ``P[l] = p_l[k - l]`` and ``Q[l] = q_l[k - l]``,
``Q`` follows from the previous diagonal by the q-relation, and ``P`` runs
from ``P[k] = gamma_k`` down to ``P[0] = c_k`` by the p-relation solved
for ``p``, ``p_l[i + 1] = d_l p_{l+1}[i] + gamma_l q_l[i + 1]``.  Both are
O(n^2) in plain Python complex arithmetic; the sweep keeps O(n) memory.
All functions are pure and safe for concurrent use.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from enum import Enum
from typing import Iterator, Sequence

from .errors import ContractViolation

__all__ = [
    "CaratheodoryData",
    "ToleranceConfig",
    "Interior",
    "Boundary",
    "Exterior",
    "ExteriorReason",
    "SchurClassification",
    "schur_parameters",
    "data_from_parameters",
]


_KINDS = {complex: numbers.Number, float: numbers.Real, int: numbers.Integral}


def _as_number(value, what: str, kind: type = complex):
    """``value`` as a Python ``kind`` (``complex``, ``float`` or ``int``) bit
    for bit, if it is a Python or numpy number of that kind (any number for
    ``complex``) other than a bool; a ``ContractViolation`` otherwise."""
    if type(value) is not bool and isinstance(value, _KINDS[kind]):
        try:
            return kind(value)
        except OverflowError:
            raise ContractViolation(f"{what} is too large for a float") from None
        except (TypeError, ValueError):
            pass
    noun = "an integer" if kind is int else "a number"
    raise ContractViolation(f"{what} must be {noun}, not {type(value).__name__}")


def _as_finite_complex(value, what: str) -> complex:
    w = _as_number(value, what)
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
        for name in ("cls_tol", "quad_tol", "geom_tol"):
            object.__setattr__(self, name, _as_number(getattr(self, name), name, float))
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


def check_parameters(gamma: Sequence[complex]) -> tuple[complex, ...]:
    """``gamma`` as a tuple of complex numbers, checked to be interior
    parameters: at least one, every one finite with ``|gamma_k| < 1``."""
    gams = tuple(_as_finite_complex(g, "parameter") for g in gamma)
    if not gams or max(map(abs, gams)) >= 1.0:
        raise ContractViolation("parameters must be non-empty with every |gamma_k| < 1")
    return gams


def schur_step(
    p: Sequence[complex], q: Sequence[complex], gamma: complex
) -> tuple[tuple[complex, ...], tuple[complex, ...]]:
    """One Schur step on the generator pair: ``(p_j, q_j)``, two series of
    length m >= 2, to ``(p_{j+1}, q_{j+1})`` of length m - 1.

    Requires ``q[0] == 1`` and ``gamma == p[0]`` with ``|gamma| < 1``; the
    peel in :func:`schur_parameters`, its only caller, guarantees this, and
    nothing here checks it.  The new ``q`` starts with exactly 1 again.
    """
    g = complex(gamma)
    d = 1.0 - abs(g) ** 2
    gbar = g.conjugate()
    p_next = tuple([(a - g * b) / d for a, b in zip(p[1:], q[1:])])
    q_next = (1.0,) + tuple([(b - gbar * a) / d for a, b in zip(p[1:-1], q[1:-1])])
    return p_next, q_next


def _tail(p: Sequence[complex], q: Sequence[complex], g: complex) -> list[complex]:
    """``(p / q)[1:]``, formed as ``((p - g q) / q)[1:]`` by series division
    (``q[0] = 1``, ``g = p[0]``, so the quotient's constant term is 0)."""
    r = [0j]
    for k in range(1, len(p)):
        r.append(p[k] - g * q[k] - sum(q[l] * r[k - l] for l in range(1, k)))
    return r[1:]


def schur_parameters(
    c: CaratheodoryData | Sequence[complex],
    tol: ToleranceConfig = ToleranceConfig(),
) -> SchurClassification:
    """Peel ``c`` completely and classify it.

    The trichotomy is exhaustive: interior (all moduli < 1 - cls_tol),
    boundary (a modulus within cls_tol of 1 whose remaining coefficients
    are all below cls_tol), or exterior (modulus beyond 1 + cls_tol, or a
    unimodular parameter followed by a non-zero coefficient).  The
    remaining coefficients at step ``j`` are ``(p_j / q_j)[1:]``.
    """
    data = c if isinstance(c, CaratheodoryData) else CaratheodoryData(tuple(c))
    band = tol.cls_tol
    p: tuple[complex, ...] = data.coeffs
    q: tuple[complex, ...] = (1.0,) + (0.0,) * data.order
    gamma: list[complex] = []
    while True:
        g = p[0]
        m = abs(g)
        j = len(gamma)
        if m - 1.0 > band:  # as the band test below rounds it: one class each
            return Exterior(witness_index=j, reason=ExteriorReason.MODULUS_EXCEEDS_ONE)
        if abs(m - 1.0) <= band:
            if any(abs(x) > band for x in _tail(p, q, g)):
                return Exterior(
                    witness_index=j,
                    reason=ExteriorReason.UNIMODULAR_WITH_NONZERO_TAIL,
                )
            return Boundary(gamma_prefix=tuple(gamma) + (g,), unimodular_index=j)
        gamma.append(g)
        if len(p) == 1:
            return Interior(gamma=tuple(gamma))
        p, q = schur_step(p, q, g)


def data_from_parameters(gamma: Sequence[complex]) -> CaratheodoryData:
    """The unique coefficient vector whose peeling returns the interior
    parameters ``gamma``, by the anti-diagonal sweep (module docstring)."""
    gams = check_parameters(gamma)
    gbar = [g.conjugate() for g in gams]
    d = [1.0 - abs(g) ** 2 for g in gams]
    coeffs = []
    diag_p: list[complex] = []  # P and Q of the previous anti-diagonal
    diag_q: list[complex] = []
    for k, g in enumerate(gams):
        # Q[0] = q_0[k] = 0 for k >= 1; Q[k] = q_k[0] = 1 is never read
        diag_q = [0j] + [(diag_q[l] - gbar[l] * diag_p[l]) / d[l] for l in range(k - 1)]
        diag_p = [g] * (k + 1)
        for l in range(k - 1, -1, -1):
            diag_p[l] = d[l] * diag_p[l + 1] + gams[l] * diag_q[l]
        coeffs.append(diag_p[0])
    return CaratheodoryData(tuple(coeffs))
