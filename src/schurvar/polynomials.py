"""The four interpolation polynomials attached to a parameter sequence.

For interior parameters ``gamma = (gamma_0, ..., gamma_n)`` define

    A_0 = conj(gamma_0)   At_0 = 1
    B_0 = 1               Bt_0 = gamma_0

and, for 0 <= k < n,

    A_{k+1}(z)  = z A_k(z)  + conj(gamma_{k+1}) B_k(z)
    At_{k+1}(z) = z At_k(z) + conj(gamma_{k+1}) Bt_k(z)
    B_{k+1}(z)  = gamma_{k+1} z A_k(z)  + B_k(z)
    Bt_{k+1}(z) = gamma_{k+1} z At_k(z) + Bt_k(z).

`At`/`Bt` are coefficient-reversed conjugates of `B`/`A`:

    At_k(z) = z^k conj(B_k(1/conj(z)))      Bt_k(z) = z^k conj(A_k(1/conj(z)))

and the four satisfy, on the closed disk,

    At_k B_k - A_k Bt_k = z^k prod_{l<=k} (1 - |gamma_l|^2)     (determinant)
    |B_k|^2 - |A_k|^2  >= prod_{l<=k} (1 - |gamma_l|^2) > 0     (coercivity)
    |Bt_k(z)| < |B_k(z)|                                        (domination)

so every rational expression below has a denominator bounded away from 0.

The polynomials encode the full solution set of the interpolation problem:
with ``omega_*`` ranging over self-maps of the disk, every interpolant of
the data realized by ``gamma`` is the Schur lift

    omega(z) = (z At(z) omega_*(z) + Bt(z)) / (z A(z) omega_*(z) + B(z)),

whose difference quotient ``(omega(z) - gamma_0) / z`` :func:`lift`
computes, and the one-point slice ``{omega(z)}`` is exactly a closed disk.

The quadruple is stored as one ``(4, n+1)`` complex array with rows ``A``,
``B``, ``At``, ``Bt`` (ascending coefficients), which :func:`eval_poly`
evaluates in one Horner pass.  :func:`build_polynomials` advances the pair
``(A, At)`` and the pair ``(B, Bt)`` as two stacked rows, so each parameter
costs one shift and two array updates; :func:`identity_residuals` evaluates
all four rows on a fixed polar grid and its reflection ``1/conj(z)`` at once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import ContractViolation
from .schur import check_parameters

__all__ = ["SchurPolynomialSet", "build_polynomials", "identity_residuals"]

#: The polar grid of :func:`identity_residuals`: three radii, the last on
#: the circle, times 64 equispaced angles, followed by its reflection
#: ``1/conj(z)``.
_RESIDUAL_RADII = (0.3, 0.7, 1.0)
_RESIDUAL_ANGLES = 64
_RING = np.exp(1j * (2.0 * np.pi * np.arange(_RESIDUAL_ANGLES) / _RESIDUAL_ANGLES))
_RESIDUAL_GRID = np.concatenate([r * _RING for r in _RESIDUAL_RADII])
_RESIDUAL_POINTS = np.concatenate((_RESIDUAL_GRID, 1.0 / np.conjugate(_RESIDUAL_GRID)))


def eval_poly(coeffs: np.ndarray | Sequence[complex], z):
    """Horner evaluation of one or more stacked polynomials.

    ``coeffs`` has shape ``(..., n+1)``, ascending degree along the last
    axis; ``z`` may be a scalar or an array of any shape.  The result has
    shape ``coeffs.shape[:-1] + z.shape`` and is a Python complex when that
    shape is empty.  Every row goes through the same operations as if it
    were evaluated alone.
    """
    c = np.asarray(coeffs, dtype=np.complex128)
    if c.ndim == 0 or c.shape[-1] == 0:
        raise ContractViolation("cannot evaluate an empty polynomial")
    zarr = np.asarray(z, dtype=np.complex128)
    rows = c.shape[:-1]
    # cols[k] holds coefficient k of every row, shaped to broadcast against z
    cols = c.transpose((c.ndim - 1, *range(c.ndim - 1)))
    cols = cols.reshape(c.shape[-1:] + rows + (1,) * zarr.ndim)
    acc = np.zeros(rows + zarr.shape, dtype=np.complex128) + cols[-1]
    for col in cols[-2::-1]:
        acc = acc * zarr + col
    if acc.ndim == 0:
        return complex(acc)
    return acc


@dataclass(frozen=True)
class SchurPolynomialSet:
    """The four polynomials for one parameter sequence, zero-padded to degree n.

    ``coeffs`` is a read-only ``(4, n+1)`` complex array whose rows are the
    ascending coefficients of ``A``, ``B``, ``At`` and ``Bt``.
    ``coeffs[1, 0] == 1`` and ``coeffs[3, 0] == gamma[0]`` exactly, and
    ``At`` is monic of exact degree n.  The coefficients are a function of
    ``gamma``, so sets compare and hash on ``gamma`` alone.
    """

    gamma: tuple[complex, ...]
    coeffs: np.ndarray = field(compare=False, repr=False)

    @property
    def order(self) -> int:
        return len(self.gamma) - 1

    @property
    def contraction_product(self) -> float:
        """``prod(1 - |gamma_k|^2)``, the determinant/coercivity constant."""
        return float(np.prod([1.0 - abs(g) ** 2 for g in self.gamma]))

    @cached_property
    def lift_rows(self) -> np.ndarray:
        """Read-only ``(4, n+1)`` rows ``A``, ``B``, ``At - gamma_0 A`` and
        ``(Bt - gamma_0 B) / z`` (zero-padded), the coefficients of
        :func:`lift`.  ``Bt - gamma_0 B`` has no constant term, since
        ``Bt(0) = gamma_0`` and ``B(0) = 1``."""
        a, b, at, bt = self.coeffs
        g0 = self.gamma[0]
        rows = np.zeros_like(self.coeffs)
        rows[:2] = self.coeffs[:2]
        np.subtract(at, np.multiply(g0, a, out=rows[2]), out=rows[2])
        np.subtract(bt[1:], np.multiply(g0, b[1:], out=rows[3, :-1]), out=rows[3, :-1])
        rows.flags.writeable = False
        return rows


def build_polynomials(gamma: Sequence[complex]) -> SchurPolynomialSet:
    """Run the recurrence for interior parameters (finite, all ``|gamma_k| < 1``)."""
    gams = check_parameters(gamma)
    n = len(gams) - 1
    g0 = gams[0]
    # rows: top (A, At), bottom (B, Bt); shifted is top times z
    top = np.zeros((2, n + 1), dtype=np.complex128)
    bottom = np.zeros((2, n + 1), dtype=np.complex128)
    shifted = np.zeros((2, n + 1), dtype=np.complex128)
    top[:, 0] = (g0.conjugate(), 1.0)
    bottom[:, 0] = (1.0, g0)
    for g in gams[1:]:
        shifted[:, 1:] = top[:, :-1]
        top = shifted + g.conjugate() * bottom
        bottom = g * shifted + bottom
    coeffs = np.empty((4, n + 1), dtype=np.complex128)
    coeffs[0::2] = top
    coeffs[1::2] = bottom
    coeffs.flags.writeable = False
    return SchurPolynomialSet(gamma=gams, coeffs=coeffs)


def lift(set_: SchurPolynomialSet, w_star, z):
    """``h = (omega(z) - gamma_0) / z`` for the Schur lift ``omega``:

        h = (w_star (At - gamma_0 A) + (Bt - gamma_0 B) / z) / (z w_star A + B)

    from :attr:`SchurPolynomialSet.lift_rows`, with no cancellation; the
    interpolant is ``gamma_0 + z h`` and ``h(0) = omega'(0)``.  With
    ``w_star = omega_*(z)`` for a self-map ``omega_*`` of the closed disk,
    a constant ``eps`` gives the extremal family, a Blaschke product one of
    the oracle's draws; ``w_star`` broadcasts against ``z``.  For
    ``|z| < 1`` and ``|omega_*| <= 1`` coercivity, ``|B| - |z| |A| > 0``,
    keeps the denominator away from 0.
    """
    av, bv, cv, dv = eval_poly(set_.lift_rows, z)
    return (w_star * cv + dv) / (z * w_star * av + bv)


def identity_residuals(gamma: Sequence[complex]) -> dict[str, float]:
    """Worst-case violations of the four polynomial laws on a polar grid.

    Returns absolute mismatches for the two identities ("mirror",
    "determinant") and constraint violations, clipped at zero, for the two
    inequalities ("coercivity", "domination").  A clean implementation
    reports values at rounding level for all four.  The one Horner pass
    over the grid and its reflection also evaluates ``At`` and ``Bt`` at the
    reflection, which no law reads.
    """
    set_ = build_polynomials(gamma)
    z = _RESIDUAL_GRID
    values = eval_poly(set_.coeffs, _RESIDUAL_POINTS)
    av, bv, atv, btv = values[:, : len(z)]
    a_inv, b_inv = values[:2, len(z) :]
    zn = z**set_.order
    mirror = max(
        float(np.max(np.abs(atv - zn * np.conjugate(b_inv)))),
        float(np.max(np.abs(btv - zn * np.conjugate(a_inv)))),
    )
    prod = set_.contraction_product
    determinant = float(np.max(np.abs(atv * bv - av * btv - zn * prod)))
    coercivity = float(max(0.0, np.max(prod - (np.abs(bv) ** 2 - np.abs(av) ** 2))))
    domination = float(max(0.0, np.max(np.abs(btv) - np.abs(bv))))
    return {
        "mirror": mirror,
        "determinant": determinant,
        "coercivity": coercivity,
        "domination": domination,
    }
