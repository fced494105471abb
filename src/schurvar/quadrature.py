"""Adaptive contour quadrature along a radial segment.

Composite 15-point Gauss-Legendre panels with interval bisection: a panel
is accepted when refining it into two halves changes its value by at most
the panel's share of the absolute error budget, and each split halves the
budget so the accepted panels sum to at most the requested tolerance.

The integrand callback receives the quadrature nodes as a single array of
points on the open segment ``(0, z0)`` and may return extra leading batch
axes; a batch shares panels and is refined until its worst member meets
the budget.  Gauss nodes are interior, so neither endpoint is evaluated.
"""

from __future__ import annotations

from typing import Callable

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import ContractViolation, QuadratureNonConvergence

__all__ = ["integrate_segment"]

_NODES, _WEIGHTS = leggauss(15)


def _panel(f: Callable, a: float, b: float):
    t = 0.5 * (b - a) * _NODES + 0.5 * (a + b)
    values = f(t)
    return 0.5 * (b - a) * (values @ _WEIGHTS)


def _refine(f: Callable, a: float, b: float, whole, tol: float, depth_left: int):
    mid = 0.5 * (a + b)
    left = _panel(f, a, mid)
    right = _panel(f, mid, b)
    err = float(np.max(np.abs(left + right - whole)))
    if err <= tol:
        return left + right
    if depth_left <= 0:
        raise QuadratureNonConvergence(
            f"interval [{a:g}, {b:g}] still at error {err:.3e} > {tol:.3e} "
            "after exhausting the bisection budget"
        )
    return _refine(f, a, mid, left, 0.5 * tol, depth_left - 1) + _refine(
        f, mid, b, right, 0.5 * tol, depth_left - 1
    )


def integrate_segment(f: Callable, z0: complex, tol: float, max_depth: int = 20):
    """Integrate ``f`` along the straight segment from 0 to ``z0``.

    ``f(zeta)`` gets an ``(m,)`` array of segment points and must return an
    array of shape ``(..., m)``; the result has shape ``(...,)`` with
    absolute error at most ``tol`` per batch member (as estimated by panel
    bisection).  Raises QuadratureNonConvergence after ``max_depth``
    bisection levels.
    """
    z0 = complex(z0)
    if z0 == 0:
        raise ContractViolation("integration endpoint must be non-zero")
    if not (tol > 0.0):
        raise ContractViolation("quadrature tolerance must be positive")

    def on_unit(t: np.ndarray):
        return f(t * z0)

    budget = tol / abs(z0)
    whole = _panel(on_unit, 0.0, 1.0)
    return z0 * _refine(on_unit, 0.0, 1.0, whole, budget, max_depth)
