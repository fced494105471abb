"""Gauss-Legendre quadrature along a radial segment ``[0, z0]``.

Every integrand here is analytic in the unit disk, so on ``[0, 1]`` the
map ``t -> f(t z0)`` is analytic inside the Bernstein ellipse with
parameter ``rho = a + sqrt(a^2 - 1)``, ``a = 2/|z0| - 1``, and an
``m``-point Gauss rule errs like ``rho^(-2m)`` (Trefethen, *Approximation
Theory and Approximation Practice*, ch. 19).  ``rho`` only chooses the
order: the smallest ``m`` with ``rho^(-2m)`` at most a quarter of the
budget ``tol/|z0|``.  The ``m``-point and ``ceil(1.5 m)``-point rules are
evaluated in one integrand call, and the finer value is accepted when the
two agree to within the budget.  That a-posteriori check, not ``rho``,
makes the result correct: ``max |f|`` on the ellipse is not known, and
data near the boundary of the coefficient body makes it large.

When the check fails, or the order exceeds ``_MAX_ORDER``, composite
15-point panels with interval bisection take over: a panel is accepted
when refining it into two halves changes its value by at most the panel's
share of the budget, and each split halves the share so the accepted
panels sum to at most the requested tolerance.

The integrand callback receives the quadrature nodes as a single array of
points on the open segment ``(0, z0)`` and may return extra leading batch
axes; a batch shares nodes and is accepted only when its worst member
meets the budget.  Gauss nodes are interior, so neither endpoint is
evaluated.  Node values are contracted with the weights by ``einsum``, not
a BLAS product, which would spread over threads and slow down on a busy
core.
"""

from __future__ import annotations

import math
from functools import cache
from typing import Callable

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import QuadratureNonConvergence

__all__: list[str] = []

_NODES, _WEIGHTS = leggauss(15)
#: Highest a-priori order: its pair takes 48 nodes, about the 45 of one
#: bisection level, and covers |z0| up to 0.9 at 1e-10.  Nearer the circle
#: larger pairs failed or outgrew bisection on order 0-1 boundary data
#: (up to 1.5 times the points of bisection alone), so bisection takes
#: over there.
_MAX_ORDER = 19
#: The order is chosen for this share of the budget, which absorbs the
#: unknown constant in front of ``rho^(-2m)``.
_MARGIN = 0.25
#: Bisection levels before QuadratureNonConvergence.
_MAX_DEPTH = 20


def _contract(values, weights):
    return np.einsum("...k,k->...", values, weights)


def _panel(f: Callable, a: float, b: float):
    t = 0.5 * (b - a) * _NODES + 0.5 * (a + b)
    return 0.5 * (b - a) * _contract(f(t), _WEIGHTS)


def _refine(f: Callable, a: float, b: float, whole, tol: float, depth_left: int):
    mid = 0.5 * (a + b)
    left = _panel(f, a, mid)
    right = _panel(f, mid, b)
    err = float(abs(left + right - whole).max())
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


def _order(radius: float, budget: float) -> int:
    """Smallest ``m >= 1`` with ``rho^(-2m) <= _MARGIN * budget`` for
    ``|z0| = radius < 1``."""
    a = 2.0 / radius - 1.0
    rho = a + math.sqrt(a * a - 1.0)
    target = _MARGIN * min(budget, 1.0)
    return max(1, math.ceil(math.log(target) / (-2.0 * math.log(rho))))


@cache
def _rule_pair(m: int):
    """Nodes of the ``m``- and ``ceil(1.5 m)``-point rules on ``[0, 1]``,
    concatenated, and the weights of each (read-only; ``m <= _MAX_ORDER``
    bounds the cache)."""
    coarse, w_coarse = leggauss(m)
    fine, w_fine = leggauss(math.ceil(1.5 * m))
    pair = (0.5 * np.concatenate((coarse, fine)) + 0.5, 0.5 * w_coarse, 0.5 * w_fine)
    for array in pair:
        array.flags.writeable = False
    return pair


def integrate_segment(f: Callable, z0: complex, tol: float):
    """Integrate ``f`` along the straight segment from 0 to ``z0``.

    Requires ``0 < |z0| < 1`` and ``tol > 0``, which nothing here checks:
    :class:`~schurvar.regions.RegionRequest` and
    :func:`~schurvar.regions.oracle_samples` validate them before any
    integral.
    ``f(zeta)`` gets an ``(m,)`` array of segment points and must return an
    array of shape ``(..., m)``; the result has shape ``(...,)`` with
    absolute error at most ``tol`` per batch member, as estimated by the
    difference of two Gauss rules.  The first call evaluates a rule pair
    whose order the Bernstein ellipse of ``|z0|`` chooses; if the pair
    disagrees by more than ``tol``, bisection of 15-point panels follows
    and raises QuadratureNonConvergence after ``_MAX_DEPTH`` levels.
    """
    z0 = complex(z0)

    def on_unit(t: np.ndarray):
        return f(t * z0)

    budget = tol / abs(z0)
    m = _order(abs(z0), budget)
    if m <= _MAX_ORDER:
        nodes, w_coarse, w_fine = _rule_pair(m)
        values = on_unit(nodes)
        coarse = _contract(values[..., :m], w_coarse)
        fine = _contract(values[..., m:], w_fine)
        if float(abs(fine - coarse).max()) <= budget:
            return z0 * fine
    whole = _panel(on_unit, 0.0, 1.0)
    return z0 * _refine(on_unit, 0.0, 1.0, whole, budget, _MAX_DEPTH)
