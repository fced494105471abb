"""Computations made apart from schurvar, used to check its outputs.

Nothing here imports the package.  The formulas come from the definitions
in the paper: the nested Möbius form of the interpolants, the disk maps of
the three target domains, a fixed composite Gauss-Legendre rule of much
higher order than the program's adaptive 15-point panels, and plain cross
products for the polygon checks.
"""

from __future__ import annotations

import math

import numpy as np

# Graded panels on [0, 1]: the integrands are analytic past t = 1 but their
# nearest singularity sits just beyond it, so the panels shrink towards 1.
_PANEL_EDGES = (0.0, 0.5, 0.75, 0.875, 1.0)
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(48)


def mobius(a: complex, w):
    """``(w + a) / (1 + conj(a) w)``."""
    return (w + a) / (1.0 + a.conjugate() * w)


def nested_interpolant(gamma, zeta, w_star):
    """``sigma_{g0}(zeta sigma_{g1}(... zeta sigma_{gn}(zeta w_star) ...))``.

    ``w_star`` holds the values of the free self-map at ``zeta``; a
    constant ``eps`` gives the extremal interpolant of the boundary.
    """
    w = zeta * w_star
    for k in range(len(gamma) - 1, -1, -1):
        w = mobius(complex(gamma[k]), w)
        if k > 0:
            w = zeta * w
    return w


def blaschke(zeros, front: complex, zeta):
    """``front * prod (zeta - a) / (1 - conj(a) zeta)``."""
    out = np.full(np.shape(zeta), front, dtype=np.complex128)
    for a in zeros:
        out = out * (zeta - a) / (1.0 - np.conjugate(a) * zeta)
    return out


def domain_map(kind: str, center: complex = 0.0, radius: float = 1.0):
    """The disk uniformization of a target domain, as a numpy function."""
    if kind == "half-plane":
        return lambda w: (1.0 + w) / (1.0 - w)
    if kind == "strip":
        return lambda w: np.log((1.0 + w) / (1.0 - w))
    if kind == "disk":
        return lambda w: center + radius * w
    raise ValueError(f"unknown domain kind {kind!r}")


def weighted_primitive(values_at, j: int, z0: complex) -> complex:
    """``integral_0^z0 zeta^j values_at(zeta) d zeta`` by composite Gauss-Legendre.

    ``values_at`` returns ``P(omega(zeta)) - P(omega(0))``; Gauss nodes are
    interior, so the removable singularity of ``j = -1`` at 0 is never hit.
    """
    total = 0.0 + 0.0j
    for a, b in zip(_PANEL_EDGES[:-1], _PANEL_EDGES[1:]):
        t = 0.5 * (b - a) * _GL_NODES + 0.5 * (a + b)
        zeta = t * z0
        vals = values_at(zeta) * zeta ** float(j)
        total += 0.5 * (b - a) * np.dot(_GL_WEIGHTS, vals)
    return complex(z0 * total)


def boundary_value(gamma, p_map, j: int, z0: complex, eps: complex) -> complex:
    """The region's point for the constant free parameter ``eps``."""
    base = p_map(complex(gamma[0]))
    return weighted_primitive(
        lambda zeta: p_map(nested_interpolant(gamma, zeta, eps)) - base, j, z0
    )


def member_value(gamma, p_map, j: int, z0: complex, zeros, front) -> complex:
    """The region's point for the interpolant whose free map is a Blaschke product."""
    base = p_map(complex(gamma[0]))
    return weighted_primitive(
        lambda zeta: p_map(nested_interpolant(gamma, zeta, blaschke(zeros, front, zeta)))
        - base,
        j,
        z0,
    )


# --------------------------------------------------------------------------
# coefficient data by truncated power-series composition


def _series_mul(a: list, b: list, m: int) -> list:
    return [sum(a[i] * b[k - i] for i in range(k + 1)) for k in range(m)]


def _series_inverse_unit(b: list, m: int) -> list:
    """Reciprocal of a series with ``b[0] == 1``."""
    inv = [1.0 + 0.0j]
    for k in range(1, m):
        inv.append(-sum(b[i] * inv[k - i] for i in range(1, k + 1)))
    return inv


def composed_coefficients(prefix, inner, order: int) -> tuple[complex, ...]:
    """Taylor coefficients ``c_0..c_order`` of
    ``sigma_{p0}(z sigma_{p1}(... z sigma_{p_{k-1}}(z h(z)) ...))``
    where ``h`` has the coefficients ``inner`` (padded with zeros).

    With ``prefix`` interior and ``h = 0`` this is the data of interior
    parameters ``prefix``; peeling ``len(prefix)`` steps off the result
    gives back ``h`` whatever its coefficients are.
    """
    m = order + 1
    w = [complex(x) for x in inner][:m] + [0j] * max(0, m - len(inner))
    for g in reversed([complex(p) for p in prefix]):
        u = [0j] + w[:-1]
        num = [u[0] + g] + u[1:]
        den = [1.0 + 0j] + [g.conjugate() * x for x in u[1:]]
        w = _series_mul(num, _series_inverse_unit(den, m), m)
    return tuple(w)


# --------------------------------------------------------------------------
# polygon checks


def convex_loop_defects(points, witness: complex) -> tuple[float, float]:
    """``(worst_turn, winding)`` of a closed polygon seen from ``witness``.

    ``worst_turn`` is the most negative normalized cross product of
    consecutive edges after orienting the loop counterclockwise (>= 0 for
    a convex loop); ``winding`` is the number of turns of
    ``points - witness`` (+-1 when the witness is inside a simple loop).
    """
    v = np.asarray(points, dtype=np.complex128)
    e1 = np.roll(v, -1) - v
    e2 = np.roll(e1, -1)
    cross = (e1.real * e2.imag - e1.imag * e2.real) / (np.abs(e1) * np.abs(e2))
    rel = v - witness
    steps = np.angle(np.roll(rel, -1) / rel)
    winding = float(np.sum(steps) / (2.0 * math.pi))
    orient = 1.0 if winding >= 0.0 else -1.0
    return float(np.min(orient * cross)), winding


def outside_depths(points, witness: complex, queries) -> np.ndarray:
    """Signed distance of each query outside the line of the polygon edge
    facing it (negative inside).

    The facing edge is the one whose angular sector, seen from the interior
    ``witness``, contains the query; for a convex loop that winds once
    around the witness it decides membership, in O(log N) per query.
    Check the loop with :func:`convex_loop_defects` first.
    """
    v = np.asarray(points, dtype=np.complex128)
    angles = np.unwrap(np.angle(v - witness))
    if angles[-1] < angles[0]:
        v, angles = v[::-1], angles[::-1]
    angles = angles - angles[0]
    q = np.asarray(queries, dtype=np.complex128)
    q_angles = np.mod(np.angle(q - witness) - np.angle(v[0] - witness), 2.0 * math.pi)
    k = np.searchsorted(angles, q_angles, side="right") - 1
    a, b = v[k], v[(k + 1) % len(v)]
    e, d = b - a, q - a
    return -(e.real * d.imag - e.imag * d.real) / np.abs(e)
