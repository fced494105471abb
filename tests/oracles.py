"""Independent reference forms that the tests check the package against.

None of these is part of the product: the per-row recurrence of the
polynomial quadruple, the nested Möbius form of the interpolant, the
exact pointwise variability disk, the spectral area of a sampled closed
curve, the closed-form log f' curve of the bounded-derivative special
case, the convex hull, the point-to-polyline distance and the Hausdorff
distance only cross-check the polynomials, regions and interpolants that
``schurvar`` computes.  The earlier forms of a few helpers (Horner
evaluation through ``np.moveaxis``, lift rows through ``np.stack``, the
strip's quotient through two ``np.where`` passes, polygon edges and turns
through ``np.roll``, a boundary's angle grid per result, resampling that
scales a copy of the inverse FFT) are kept here to check their rewrites
bit for bit.  The distance is the plain formula over the whole
(queries x segments) matrix, so its memory grows with their product: keep
its inputs to a few thousand points a side.
"""

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from schurvar.domains import DomainMap, half_plane
from schurvar.errors import ContractViolation, DegenerateDenominator, SchurvarError
from schurvar.polynomials import SchurPolynomialSet, eval_poly
from schurvar.regions import _MIN_BOUNDARY_SAMPLES, _numbers
from schurvar.schur import CaratheodoryData

#: Denominators smaller than this are treated as exact zeros.
_DENOM_FLOOR = 1e-300


def polynomial_rows(gamma: Sequence[complex]) -> np.ndarray:
    """The ``(4, n+1)`` rows ``A``, ``B``, ``At``, ``Bt`` of the recurrence,
    each advanced as its own array (four arrays, two shifted copies per
    parameter), for checking the stacked form bit for bit."""
    gams = tuple(complex(g) for g in gamma)
    n = len(gams) - 1
    a = np.zeros(n + 1, dtype=np.complex128)
    b = np.zeros(n + 1, dtype=np.complex128)
    at = np.zeros(n + 1, dtype=np.complex128)
    bt = np.zeros(n + 1, dtype=np.complex128)
    a[0] = gams[0].conjugate()
    b[0] = 1.0
    at[0] = 1.0
    bt[0] = gams[0]

    def shifted(p: np.ndarray) -> np.ndarray:
        out = np.zeros_like(p)
        out[1:] = p[:-1]
        return out

    for k in range(1, n + 1):
        g = gams[k]
        gbar = g.conjugate()
        za, zat = shifted(a), shifted(at)
        a, at, b, bt = za + gbar * b, zat + gbar * bt, g * za + b, g * zat + bt
    return np.stack((a, b, at, bt))


def moveaxis_eval_poly(coeffs, z):
    """Horner evaluation of stacked polynomials ``(..., n+1)`` at ``z``, with
    the coefficient axis moved first by ``np.moveaxis``."""
    c = np.asarray(coeffs, dtype=np.complex128)
    zarr = np.asarray(z, dtype=np.complex128)
    rows = c.shape[:-1]
    cols = np.moveaxis(c, -1, 0).reshape(c.shape[-1:] + rows + (1,) * zarr.ndim)
    acc = np.zeros(rows + zarr.shape, dtype=np.complex128) + cols[-1]
    for col in cols[-2::-1]:
        acc = acc * zarr + col
    if acc.ndim == 0:
        return complex(acc)
    return acc


def stacked_lift_rows(set_) -> np.ndarray:
    """The lift rows ``A``, ``B``, ``At - gamma_0 A`` and ``(Bt - gamma_0 B) /
    z`` of a polynomial set, each formed as its own array and stacked."""
    a, b, at, bt = set_.coeffs
    g0 = set_.gamma[0]
    shifted = np.zeros_like(b)
    shifted[:-1] = bt[1:] - g0 * b[1:]
    return np.stack((a, b, at - g0 * a, shifted))


def two_where_strip_slope(w, w0=None):
    """The strip's divided difference ``P[w, w0]`` with its quotient
    ``log(1 + x) / x`` set to 1 at ``x = 0`` by two ``np.where`` passes; a
    0-d result comes back as ``complex``.  No denominator guard."""
    w = np.asarray(w, dtype=np.complex128)
    w0 = w if w0 is None else np.asarray(w0, dtype=np.complex128)
    den = (1.0 - w) * (1.0 + w0)
    x = 2.0 * (w - w0) / den
    xr, xi = x.real, x.imag
    log_u = 0.5 * np.log1p(xr * (xr + 2.0) + xi * xi) + 1j * np.arctan2(xi, 1.0 + xr)
    same = x == 0
    out = 2.0 * np.where(same, 1.0, log_u / np.where(same, 1.0, x)) / den
    return complex(out) if np.ndim(out) == 0 else out


def rolled_loop(points) -> tuple[np.ndarray, np.ndarray]:
    """A polygon's vertices and the edge leaving each, ``np.roll(v, -1) -
    v``, with zero-length edges dropped."""
    v = np.asarray(points, dtype=np.complex128)
    edges = np.roll(v, -1) - v
    keep = np.abs(edges) > 0.0
    return v[keep], edges[keep]


def rolled_turns(edges: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The sine and the angle of the turn from each edge to its successor
    ``np.roll(edges, -1)``."""
    following = np.roll(edges, -1)
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        sine = np.imag(np.conjugate(edges) * following) / (np.abs(edges) * np.abs(following))
        return sine, np.angle(following / edges)


def angle_grid(n_samples: int) -> np.ndarray:
    """The angles ``2 pi k / n_samples`` as each boundary computed its own."""
    return 2.0 * np.pi * (np.arange(n_samples) / n_samples)


def out_of_place_resampled(values: np.ndarray, n_samples: int, quad_tol: float):
    """The trigonometric interpolant of ``m`` equispaced ``values`` at
    ``n_samples`` equispaced angles, scaled as a copy of the inverse FFT;
    None when the upper half of the spectrum exceeds ``quad_tol``."""
    m = len(values)
    coeffs = np.fft.fft(values) / m
    if abs(coeffs[m // 2 :]).max() > quad_tol:
        return None
    kept = min(m, n_samples)
    folded = np.zeros(n_samples, dtype=np.complex128)
    folded[:kept] = coeffs[:kept]
    folded[: m - kept] += coeffs[kept:]
    return np.fft.ifft(folded) * n_samples


@dataclass(frozen=True)
class VariabilityDisk:
    center: complex
    radius: float


def variability_disk(set_: SchurPolynomialSet, z) -> VariabilityDisk:
    """The exact disk swept by ``omega(z)`` over all interpolants.

    center = (conj(B) Bt - |z|^2 conj(A) At) / (|B|^2 - |z|^2 |A|^2)
    radius = |z|^{n+1} prod(1 - |gamma_k|^2) / (|B|^2 - |z|^2 |A|^2)

    The denominator is positive on the open disk by coercivity, so the
    formula never degenerates.  For ``|eps| = 1`` the rational interpolant
    lands exactly on the boundary circle; for ``|eps| < 1`` it is at
    distance ``|eps| * radius`` from the center, hence strictly inside.
    """
    zc = complex(z)
    if not abs(zc) < 1.0:  # also rejects NaN
        raise ContractViolation("variability_disk requires |z| < 1")
    av, bv, atv, btv = eval_poly(set_.coeffs, zc).tolist()
    zsq = abs(zc) ** 2
    den = abs(bv) ** 2 - zsq * abs(av) ** 2
    center = (bv.conjugate() * btv - zsq * av.conjugate() * atv) / den
    radius = abs(zc) ** (set_.order + 1) * set_.contraction_product / den
    return VariabilityDisk(center=complex(center), radius=float(radius))


def enclosed_area(boundary) -> float:
    """Signed area enclosed by equispaced samples of a closed curve.

    Computes ``pi * sum_k k |c_k|^2`` from the discrete Fourier
    coefficients of the samples — the exact area of the trigonometric
    interpolant.  For analytic curves (every boundary produced here) the
    aliasing error decays geometrically in the sample count, so doubling
    the sampling leaves the value unchanged to near machine precision;
    polygon shoelace area would instead drift at O(N^-2).  Positive for
    counterclockwise curves.  ``boundary`` is a 1-D sequence of at least 4
    samples, held by numpy as integers, floats or complex numbers.
    """
    v = _numbers(boundary, "boundary samples")
    if v.ndim != 1 or len(v) < _MIN_BOUNDARY_SAMPLES:
        raise ContractViolation(
            f"enclosed_area needs a 1-D sequence of at least {_MIN_BOUNDARY_SAMPLES} samples"
        )
    n = len(v)
    coeffs = np.fft.fft(v) / n
    k = np.fft.fftfreq(n, d=1.0 / n)
    return float(np.pi * np.sum(k * np.abs(coeffs) ** 2))


class BranchCutHit(SchurvarError):
    """A closed-form logarithm argument landed on its branch cut."""


def _check_lam(lam: float) -> float:
    lam = float(lam)
    if not (0.0 <= lam < 1.0):
        raise ContractViolation("lam must lie in [0, 1)")
    return lam


def log_derivative_curve(lam: float, z0: complex, theta):
    """Closed-form boundary of ``{log f'(z0)}`` over normalized convex maps
    with second Taylor coefficient ``lam`` (i.e. ``f''(0) = 2 lam``).

    With ``s = sin(theta/2)``, ``c = cos(theta/2)`` and the positive root
    ``R = sqrt(1 - lam^2 s^2)``, the curve at angle ``theta`` is

        -(1 - lam c / R) log(1 - e^{i theta/2} z0 / (i lam s - R))
        -(1 + lam c / R) log(1 - e^{i theta/2} z0 / (i lam s + R))

    with principal logarithms.  Both log arguments live in the disk of
    radius ``|z0|`` around 1 (the two poles are unimodular), so only a
    ``z0`` within about 1e-14 of the circle brings one near the branch cut;
    the guard raises BranchCutHit when an argument lies within 1e-14 of
    ``(-inf, 0]``.  ``theta`` may be a scalar or an array; for ``lam = 0``
    the curve collapses to ``-log(1 - e^{i theta} z0^2)``.  ``lam`` outside
    ``[0, 1)`` and ``z0`` outside ``0 < |z0| < 1`` raise ContractViolation.
    """
    lam = _check_lam(lam)
    z0 = complex(z0)
    if not (0.0 < abs(z0) < 1.0):
        raise ContractViolation("z0 must satisfy 0 < |z0| < 1")
    th = np.asarray(theta, dtype=np.float64)
    scalar = th.ndim == 0
    s = np.sin(th / 2.0)
    c = np.cos(th / 2.0)
    root = np.sqrt(1.0 - (lam * s) ** 2)
    phase = np.exp(0.5j * th)
    arg_minus = 1.0 - phase * z0 / (1j * lam * s - root)
    arg_plus = 1.0 - phase * z0 / (1j * lam * s + root)
    for arg in (arg_minus, arg_plus):
        on_cut = (np.real(arg) <= 1e-14) & (np.abs(np.imag(arg)) <= 1e-14)
        if np.any(on_cut):
            raise BranchCutHit("logarithm argument on the non-positive real axis")
    out = -(1.0 - lam * c / root) * np.log(arg_minus) - (
        1.0 + lam * c / root
    ) * np.log(arg_plus)
    if scalar:
        return complex(out)
    return out


def log_derivative_setup(lam: float) -> tuple[DomainMap, CaratheodoryData, int]:
    """The general-machinery request matching :func:`log_derivative_curve`.

    ``log f'`` of a normalized convex map transplants to the half-plane
    functional with weight power -1 and data ``(0, lam)``: the region
    traced by ``q_value`` over unimodular epsilons for this triple equals
    the closed-form curve at the same angles.
    """
    lam = _check_lam(lam)
    return half_plane(), CaratheodoryData((0.0 + 0.0j, complex(lam))), -1


def mobius(a, z):
    """Evaluate ``sigma_a(z) = (z + a) / (1 + conj(a) z)``.

    ``a`` must be finite with ``|a| < 1``; ``z`` may be a complex scalar or a
    numpy array.  Raises DegenerateDenominator if the denominator falls
    below 1e-300 in modulus (unreachable for ``|z| <= 1``).
    """
    a = complex(a)
    if not abs(a) < 1.0:  # also rejects NaN
        raise ContractViolation(f"mobius parameter must have |a| < 1, got |a| = {abs(a)}")
    den = 1.0 + a.conjugate() * z
    if np.min(np.abs(den)) < _DENOM_FLOOR:
        raise DegenerateDenominator("mobius denominator 1 + conj(a) z vanished")
    return (z + a) / den


def omega_nested(gamma: Sequence[complex], epsilon, z):
    """Interpolant in nested automorphism form.

    Computes ``sigma_{gamma_0}(z sigma_{gamma_1}(... z sigma_{gamma_n}(eps z) ...))``.
    An empty parameter sequence yields ``eps * z`` (no peeling layers); this
    degenerate case is what the unique-interpolant formula for boundary data
    with a unimodular leading coefficient reduces to.  ``z`` may be a scalar
    or a numpy array.
    """
    gams = tuple(complex(g) for g in gamma)
    w = epsilon * z
    for k in range(len(gams) - 1, -1, -1):
        w = mobius(gams[k], w)
        if k > 0:
            w = z * w
    return w


def convex_hull(points) -> np.ndarray:
    """Indices of the convex hull of complex points, counterclockwise.

    Monotone chain; collinear points on hull edges are dropped.
    """
    pts = np.asarray(points, dtype=np.complex128)
    order = np.lexsort((pts.imag, pts.real))

    def half(indices):
        chain: list[int] = []
        for idx in indices:
            while len(chain) >= 2:
                a, b = pts[chain[-2]], pts[chain[-1]]
                if np.imag(np.conjugate(b - a) * (pts[idx] - a)) <= 0.0:
                    chain.pop()
                else:
                    break
            chain.append(int(idx))
        return chain

    lower = half(order)
    upper = half(order[::-1])
    return np.array(lower[:-1] + upper[:-1], dtype=int)


def distance_to_boundary(boundary, queries) -> np.ndarray:
    """Distance from each query point to a closed polyline.

    Projects every query onto every segment, clamped to its ends (a
    zero-length segment is its vertex), and takes each query's nearest.
    """
    v = np.asarray(boundary, dtype=np.complex128)
    if v.ndim != 1 or len(v) == 0:
        raise ContractViolation("polyline needs at least one point in curve order")
    q = np.atleast_1d(np.asarray(queries, dtype=np.complex128))
    d = np.roll(v, -1) - v
    length_sq = np.abs(d) ** 2
    safe = np.where(length_sq > 0.0, length_sq, 1.0)
    t = np.real(np.conjugate(d)[None, :] * (q[:, None] - v[None, :])) / safe[None, :]
    t = np.clip(t, 0.0, 1.0)
    proj = v[None, :] + t * d[None, :]
    return np.min(np.abs(q[:, None] - proj), axis=1)


def hausdorff_distance(curve_a, curve_b) -> float:
    """Symmetric Hausdorff distance between two sampled closed curves.

    Each point set is compared against the other's closed polyline, so two
    samplings of the same curve at different parametrizations agree to the
    chord deviation rather than the sample spacing.
    """
    a = np.asarray(curve_a, dtype=np.complex128)
    b = np.asarray(curve_b, dtype=np.complex128)
    forward = distance_to_boundary(b, a)
    backward = distance_to_boundary(a, b)
    return float(max(np.max(forward), np.max(backward)))
