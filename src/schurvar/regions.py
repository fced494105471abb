"""Variability regions of analytic functions with prescribed initial data.

Fix a convex target domain with uniformization ``P``, a weight power
``j >= -1``, a point ``0 < |z0| < 1``, and coefficient data ``c``.  Over
all analytic ``g`` mapping the disk into the target whose transplant
``P^{-1}(g)`` starts with the coefficients ``c``, the functional

    Q(g) = integral over [0, z0] of  zeta^j * (g(zeta) - g(0)) d zeta

sweeps a compact convex region.  Its shape is decided by the data's
classification:

* exterior data      -- no admissible ``g`` at all: the region is empty;
* boundary data      -- exactly one admissible ``g``: a single point,
                        obtained by integrating the unique interpolant;
* interior data      -- a closed Jordan region whose boundary is traced,
                        injectively, by the one-parameter family of
                        extremal interpolants ``omega_{gamma, eps}`` with
                        ``|eps| = 1``, and whose point at ``eps = 0`` is
                        interior.

Everything here is a pure function of its inputs; batches over ``eps`` or
over oracle samples share quadrature panels but are refined until every
member meets the error budget.  The point at ``eps = 0`` is one more row
of the first boundary batch, so it takes no integral of its own.

A :class:`RegionRequest` is validated once, when it is built, and
:func:`oracle_samples` checks its loose arguments the same way.  The
kernels behind them (:func:`integrand`, :func:`q_value`,
:func:`boundary_curve` and the quadrature) state their preconditions and
do not check them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .domains import DomainMap, half_plane
from .errors import (
    BranchCutHit,
    ContractViolation,
    GeometryDegenerate,
    QuadratureNonConvergence,
)
from .polynomials import SchurPolynomialSet, build_polynomials, lift
from .quadrature import integrate_segment
from .schur import (
    Boundary,
    CaratheodoryData,
    Exterior,
    Interior,
    ToleranceConfig,
    data_from_parameters,
    schur_parameters,
)

__all__ = [
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

_MIN_BOUNDARY_SAMPLES = 4
#: Fewest equispaced epsilons the spectral boundary integrates.
_MIN_SPECTRAL_SAMPLES = 16
_MIN_POLYGON_POINTS = 3
_MAX_BLASCHKE_DEGREE = 6
#: Consecutive edges per block of the pruned point-against-edges geometry.
#: Smaller blocks prune more pairs but cost one more Python step each.
_EDGE_BLOCK = 64
#: Blocks times queries per pass of the block bounds: queries are taken in
#: passes of ``_BOUND_ELEMENTS // blocks`` rows, so memory does not grow with
#: their count.
_BOUND_ELEMENTS = 2**16
#: Rounding slack of the block bounds, relative to |q - centre| plus the
#: polygon's extent: about 4500 ulps, where an exact value and a bound each
#: err by a few.
_BOUND_SLACK = 1e-12


# --------------------------------------------------------------------------
# request / result types


@dataclass(frozen=True)
class RegionRequest:
    """A fully specified region computation, validated once here.

    ``j >= -1`` (integer weight power), ``0 < |z0| < 1``, ``samples >= 4``
    (the default 512 is what the containment tolerances are calibrated
    for; tiny counts are allowed for smoke tests and quick plots); ``data``
    and ``tol`` check themselves.  The kernels behind :func:`region` rely
    on these checks and do not repeat them.
    """

    data: CaratheodoryData
    j: int
    z0: complex
    domain: DomainMap
    samples: int = 512
    tol: ToleranceConfig = field(default_factory=ToleranceConfig)

    def __post_init__(self) -> None:
        if not isinstance(self.data, CaratheodoryData):
            object.__setattr__(self, "data", CaratheodoryData(tuple(self.data)))
        object.__setattr__(self, "z0", _check_weight_and_endpoint(self.j, self.z0))
        if self.samples < _MIN_BOUNDARY_SAMPLES:
            raise ContractViolation(
                f"boundary needs at least {_MIN_BOUNDARY_SAMPLES} samples"
            )

    @classmethod
    def from_gamma(cls, gamma: Sequence[complex], **kwargs) -> "RegionRequest":
        return cls(data=data_from_parameters(gamma), **kwargs)


@dataclass(frozen=True)
class Empty:
    """Exterior data: no admissible function, empty region."""


@dataclass(frozen=True)
class SinglePoint:
    """Boundary data: the region collapses to one value."""

    w0: complex


@dataclass(frozen=True)
class Jordan:
    """Interior data: sampled closed boundary curve plus an interior point."""

    eps_angles: np.ndarray
    boundary: np.ndarray
    interior_witness: complex


RegionResult = Empty | SinglePoint | Jordan


@dataclass(frozen=True)
class OracleSample:
    """One random member of the region, with its generating data."""

    seed: int
    blaschke_degree: int
    zeros: tuple[complex, ...]
    unimodular_factor: complex
    value: complex


# --------------------------------------------------------------------------
# integrand and quadrature


def integrand(set_: SchurPolynomialSet, epsilon, j: int, domain: DomainMap, zeta):
    """``zeta^j (P(omega(zeta)) - P(gamma_0))`` for the free parameter ``epsilon``.

    Written as ``zeta^(j+1) P[omega, gamma_0] h`` with the difference
    quotient ``h = (omega - gamma_0) / zeta`` from :func:`lift` and the
    domain's divided difference ``P[omega, gamma_0]``, so no two values of
    ``P`` are subtracted and ``zeta = 0`` needs no special case (for
    ``j = -1`` its value is the limit ``P'(gamma_0) omega'(0)``).
    ``epsilon`` is a constant (the extremal family) or the values at
    ``zeta`` of a self-map of the disk (the oracle's Blaschke products);
    it broadcasts against ``zeta``, so a column of epsilons against a row
    of nodes evaluates a whole boundary batch at once.  Requires an
    integer ``j >= -1``, which nothing here checks.
    """
    zarr = np.asarray(zeta, dtype=np.complex128)
    w_star = np.asarray(epsilon, dtype=np.complex128)
    g0 = set_.gamma[0]
    h = lift(set_, w_star, zarr)
    out = zarr ** (j + 1) * domain.derivative(g0 + zarr * h, g0) * h
    if zarr.ndim == 0 and w_star.ndim == 0:
        return complex(np.asarray(out))
    return out


def _check_endpoint(z0: complex) -> complex:
    """``z0`` as a complex with ``0 < |z0| < 1``; NaN and infinite parts fail too."""
    z0 = complex(z0)
    if not (0.0 < abs(z0) < 1.0):
        raise ContractViolation("z0 must satisfy 0 < |z0| < 1")
    return z0


def _check_weight_and_endpoint(j: int, z0: complex) -> complex:
    """Check an integer weight power ``j >= -1`` and return :func:`_check_endpoint`
    of ``z0``: the checks of a region computation's ``j`` and ``z0``."""
    if not isinstance(j, int) or isinstance(j, bool):
        raise ContractViolation("weight power j must be an integer")
    if j < -1:
        raise ContractViolation("weight power j must be >= -1")
    return _check_endpoint(z0)


def q_value(
    set_: SchurPolynomialSet,
    j: int,
    z0: complex,
    epsilon,
    domain: DomainMap,
    quad_tol: float = 1e-10,
):
    """Integrate the extremal integrand along ``[0, z0]`` for ``epsilon``,
    a scalar or a column of epsilons (one value per row).

    For ``|epsilon| = 1`` this is a boundary point of the region; for
    ``epsilon = 0`` it is the canonical interior point.  Requires an
    integer ``j >= -1``, ``0 < |z0| < 1``, ``|epsilon| <= 1`` (up to
    ``cls_tol`` for boundary data) and ``quad_tol > 0``, which nothing here
    checks.
    """

    def f(zeta):
        return integrand(set_, epsilon, j, domain, zeta)

    return integrate_segment(f, z0, quad_tol)


def _equispaced_values(
    set_: SchurPolynomialSet,
    j: int,
    z0: complex,
    domain: DomainMap,
    count: int,
    quad_tol: float,
    witness: bool = False,
    shift: float = 0.0,
) -> np.ndarray:
    """Extremal values at the ``count`` epsilons ``exp(2 pi i (k + shift) /
    count)``, and with ``witness`` at ``epsilon = 0`` as one more row, in one
    batch: shared panels, refined until the worst member converges."""
    eps = np.exp(2j * np.pi * ((np.arange(count) + shift) / count))
    rows = np.append(eps, 0.0) if witness else eps
    return q_value(set_, j, z0, rows[:, None], domain, quad_tol)


def boundary_curve(
    set_: SchurPolynomialSet,
    j: int,
    z0: complex,
    domain: DomainMap,
    n_samples: int,
    quad_tol: float = 1e-10,
) -> Jordan:
    """The region's :class:`Jordan`: the extremal values at ``n_samples``
    equispaced unimodular epsilons, ``angles[k] = 2 pi k / n_samples``, and
    the interior witness at ``epsilon = 0``.

    A boundary value is a power series in ``epsilon`` whose coefficients
    decay like ``|z0|^k``.  The first batch integrates ``M`` equispaced
    epsilons, the smallest power of two ``M >= max(16, log(quad_tol) /
    log|z0|)`` or ``n_samples`` if fewer, and ``epsilon = 0`` as one more
    row, so every path takes its witness from it.  When the upper half of
    the values' discrete Fourier spectrum is at most ``quad_tol``, the
    samples are one inverse FFT of it; otherwise ``M`` doubles, and only
    the ``M`` epsilons halfway between the old ones are integrated.  A
    power-of-two ``n_samples`` is reached exactly; any other is resampled
    from the first ``M`` above it, or integrated directly, after the tries,
    when that ``M`` fails too or a batch of unrequested epsilons does not
    converge.  The cost follows ``M``, not ``n_samples``: no batch takes
    more points per epsilon than a superset of it, so the doublings cost no
    more than the last ``M`` at once.  The values agree with direct
    integration to rounding.

    Requires an integer ``j >= -1``, ``0 < |z0| < 1``, ``n_samples >= 4``
    and a positive, finite ``quad_tol``: the fields of a valid
    :class:`RegionRequest`, which nothing here checks again.
    """
    angles = 2.0 * np.pi * (np.arange(n_samples) / n_samples)
    decay = math.ceil(math.log(quad_tol) / math.log(abs(z0)))
    m = min(n_samples, 1 << (max(_MIN_SPECTRAL_SAMPLES, decay) - 1).bit_length())
    first = _equispaced_values(set_, j, z0, domain, m, quad_tol, True)  # and eps = 0
    values, witness = first[:-1], complex(first[-1])
    while m != n_samples:
        resampled = _resampled(values, n_samples, quad_tol)
        if resampled is not None:
            return Jordan(eps_angles=angles, boundary=resampled, interior_witness=witness)
        if m > n_samples:
            break
        try:
            between = _equispaced_values(set_, j, z0, domain, m, quad_tol, shift=0.5)
        except QuadratureNonConvergence:
            if n_samples % (2 * m) == 0:
                raise  # a direct batch holds these epsilons and fails on them too
            break
        values = np.column_stack((values, between)).ravel()
        m *= 2
    if m != n_samples:
        values = _equispaced_values(set_, j, z0, domain, n_samples, quad_tol)
    return Jordan(eps_angles=angles, boundary=values, interior_witness=witness)


def _resampled(values: np.ndarray, n_samples: int, quad_tol: float):
    """The trigonometric interpolant of ``m`` equispaced ``values`` (a power
    series in ``epsilon``) at ``n_samples > m / 2`` equispaced angles, or
    None when the upper half of its spectrum exceeds ``quad_tol``.

    Coefficients ``k >= n_samples`` are folded onto ``k - n_samples``,
    where they alias on the coarser grid, so the samples are those of the
    whole interpolant.
    """
    m = len(values)
    coeffs = np.fft.fft(values) / m
    if np.max(np.abs(coeffs[m // 2 :])) > quad_tol:
        return None
    kept = min(m, n_samples)
    folded = np.zeros(n_samples, dtype=np.complex128)
    folded[:kept] = coeffs[:kept]
    folded[: m - kept] += coeffs[kept:]
    return np.fft.ifft(folded) * n_samples


# --------------------------------------------------------------------------
# region dispatch


def _validate_polygon(points: np.ndarray, geom_tol: float) -> None:
    """Reject a boundary polygon that is not a simple convex loop.

    The extremal curve is analytic, convex and traversed once, so the
    sampled polygon must turn consistently (defect above ``-geom_tol``)
    and wind exactly once; anything else signals a numerical fault.
    """
    distinct = points[np.concatenate(([True], np.abs(np.diff(points)) > 0))]
    if len(distinct) > 1 and distinct[-1] == distinct[0]:
        distinct = distinct[:-1]
    if len(distinct) < 3:
        raise GeometryDegenerate("boundary polygon collapsed to fewer than 3 points")
    edges = np.roll(distinct, -1) - distinct
    turn = np.angle(np.roll(edges, -1) / edges)
    winding = float(np.sum(turn) / (2.0 * np.pi))
    if convexity_defect(points) < -geom_tol:
        raise GeometryDegenerate(
            "boundary polygon is non-convex beyond tolerance; "
            "the extremal curve should be convex"
        )
    if abs(abs(winding) - 1.0) > 1e-3:
        raise GeometryDegenerate(
            f"boundary polygon winds {winding:g} times instead of once"
        )


def region(request: RegionRequest) -> RegionResult:
    """Compute the variability region for a fully specified request.

    Dispatches on the classification of the data: Empty for exterior,
    SinglePoint for boundary, and for interior data the Jordan of
    :func:`boundary_curve` (sampled curve and ``eps = 0`` interior
    witness), once its polygon is checked to be a simple convex loop.
    """
    cls = schur_parameters(request.data, request.tol)
    quad_tol = request.tol.quad_tol
    if isinstance(cls, Exterior):
        return Empty()
    if isinstance(cls, Boundary):
        # the extremal member of the interior prefix at eps = gamma_i; for
        # i = 0 the set (0,) makes it gamma_0 * zeta
        *inner, seed = cls.gamma_prefix
        set_ = build_polynomials(inner or (0.0,))
        w0 = q_value(set_, request.j, request.z0, seed, request.domain, quad_tol)
        return SinglePoint(w0=complex(w0))
    assert isinstance(cls, Interior)
    set_ = build_polynomials(cls.gamma)
    jordan = boundary_curve(
        set_, request.j, request.z0, request.domain, request.samples, quad_tol
    )
    _validate_polygon(jordan.boundary, request.tol.geom_tol)
    return jordan


# --------------------------------------------------------------------------
# closed-form cross-check: bounded derivative quotients over convex maps


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
    radius ``|z0|`` around 1 (the two poles are unimodular), so the branch
    cut is unreachable for valid inputs; the guard raises BranchCutHit if
    rounding ever lands an argument on ``(-inf, 0]``.  ``theta`` may be a
    scalar or an array; for ``lam = 0`` the curve collapses to
    ``-log(1 - e^{i theta} z0^2)``.
    """
    lam = _check_lam(lam)
    z0 = _check_endpoint(z0)
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


# --------------------------------------------------------------------------
# membership oracle


def _draw_blaschke(
    rng: np.random.Generator, count: int
) -> tuple[list[int], np.ndarray, np.ndarray, np.ndarray]:
    """``count`` Blaschke products: degrees, zeros and their mask padded to
    ``(count, _MAX_BLASCHKE_DEGREE)``, and front factors.

    Each draw takes its degree, then one ``2 * degree + 1`` block of
    uniforms split into radii, angles and the front's angle: the same
    stream as one call for each.  Only the draws loop; the maps from
    uniforms to zeros and fronts run once over the padded arrays (a padded
    zero maps to exactly 0).
    """
    degrees = [0] * count
    radial = np.zeros((count, _MAX_BLASCHKE_DEGREE))
    angular = np.zeros((count, _MAX_BLASCHKE_DEGREE))
    front = np.empty(count)
    for i in range(count):
        degree = int(rng.integers(0, _MAX_BLASCHKE_DEGREE + 1))
        u = rng.random(2 * degree + 1)
        degrees[i] = degree
        radial[i, :degree] = u[:degree]
        angular[i, :degree] = u[degree:-1]
        front[i] = u[-1]
    zeros = 0.95 * np.sqrt(radial) * np.exp(1j * (2.0 * np.pi * angular))
    mask = np.arange(_MAX_BLASCHKE_DEGREE) < np.array(degrees)[:, None]
    return degrees, zeros, mask, np.exp(2j * np.pi * front)


def oracle_samples(
    gamma: Sequence[complex],
    domain: DomainMap,
    j: int,
    z0: complex,
    seed: int,
    count: int,
    quad_tol: float = 1e-10,
) -> list[OracleSample]:
    """Draw ``count`` random members of the region, deterministically.

    Each draw is a random finite Blaschke product (degree uniform on 0..6,
    zeros area-uniform in the disk of radius 0.95, unimodular front
    factor) lifted through the polynomial set and integrated.  All draws
    come from one PCG64 stream seeded with ``seed``; the whole batch is
    integrated together.  ``j`` and ``z0`` are checked as in
    :class:`RegionRequest` and ``quad_tol`` as in :class:`ToleranceConfig`,
    before anything is integrated.
    """
    z0 = _check_weight_and_endpoint(j, z0)
    ToleranceConfig(quad_tol=quad_tol)  # raises on a bad quad_tol
    if count < 0:
        raise ContractViolation("sample count must be non-negative")
    if count == 0:
        return []
    set_ = build_polynomials(gamma)
    rng = np.random.default_rng(seed)
    degrees, zeros_mat, mask, fronts = _draw_blaschke(rng, count)

    def f(zeta):
        # one zero column at a time, so no array is larger than (count, nodes)
        product = np.ones((count, len(zeta)), dtype=np.complex128)
        for zeros, used in zip(zeros_mat.T, mask.T):
            factor = (zeta - zeros[:, None]) / (1.0 - np.conjugate(zeros)[:, None] * zeta)
            product *= np.where(used[:, None], factor, 1.0)
        return integrand(set_, fronts[:, None] * product, j, domain, zeta)

    values = np.atleast_1d(integrate_segment(f, z0, quad_tol))
    return [
        OracleSample(
            seed=int(seed),
            blaschke_degree=degree,
            zeros=tuple(zeros[:degree]),
            unimodular_factor=front,
            value=value,
        )
        for degree, zeros, front, value in zip(
            degrees, zeros_mat.tolist(), fronts.tolist(), values.tolist()
        )
    ]


# --------------------------------------------------------------------------
# polygon geometry


def _vertices(obj) -> np.ndarray:
    points = obj.boundary if isinstance(obj, Jordan) else obj
    v = np.asarray(points, dtype=np.complex128)
    if v.ndim != 1 or len(v) < _MIN_POLYGON_POINTS:
        raise ContractViolation(
            f"polygon needs at least {_MIN_POLYGON_POINTS} points in curve order"
        )
    return v


def convexity_defect(boundary) -> float:
    """Most negative normalized cross product over consecutive edge pairs.

    Values at or above ``-geom_tol`` indicate convexity at the sampling
    resolution (for a counterclockwise curve); strongly negative values
    flag genuinely reflex corners.  Zero-length edges are skipped.
    """
    v = _vertices(boundary)
    e1 = np.roll(v, -1) - v
    e2 = np.roll(e1, -1)
    cross = np.imag(np.conjugate(e1) * e2)
    norms = np.abs(e1) * np.abs(e2)
    keep = norms > 0.0
    if not np.any(keep):
        raise GeometryDegenerate("all polygon edges have zero length")
    return float(np.min(cross[keep] / norms[keep]))


def _row_minima(
    queries: np.ndarray, n_cols: int, fill, bounds, v: np.ndarray
) -> np.ndarray:
    """Per-query minimum over ``n_cols`` columns, skipping blocks that cannot hold it.

    ``fill(q, cols)`` returns the values of the queries ``q`` against the
    columns ``cols`` (a slice) as a ``(queries, cols)`` array, each element
    through the ufuncs and operand layout of a whole ``(queries, n_cols)``
    matrix: numpy's complex product takes an FMA or a plain path by layout.
    ``bounds(u)`` gets the queries less the vertex mean c of the polygon
    ``v`` and returns an upper and a lower bound on each block's values, as
    two ``(blocks, queries)`` arrays, for the blocks of :func:`_blocks`.
    Values and bounds err by a few ulps of |u| + extent (twice the largest
    |v - c|), so a block is evaluated only where its lower bound is within
    ``_BOUND_SLACK`` times that of the least upper bound.  The block holding
    the minimum always is, and the result is the full row's minimum bit for
    bit.  A query whose bounds are not all finite takes the full row.
    Memory is O(``_BOUND_ELEMENTS`` + rows * ``_EDGE_BLOCK``) for any number
    of queries.
    """
    centre = np.mean(v)
    extent = 2.0 * float(np.max(np.abs(v - centre)))
    starts, counts, _ = _blocks(n_cols)
    rows_per_pass = max(1, _BOUND_ELEMENTS // len(starts))
    out = np.empty(len(queries))
    for lo in range(0, len(queries), rows_per_pass):
        q = queries[lo : lo + rows_per_pass]
        u = q - centre
        upper, lower = bounds(u)
        ceiling = np.min(upper, axis=0) + _BOUND_SLACK * (np.abs(u) + extent)
        wanted = lower <= ceiling
        wanted[:, ~(np.isfinite(ceiling) & np.all(np.isfinite(lower), axis=0))] = True
        best = np.full(len(q), np.inf)
        for b in np.flatnonzero(np.any(wanted, axis=1)):
            rows = np.flatnonzero(wanted[b])
            block = slice(starts[b], starts[b] + counts[b])
            best[rows] = np.minimum(best[rows], fill(q[rows], block).min(axis=1))
        out[lo : lo + len(q)] = best
    return out


def _blocks(n: int):
    """Start, length and middle index of each block of consecutive columns.

    The fewest blocks of at most ``_EDGE_BLOCK`` columns, of near-equal
    length, so that no block is a lone column when ``n > 1``: numpy can
    compute a lone complex product on another path than the same product
    within a row.
    """
    n_blocks = -(-n // _EDGE_BLOCK)
    starts = np.arange(n_blocks) * n // n_blocks
    counts = np.diff(np.append(starts, n))
    return starts, counts, starts + counts // 2


def _outward_depths(v: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """Max over edges of the signed distance outside each edge line.

    Negative inside a convex polygon (equal to minus the distance to the
    boundary), positive outside.  Orientation is normalized internally.
    """
    shoelace = float(np.sum(np.imag(np.conjugate(v) * np.roll(v, -1))))
    orient = 1.0 if shoelace >= 0.0 else -1.0
    edges = np.roll(v, -1) - v
    keep = np.abs(edges) > 0.0
    if not np.any(keep):
        raise GeometryDegenerate("all polygon edges have zero length")
    e = edges[keep]
    base = v[keep]
    conj_e = np.conjugate(e)
    # x / (orient |e|) equals (orient x) / |e| bit for bit: negation is exact
    scale = orient * np.abs(e)

    def fill(q, cols):
        work = np.multiply(conj_e[None, cols], np.subtract(q[:, None], base[None, cols]))
        return np.divide(work.imag, scale[None, cols])

    # The inward distance to edge k is affine in q: with the base p of a
    # block's middle edge, inward_k(q) = inward_k(p) + <q - p, m_k> for the
    # unit inward normal m_k.  In the frame (n, i n) of the middle edge's
    # normal n, write q - p = x + i y and m_k = a_k + i c_k.  Over the block,
    # inward_k(q) >= min inward_k(p) + x mid(a) - |x| half(a) + y mid(c)
    # - |y| half(c), and the middle edge itself has inward(q) = x.  Each
    # term is affine in u = q - c, so one matrix product gives them all.
    starts, counts, middles = _blocks(len(e))
    owner = np.repeat(np.arange(len(starts)), counts)
    anchor = base[middles]
    normal = 1j * e[middles] / scale[middles]
    local = 1j * e / scale * np.conjugate(normal)[owner]
    offset = anchor - np.mean(v)

    def affine(direction, factor):
        """Rows mapping (1, Re u, Im u) to factor * <q - p, direction>."""
        shift = -(np.conjugate(direction) * offset).real
        return factor[:, None] * np.stack([shift, direction.real, direction.imag], axis=1)

    def spread(x):
        lo, hi = np.minimum.reduceat(x, starts), np.maximum.reduceat(x, starts)
        return (lo + hi) / 2.0, (hi - lo) / 2.0

    (a_mid, a_half), (c_mid, c_half) = spread(local.real), spread(local.imag)
    linear_rows = affine(normal, a_mid) + affine(1j * normal, c_mid)
    at_anchor = np.imag(conj_e * (anchor[owner] - base)) / scale
    linear_rows[:, 0] += np.minimum.reduceat(at_anchor, starts)
    weights = np.concatenate(
        [
            affine(normal, np.ones(len(starts))),
            linear_rows,
            affine(normal, a_half),
            affine(1j * normal, c_half),
        ]
    )

    def bounds(u):
        terms = weights @ np.stack([np.ones(len(u)), u.real, u.imag])
        x, linear, x_half, y_half = np.split(terms, 4)
        return x, linear - np.abs(x_half) - np.abs(y_half)

    return -_row_minima(queries, len(e), fill, bounds, v)


def containment_depths(result, points) -> np.ndarray:
    """Signed outward distance of each point from the sampled boundary.

    Negative values are inside the polygon (minus the distance to the
    nearest edge line), positive values are outside; ``contains`` is the
    thresholded form of this.  The edges are cut into blocks of
    ``_EDGE_BLOCK``; each point gets the exact formula only on the blocks
    whose lower bound can hold its minimum, so the result is bit-identical
    to the full q * N pass.  For q points and N vertices the bounds cost
    O(q * N / ``_EDGE_BLOCK``) and the exact pass O(q * k * ``_EDGE_BLOCK``)
    for k kept blocks per point, a few near the boundary (5 % of q * N for
    the sample pipeline's draws against 4096 vertices); a point nearly
    equidistant from every edge, such as the centre of a regular polygon,
    keeps them all.  Memory is O(N) plus a bound matrix of at most
    ``_BOUND_ELEMENTS`` entries per pass of points, whatever q is.
    """
    v = _vertices(result)
    q = np.atleast_1d(np.asarray(points, dtype=np.complex128))
    return _outward_depths(v, q)


def contains(result, w, geom_tol: float = 1e-6) -> bool:
    """Point-in-convex-polygon test against the sampled boundary.

    Accepts points up to ``geom_tol`` outside an edge, absorbing both
    quadrature error and the gap between the inscribed polygon and the
    true curve.  ``result`` is a Jordan region or a vertex sequence.
    """
    v = _vertices(result)
    depth = _outward_depths(v, np.asarray([complex(w)], dtype=np.complex128))[0]
    return bool(depth <= geom_tol)


def enclosed_area(boundary) -> float:
    """Signed area enclosed by equispaced samples of a closed curve.

    Computes ``pi * sum_k k |c_k|^2`` from the discrete Fourier
    coefficients of the samples — the exact area of the trigonometric
    interpolant.  For analytic curves (every boundary produced here) the
    aliasing error decays geometrically in the sample count, so doubling
    the sampling leaves the value unchanged to near machine precision;
    polygon shoelace area would instead drift at O(N^-2).  Positive for
    counterclockwise curves.
    """
    v = np.asarray(boundary, dtype=np.complex128)
    n = len(v)
    if n < _MIN_BOUNDARY_SAMPLES:
        raise ContractViolation(
            f"enclosed_area needs at least {_MIN_BOUNDARY_SAMPLES} samples"
        )
    coeffs = np.fft.fft(v) / n
    k = np.fft.fftfreq(n, d=1.0 / n)
    return float(np.pi * np.sum(k * np.abs(coeffs) ** 2))
