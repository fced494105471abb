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

A :class:`RegionRequest` is validated once, when it is built, down to the
types of its domain and tolerances, and :func:`oracle_samples` checks its
loose arguments the same way.  The kernels behind them (:func:`integrand`,
:func:`q_value`, :func:`boundary_curve` and the quadrature) state their
preconditions and do not check them.  The polygon functions check that
their points are numbers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import accumulate
from typing import NamedTuple, Sequence

import numpy as np

from .domains import DomainMap
from .errors import ContractViolation, GeometryDegenerate, QuadratureNonConvergence
from .polynomials import SchurPolynomialSet, build_polynomials, eval_poly, lift
from .quadrature import integrate_segment
from .schur import (
    Boundary,
    CaratheodoryData,
    Exterior,
    Interior,
    ToleranceConfig,
    _as_number,
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
#: Largest boundary sample count.  Peak RSS of ``schurvar boundary`` at 65536
#: on a 2-vCPU x86-64 host: 48 MB where the spectral tries succeed (order-3
#: half-plane data at |z0| 0.5 and 0.9; data 0.99 at 0.9); 141 MB, the most
#: seen, where the samples are integrated directly as (samples x 15) arrays
#: (65535 of data 0.993 at z0 0.914, j -1; exit 4).
MAX_SAMPLES = 65536
#: Largest oracle draw count.  The oracle builds (count x nodes) complex
#: arrays one Blaschke zero column at a time, with up to 48 nodes per rule
#: pair: ``schurvar sample`` peaks near 57 MB at 10000 draws at |z0| = 0.5
#: and 85 MB at 0.9, where the pair is largest (same data and host).
MAX_COUNT = 10000
#: Fewest equispaced epsilons the spectral boundary integrates.
_MIN_SPECTRAL_SAMPLES = 16
#: The first spectral batch is sized for a coefficient of this times
#: ``quad_tol`` at its last epsilon.  The tail check reads the upper half of
#: the spectrum, so a margin near 1 leaves many first batches failing; one
#: near ``quad_tol`` integrates about twice the epsilons that pass.  Over
#: the ``boundary`` benchmark's inputs (seed 6), 1e-2 to 1e-7 took the same
#: time within noise; 1e-2 doubled 16 % of the first batches, 1e-6 0.8 %
#: (at 24 % more points than 1e-2) and the count of ``|z0|`` alone 0.6 %.
_FIRST_TAIL_MARGIN = 1e-6
_MIN_POLYGON_POINTS = 3
#: A rejected boundary whose samples lie within this many rounding units of
#: the witness's magnitude is reported as below the resolution of its centre.
_UNRESOLVED_ULPS = 64
_MAX_BLASCHKE_DEGREE = 6
#: A draw's degree is ``integers(0, _DEGREE_SPAN)``: Lemire's method scales a
#: 32-bit half by the span and rejects the product's low words below
#: ``(2**32 - span) % span``.
_DEGREE_SPAN = _MAX_BLASCHKE_DEGREE + 1
_LEMIRE_THRESHOLD = (2**32 - _DEGREE_SPAN) % _DEGREE_SPAN
#: 64-bit outputs that one draw takes at most without a rejection: one for its
#: degree and one per uniform.
_RAWS_PER_DRAW = 2 * _MAX_BLASCHKE_DEGREE + 2
#: Consecutive edges per block of the pruned point-against-edges geometry.
#: Smaller blocks prune more pairs but cost one more Python step each.
_EDGE_BLOCK = 64
#: Blocks times queries per pass of the block bounds, so that memory does not
#: grow with the number of queries.
_BOUND_ELEMENTS = 2**16
#: Rounding slack of the block bounds, relative to |q - centre| plus the
#: polygon's extent: about 4500 ulps, where values and bounds err by a few.
_BOUND_SLACK = 1e-12


# --------------------------------------------------------------------------
# request / result types


@dataclass(frozen=True)
class RegionRequest:
    """A fully specified region computation, validated once here.

    ``j >= -1`` (integer weight power), ``0 < |z0| < 1``, an integer
    ``4 <= samples <= MAX_SAMPLES`` (the default 512 is what the containment
    tolerances are calibrated for; tiny counts are allowed for smoke tests
    and quick plots; the cap keeps a request from exhausting memory), a
    :class:`DomainMap` ``domain`` and a :class:`ToleranceConfig` ``tol``;
    ``data`` and ``tol`` check themselves.  ``j`` and ``samples``
    are stored as Python ints.  The kernels behind :func:`region` rely on
    these checks and do not repeat them.
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
        if not isinstance(self.tol, ToleranceConfig):
            kind = type(self.tol).__name__
            raise ContractViolation(f"tol must be a ToleranceConfig, not {kind}")
        _check_domain(self.domain)
        j, z0 = _check_weight_and_endpoint(self.j, self.z0)
        samples = _as_number(self.samples, "boundary sample count", int)
        if not _MIN_BOUNDARY_SAMPLES <= samples <= MAX_SAMPLES:
            raise ContractViolation(
                f"boundary takes {_MIN_BOUNDARY_SAMPLES} to {MAX_SAMPLES} samples, got {samples}"
            )
        for name, value in (("j", j), ("z0", z0), ("samples", samples)):
            object.__setattr__(self, name, value)

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


@dataclass(frozen=True, eq=False)
class Jordan:
    """Interior data: sampled closed boundary curve plus an interior point.
    ``eps_angles`` derives the samples' angles from their count on each read;
    results compare by identity."""

    boundary: np.ndarray
    interior_witness: complex

    @property
    def eps_angles(self) -> np.ndarray:
        n = len(self.boundary)
        return 2.0 * np.pi * (np.arange(n) / n)


RegionResult = Empty | SinglePoint | Jordan


class OracleSample(NamedTuple):
    """One random member of the region and the Blaschke product that
    generates it: its zeros (as many as its degree) and front factor.  A
    record is a tuple: it unpacks, and it compares and hashes by value."""

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


def _check_domain(domain: DomainMap) -> None:
    if not isinstance(domain, DomainMap):
        raise ContractViolation(f"domain must be a DomainMap, not {type(domain).__name__}")


def _check_weight_and_endpoint(j: int, z0: complex) -> tuple[int, complex]:
    """The checks of a region computation's ``j`` and ``z0``: an integer
    weight power ``j >= -1``, and ``z0`` as a complex with ``0 < |z0| < 1``
    (NaN and infinite parts fail too)."""
    j = _as_number(j, "weight power j", int)
    if j < -1:
        raise ContractViolation("weight power j must be >= -1")
    z0 = _as_number(z0, "z0")
    if not (0.0 < abs(z0) < 1.0):
        raise ContractViolation("z0 must satisfy 0 < |z0| < 1")
    return j, z0


def q_value(
    set_: SchurPolynomialSet,
    j: int,
    z0: complex,
    epsilon,
    domain: DomainMap,
    quad_tol: float = ToleranceConfig.quad_tol,
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
    rows = np.zeros(count + witness, dtype=np.complex128)  # the witness row is 0
    np.exp(2j * np.pi * ((np.arange(count) + shift) / count), out=rows[:count])
    return q_value(set_, j, z0, rows[:, None], domain, quad_tol)


def boundary_curve(
    set_: SchurPolynomialSet,
    j: int,
    z0: complex,
    domain: DomainMap,
    n_samples: int,
    quad_tol: float = ToleranceConfig.quad_tol,
) -> Jordan:
    """The region's :class:`Jordan`: the extremal values at the
    ``n_samples`` equispaced unimodular epsilons ``exp(2 pi i k /
    n_samples)``, and the interior witness at ``epsilon = 0``.

    A boundary value is a power series in ``epsilon``.  It converges out to
    the nearest ``epsilon`` where ``omega_epsilon(z0)`` meets the lift's
    pole or ``+-1``, so its coefficients decay like the rate ``r = |z0|
    max(|A / B|, |(At - A) / (B - Bt)|, |(At + A) / (B + Bt)|)``, the
    polynomials read at ``z0``: ``|z0|`` times each ratio is the inverse
    distance to one of those epsilons.  The first batch integrates ``M``
    equispaced epsilons, the smallest power of two ``M >= max(16, log(c
    quad_tol) / log r)`` with ``c = _FIRST_TAIL_MARGIN`` (16 when ``r``
    underflows to 0), and ``epsilon = 0`` as one more row, so every path
    takes its witness from it.  ``M`` is capped by ``n_samples`` and by the
    count ``log(quad_tol) / log|z0|`` takes in its place: ``|z0|^k`` is the
    slowest decay there is, reached by order-0 data, whose second ratio is
    unimodular; the cap also holds where ``r`` is not below 1 in floats.
    The coefficients' scale is not known before they are integrated, so
    ``M`` may be too low; the tail check below still decides.  When the upper half of the values'
    discrete Fourier spectrum is at most ``quad_tol``, the samples are one
    inverse FFT of it; otherwise ``M`` doubles, and only the ``M``
    epsilons halfway between the old ones are integrated.  A power-of-two
    ``n_samples`` is reached exactly; any other is resampled from the first
    ``M`` above it, or integrated directly, after the tries, when that
    ``M`` fails too or a batch of unrequested epsilons does not converge.
    The cost follows ``M``, not ``n_samples``: no batch takes more points
    per epsilon than a superset of it, so the doublings cost no more than
    the last ``M`` at once.  The values agree with direct integration to
    rounding.

    Requires an integer ``j >= -1``, ``0 < |z0| < 1``, ``n_samples >= 4``
    and a positive, finite ``quad_tol``: the fields of a valid
    :class:`RegionRequest`, which nothing here checks again.
    """
    decay = math.log(quad_tol) / math.log(abs(z0))
    rate = _decay_rate(set_, z0)
    if rate == 0.0:
        decay = _MIN_SPECTRAL_SAMPLES
    elif rate < 1.0:  # NaN takes the cap too
        decay = min(decay, math.log(_FIRST_TAIL_MARGIN * quad_tol) / math.log(rate))
    m = min(n_samples, 1 << (max(_MIN_SPECTRAL_SAMPLES, math.ceil(decay)) - 1).bit_length())
    first = _equispaced_values(set_, j, z0, domain, m, quad_tol, True)  # and eps = 0
    values, witness = first[:-1], complex(first[-1])
    while m != n_samples:
        resampled = _resampled(values, n_samples, quad_tol)
        if resampled is not None:
            return Jordan(boundary=resampled, interior_witness=witness)
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
    return Jordan(boundary=values, interior_witness=witness)


def _decay_rate(set_: SchurPolynomialSet, z0: complex) -> float:
    """The largest inverse distance from 0 to an ``epsilon`` where
    ``omega_epsilon(z0)`` meets the lift's pole, ``+1`` or ``-1``: the decay
    rate of :func:`boundary_curve`'s series.  NaN or infinite where a
    polynomial value is not finite or a denominator is 0 in floats."""
    a, b, at, bt = eval_poly(set_.coeffs, z0)
    with np.errstate(all="ignore"):
        inverse = np.abs(np.array([a, at - a, at + a]) / np.array([b, b - bt, b + bt]))
    return abs(z0) * float(inverse.max())


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
    if abs(coeffs[m // 2 :]).max() > quad_tol:
        return None
    kept = min(m, n_samples)
    folded = np.zeros(n_samples, dtype=np.complex128)
    folded[:kept] = coeffs[:kept]
    folded[: m - kept] += coeffs[kept:]
    out = np.fft.ifft(folded)
    out *= n_samples  # in place: no second N-sample array
    return out


# --------------------------------------------------------------------------
# region dispatch


def _validate_polygon(points: np.ndarray, geom_tol: float) -> None:
    """Reject a boundary polygon that is not a simple convex loop.

    The extremal curve is analytic, convex and traversed once, so the
    sampled polygon must turn consistently (defect above ``-geom_tol``, not
    NaN) and wind exactly once; anything else signals a numerical fault.
    """
    sine, angle = _turns(_loop(points)[1])
    winding = float(angle.sum() / (2.0 * np.pi))
    if not float(sine.min()) >= -geom_tol:
        raise GeometryDegenerate(
            "boundary polygon is non-convex beyond tolerance; "
            "the extremal curve should be convex"
        )
    if not abs(abs(winding) - 1.0) <= 1e-3:
        raise GeometryDegenerate(f"boundary polygon winds {winding:g} times instead of once")


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
    try:
        _validate_polygon(jordan.boundary, request.tol.geom_tol)
    except GeometryDegenerate:
        _raise_if_unresolved(jordan)
        raise
    return jordan


def _raise_if_unresolved(jordan: Jordan) -> None:
    """Name the fault of a rejected polygon that floats cannot resolve.

    When its samples all lie within ``_UNRESOLVED_ULPS`` rounding units of
    a witness of normal magnitude, the region is too small to be told apart
    from the rounding of its own centre.  When they lie within ``spread`` of
    the witness with ``(2 spread)^2`` below the smallest normal float, every
    product of two edge lengths in the turn test underflows: the region is
    below the float range, which a witness that underflows to 0 is too.
    """
    witness = jordan.interior_witness
    spread = float(np.max(np.abs(jordan.boundary - witness)))
    tiny = np.finfo(float).tiny
    if tiny <= abs(witness) and spread <= _UNRESOLVED_ULPS * np.finfo(float).eps * abs(witness):
        raise GeometryDegenerate(
            f"region is below the rounding of its centre: its boundary samples "
            f"lie within {spread:.3g} of the interior witness, of magnitude "
            f"{abs(witness):.3g}"
        ) from None
    if (2.0 * spread) ** 2 < tiny:
        raise GeometryDegenerate(
            f"region is below the float range: its boundary samples lie within "
            f"{spread:.3g} of the interior witness, so the products of its edge "
            f"lengths fall below the smallest normal float"
        ) from None


# --------------------------------------------------------------------------
# membership oracle


def _draw_blaschke(
    rng: np.random.Generator, count: int
) -> tuple[list[int], np.ndarray, np.ndarray, np.ndarray]:
    """``count`` Blaschke products: degrees, zeros and their mask padded to
    ``(count, _MAX_BLASCHKE_DEGREE)``, and front factors.

    Each draw takes its degree by ``rng.integers(0, _MAX_BLASCHKE_DEGREE +
    1)``, then one ``2 * degree + 1`` block of ``rng.random`` uniforms split
    into radii, angles and the front's angle.  That stream is read here from
    one ``random_raw`` call of ``rng``'s PCG64 bit generator, as numpy
    derives it from the 64-bit outputs:

    * a degree is Lemire's bounded integer of a 32-bit half, rejected while
      the low word of ``half * span`` is below ``_LEMIRE_THRESHOLD``; the
      low half of an output is taken first and the high half kept for the
      next degree, starting from a half the generator already holds.  This
      integer-only pass records where each draw's uniforms start;
    * a uniform is ``(output >> 11) * 2**-53``, mapped once over the outputs
      used and gathered into the drawn zeros' radii and angles and the
      fronts.

    Only the drawn zeros are mapped to the disk; a padded slot stays exactly
    0.  The generator is left past every output drawn, used or not.
    """
    bits = rng.bit_generator
    state = bits.state
    half = state["uinteger"] if state["has_uint32"] else None
    raws = bits.random_raw(_RAWS_PER_DRAW * count)
    degrees = [0] * count
    starts = [0] * count
    at = 0
    for i in range(count):
        while True:
            if half is None:
                if at + _RAWS_PER_DRAW > len(raws):  # rejected halves took the room
                    more = bits.random_raw(_RAWS_PER_DRAW * (count - i))
                    raws = np.concatenate((raws, more))
                raw = raws.item(at)
                at += 1
                scaled, half = (raw & 0xFFFFFFFF) * _DEGREE_SPAN, raw >> 32
            else:
                scaled, half = half * _DEGREE_SPAN, None
            if scaled & 0xFFFFFFFF >= _LEMIRE_THRESHOLD:
                break
        degrees[i] = scaled >> 32
        starts[i] = at
        at += 2 * degrees[i] + 1

    uniform = (raws[:at] >> np.uint64(11)) * 2.0**-53
    degree, start = np.array(degrees), np.array(starts)
    mask = np.arange(_MAX_BLASCHKE_DEGREE) < degree[:, None]
    radius_at = (start[:, None] + np.arange(_MAX_BLASCHKE_DEGREE))[mask]
    angular = 2.0 * np.pi * uniform[radius_at + np.repeat(degree, degree)]
    zeros = np.zeros((count, _MAX_BLASCHKE_DEGREE), dtype=np.complex128)
    zeros[mask] = 0.95 * np.sqrt(uniform[radius_at]) * np.exp(1j * angular)
    return degrees, zeros, mask, np.exp(2j * np.pi * uniform[start + 2 * degree])


def oracle_samples(
    gamma: Sequence[complex],
    domain: DomainMap,
    j: int,
    z0: complex,
    seed: int,
    count: int,
    quad_tol: float = ToleranceConfig.quad_tol,
) -> list[OracleSample]:
    """Draw ``count`` random members of the region, deterministically.

    Each draw is a random finite Blaschke product (degree uniform on 0..6,
    zeros area-uniform in the disk of radius 0.95, unimodular front
    factor) lifted through the polynomial set and integrated.  All draws
    come from one PCG64 stream seeded with ``seed``, as one
    ``integers(0, 7)`` and one ``random(2 * degree + 1)`` call per draw
    would give it (read from one batch of raw outputs, see
    :func:`_draw_blaschke`).  The whole batch is integrated together,
    sorted by degree, highest first, so that each zero's factor is
    multiplied into the prefix of draws that have that zero; the values go
    back in draw order.  ``domain``, ``j`` and ``z0`` are checked as in
    :class:`RegionRequest`, ``quad_tol`` as in :class:`ToleranceConfig`,
    ``seed`` as a non-negative integer, ``count`` as an integer in ``[0,
    MAX_COUNT]`` and ``gamma`` as interior parameters, at any ``count`` and
    before anything is drawn or integrated.
    """
    _check_domain(domain)
    j, z0 = _check_weight_and_endpoint(j, z0)
    ToleranceConfig(quad_tol=quad_tol)  # raises on a bad quad_tol
    seed = _as_number(seed, "seed", int)
    if seed < 0:
        raise ContractViolation("seed must be non-negative")
    count = _as_number(count, "sample count", int)
    if not 0 <= count <= MAX_COUNT:
        raise ContractViolation(f"sample count must be from 0 to {MAX_COUNT}, got {count}")
    set_ = build_polynomials(gamma)
    if count == 0:
        return []
    rng = np.random.default_rng(seed)
    degrees, zeros_mat, mask, fronts = _draw_blaschke(rng, count)
    # by degree, highest first: the draws with a k-th zero are a prefix
    order = np.argsort(-np.array(degrees), kind="stable")
    sorted_zeros = zeros_mat[order]
    sorted_fronts = fronts[order, None]
    having = np.count_nonzero(mask, axis=0).tolist()

    def f(zeta):
        # one zero column at a time, so no array is larger than (count, nodes)
        product = np.ones((count, len(zeta)), dtype=np.complex128)
        for k, n in enumerate(having):
            z = sorted_zeros[:n, k, None]
            product[:n] *= (zeta - z) / (1.0 - np.conjugate(z) * zeta)
        return integrand(set_, sorted_fronts * product, j, domain, zeta)

    values = np.empty(count, dtype=np.complex128)
    values[order] = integrate_segment(f, z0, quad_tol)
    drawn = zeros_mat[mask].tolist()  # each draw's zeros in turn
    zeros = [tuple(drawn[end - d : end]) for d, end in zip(degrees, accumulate(degrees))]
    return list(map(OracleSample._make, zip(zeros, fronts.tolist(), values.tolist())))


# --------------------------------------------------------------------------
# polygon geometry


def _numbers(values, what: str) -> np.ndarray:
    """``values`` as a complex array, refused unless numpy holds them as
    integers, floats or complex numbers (not booleans, strings, ``None`` or
    other objects)."""
    arr = np.asarray(values)
    if arr.dtype.kind not in "iufc":
        raise ContractViolation(
            f"{what} must be integer, float or complex numbers, not {arr.dtype}"
        )
    return arr.astype(np.complex128, copy=False)


def _vertices(obj) -> np.ndarray:
    points = obj.boundary if isinstance(obj, Jordan) else obj
    v = _numbers(points, "polygon vertices")
    if v.ndim != 1 or len(v) < _MIN_POLYGON_POINTS:
        raise ContractViolation(
            f"polygon needs at least {_MIN_POLYGON_POINTS} points in curve order"
        )
    return v


def _loop(obj) -> tuple[np.ndarray, np.ndarray]:
    """A closed polygon's vertices and the edge leaving each, in curve order;
    a run of equal consecutive vertices, wrapping or not, counts as one."""
    v = _vertices(obj)
    edges = np.empty_like(v)
    np.subtract(v[1:], v[:-1], out=edges[:-1])
    edges[-1] = v[0] - v[-1]
    keep = np.abs(edges) > 0.0
    if np.count_nonzero(keep) < _MIN_POLYGON_POINTS:
        raise GeometryDegenerate("polygon has fewer than 3 distinct vertices")
    return v[keep], edges[keep]


def _turns(edges: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The sine and the angle of the turn from each edge to the next."""
    following = np.concatenate((edges[1:], edges[:1]))
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):  # NaN on underflow
        sine = np.imag(np.conjugate(edges) * following) / (np.abs(edges) * np.abs(following))
        return sine, np.angle(following / edges)


def convexity_defect(boundary) -> float:
    """Most negative sine of a turn between consecutive edges.

    Values at or above ``-geom_tol`` indicate convexity at the sampling
    resolution (for a counterclockwise curve); strongly negative values
    flag genuinely reflex corners.  A repeated vertex counts once, so the
    turn across it is measured between its neighbouring edges.  A turn
    whose edges' lengths multiply to below the smallest float reads NaN.
    """
    return float(np.min(_turns(_loop(boundary)[1])[0]))


def _inward(q, conj_e, base, scale) -> np.ndarray:
    """Inward distance ``Im(conj(e) (q - base)) / scale`` of each point ``q``
    from each edge line, as a ``(len(q), len(base))`` array, through the
    ufuncs and operand layout of the whole ``(queries, edges)`` matrix:
    numpy's complex product takes an FMA or a plain path by layout, and a
    block of edges must get the full pass's values bit for bit."""
    work = np.multiply(conj_e[None, :], np.subtract(q[:, None], base[None, :]))
    return np.divide(work.imag, scale[None, :])


def _outward_depths(v: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """Max over edges of the signed distance outside each edge line:
    negative inside a convex polygon (minus the distance to the boundary),
    positive outside, for either orientation.

    The edges go in the fewest near-equal blocks of at most ``_EDGE_BLOCK``
    (none a lone column), each anchored at the base p of its middle edge,
    whose inward unit normal is m.  With ``conj(m) (q - p) = x + i y`` and
    ``m_k = m (a_k + i c_k)``, ``inward_k(q) = inward_k(p) + a_k x + c_k y``:
    over a block x (the middle edge's own distance) is an upper bound and
    ``floor + x - |x| along - |y| across`` a lower one, for ``floor = min
    inward_k(p)``, ``along = max(1 - a_k)`` and ``across = max |c_k|``.  A
    point takes :func:`_inward` only on the blocks whose lower bound is
    within ``_BOUND_SLACK (|q - c| + extent)`` of its least upper bound (c
    the vertex mean; bounds and values err by a few ulps of that), which
    always include the minimum's block, so the result is the full pass's
    bit for bit.  A point with a non-finite bound takes every block.
    Points go in passes of ``_BOUND_ELEMENTS // blocks``.
    """
    shoelace = float((np.conjugate(v) * np.concatenate((v[1:], v[:1]))).imag.sum())
    orient = 1.0 if shoelace >= 0.0 else -1.0
    base, e = _loop(v)
    conj_e = np.conjugate(e)
    # x / (orient |e|) equals (orient x) / |e| bit for bit: negation is exact
    scale = orient * np.abs(e)

    n_blocks = -(-len(e) // _EDGE_BLOCK)
    ends = np.arange(n_blocks + 1) * len(e) // n_blocks
    starts, middles = ends[:-1], (ends[:-1] + ends[1:]) // 2
    normal = 1j * e / scale  # m_k
    anchor, conj_m = base[middles], np.conjugate(normal[middles])
    # inward_k(p) = <p - base_k, m_k>
    at_anchor = np.conjugate(normal) * (np.repeat(anchor, np.diff(ends)) - base)
    floor = np.minimum.reduceat(at_anchor.real, starts)
    turned = normal * np.repeat(conj_m, np.diff(ends))  # a_k + i c_k
    along = np.maximum.reduceat(1.0 - turned.real, starts)[:, None]
    across = np.maximum.reduceat(np.abs(turned.imag), starts)[:, None]

    centre = np.mean(v)
    extent = 2.0 * float(np.max(np.abs(v - centre)))
    rows_per_pass = max(1, _BOUND_ELEMENTS // n_blocks)
    out = np.empty(len(queries))
    with np.errstate(invalid="ignore", over="ignore"):  # non-finite and huge queries
        for lo in range(0, len(queries), rows_per_pass):
            q = queries[lo : lo + rows_per_pass]
            local = np.subtract(q[None, :], anchor[:, None])
            local *= conj_m[:, None]  # in place: one (blocks, queries) temporary
            x = local.real
            lower = floor[:, None] + x - np.abs(x) * along - np.abs(local.imag) * across
            ceiling = np.min(x, axis=0) + _BOUND_SLACK * (np.abs(q - centre) + extent)
            wanted = lower <= ceiling
            wanted[:, ~(np.isfinite(ceiling) & np.all(np.isfinite(lower), axis=0))] = True
            best = np.full(len(q), np.inf)
            for b in np.flatnonzero(np.any(wanted, axis=1)):
                rows = np.flatnonzero(wanted[b])
                cols = slice(ends[b], ends[b + 1])
                values = _inward(q[rows], conj_e[cols], base[cols], scale[cols])
                best[rows] = np.minimum(best[rows], values.min(axis=1))
            out[lo : lo + len(q)] = best
    return -out


def containment_depths(result, points) -> np.ndarray:
    """Signed outward distance of each point from the sampled boundary.

    Negative values are inside the polygon (minus the distance to the
    nearest edge line), positive values are outside; ``contains`` is the
    thresholded form of this.  Bit-identical to the full q * N pass over q
    points and N vertices, which :func:`_outward_depths` prunes to a few
    blocks of ``_EDGE_BLOCK`` edges per point near the boundary (5 % of
    q * N for the sample pipeline's draws against 4096 vertices); a point
    nearly equidistant from every edge, such as the centre of a regular
    polygon, keeps them all.  Memory does not grow with q.  ``points`` is
    one point or a 1-D sequence of them, held by numpy as integers, floats
    or complex numbers; NaN, infinite and huge points raise no warning.
    """
    v = _vertices(result)
    q = np.atleast_1d(_numbers(points, "containment points"))
    if q.ndim != 1:
        raise ContractViolation("containment points must be a scalar or a 1-D sequence")
    return _outward_depths(v, q)


def contains(result, w, geom_tol: float = ToleranceConfig.geom_tol) -> bool:
    """Point-in-convex-polygon test against the sampled boundary.

    Accepts points up to ``geom_tol`` outside an edge, absorbing both
    quadrature error and the gap between the inscribed polygon and the
    true curve.  ``result`` is a Jordan region or a vertex sequence; ``w``
    is one point, a number or a 0-d array, checked as in
    :func:`containment_depths`; ``geom_tol`` is checked as in
    :class:`ToleranceConfig`.
    """
    ToleranceConfig(geom_tol=geom_tol)  # raises on a bad geom_tol
    if np.ndim(w) != 0:
        raise ContractViolation("contains takes one point; containment_depths takes several")
    return bool(containment_depths(result, w)[0] <= geom_tol)


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
