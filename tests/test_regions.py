"""Region machinery: integrand, curve, dispatch, closed form, oracle, geometry."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

import schurvar.regions
from schurvar import (
    CaratheodoryData,
    ContractViolation,
    Empty,
    GeometryDegenerate,
    Jordan,
    QuadratureNonConvergence,
    RegionRequest,
    SinglePoint,
    ToleranceConfig,
    build_polynomials,
    containment_depths,
    contains,
    data_from_parameters,
    disk,
    half_plane,
    oracle_samples,
    region,
    schur_parameters,
    strip,
)
from schurvar.quadrature import integrate_segment
from schurvar.regions import (
    MAX_COUNT,
    MAX_SAMPLES,
    _draw_blaschke,
    boundary_curve,
    convexity_defect,
    enclosed_area,
    integrand,
    q_value,
)

from oracles import (
    BranchCutHit,
    angle_grid,
    convex_hull,
    distance_to_boundary,
    hausdorff_distance,
    log_derivative_curve,
    log_derivative_setup,
    omega_nested,
    out_of_place_resampled,
    rolled_loop,
    rolled_turns,
)

Z0 = 0.3


# --------------------------------------------------------------------------
# integrand


def test_integrand_vanishes_for_zero_epsilon_order_zero():
    s = build_polynomials((0.3,))
    for j in (-1, 0, 3):
        vals = integrand(s, 0.0, j, half_plane(), np.array([0.0, 0.1, 0.5j]))
        assert np.max(np.abs(vals)) < 1e-15


def test_integrand_zero_parameters_identity_domain():
    # two zero parameters and the identity target: eps * zeta**2 times weight
    s = build_polynomials((0.0, 0.0))
    eps = 0.7 - 0.2j
    zeta = np.array([0.1, 0.3 + 0.2j, -0.5j])
    got = integrand(s, eps, 0, disk(0.0, 1.0), zeta)
    assert np.max(np.abs(got - eps * zeta**2)) < 1e-14
    got = integrand(s, eps, 2, disk(0.0, 1.0), zeta)
    assert np.max(np.abs(got - eps * zeta**4)) < 1e-14


def test_integrand_removable_singularity_is_epsilon_free_for_order_one():
    lam = 0.6
    s = build_polynomials((0.0, lam))
    for eps in (1.0, -0.5, 0.3j):
        got = integrand(s, eps, -1, half_plane(), 0.0)
        assert abs(got - 2.0 * lam) < 1e-14


def test_integrand_removable_singularity_order_zero_depends_on_epsilon():
    # single parameter: the limit is P'(g0) * eps * (1 - |g0|^2)
    s = build_polynomials((0.5,))
    eps = 0.3
    got = integrand(s, eps, -1, half_plane(), 0.0)
    assert abs(got - 1.8) < 1e-14
    near = integrand(s, eps, -1, half_plane(), 1e-8)
    assert abs(near - got) < 1e-6


def test_integrand_limit_matches_nearby_values():
    s = build_polynomials((0.2 - 0.1j, 0.4, -0.3j))
    eps = complex(np.exp(0.7j))
    at0 = integrand(s, eps, -1, strip(), 0.0)
    near = integrand(s, eps, -1, strip(), np.array([1e-7, 1e-7j]))
    assert np.max(np.abs(near - at0)) < 1e-5


def test_integrand_broadcasts_epsilon_against_zeta():
    s = build_polynomials((0.3, 0.1j))
    eps = np.exp(2j * np.pi * np.arange(3) / 3)[:, None]
    zeta = np.linspace(0.1, 0.5, 5)
    out = integrand(s, eps, 0, half_plane(), zeta)
    assert out.shape == (3, 5)
    single = integrand(s, complex(eps[1, 0]), 0, half_plane(), complex(zeta[2]))
    assert isinstance(single, complex)
    assert abs(out[1, 2] - single) < 1e-14


# --------------------------------------------------------------------------
# q values


def test_q_value_logarithm_closed_form():
    s = build_polynomials((0.0, 0.0))
    for eps in (1.0, -1.0, np.exp(0.9j), 0.4 - 0.3j):
        got = q_value(s, -1, Z0, complex(eps), half_plane())
        want = -np.log(1.0 - eps * Z0**2)
        assert abs(got - want) < 1e-12


def test_q_value_monomial_closed_form():
    s = build_polynomials((0.0, 0.0))
    eps = complex(np.exp(-0.4j))
    got = q_value(s, 0, 0.5j, eps, disk(0.0, 1.0))
    assert abs(got - eps * (0.5j) ** 3 / 3.0) < 1e-13


def test_q_value_center_choice_is_zero_epsilon():
    s = build_polynomials((0.4,))
    assert abs(q_value(s, 0, Z0, 0.0, half_plane())) < 1e-14


# --------------------------------------------------------------------------
# boundary curves


def test_boundary_angles_are_equispaced_from_zero():
    s = build_polynomials((0.0, 0.5))
    curve = boundary_curve(s, -1, Z0, half_plane(), 16)
    angles, values = curve.eps_angles, curve.boundary
    assert np.array_equal(angles, 2.0 * np.pi * np.arange(16) / 16)
    assert values.shape == (16,)


def test_boundary_matches_pointwise_q_values():
    s = build_polynomials((0.2, -0.3j, 0.1))
    curve = boundary_curve(s, 0, 0.4, strip(), 8)
    angles, values = curve.eps_angles, curve.boundary
    for theta, w in zip(angles, values):
        single = q_value(s, 0, 0.4, complex(np.exp(1j * theta)), strip())
        assert abs(w - single) < 1e-12


def test_boundary_closed_form_for_flat_data():
    s = build_polynomials((0.0, 0.0))
    curve = boundary_curve(s, -1, Z0, half_plane(), 64)
    angles, values = curve.eps_angles, curve.boundary
    want = -np.log(1.0 - np.exp(1j * angles) * Z0**2)
    assert np.max(np.abs(values - want)) < 1e-10


# The boundary integrated directly at every requested epsilon, as one
# shared-panel batch.  The spectral boundary resamples fewer epsilons; it
# must agree with this to rounding, and equal it where it takes this path.


def direct_boundary(s, j, z0, domain, n):
    eps = np.exp(2j * np.pi * (np.arange(n) / n))[:, None]
    return integrate_segment(lambda zeta: integrand(s, eps, j, domain, zeta), z0, 1e-10)


SPECTRAL_DOMAINS = {"half-plane": half_plane(), "strip": strip(), "disk": disk(0.3 - 0.2j, 1.5)}


@pytest.mark.parametrize("n", [1000, 1024])
@pytest.mark.parametrize("radius", [0.3, 0.7, 0.9, 0.95])
@pytest.mark.parametrize("label", sorted(SPECTRAL_DOMAINS))
def test_spectral_boundary_matches_direct_integration(label, radius, n):
    domain = SPECTRAL_DOMAINS[label]
    s = build_polynomials((0.3 + 0.2j, -0.4j, 0.5, 0.1 - 0.3j, 0.2))
    z0 = radius * np.exp(0.7j)
    for j in (-1, 0, 2):
        # the a-priori M (512 at |z0| = 0.95) stays below N
        curve = boundary_curve(s, j, z0, domain, n)
        angles, values = curve.eps_angles, curve.boundary
        assert np.array_equal(angles, 2.0 * np.pi * (np.arange(n) / n))
        want = direct_boundary(s, j, z0, domain, n)
        assert np.max(np.abs(values - want)) < 1e-13


def spy_on_batches(monkeypatch):
    """``(count, shift)`` of every equispaced batch ``boundary_curve`` integrates."""
    batches = []
    equispaced = schurvar.regions._equispaced_values

    def spy(*args, shift=0.0):
        batches.append((args[4], shift))
        return equispaced(*args, shift=shift)

    monkeypatch.setattr(schurvar.regions, "_equispaced_values", spy)
    return batches


def count_points(monkeypatch):
    """A list that collects the points of every integrand evaluation."""
    points = []

    def counting(set_, epsilon, j, domain, zeta):
        points.append(np.broadcast(epsilon, zeta).size)
        return integrand(set_, epsilon, j, domain, zeta)

    monkeypatch.setattr(schurvar.regions, "integrand", counting)
    return points


def test_spectral_boundary_doubles_until_the_tail_is_small(monkeypatch):
    # order-0 data on the half-plane: the coefficients 2 z0^(k+1) / (k+1)
    # are still above 1e-10 in the upper half of the a-priori 32; the
    # doubling integrates only the 32 epsilons between the first ones
    batches = spy_on_batches(monkeypatch)
    s = build_polynomials((0.0,))
    values = boundary_curve(s, 0, 0.3, half_plane(), 4096).boundary
    assert batches == [(32, 0.0), (32, 0.5)]
    assert np.max(np.abs(values - direct_boundary(s, 0, 0.3, half_plane(), 4096))) < 1e-13


def test_boundary_whose_spectrum_needs_all_samples_costs_no_more_than_direct(monkeypatch):
    # order 0 at |z0| = 0.9: the tail of the a-priori 256 is ~2e-8, so the
    # 256 epsilons in between complete the 512 requested ones; with the
    # witness row they cost no more than the direct 512 and a separate
    # witness integral
    points = count_points(monkeypatch)
    batches = spy_on_batches(monkeypatch)
    s = build_polynomials((0.0,))
    values = boundary_curve(s, 0, 0.9, half_plane(), 512).boundary
    assert batches == [(256, 0.0), (256, 0.5)]
    spent = sum(points)
    points.clear()
    want = schurvar.regions._equispaced_values(s, 0, 0.9, half_plane(), 512, 1e-10)
    q_value(s, 0, 0.9, 0.0, half_plane())
    assert 0 < spent <= sum(points)
    assert np.max(np.abs(values - want)) < 1e-13


def test_boundary_whose_spectrum_fails_below_other_counts_reuses_its_tries(monkeypatch):
    # order 0 at |z0| = 0.93 and 1000 samples: the tail of the a-priori 512
    # fails, and 1000 is not a power of two; the 512 epsilons in between
    # pass, and the 1024 values are resampled instead of integrating 1000
    # more
    points = count_points(monkeypatch)
    batches = spy_on_batches(monkeypatch)
    s = build_polynomials((0.5,))
    values = boundary_curve(s, 0, 0.93, half_plane(), 1000).boundary
    assert batches == [(512, 0.0), (512, 0.5)]
    spent = sum(points)
    points.clear()
    want = schurvar.regions._equispaced_values(s, 0, 0.93, half_plane(), 1000, 1e-10)
    direct = sum(points)
    points.clear()
    schurvar.regions._equispaced_values(s, 0, 0.93, half_plane(), 512, 1e-10)
    first = sum(points)
    points.clear()
    q_value(s, 0, 0.93, 0.0, half_plane())
    witness = sum(points)
    # 1025 epsilons (1024 and the witness), none at a higher cost per
    # epsilon than the direct 1000 (so in total up to 2.5 % above them),
    # and fewer points than the first try followed by the direct batch and
    # a separate witness integral
    assert 0 < spent * 1000 <= direct * 1025
    assert spent < first + direct + witness
    assert np.max(np.abs(values - want)) < 1e-13


def test_boundary_whose_tries_never_pass_is_integrated_directly(monkeypatch):
    batches = spy_on_batches(monkeypatch)
    monkeypatch.setattr(schurvar.regions, "_resampled", lambda *args: None)
    s = build_polynomials((0.0,))
    values = boundary_curve(s, 0, 0.9, half_plane(), 500).boundary
    assert batches == [(256, 0.0), (256, 0.5), (500, 0.0)]
    assert np.array_equal(values, direct_boundary(s, 0, 0.9, half_plane(), 500))


def test_boundary_whose_tries_do_not_converge_is_integrated_directly(monkeypatch):
    # near-body data at 768 samples: the a-priori 512 converge but fail the
    # tail check, the 512 in between (not requested epsilons) hit the
    # bisection's rounding floor, and the 768 requested ones converge
    batches = spy_on_batches(monkeypatch)
    s = build_polynomials((0.993,))
    values = boundary_curve(s, -1, 0.914, half_plane(), 768).boundary
    assert batches == [(512, 0.0), (512, 0.5), (768, 0.0)]
    assert np.array_equal(values, direct_boundary(s, -1, 0.914, half_plane(), 768))


def test_boundary_raises_when_requested_epsilons_do_not_converge(monkeypatch):
    # at 1024 samples the 512 in between are requested ones: no direct batch
    batches = spy_on_batches(monkeypatch)
    s = build_polynomials((0.993,))
    with pytest.raises(QuadratureNonConvergence):
        boundary_curve(s, -1, 0.914, half_plane(), 1024)
    assert batches == [(512, 0.0), (512, 0.5)]


# Order 0-1 data near the circle, where the a-priori Gauss order is high and
# the half-plane's pole on the unit circle sends batches to bisection.
FALLBACK_SIDE_GAMMAS = [(0.0,), (0.4 - 0.3j,), (0.0, 0.5), (0.3 + 0.2j, -0.4j)]
FALLBACK_SIDE_DOMAINS = [half_plane(), strip(), disk(0.1, 2.0)]
#: Integrand points the 24 curves at each |z0| took with 15-point panel
#: bisection alone.
FALLBACK_SIDE_BISECTION_POINTS = {0.9: 645_120, 0.93: 1_455_240, 0.95: 2_196_000}


def test_fallback_side_boundaries_cost_no_more_than_bisection_alone(monkeypatch):
    points = count_points(monkeypatch)
    curves = []
    for radius, bisection_points in FALLBACK_SIDE_BISECTION_POINTS.items():
        points.clear()
        for domain in FALLBACK_SIDE_DOMAINS:
            for gamma in FALLBACK_SIDE_GAMMAS:
                for j in (-1, 2):
                    s = build_polynomials(gamma)
                    z0 = radius * np.exp(0.7j)
                    values = boundary_curve(s, j, z0, domain, 1000).boundary
                    curves.append((s, j, z0, domain, values))
        assert 0 < sum(points) <= bisection_points
    for s, j, z0, domain, values in curves[::7]:
        assert np.max(np.abs(values - direct_boundary(s, j, z0, domain, 1000))) < 1e-13


def test_boundary_below_the_spectral_count_is_integrated_directly():
    s = build_polynomials((0.2, -0.3j, 0.1))
    values = boundary_curve(s, 2, 0.5, disk(0.1, 2.0), 8).boundary
    assert np.array_equal(values, direct_boundary(s, 2, 0.5, disk(0.1, 2.0), 8))


def test_boundary_cost_does_not_grow_with_sample_count(monkeypatch):
    points = count_points(monkeypatch)
    s = build_polynomials((0.2, -0.3j, 0.1, 0.4))
    totals = []
    for n in (512, 4096):
        points.clear()
        boundary_curve(s, -1, 0.5j, half_plane(), n)
        totals.append(sum(points))
    assert totals[0] == totals[1] > 0


def a_priori_count(z0, n):
    """The first batch that ``log(1e-10) / log|z0|`` alone sizes: the cap."""
    decay = math.ceil(math.log(1e-10) / math.log(abs(z0)))
    return min(n, 1 << (max(16, decay) - 1).bit_length())


def test_first_batch_never_exceeds_the_a_priori_count(monkeypatch):
    # the decay rate sizes the first batch at most at the |z0| count, which
    # order-0 data reach exactly: their second ratio is unimodular
    batches = spy_on_batches(monkeypatch)
    rng = np.random.default_rng(26)
    for order in range(9):
        for domain in SPECTRAL_DOMAINS.values():
            for radius in (0.3, 0.55, 0.7, 0.85, 0.95):
                modulus = 0.6 * np.sqrt(rng.random(order + 1))
                s = build_polynomials(modulus * np.exp(2j * np.pi * rng.random(order + 1)))
                z0 = radius * np.exp(2j * np.pi * rng.random())
                for j in (-1, 0, 2):
                    batches.clear()
                    boundary_curve(s, j, z0, domain, 512)
                    cap = a_priori_count(z0, 512)
                    assert batches[0][0] == cap if order == 0 else batches[0][0] <= cap


# One input per domain whose first batch, below the a-priori count, fails
# its tail, so that the epsilons in between complete it:
# (gamma, j, |z0|, batches).
DOUBLING_INPUTS = {
    "half-plane": ((0.5 - 0.1j, 0.2j), 0, 0.85, [(128, 0.0), (128, 0.5)]),
    "strip": ((0.4 + 0.4j, -0.4 - 0.1j, 0.3 + 0.1j), -1, 0.3, [(16, 0.0), (16, 0.5)]),
    "disk": ((-0.1 + 0.4j, -0.2 + 0.3j, 0.5 - 0.5j, -0.2 + 0.4j), -1, 0.55, [(16, 0.0), (16, 0.5)]),
}


@pytest.mark.parametrize("label", sorted(DOUBLING_INPUTS))
def test_first_batch_whose_tail_fails_doubles_to_direct_values(monkeypatch, label):
    batches = spy_on_batches(monkeypatch)
    gamma, j, radius, want_batches = DOUBLING_INPUTS[label]
    domain = SPECTRAL_DOMAINS[label]
    s = build_polynomials(gamma)
    z0 = radius * np.exp(0.7j)
    values = boundary_curve(s, j, z0, domain, 512).boundary
    assert batches == want_batches
    assert batches[0][0] < a_priori_count(z0, 512)
    assert np.max(np.abs(values - direct_boundary(s, j, z0, domain, 512))) < 1e-13


# The interior witness is the last row of boundary_curve's first batch, so
# on every path it must equal a separate epsilon = 0 integral to rounding.


def assert_witness_is_the_zero_epsilon_integral(curve, s, j, z0, domain):
    want = q_value(s, j, z0, 0.0, domain, 1e-10)
    assert abs(curve.interior_witness - want) <= 4e-16 * max(1.0, abs(want))


@pytest.mark.parametrize("radius", [0.3, 0.7, 0.95])
@pytest.mark.parametrize("label", sorted(SPECTRAL_DOMAINS))
def test_witness_matches_the_zero_epsilon_integral(label, radius):
    # spectral tries at 0.3 and 0.7; at 0.95 the a-priori order is above the
    # rule pair's cap, so every batch bisects
    domain = SPECTRAL_DOMAINS[label]
    s = build_polynomials((0.3 + 0.2j, -0.4j, 0.5, 0.1 - 0.3j, 0.2))
    z0 = radius * np.exp(0.7j)
    for j in (-1, 0, 2):
        curve = boundary_curve(s, j, z0, domain, 512)
        assert_witness_is_the_zero_epsilon_integral(curve, s, j, z0, domain)


def test_witness_of_a_boundary_below_the_spectral_count(monkeypatch):
    batches = spy_on_batches(monkeypatch)
    s = build_polynomials((0.2, -0.3j, 0.1))
    curve = boundary_curve(s, 2, 0.5, disk(0.1, 2.0), 8)
    assert batches == [(8, 0.0)]
    assert_witness_is_the_zero_epsilon_integral(curve, s, 2, 0.5, disk(0.1, 2.0))


@pytest.mark.parametrize("gamma", [(0.0,), (0.3 + 0.2j, -0.4j)])
def test_witness_of_a_boundary_whose_tries_never_pass(monkeypatch, gamma):
    # the witness comes from the first try, not from the direct batch
    batches = spy_on_batches(monkeypatch)
    monkeypatch.setattr(schurvar.regions, "_resampled", lambda *args: None)
    s = build_polynomials(gamma)
    curve = boundary_curve(s, 0, 0.9, half_plane(), 500)
    assert batches == [(256, 0.0), (256, 0.5), (500, 0.0)]
    assert_witness_is_the_zero_epsilon_integral(curve, s, 0, 0.9, half_plane())


# Interior data whose region is large: P(gamma_0) is near 2000 on the
# half-plane, so forming P(omega) - P(gamma_0) near zeta = 0 by subtraction
# puts the absolute panel budget at the rounding level of the two values.

LARGE_REGIONS = [
    ((0.999, 0.5), -1, 0.3),
    ((0.999, 0.5), -1, 0.5),
    ((0.999, 0.5), 0, 0.5),
    ((0.99, 0.5), -1, 0.9),
]


def mp_boundary_value(mp, gamma, eps, j, z0):
    """The half-plane boundary value at ``eps`` by 30-digit tanh-sinh
    quadrature of the nested interpolant."""
    with mp.workdps(30):
        g = [mp.mpc(complex(x)) for x in gamma]
        e, end = mp.mpc(complex(eps)), mp.mpc(complex(z0))

        def omega(z):
            w = e * z
            for k in range(len(g) - 1, -1, -1):
                w = (w + g[k]) / (1 + mp.conj(g[k]) * w)
                w = z * w if k else w
            return w

        def f(t):
            z = t * end
            w = omega(z)
            return z**j * ((1 + w) / (1 - w) - (1 + g[0]) / (1 - g[0])) * end

        return complex(mp.quad(f, [0, 1]))


@pytest.mark.parametrize("gamma, j, z0", LARGE_REGIONS)
def test_boundary_of_a_large_region_converges(gamma, j, z0):
    s = build_polynomials(gamma)
    curve = boundary_curve(s, j, z0, half_plane(), 512)
    angles, values = curve.eps_angles, curve.boundary
    assert np.all(np.isfinite(values))
    assert np.max(np.abs(values)) > 300.0
    mp = pytest.importorskip("mpmath")
    for k in (0, 100, 256, 400):
        want = mp_boundary_value(mp, gamma, np.exp(1j * angles[k]), j, z0)
        assert abs(values[k] - want) < 1e-10


def test_eps_angles_follow_each_result_s_own_sample_count():
    a = region(RegionRequest.from_gamma((0.5,), j=0, z0=Z0, domain=half_plane(), samples=64))
    other = boundary_curve(build_polynomials((0.5,)), 0, Z0, half_plane(), 100)
    for result, n in ((a, 64), (other, 100)):
        assert result.eps_angles.tobytes() == angle_grid(n).tobytes()
    # the angles are derived on each read, so a write into one read is not kept
    a.eps_angles[0] = 1.0
    assert a.eps_angles.tobytes() == angle_grid(64).tobytes()


@pytest.mark.parametrize("n", [4, 16, 511, 512, 4096])
def test_angle_grid_is_bit_identical_to_the_per_result_form(n):
    got = Jordan(boundary=np.zeros(n, complex), interior_witness=0j).eps_angles
    assert got.dtype == np.float64
    assert got.tobytes() == angle_grid(n).tobytes()


@pytest.mark.parametrize(
    ("m", "n"),
    [(16, 16), (512, 512), (16, 17), (16, 64), (32, 100), (64, 511), (256, 4096), (128, 100)],
)
def test_resampled_is_bit_identical_to_the_out_of_place_form(m, n):
    # a power series in eps whose upper half-spectrum is below quad_tol
    rng = np.random.default_rng(m + n)
    coeffs = 0.04 ** np.arange(40) * np.exp(2j * np.pi * rng.random(40))
    eps = np.exp(2j * np.pi * np.arange(m) / m)
    values = np.polynomial.polynomial.polyval(eps, coeffs)
    got = schurvar.regions._resampled(values, n, 1e-10)
    want = out_of_place_resampled(values, n, 1e-10)
    assert got is not None and want is not None
    assert got.tobytes() == want.tobytes()


def test_regions_of_one_sample_count_hold_only_their_samples():
    # deterministic memory counter: the arrays that 50 results of 512 samples
    # store, against 50 * 512 * 24 bytes with an angle grid per result
    k, n = 50, 512
    results = [
        region(
            RegionRequest.from_gamma(
                (0.6 * np.exp(0.1j * i),), j=0, z0=Z0, domain=half_plane(), samples=n
            )
        )
        for i in range(k)
    ]
    assert [f.name for f in dataclasses.fields(Jordan)] == ["boundary", "interior_witness"]
    held = [getattr(r, f.name) for r in results for f in dataclasses.fields(r)]
    arrays = {id(a): a for a in held if isinstance(a, np.ndarray)}
    assert sum(a.nbytes for a in arrays.values()) == k * n * 16


def test_regions_compare_and_hash_by_identity():
    # the generated value equality raised on the boundary array
    request = RegionRequest.from_gamma((0.5, 0.2j), j=0, z0=Z0, domain=half_plane(), samples=64)
    a, b = region(request), region(request)
    assert a == a and a != b
    assert a in [a] and a not in [b]
    assert len({a, b, a}) == 2 and hash(a) == hash(a)
    assert np.array_equal(a.boundary, b.boundary)
    assert a.interior_witness == b.interior_witness


# --------------------------------------------------------------------------
# request validation and dispatch


def test_request_rejects_bad_fields():
    good = dict(data=(0.5, 0.375), j=0, z0=Z0, domain=half_plane())
    RegionRequest(**good)  # sanity: the base case is fine
    for patch in (
        dict(j=-2),
        dict(j=True),
        dict(j=0.5),
        dict(z0=0.0),
        dict(z0=1.0),
        dict(z0=1.2j),
        dict(z0=complex(math.nan, 0.0)),
        dict(z0=complex(0.1, math.nan)),
        dict(z0=complex(math.inf, 0.0)),
        dict(z0=complex(-math.inf, math.nan)),
        dict(samples=3),
        dict(samples=512.0),
        # region() raised a bare AttributeError on these
        dict(domain="half-plane"),
        dict(domain=None),
        dict(tol=None),
        dict(tol={"quad_tol": 1e-10}),
    ):
        with pytest.raises(ContractViolation):
            RegionRequest(**{**good, **patch})


def test_request_coerces_raw_coefficients():
    req = RegionRequest(data=[0.5, 0.375], j=0, z0=Z0, domain=half_plane())
    assert isinstance(req.data, CaratheodoryData)
    assert req.data.coeffs == (0.5, 0.375)


def test_request_from_parameters():
    req = RegionRequest.from_gamma((0.5, 0.5), j=1, z0=Z0, domain=strip())
    assert req.data.coeffs == data_from_parameters((0.5, 0.5)).coeffs
    assert req.j == 1


def test_region_exterior_data_gives_empty():
    for data in ((2.0, 0.0), (1.0, 0.5)):
        out = region(RegionRequest(data=data, j=0, z0=Z0, domain=half_plane()))
        assert isinstance(out, Empty)


def test_region_boundary_data_unimodular_constant():
    # data (1, 0): the interpolant is zeta itself under the seeding convention
    out = region(RegionRequest(data=(1.0, 0.0), j=0, z0=Z0, domain=half_plane()))
    assert isinstance(out, SinglePoint)
    assert abs(out.w0 - (-2 * Z0 - 2 * np.log(1 - Z0))) < 1e-10

    out = region(RegionRequest(data=(1.0, 0.0), j=-1, z0=Z0, domain=half_plane()))
    assert abs(out.w0 - (-2 * np.log(1 - Z0))) < 1e-10


def test_region_boundary_data_at_depth_one():
    # (0.5, 0.75) peels to parameters (0.5, 1): one free layer, then pinned
    out = region(RegionRequest(data=(0.5, 0.75), j=0, z0=Z0, domain=half_plane()))
    assert isinstance(out, SinglePoint)
    assert abs(out.w0 - (-1.8 - 6.0 * np.log(0.7))) < 1e-10


def nested_single_point(prefix, j, z0, domain):
    """Boundary data's value in nested form: the interpolant over the
    interior prefix seeded with ``gamma_i * zeta``, minus its value at 0."""
    inner, seed = tuple(prefix[:-1]), complex(prefix[-1])
    center = domain.map(omega_nested(inner, seed, 0.0))

    def f(zeta):
        values = domain.map(omega_nested(inner, seed, zeta)) - center
        return values / zeta if j == -1 else values * zeta**j

    return complex(integrate_segment(f, z0, 1e-10))


def boundary_data(prefix):
    """The coefficients ``c_0 .. c_i`` that peel to ``prefix`` (``|gamma_i| = 1``):
    Taylor coefficients of the nested interpolant on a circle of radius 1/2."""
    m = 64
    circle = 0.5 * np.exp(2j * np.pi * np.arange(m) / m)
    values = omega_nested(prefix[:-1], prefix[-1], circle)
    return tuple(np.fft.fft(values)[: len(prefix)] / m / 0.5 ** np.arange(len(prefix)))


BOUNDARY_PREFIXES = [
    (0.3 - 0.2j, np.exp(0.4j)),
    (-0.5, 0.6j, -1.0),
    (0.2j, 0.4 + 0.3j, -0.6, np.exp(-2.0j)),
]


@pytest.mark.parametrize("j", [-1, 0, 2])
@pytest.mark.parametrize("label", sorted(SPECTRAL_DOMAINS))
def test_region_boundary_data_matches_nested_form(label, j):
    domain = SPECTRAL_DOMAINS[label]
    for prefix in BOUNDARY_PREFIXES:
        data = boundary_data(prefix)
        assert schur_parameters(CaratheodoryData(data)).unimodular_index == len(prefix) - 1
        for z0 in (0.3, 0.6j, 0.85 * np.exp(2.5j)):
            out = region(RegionRequest(data=data, j=j, z0=z0, domain=domain))
            assert isinstance(out, SinglePoint)
            assert abs(out.w0 - nested_single_point(prefix, j, z0, domain)) < 1e-10


def test_region_boundary_parameter_just_outside_the_circle():
    # gamma_1 = 1 + 5e-7 lies in the cls_tol band but outside |eps| <= 1
    tol = ToleranceConfig(cls_tol=1e-6)
    data = (0.3, (1 + 5e-7) * 0.91)
    for j in (-1, 0, 2):
        out = region(RegionRequest(data=data, j=j, z0=0.5, domain=half_plane(), tol=tol))
        assert isinstance(out, SinglePoint)
        want = nested_single_point((0.3, 1 + 5e-7), j, 0.5, half_plane())
        assert abs(out.w0 - want) < 1e-10


def test_region_interior_data_gives_jordan_curve():
    req = RegionRequest(
        data=(0.0, 0.0), j=-1, z0=Z0, domain=half_plane(), samples=256
    )
    out = region(req)
    assert isinstance(out, Jordan)
    assert len(out.eps_angles) == 256
    assert len(out.boundary) == 256
    want = -np.log(1.0 - np.exp(1j * out.eps_angles) * Z0**2)
    assert np.max(np.abs(out.boundary - want)) < 1e-8
    assert abs(out.interior_witness) < 1e-12  # eps = 0 log term vanishes
    assert convexity_defect(out) >= -1e-8


def test_region_witness_lies_strictly_inside():
    for gamma, j in (((0.0, 0.5), -1), ((0.3, -0.2 + 0.1j, 0.25j), 0)):
        req = RegionRequest.from_gamma(gamma, j=j, z0=0.5, domain=half_plane())
        out = region(req)
        depth = containment_depths(out, [out.interior_witness])[0]
        assert depth < 0.0


def test_interior_region_makes_one_integrand_call(monkeypatch):
    # |z0| = 0.5 takes one rule pair, and the witness rides in its batch
    points = count_points(monkeypatch)
    req = RegionRequest.from_gamma((0.3, -0.2 + 0.1j, 0.25j), j=0, z0=0.5, domain=strip())
    assert isinstance(region(req), Jordan)
    assert len(points) == 1


# --------------------------------------------------------------------------
# closed-form cross-check curve


def test_flat_curve_collapses_to_logarithm():
    z0 = 0.25 + 0.1j
    for theta in (0.0, 1.0, np.pi, 5.0):
        got = log_derivative_curve(0.0, z0, theta)
        assert abs(got - (-np.log(1.0 - np.exp(1j * theta) * z0**2))) < 1e-14


def test_curve_value_at_angle_zero():
    lam, z0 = 0.7, 0.4
    want = -(1 - lam) * np.log(1 + z0) - (1 + lam) * np.log(1 - z0)
    assert abs(log_derivative_curve(lam, z0, 0.0) - want) < 1e-14


def test_curve_conjugate_symmetry_for_real_basepoint():
    lam, z0 = 0.5, 0.35
    for theta in (0.3, 1.2, 2.9):
        plus = log_derivative_curve(lam, z0, theta)
        minus = log_derivative_curve(lam, z0, -theta)
        assert abs(minus - np.conjugate(plus)) < 1e-13


def test_curve_accepts_angle_arrays():
    theta = np.linspace(0.0, 2.0 * np.pi, 17)
    out = log_derivative_curve(0.4, 0.3, theta)
    assert out.shape == theta.shape
    assert abs(out[3] - log_derivative_curve(0.4, 0.3, float(theta[3]))) < 1e-14


def test_curve_parameter_validation():
    with pytest.raises(ContractViolation):
        log_derivative_curve(-0.1, 0.3, 0.0)
    with pytest.raises(ContractViolation):
        log_derivative_curve(1.0, 0.3, 0.0)
    with pytest.raises(ContractViolation):
        log_derivative_curve(0.5, 0.0, 0.0)


def test_setup_matches_curve_through_general_machinery():
    lam, z0 = 0.5, 0.3
    domain, data, j = log_derivative_setup(lam)
    assert domain.label == "half-plane"
    assert data.coeffs == (0.0, 0.5)
    assert j == -1
    cls = schur_parameters(data)
    s = build_polynomials(cls.gamma)
    for theta in (0.0, 0.9, 2.2, 4.5):
        via_q = q_value(s, j, z0, complex(np.exp(1j * theta)), domain)
        assert abs(via_q - log_derivative_curve(lam, z0, theta)) < 1e-10


def test_setup_validates_lambda():
    # the same check and message as the curve's
    for call in (log_derivative_setup, lambda lam: log_derivative_curve(lam, 0.3, 0.0)):
        for lam in (-0.1, 1.0, float("nan")):
            with pytest.raises(ContractViolation, match=r"^lam must lie in \[0, 1\)$"):
                call(lam)


# --------------------------------------------------------------------------
# membership oracle


def test_oracle_is_deterministic():
    a = oracle_samples((0.0, 0.5), half_plane(), -1, Z0, seed=11, count=8)
    b = oracle_samples((0.0, 0.5), half_plane(), -1, Z0, seed=11, count=8)
    assert [s.value for s in a] == [s.value for s in b]
    assert [s.zeros for s in a] == [s.zeros for s in b]


def test_oracle_rejects_non_finite_parameters():
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ContractViolation):
            oracle_samples((0.0, bad), half_plane(), -1, Z0, seed=11, count=8)


def three_call_draw(rng):
    degree = int(rng.integers(0, 7))
    radii = 0.95 * np.sqrt(rng.random(degree))
    angles = 2.0 * np.pi * rng.random(degree)
    zeros = radii * np.exp(1j * angles)
    front = complex(np.exp(2j * np.pi * rng.random()))
    return degree, zeros, front


def test_oracle_draws_equal_one_uniform_call_per_factor():
    for seed in (0, 5, 2024):
        draws = oracle_samples((0.3, 0.1j), strip(), 0, 0.4, seed=seed, count=300)
        rng = np.random.default_rng(seed)
        for got in draws:
            degree, zeros, front = three_call_draw(rng)
            assert len(got.zeros) == degree
            assert got.zeros == tuple(zeros.tolist())
            assert got.unimodular_factor == front


#: A 32-bit half that integers(0, 7) rejects: 7 times it is 2**32 + 3, and
#: Lemire's method rejects a low word below (2**32 - 7) % 7 = 4.
REJECTED_HALF = 613566757
PCG64_MULTIPLIER = (2549297995355413924 << 64) + 4865540595714422341


def planted(seed, buffered=REJECTED_HALF, next_raw=None):
    """A PCG64 generator that holds ``buffered`` as its spare 32-bit half and,
    given ``next_raw``, whose next 64-bit output is that value: the state is
    stepped back from one whose XSL-RR output is ``next_raw``."""
    rng = np.random.default_rng(seed)
    state = rng.bit_generator.state
    state["has_uint32"], state["uinteger"] = 1, buffered
    if next_raw is not None:
        high = 0xFEDCBA9876543210  # its top 6 bits are the output's rotation
        turn = high >> 58
        xored = ((next_raw << turn) | (next_raw >> (64 - turn))) & (2**64 - 1)
        stepped = (high << 64) | (xored ^ high)
        back = (stepped - state["state"]["inc"]) * pow(PCG64_MULTIPLIER, -1, 2**128)
        state["state"]["state"] = back % 2**128
    rng.bit_generator.state = state
    return rng


def assert_draws_follow_numpy(seed, count, **plant):
    degrees, zeros, mask, fronts = _draw_blaschke(planted(seed, **plant), count)
    rng = planted(seed, **plant)
    for i in range(count):
        degree, want, front = three_call_draw(rng)
        assert degrees[i] == degree
        assert mask[i].tolist() == [k < degree for k in range(6)]
        assert zeros[i, :degree].tolist() == want.tolist()
        assert not np.any(zeros[i, degree:])
        assert fronts[i] == front


@pytest.mark.parametrize("count", [1, 2, 3, 301])
@pytest.mark.parametrize("buffered", [REJECTED_HALF, 2**31])
def test_batch_draws_take_a_buffered_half_as_numpy_does(count, buffered):
    # the buffered half is rejected, or taken as the first degree (3)
    assert (REJECTED_HALF * 7) % 2**32 == 3
    for seed in (0, 9):
        assert_draws_follow_numpy(seed, count, buffered=buffered)


def test_batch_draws_draw_more_raws_after_rejected_halves():
    # the buffered half and both halves of the next output are rejected, so
    # the one draw takes one output more than the batch holds; at this seed
    # its degree is 6, and its last uniform lies in the outputs drawn after
    raw = REJECTED_HALF | REJECTED_HALF << 32
    assert planted(12, next_raw=raw).bit_generator.random_raw() == raw
    assert three_call_draw(planted(12, next_raw=raw))[0] == 6
    assert_draws_follow_numpy(12, 1, next_raw=raw)


def test_oracle_draw_shapes():
    samples = oracle_samples((0.3, 0.1j), strip(), 0, 0.4, seed=5, count=30)
    assert len(samples) == 30
    for s in samples:
        assert len(s.zeros) <= 6
        assert all(abs(z) <= 0.95 + 1e-12 for z in s.zeros)
        assert abs(abs(s.unimodular_factor) - 1.0) < 1e-12


def test_degenerate_draw_reduces_to_constant_epsilon():
    gamma = (0.0, 0.5)
    s = build_polynomials(gamma)
    for seed in range(60):
        if int(np.random.default_rng(seed).integers(0, 7)) == 0:
            got = oracle_samples(gamma, half_plane(), -1, Z0, seed=seed, count=1)[0]
            assert len(got.zeros) == 0
            want = q_value(s, -1, Z0, got.unimodular_factor, half_plane())
            assert abs(got.value - want) < 1e-9
            break
    else:
        pytest.fail("no degree-zero draw among seeds 0..59")


def test_oracle_count_edge_cases():
    assert oracle_samples((0.3,), half_plane(), 0, Z0, seed=1, count=0) == []
    with pytest.raises(ContractViolation):
        oracle_samples((0.3,), half_plane(), 0, Z0, seed=1, count=-1)
    # parameters that are not interior are refused at any count
    for gamma in ((1.5,), ("0.3",), ()):
        with pytest.raises(ContractViolation):
            oracle_samples(gamma, half_plane(), 0, Z0, seed=1, count=0)


def test_sizes_above_their_caps_are_refused_before_integrating(monkeypatch):
    # the caps keep a request from exhausting memory: 10**8 samples would be
    # a 1.6 GB array, 10**8 draws 1.4e9 raw outputs of the generator
    class Integrated(Exception):
        pass

    def refuse(*args):
        raise Integrated

    monkeypatch.setattr(schurvar.regions, "integrate_segment", refuse)
    request = dict(j=0, z0=Z0, domain=half_plane())
    with pytest.raises(ContractViolation, match=f"{MAX_SAMPLES} samples"):
        RegionRequest.from_gamma((0.3,), samples=MAX_SAMPLES + 1, **request)
    with pytest.raises(ContractViolation, match=f"from 0 to {MAX_COUNT}"):
        oracle_samples((0.3,), half_plane(), 0, Z0, seed=1, count=MAX_COUNT + 1)
    # the caps themselves are accepted, and reach the quadrature
    with pytest.raises(Integrated):
        region(RegionRequest.from_gamma((0.3,), samples=MAX_SAMPLES, **request))
    with pytest.raises(Integrated):
        oracle_samples((0.3,), half_plane(), 0, Z0, seed=1, count=MAX_COUNT)


@pytest.mark.parametrize(
    "patch",
    [
        dict(j=-2),
        dict(j=0.5),
        dict(j=True),
        dict(z0=0.0),
        dict(z0=1.0),
        dict(z0=complex(math.nan, 0.0)),
        dict(quad_tol=0.0),
        dict(quad_tol=-1e-10),
        dict(quad_tol=math.inf),
        dict(quad_tol=math.nan),
        dict(count=10.0),
        dict(count=True),
    ],
)
def test_oracle_rejects_bad_input_before_integrating(monkeypatch, patch):
    # the same checks as RegionRequest and ToleranceConfig, made before the
    # first integrand call
    calls = []

    def counting(*args):
        calls.append(args)
        return integrand(*args)

    monkeypatch.setattr(schurvar.regions, "integrand", counting)
    good = dict(j=0, z0=Z0, quad_tol=1e-10, count=4)
    oracle_samples((0.3,), half_plane(), seed=1, **good)
    assert calls
    calls.clear()
    with pytest.raises(ContractViolation):
        oracle_samples((0.3,), half_plane(), seed=1, **{**good, **patch})
    assert calls == []


@pytest.mark.parametrize(
    "domain, seed",
    [
        ("half-plane", 1),
        (None, 1),
        (half_plane(), -1),
        (half_plane(), 1.5),
        (half_plane(), "7"),
        (half_plane(), True),
        (half_plane(), None),
        (half_plane(), np.random.default_rng(1)),
    ],
    ids=["label", "no-domain", "negative", "float", "string", "bool", "no-seed", "generator"],
)
def test_oracle_checks_its_domain_and_seed_before_integrating(monkeypatch, domain, seed):
    # a None or Generator seed drew differently on each call; the others
    # raised a bare TypeError, numpy's ValueError or an AttributeError
    calls = []
    monkeypatch.setattr(schurvar.regions, "integrand", lambda *args: calls.append(args))
    with pytest.raises(ContractViolation):
        oracle_samples((0.3,), domain, 0, Z0, seed, 4)
    assert calls == []


def test_oracle_takes_any_integer_seed_as_its_value():
    want = oracle_samples((0.3,), half_plane(), 0, Z0, 11, 4)
    for seed in (np.int64(11), np.uint8(11)):
        assert oracle_samples((0.3,), half_plane(), 0, Z0, seed, 4) == want


def test_oracle_batch_prefix_equals_a_smaller_batch_bit_for_bit(monkeypatch):
    # the draws are integrated sorted by degree and put back in draw order;
    # at |z0| = 0.3 one rule-pair call accepts each batch, so a prefix of
    # the larger batch must be the smaller batch to the last bit
    calls = []

    def counting(*args):
        calls.append(args)
        return integrand(*args)

    monkeypatch.setattr(schurvar.regions, "integrand", counting)
    gamma = (0.3 + 0.2j, -0.4j, 0.5)
    for domain in (half_plane(), strip()):
        for k, n in ((1, 40), (7, 40), (23, 300)):
            calls.clear()
            small = oracle_samples(gamma, domain, 0, Z0, 19, k)
            large = oracle_samples(gamma, domain, 0, Z0, 19, n)
            assert len(calls) == 2  # the rule pair accepted both batches
            assert large[:k] == small
            degrees = [len(s.zeros) for s in large]
            assert degrees != sorted(degrees, reverse=True)  # the sort permutes them
            got = np.array([s.value for s in large[:k]])
            want = np.array([s.value for s in small])
            assert got.tobytes() == want.tobytes()


def test_oracle_sample_is_an_immutable_value_tuple():
    s = schurvar.OracleSample((0.5j, -0.25), 1j, 0.125 + 0.5j)
    assert schurvar.OracleSample._fields == ("zeros", "unimodular_factor", "value")
    assert s == ((0.5j, -0.25), 1j, 0.125 + 0.5j)
    assert hash(s) == hash(((0.5j, -0.25), 1j, 0.125 + 0.5j))
    zeros, front, value = s
    assert (zeros, front, value) == (s.zeros, s.unimodular_factor, s.value)
    assert s._replace(value=0.0) == ((0.5j, -0.25), 1j, 0.0)
    for name in ("zeros", "unimodular_factor", "value"):
        with pytest.raises(AttributeError):
            setattr(s, name, 0.0)
    draws = oracle_samples((0.3,), half_plane(), 0, Z0, 4, 12)
    assert all(type(d) is schurvar.OracleSample for d in draws)
    assert len(set(draws + draws)) == len(set(draws))


def test_oracle_values_land_inside_the_sampled_region():
    # 2048 boundary samples keep the inscribed-polygon chord gap well
    # below the membership tolerance for a region this size
    gamma = (0.0, 0.5)
    req = RegionRequest.from_gamma(
        gamma, j=-1, z0=Z0, domain=half_plane(), samples=2048
    )
    out = region(req)
    values = [s.value for s in oracle_samples(gamma, half_plane(), -1, Z0, 77, 25)]
    depths = containment_depths(out, values)
    assert float(np.max(depths)) <= 1e-6


# --------------------------------------------------------------------------
# polygon geometry


def circle(n=64, radius=1.0, center=0.0):
    return center + radius * np.exp(2j * np.pi * np.arange(n) / n)


T_SHAPE = np.array(
    [0 + 3j, 3 + 3j, 3 + 2j, 2 + 2j, 2 + 0j, 1 + 0j, 1 + 2j, 0 + 2j],
    dtype=np.complex128,
)


def test_contains_basic_cases():
    poly = circle()
    assert contains(poly, 0.0)
    assert contains(poly, poly[7])  # a vertex is on the boundary
    assert not contains(poly, 1.5)
    assert not contains(poly, 1.01)


@pytest.mark.parametrize(
    ("geom_tol", "w"), [(math.nan, 0.0), (-1e-6, 0.0), (math.inf, 5.0)], ids=["nan", "negative", "inf"]
)
def test_contains_refuses_a_bad_tolerance(geom_tol, w):
    # unchecked, NaN put the centre outside, a negative value refused every
    # point and inf accepted a point at distance 4
    with pytest.raises(ContractViolation, match="geom_tol"):
        contains(circle(16), w, geom_tol=geom_tol)


@pytest.mark.parametrize("n", [256, 4096])
@pytest.mark.parametrize("shape", [(3, 1), (1, 3)])
def test_containment_refuses_points_that_are_not_one_dimensional(n, shape):
    with pytest.raises(ContractViolation, match="1-D"):
        containment_depths(circle(n), np.full(shape, 0.1 + 0.1j))


NOT_NUMBERS = {
    "string": "0.1",
    "bool": True,
    "none": None,
    "strings": ["0.1", "0.2"],
    "bools": [True, False],
    "with-none": [0.1, None],
}


@pytest.mark.parametrize("points", list(NOT_NUMBERS.values()), ids=list(NOT_NUMBERS))
def test_containment_refuses_points_that_are_not_numbers(points):
    # a string was parsed, True was the point 1 and None became NaN
    with pytest.raises(ContractViolation, match="containment points"):
        containment_depths(circle(16), points)
    if np.ndim(points) == 0:
        with pytest.raises(ContractViolation, match="containment points"):
            contains(circle(16), points)


@pytest.mark.parametrize("shape", [(2,), (1,), (1, 1), (3, 1)])
def test_contains_refuses_more_than_one_point(shape):
    # complex() raised a bare TypeError for these
    with pytest.raises(ContractViolation, match="one point"):
        contains(circle(16), np.full(shape, 0.1))


@pytest.mark.parametrize(
    "vertices",
    [[str(x) for x in circle(8)], [True, False, True, False], [0.0, 1.0, 1j, None]],
    ids=["strings", "bools", "with-none"],
)
def test_geometry_refuses_vertices_that_are_not_numbers(vertices):
    with pytest.raises(ContractViolation, match="polygon vertices"):
        containment_depths(vertices, [0.1])
    with pytest.raises(ContractViolation, match="polygon vertices"):
        contains(vertices, 0.1)


@pytest.mark.parametrize(
    "w",
    [0, 1, 0.25, -0.5j, 0.3 + 0.2j, np.int64(1), np.uint8(1), np.float32(0.1),
     np.float16(0.3), np.longdouble(0.1), np.complex64(0.2 + 0.1j), np.array(0.7 - 0.7j)],
    ids=repr,
)
def test_containment_keeps_the_depth_of_every_kind_of_number(w):
    v = circle(16)
    want = containment_depths(v, np.array([complex(w)]))
    assert containment_depths(v, w).tobytes() == want.tobytes()
    assert containment_depths(v, [w, w]).tobytes() == np.repeat(want, 2).tobytes()
    assert contains(v, w) == bool(want[0] <= ToleranceConfig.geom_tol)


def test_contains_is_orientation_free():
    ccw = circle(32)
    cw = ccw[::-1]
    for w in (0.0, 0.5 + 0.3j, 2.0):
        assert contains(ccw, w) == contains(cw, w)


def test_containment_depth_signs_and_magnitudes():
    poly = circle()
    depths = containment_depths(poly, [0.0, 2.0])
    assert depths[0] < -0.99  # roughly minus the apothem
    assert abs(depths[1] - 1.0) < 1e-2


def test_convexity_defect_separates_shapes():
    assert convexity_defect(circle()) > 0.0
    assert convexity_defect(T_SHAPE) < -0.1


NOTCHED_SQUARE = np.array([0, 1, 1 + 1j, 0.5 + 0.5j, 1j], dtype=np.complex128)
# the reflex vertex twice, as when a numerical fault stalls two samples
NOTCHED_SQUARE_REPEATED = np.insert(NOTCHED_SQUARE, 3, 0.5 + 0.5j)


def test_convexity_defect_measures_the_turn_across_a_repeated_vertex():
    assert abs(convexity_defect(NOTCHED_SQUARE) + 1.0) < 1e-15
    assert abs(convexity_defect(NOTCHED_SQUARE_REPEATED) + 1.0) < 1e-15


@pytest.mark.parametrize(
    ("points", "message"),
    [
        (np.exp(2j * (2.0 * np.pi * np.arange(64) / 64)), "winds 2 times"),
        (NOTCHED_SQUARE, "non-convex"),
        (np.array([0, 1, 1, 0], dtype=np.complex128), "fewer than 3"),
        (NOTCHED_SQUARE_REPEATED, "non-convex"),
        # edges so short that the product of two lengths underflows: every
        # turn's sine is NaN, which must fail the check without a warning
        (1e-170 * np.array([0, 1, 1 + 1j, 1j]), None),
    ],
    ids=["wound-twice", "notched", "two-distinct", "notched-repeated", "underflow"],
)
def test_validate_polygon_rejects_what_is_not_a_convex_loop(points, message):
    with pytest.raises(GeometryDegenerate, match=message):
        schurvar.regions._validate_polygon(points, 1e-6)


def with_nan_vertices(v):
    v = v.copy()
    v[3] = complex(math.nan, math.nan)
    v[7] = complex(0.5, math.nan)
    return v


# repeated vertices, a run that wraps past the last vertex, NaN vertices, a
# reversed (strided) view and edges whose length products underflow
LOOP_POLYGONS = {
    "circle": circle(64),
    "repeated": np.repeat(circle(40), [1, 3] * 20),
    "wrapping": np.concatenate([circle(16)[:1], circle(16), circle(16)[:1]]),
    "nan": with_nan_vertices(circle(16)),
    "reversed-view": circle(64)[::-1],
    "notched-repeated": NOTCHED_SQUARE_REPEATED,
    "underflow": 1e-170 * np.array([0, 1, 1 + 1j, 1j]),
}


@pytest.mark.parametrize("name", sorted(LOOP_POLYGONS))
def test_loop_and_turns_are_bit_identical_to_the_rolled_forms(name):
    v = LOOP_POLYGONS[name]
    got, want = schurvar.regions._loop(v), rolled_loop(v)
    for edges in (got[1], v - 0.5):  # NaN edges too, which the loop drops
        got += schurvar.regions._turns(edges)
        want += rolled_turns(edges)
    for g, w in zip(got, want, strict=True):
        assert g.shape == w.shape and g.tobytes() == w.tobytes()


@pytest.mark.parametrize(
    ("j", "z0"), [(-1, 1e-20), (0, 1e-20), (2, 1e-20), (0, 1e-15), (2, 1e-40), (-1, 1e-300)]
)
def test_region_below_the_rounding_of_its_centre_is_named(j, z0):
    # the epsilon-dependent part of Q is about |z0| times its centre, so
    # these samples are the witness plus rounding noise; the polygon check
    # fails on them as "winds 0 times" or "non-convex"
    req = RegionRequest.from_gamma((0.3, 0.2j), j=j, z0=z0, domain=half_plane())
    with pytest.raises(GeometryDegenerate, match="^region is below the rounding of its centre"):
        region(req)


@pytest.mark.parametrize(
    ("data", "j", "z0", "samples"),
    [
        (data_from_parameters((0.3, 0.2j)), 1000, 0.5, 16),
        (CaratheodoryData((0.0,) * 1001), 0, 0.5, 64),
        (CaratheodoryData((0.0,) * 1001), 0, 0.1, 64),
        (data_from_parameters((0.3, 0.2j)), 2000, 0.5, 16),
        (data_from_parameters((0.3, 0.2j)), 100000, 0.5, 16),
        (data_from_parameters((0.3, 0.2j)), 2, 1e-100, 512),
        (data_from_parameters((0.3, 0.2j)), 0, 1e-200, 512),
    ],
    ids=["j1000", "order1000", "order1000-z0-0.1", "j2000", "j100000", "z0-1e-100", "z0-1e-200"],
)
def test_region_below_the_float_range_is_named(data, j, z0, samples):
    # the samples are about 2e-308 in size, so the turn test's products of
    # edge lengths underflow to NaN; in the last five cells the witness and
    # the samples underflow to 0, which is no rounding of a centre.  At z0
    # 0.1 the order-1000 data's decay rate |z0|^1001 underflows to 0 too,
    # and the first batch takes the fewest epsilons
    req = RegionRequest(data=data, j=j, z0=z0, domain=half_plane(), samples=samples)
    with pytest.raises(GeometryDegenerate, match="^region is below the float range"):
        region(req)


def test_region_keeps_the_polygon_fault_of_a_resolved_region(monkeypatch):
    def reject(points, geom_tol):
        raise GeometryDegenerate("boundary polygon is non-convex beyond tolerance")

    monkeypatch.setattr(schurvar.regions, "_validate_polygon", reject)
    req = RegionRequest.from_gamma((0.3, 0.2j), j=0, z0=0.5, domain=half_plane())
    with pytest.raises(GeometryDegenerate, match="^boundary polygon is non-convex"):
        region(req)


def test_convex_hull_drops_interior_and_collinear_points():
    pts = np.array(
        [0, 1, 1 + 1j, 1j, 0.5 + 0.5j, 0.5, 0.25 + 0.25j],
        dtype=np.complex128,
    )
    hull = convex_hull(pts)
    assert sorted(hull.tolist()) == [0, 1, 2, 3]
    v = pts[hull]
    shoelace = float(np.sum(np.imag(np.conjugate(v) * np.roll(v, -1))))
    assert shoelace > 0.0  # counterclockwise


def test_distance_to_unit_square():
    square = np.array([0, 1, 1 + 1j, 1j], dtype=np.complex128)
    d = distance_to_boundary(square, [0.5 + 0.5j, 2.0 + 0.5j, 0.0])
    assert abs(d[0] - 0.5) < 1e-15
    assert abs(d[1] - 1.0) < 1e-15
    assert d[2] < 1e-15


def test_hausdorff_between_samplings_of_one_curve():
    n = 256
    a = circle(n)
    b = circle(n) * np.exp(1j * np.pi / n)  # half-step rotated sampling
    assert hausdorff_distance(a, a) < 1e-15
    # chord deviation of the inscribed polygon bounds the mismatch
    assert hausdorff_distance(a, b) < np.pi**2 / (2 * n**2) * 1.1


def test_hausdorff_detects_translation():
    a = circle(128)
    b = circle(128, center=0.1)
    got = hausdorff_distance(a, b)
    assert abs(got - 0.1) < 1e-3


# Reference formula over the whole (queries x edges) matrix.  The blocked
# geometry puts every element through the same operations in the same
# order, so it must match it bit for bit.


def unblocked_depths(v, queries):
    shoelace = float(np.sum(np.imag(np.conjugate(v) * np.roll(v, -1))))
    orient = 1.0 if shoelace >= 0.0 else -1.0
    edges = np.roll(v, -1) - v
    keep = np.abs(edges) > 0.0
    e = edges[keep]
    base = v[keep]
    diff = queries[:, None] - base[None, :]
    inward = orient * np.imag(np.conjugate(e)[None, :] * diff) / np.abs(e)[None, :]
    return -np.min(inward, axis=1)


def assert_depth_is_distance_inside(v, q):
    # inside a convex polygon minus the depth is the distance to the nearest
    # segment, which the oracle computes by projecting onto every segment
    depths = containment_depths(v, q)
    inside = depths < 0.0
    gap = np.abs(depths[inside] + distance_to_boundary(v, q[inside]))
    assert np.all(gap <= 1e-15 * max(1.0, float(np.max(np.abs(v)))))


def wobbly_polygon(n):
    t = 2.0 * np.pi * np.arange(n) / n
    return 0.3 + 0.1j + np.exp(1j * t) + 0.2 * np.exp(-2j * t) / 3.0


GEOMETRY_POLYGONS = {
    "ccw": wobbly_polygon(257),
    "cw": wobbly_polygon(257)[::-1].copy(),
    "repeated": np.repeat(circle(40), [1, 3] * 20),  # zero-length edges
}


@pytest.mark.parametrize("count", [0, 1, 15, 16, 17, 1000])
@pytest.mark.parametrize("shape", sorted(GEOMETRY_POLYGONS))
def test_blocked_geometry_is_bit_identical_to_unblocked(shape, count):
    v = GEOMETRY_POLYGONS[shape]
    rng = np.random.default_rng(count)
    # inside, near and outside the boundary, plus the vertices themselves
    q = 1.6 * np.sqrt(rng.random(count)) * np.exp(2j * np.pi * rng.random(count))
    q[: min(count, 5)] = v[: min(count, 5)]
    assert np.array_equal(containment_depths(v, q), unblocked_depths(v, q))
    assert_depth_is_distance_inside(v, q)
    if count:
        assert contains(v, q[0]) == bool(unblocked_depths(v, q[:1])[0] <= 1e-6)


def square_polygon(n):
    # n // 4 points per side: the blocks along a side are collinear (tied
    # minima), and the roll puts each corner inside a block
    t = np.arange(n // 4) / (n // 4)
    return np.roll(np.concatenate([t, 1.0 + 1j * t, 1.0 - t + 1j, 1j * (1.0 - t)]), 32)


def needle_polygon(n):
    # an ellipse with axes 1 and 1e-4, rolled so that each tip is the base of
    # a block's middle edge
    t = 2.0 * np.pi * np.arange(n) / n
    return np.roll(np.cos(t) + 1e-4j * np.sin(t), 32)


# Polygons over several edge blocks, with edge counts that are and are not a
# multiple of the block size, for the pruned geometry.  Only the square and
# the needle turn sharply within a block.
MULTI_BLOCK_POLYGONS = {
    "ccw-4096": wobbly_polygon(4096),
    "ccw-4099": wobbly_polygon(4099),
    "cw-4096": wobbly_polygon(4096)[::-1].copy(),
    "cw-4099": wobbly_polygon(4099)[::-1].copy(),
    "repeated": np.repeat(wobbly_polygon(1000), [1, 3] * 500),  # zero-length edges
    "square-4096": square_polygon(4096),
    "needle-4096": needle_polygon(4096),
}


def probe_points(v):
    """Centroid, vertices, edge midpoints, just and far outside, and draws."""
    rng = np.random.default_rng(len(v))
    centroid = np.mean(v)
    mids = 0.5 * (v + np.roll(v, -1))[:: max(1, len(v) // 97)]
    draws = 1.6 * np.sqrt(rng.random(300)) * np.exp(2j * np.pi * rng.random(300))
    return np.concatenate(
        [
            [centroid],
            v[:: max(1, len(v) // 101)],
            mids,
            centroid + (1.0 + 1e-9) * (mids - centroid),
            centroid + 3.0 * (mids - centroid),
            draws,
        ]
    )


@pytest.mark.parametrize("shape", sorted(MULTI_BLOCK_POLYGONS))
def test_pruned_geometry_is_bit_identical_on_multi_block_polygons(shape):
    v = MULTI_BLOCK_POLYGONS[shape]
    q = probe_points(v)
    assert np.array_equal(containment_depths(v, q), unblocked_depths(v, q))
    assert_depth_is_distance_inside(v, q)
    for w in q[:3]:  # the centroid, the worst case for pruning, and two vertices
        assert contains(v, w) == bool(unblocked_depths(v, np.array([w]))[0] <= 1e-6)


def test_pruned_geometry_keeps_a_block_whose_bound_is_tight():
    # The square turned by 0.008 rad, 128 points a side, has a corner at the
    # base of block 0's middle edge.  A point outside the side that ends at
    # that corner and inside the side that starts there is deepest under the
    # first side: under block 0's edges before its middle one, tied with the
    # middle edges of the blocks along that side.  Block 0's lower bound is
    # then exact, so rounding can put it an ulp above the least upper bound
    # while one of its edges holds the minimum's last bit; the slack keeps it
    # (27 of these 171 points differ with a zero slack).
    turn = np.exp(0.008j)
    v = square_polygon(512) * turn
    depth, along = np.meshgrid(np.arange(1, 10) / 20, np.arange(1, 20) / 20)
    q = ((-depth + 1j * along) * turn).ravel()
    assert np.array_equal(containment_depths(v, q), unblocked_depths(v, q))


def test_geometry_keeps_non_finite_and_huge_queries():
    # a NaN or infinite bound decides nothing: those queries take the full row
    # and no numpy warning, which the tests turn into an error, leaves the call
    q = np.array(
        [np.nan, np.inf, 1e200, -1e200j, complex(np.nan, 1.0), -np.inf, 1e308 + 1e308j, 0.1]
    )
    for v in (MULTI_BLOCK_POLYGONS["ccw-4099"], GEOMETRY_POLYGONS["cw"]):
        got = containment_depths(v, q)
        with np.errstate(invalid="ignore", over="ignore"):
            want = unblocked_depths(v, q)
        assert np.array_equal(got, want, equal_nan=True)
        assert_depth_is_distance_inside(v, q)
        for w in (np.inf, 1e308 + 1e308j):
            assert containment_depths(v, [w]).tobytes() == got[q == w].tobytes()


def test_pruned_containment_evaluates_few_pairs(monkeypatch):
    # deterministic work counter: every (point, edge) value the exact formula
    # computes, against the q * N of an unpruned pass
    evaluated = []
    inward = schurvar.regions._inward

    def counting(*args):
        values = inward(*args)
        evaluated.append(values.size)
        return values

    monkeypatch.setattr(schurvar.regions, "_inward", counting)
    n = 4096
    v = wobbly_polygon(n)
    rng = np.random.default_rng(3)
    q = 0.5 * np.sqrt(rng.random(1000)) * np.exp(2j * np.pi * rng.random(1000))
    assert np.array_equal(containment_depths(v, q), unblocked_depths(v, q))
    assert 0 < sum(evaluated) <= 0.15 * len(q) * n


def traced_peak_mb(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def test_geometry_memory_does_not_grow_with_query_count():
    # whole (queries x edges) temporaries took 156 MB for containment at
    # these sizes
    n = 4096
    v = wobbly_polygon(n)
    rng = np.random.default_rng(3)
    q = 0.5 * np.sqrt(rng.random(1000)) * np.exp(2j * np.pi * rng.random(1000))
    assert traced_peak_mb(containment_depths, v, q) < 16.0
    # the CLI's --count cap: the per-block bounds are taken over query passes
    q = 1.2 * np.sqrt(rng.random(10000)) * np.exp(2j * np.pi * rng.random(10000))
    assert traced_peak_mb(containment_depths, v, q) < 16.0


def test_enclosed_area_frozen_values():
    assert abs(enclosed_area(circle()) - np.pi) < 1e-12
    theta = 2j * np.pi * np.arange(64) / 64
    ellipse = 2.0 * np.cos(theta.imag) + 1j * np.sin(theta.imag)
    assert abs(enclosed_area(ellipse) - 2.0 * np.pi) < 1e-12
    assert abs(enclosed_area(circle()[::-1]) + np.pi) < 1e-12


@pytest.mark.parametrize(
    "boundary",
    [[True, False, True, True], [None] * 4, np.ones((4, 4)), np.ones((5, 3)), 1.0, ["1"] * 4],
    ids=["bools", "nones", "4x4", "5x3", "scalar", "strings"],
)
def test_enclosed_area_refuses_what_is_not_a_sequence_of_numbers(boundary):
    # these read as areas -0.3927, nan and 0.0, or raised numpy's errors
    with pytest.raises(ContractViolation):
        enclosed_area(boundary)


def test_enclosed_area_keeps_the_value_of_every_kind_of_number():
    v = circle(16) * (1.5 + 0.5j)
    for boundary in (
        v.tolist(),
        [1, 3, 2j, -1],
        np.array([1, 3, 2, 0], dtype=np.int8),
        v.real.astype(np.float32),
        v.astype(np.complex64),
        v.astype(np.clongdouble),
    ):
        want = enclosed_area(np.asarray(boundary, dtype=np.complex128))
        assert enclosed_area(boundary) == want


def test_enclosed_area_is_stable_under_resampling():
    def curve(n):
        t = 2.0 * np.pi * np.arange(n) / n
        return np.exp(1j * t) + 0.3 * np.exp(-2j * t)

    want = np.pi * (1.0 - 2 * 0.09)
    a64, a128 = enclosed_area(curve(64)), enclosed_area(curve(128))
    assert abs(a64 - want) < 1e-12
    assert abs(a64 - a128) < 1e-12


def test_contains_rejects_a_polygon_without_edges():
    with pytest.raises(GeometryDegenerate):
        contains([1, 1, 1], 0.5)


def test_containment_depths_rejects_a_polygon_without_edges():
    with pytest.raises(GeometryDegenerate):
        containment_depths(np.full(5, 0.2 + 0.1j), [0.5, 0.0])


def test_distance_to_boundary_rejects_an_empty_polyline():
    with pytest.raises(ContractViolation):
        distance_to_boundary([], [0.5])
    with pytest.raises(ContractViolation):
        hausdorff_distance([], [0.5])


def test_geometry_rejects_degenerate_inputs():
    with pytest.raises(ContractViolation):
        contains(np.array([0.0, 1.0]), 0.5)
    with pytest.raises(ContractViolation):
        enclosed_area(np.array([0.0, 1.0, 1j]))


def test_branch_cut_guard_is_exported():
    assert issubclass(BranchCutHit, Exception)
    # at theta = 0 one logarithm's argument is 1 - z0 = 2**-53, within the
    # guard's 1e-14 of the cut, although z0 is valid
    for lam in (0.0, 0.5):
        with pytest.raises(BranchCutHit):
            log_derivative_curve(lam, 1 - 2**-53, 0.0)
