"""Acceptance suite: nine pinned criteria, one test (and one -v line) each.

Tolerances and runtime budgets are part of the package contract and must
not be loosened.  The containment matrix (criteria 6, 7, 9) is computed
once and shared; its parameter draws, oracle seeds, and sampling density
are frozen so every run checks the same 90 configurations.
"""

import functools
import time

import numpy as np

from schurvar import (
    Empty,
    Interior,
    RegionRequest,
    SinglePoint,
    build_polynomials,
    containment_depths,
    contains,
    data_from_parameters,
    disk,
    half_plane,
    identity_residuals,
    oracle_samples,
    region,
    schur_parameters,
    strip,
)
from schurvar.polynomials import lift
from schurvar.regions import (
    boundary_curve,
    convexity_defect,
    q_value,
)

from oracles import (
    convex_hull,
    distance_to_boundary,
    enclosed_area,
    hausdorff_distance,
    log_derivative_curve,
    log_derivative_setup,
    omega_nested,
)


def draw_gamma(rng, max_order, radius):
    n = int(rng.integers(0, max_order + 1))
    moduli = radius * np.sqrt(rng.random(n + 1))
    return tuple(moduli * np.exp(2j * np.pi * rng.random(n + 1)))


@functools.lru_cache(maxsize=1)
def containment_matrix():
    """The frozen 90-configuration test matrix with 1000 oracle draws each.

    Five order-4 parameter vectors (moduli capped at 0.40 so that the
    inscribed 512-gon hugs the true curve well inside the membership
    tolerance), three target domains, three weight powers, two endpoints.
    """
    rng = np.random.default_rng(3)
    gammas = [
        tuple(0.40 * np.sqrt(rng.random(5)) * np.exp(2j * np.pi * rng.random(5)))
        for _ in range(5)
    ]
    domains = (half_plane(), disk(0.0, 1.0), strip())
    weights = (-1, 0, 2)
    endpoints = (0.3 + 0.0j, 0.5 * np.exp(1j * np.pi / 5))
    records = []
    for gi, gamma in enumerate(gammas):
        for dom in domains:
            for j in weights:
                for z0 in endpoints:
                    req = RegionRequest.from_gamma(
                        gamma, j=j, z0=complex(z0), domain=dom, samples=512
                    )
                    jordan = region(req)
                    draws = oracle_samples(
                        gamma, dom, j, complex(z0), seed=1000 + gi, count=1000
                    )
                    values = np.array([s.value for s in draws])
                    records.append((gamma, dom, j, complex(z0), jordan, values))
    return records


def test_criterion_01_polynomial_law_suite():
    start = time.perf_counter()
    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(500):
        res = identity_residuals(draw_gamma(rng, 8, 0.9))
        worst = max(worst, *res.values())
    elapsed = time.perf_counter() - start
    print(f"criterion 1: worst residual {worst:.3e}, {elapsed:.1f}s")
    assert worst < 1e-10
    assert elapsed < 10.0


def test_criterion_02_peeling_round_trip():
    start = time.perf_counter()
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(500):
        gamma = draw_gamma(rng, 8, 0.9)
        cls = schur_parameters(data_from_parameters(gamma))
        assert isinstance(cls, Interior)
        assert len(cls.gamma) == len(gamma)
        worst = max(worst, max(abs(a - b) for a, b in zip(cls.gamma, gamma)))
    elapsed = time.perf_counter() - start
    print(f"criterion 2: worst component error {worst:.3e}, {elapsed:.1f}s")
    assert worst < 1e-8
    assert elapsed < 5.0


def test_criterion_03_representation_equivalence():
    rng = np.random.default_rng(99)
    worst = 0.0
    for _ in range(1000):
        gamma = draw_gamma(rng, 6, 0.9)
        s = build_polynomials(gamma)
        eps = complex(np.sqrt(rng.random()) * np.exp(2j * np.pi * rng.random()))
        z = complex(np.sqrt(rng.random()) * np.exp(2j * np.pi * rng.random()))
        omega = gamma[0] + z * lift(s, eps, z)
        worst = max(worst, abs(omega_nested(gamma, eps, z) - omega))
    print(f"criterion 3: worst representation gap {worst:.3e}")
    assert worst < 1e-12


def test_criterion_04_flat_data_closed_form():
    start = time.perf_counter()
    s = build_polynomials((0.0, 0.0))
    z0 = 0.3
    worst = 0.0
    for theta in 2.0 * np.pi * np.arange(256) / 256:
        eps = complex(np.exp(1j * theta))
        got = q_value(s, -1, z0, eps, half_plane())
        worst = max(worst, abs(got - (-np.log(1.0 - 0.09 * eps))))
    elapsed = time.perf_counter() - start
    print(f"criterion 4: worst closed-form error {worst:.3e}, {elapsed:.1f}s")
    assert worst < 1e-9
    assert elapsed < 2.0


def test_criterion_05_closed_form_curve_cross_validation():
    start = time.perf_counter()
    worst = 0.0
    for lam in (0.25, 0.5, 0.75):
        domain, data, j = log_derivative_setup(lam)
        cls = schur_parameters(data)
        s = build_polynomials(cls.gamma)
        for z0 in (0.3, 0.6):
            curve = boundary_curve(s, j, z0, domain, 512)
            angles, machinery = curve.eps_angles, curve.boundary
            closed = log_derivative_curve(lam, z0, angles)
            worst = max(worst, hausdorff_distance(machinery, closed))
    elapsed = time.perf_counter() - start
    print(f"criterion 5: worst Hausdorff distance {worst:.3e}, {elapsed:.1f}s")
    assert worst < 1e-5
    assert elapsed < 60.0


def test_criterion_06_oracle_containment_matrix():
    start = time.perf_counter()
    records = containment_matrix()
    assert len(records) == 90
    worst_depth = -np.inf
    worst_hull = 0.0
    for _, _, _, _, jordan, values in records:
        depths = containment_depths(jordan, values)
        worst_depth = max(worst_depth, float(np.max(depths)))
        assert contains(jordan, values[int(np.argmax(depths))], geom_tol=1e-6)
        hull = jordan.boundary[convex_hull(jordan.boundary)]
        worst_hull = max(
            worst_hull, float(np.max(distance_to_boundary(hull, jordan.boundary)))
        )
    elapsed = time.perf_counter() - start
    print(
        f"criterion 6: worst sample depth {worst_depth:.3e}, "
        f"worst hull gap {worst_hull:.3e}, {elapsed:.1f}s"
    )
    assert worst_depth <= 1e-6
    assert worst_hull <= 1e-6
    assert elapsed < 300.0


def test_criterion_07_convexity_and_simplicity():
    for _, _, _, _, jordan, _ in containment_matrix():
        assert convexity_defect(jordan) >= -1e-8
        assert len(np.unique(jordan.boundary)) == 512
        witness_depth = containment_depths(jordan, [jordan.interior_witness])[0]
        assert witness_depth < 0.0
    print("criterion 7: all 90 boundaries convex, simple, witness interior")


def test_criterion_08_degenerate_dispatch():
    for data in ((2.0, 0.0), (1.0, 0.5)):
        out = region(RegionRequest(data=data, j=0, z0=0.3, domain=half_plane()))
        assert isinstance(out, Empty)

    # boundary data (1, 0): unique interpolant zeta, target (1+zeta)/(1-zeta);
    # cross-check with a one-panel 50-node Gauss-Legendre rule on [0, z0]
    nodes, weights = np.polynomial.legendre.leggauss(50)
    t = 0.5 * (nodes + 1.0)
    w = 0.5 * weights
    z0 = 0.3
    worst = 0.0
    for j in (-1, 0, 2):
        out = region(RegionRequest(data=(1.0, 0.0), j=j, z0=z0, domain=half_plane()))
        assert isinstance(out, SinglePoint)
        zeta = t * z0
        values = 2.0 * zeta / (1.0 - zeta)
        values = values / zeta if j == -1 else values * zeta**j
        direct = z0 * np.sum(w * values)
        worst = max(worst, abs(out.w0 - direct))
    print(f"criterion 8: worst dispatch error {worst:.3e}")
    assert worst < 1e-10


def test_criterion_09_refinement_stability():
    records = containment_matrix()
    # one representative configuration per parameter vector, plus flat data
    picks = [records[gi * 18 + (gi % 3) * 6 + (gi % 3) * 2 + gi % 2] for gi in range(5)]
    configs = [
        (gamma, dom, j, z0, jordan.boundary) for gamma, dom, j, z0, jordan, _ in picks
    ]
    flat = ((0.0, 0.0), half_plane(), -1, 0.3 + 0.0j, None)
    configs.append(flat)
    worst_sample = 0.0
    worst_area = 0.0
    for gamma, dom, j, z0, coarse in configs:
        s = build_polynomials(gamma)
        if coarse is None:
            coarse = boundary_curve(s, j, z0, dom, 512).boundary
        fine = boundary_curve(s, j, z0, dom, 1024).boundary
        worst_sample = max(worst_sample, float(np.max(np.abs(fine[::2] - coarse))))
        area_c, area_f = enclosed_area(coarse), enclosed_area(fine)
        worst_area = max(worst_area, abs(area_f - area_c) / abs(area_c))
    print(
        f"criterion 9: worst shared-sample drift {worst_sample:.3e}, "
        f"worst relative area drift {worst_area:.3e}"
    )
    assert worst_sample < 1e-10
    assert worst_area < 1e-8
