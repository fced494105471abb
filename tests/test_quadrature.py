"""Adaptive radial integration: exactness, batching, honest failure."""

import numpy as np
import pytest

import schurvar.regions
from schurvar import (
    QuadratureNonConvergence,
    build_polynomials,
    half_plane,
)
from schurvar.quadrature import integrate_segment
from schurvar.regions import boundary_curve, integrand


def test_monomial_is_exact():
    z0 = 0.4 + 0.3j
    got = integrate_segment(lambda z: z * z, z0, 1e-12)
    assert abs(got - z0**3 / 3.0) < 1e-15


def test_constant_integrates_to_endpoint():
    z0 = -0.7j
    assert abs(integrate_segment(lambda z: np.ones_like(z), z0, 1e-12) - z0) < 1e-15


def test_geometric_series_matches_logarithm():
    z0 = 0.8
    got = integrate_segment(lambda z: 1.0 / (1.0 - z), z0, 1e-12)
    assert abs(got - (-np.log(1.0 - z0))) < 1e-12


def test_needle_near_the_path_still_converges():
    # pole at distance 1e-3 from the segment, inside the disk: the rule pair
    # disagrees, and bisection refines deep toward it
    z0 = 0.9
    pole = 0.45 + 1e-3j
    calls = []

    def f(z):
        calls.append(z.size)
        return 1.0 / (z - pole)

    got = integrate_segment(f, z0, 1e-10)
    want = np.log(z0 - pole) - np.log(-pole)
    assert abs(got - want) < 1e-8
    assert len(calls) > 20


@pytest.mark.parametrize("radius", [0.3, 0.7, 0.9])
def test_pole_just_outside_the_disk_is_accepted_in_one_call(radius):
    # analytic in the unit disk: the order the Bernstein ellipse of |z0|
    # chooses meets the tolerance, from whichever side the pole is near
    z0 = radius * np.exp(0.4j)
    for angle in np.linspace(0.0, 2.0 * np.pi, 12, endpoint=False):
        pole = 1.05 * np.exp(1j * (0.4 + angle))
        calls = []

        def f(z):
            calls.append(z.size)
            return 1.0 / (z - pole)

        got = integrate_segment(f, z0, 1e-10)
        assert abs(got - np.log1p(-z0 / pole)) < 1e-10
        assert len(calls) == 1


# The integrand calls of each boundary: (epsilons, nodes), one call of the
# M epsilons sized from the data's decay rate and the witness at epsilon =
# 0.  The nodes per epsilon are those of the one rule pair that the
# a-priori M = 32, 64, 128 and 256 of |z0| alone took, so each batch is one
# rule-pair call; bisection took three calls of 15 nodes, 45 nodes per
# epsilon, at every radius.
RULE_PAIR_CALLS = {0.3: [(17, 13)], 0.55: [(33, 20)], 0.7: [(65, 25)], 0.85: [(129, 38)]}
#: The epsilons (and witness) of the a-priori first batch at each radius.
A_PRIORI_EPSILONS = {0.3: 33, 0.55: 65, 0.7: 129, 0.85: 257}


@pytest.mark.parametrize("radius", sorted(RULE_PAIR_CALLS))
def test_boundary_takes_one_rule_pair_per_epsilon(monkeypatch, radius):
    calls = []

    def counting(set_, epsilon, j, domain, zeta):
        calls.append((np.size(epsilon), np.size(zeta)))
        return integrand(set_, epsilon, j, domain, zeta)

    monkeypatch.setattr(schurvar.regions, "integrand", counting)
    s = build_polynomials((0.3 + 0.2j, -0.4j, 0.5, 0.1 - 0.3j, 0.2))
    for j in (-1, 0, 2):
        calls.clear()
        boundary_curve(s, j, radius * np.exp(0.7j), half_plane(), 512)
        assert calls == RULE_PAIR_CALLS[radius]
        assert sum(eps for eps, _ in calls) <= A_PRIORI_EPSILONS[radius]


def test_batched_rows_match_single_calls():
    z0 = 0.5 * np.exp(0.4j)
    scales = np.array([1.0, 2.0, -1.5j, 0.3 + 0.3j])[:, None]

    def fam(z):
        return scales * np.exp(z)

    got = integrate_segment(fam, z0, 1e-12)
    assert got.shape == (4,)
    want = scales[:, 0] * (np.exp(z0) - 1.0)
    assert np.max(np.abs(got - want)) < 1e-13


def test_batched_accuracy_is_driven_by_the_worst_row():
    # one easy row, one row needing refinement: both must meet tolerance
    z0 = 0.9
    pole = 0.45 + 5e-3j

    def fam(z):
        return np.stack([np.ones_like(z), 1.0 / (z - pole)])

    got = integrate_segment(fam, z0, 1e-10)
    assert abs(got[0] - z0) < 1e-12
    want = np.log(z0 - pole) - np.log(-pole)
    assert abs(got[1] - want) < 1e-8


def test_infinite_tolerance_takes_the_smallest_rule_pair():
    # the budget cannot push the order below one, nor overflow it
    calls = []

    def f(z):
        calls.append(z.size)
        return z

    assert abs(integrate_segment(f, 0.5j, float("inf")) - (0.5j) ** 2 / 2.0) < 1e-15
    assert calls == [3]


@pytest.mark.filterwarnings("ignore:divide by zero:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_pole_on_the_path_raises():
    with pytest.raises(QuadratureNonConvergence):
        integrate_segment(lambda z: 1.0 / (z - 0.15), 0.3, 1e-10)


def test_tightening_tolerance_tightens_the_result():
    z0 = 0.7 + 0.2j

    def f(z):
        return np.exp(3.0 * z) / (1.0 + z)

    loose = integrate_segment(f, z0, 1e-6)
    tight = integrate_segment(f, z0, 1e-13)
    assert abs(loose - tight) < 1e-6


def test_result_is_deterministic():
    z0 = 0.6 * np.exp(1.1j)

    def f(z):
        return 1.0 / (1.0 - 0.9 * z)

    a = integrate_segment(f, z0, 1e-11)
    b = integrate_segment(f, z0, 1e-11)
    assert a == b
