"""Peeling recursion, classification trichotomy, and the inverse map."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schurvar import (
    Boundary,
    CaratheodoryData,
    ContractViolation,
    Exterior,
    ExteriorReason,
    Interior,
    ToleranceConfig,
    data_from_parameters,
    mobius,
    schur_parameters,
    schur_step,
)


def disk_points(radius: float):
    """Complex numbers with modulus up to ``radius``."""
    return st.builds(
        cmath.rect,
        st.floats(0.0, radius, allow_nan=False),
        st.floats(0.0, 2.0 * math.pi, allow_nan=False),
    )


# --------------------------------------------------------------------------
# mobius


def test_mobius_zero_parameter_is_identity():
    assert mobius(0.0, 0.3 + 0.4j) == 0.3 + 0.4j


def test_mobius_sends_origin_to_parameter():
    assert mobius(0.7, 0.0) == 0.7


def test_mobius_half_half():
    assert abs(mobius(0.5, 0.5) - 0.8) < 1e-15


def test_mobius_rejects_unimodular_parameter():
    with pytest.raises(ContractViolation):
        mobius(1.0, 0.2)
    with pytest.raises(ContractViolation):
        mobius(1.5 + 0.1j, 0.2)


def test_mobius_accepts_arrays():
    z = np.array([0.0, 0.5, 1j])
    out = mobius(0.5, z)
    assert out.shape == (3,)
    assert abs(out[1] - 0.8) < 1e-15


@given(a=disk_points(0.9), z=disk_points(1.0))
def test_mobius_inverse_law(a, z):
    w = mobius(a, z)
    back = (w - a) / (1.0 - a.conjugate() * w)
    assert abs(back - z) < 1e-12


@given(a=disk_points(0.9), z=disk_points(1.0))
def test_mobius_maps_closed_disk_into_itself(a, z):
    assert abs(mobius(a, z)) <= 1.0 + 1e-12


# --------------------------------------------------------------------------
# schur_step


def test_step_first_order():
    assert schur_step((0.5, 0.375), 0.5) == (0.5,)


def test_step_second_order():
    out = schur_step((0.5, 0.375, 0.28125), 0.5)
    assert max(abs(a - b) for a, b in zip(out, (0.5, 0.5))) < 1e-15


def test_step_zero_leading_coefficient_is_exact_left_shift():
    tail = (0.25 - 0.125j, 0.7j, -0.3)
    assert schur_step((0.0,) + tail, 0.0) == tail


@given(tail=st.lists(disk_points(1.0), min_size=1, max_size=6))
def test_step_shift_property(tail):
    assert schur_step((0.0, *tail), 0.0) == tuple(complex(t) for t in tail)


def test_step_requires_gamma_to_match_first_entry():
    with pytest.raises(ContractViolation):
        schur_step((0.5, 0.375), 0.4)


def test_step_requires_two_entries():
    with pytest.raises(ContractViolation):
        schur_step((0.5,), 0.5)


def test_step_rejects_non_contractive_gamma():
    with pytest.raises(ContractViolation):
        schur_step((1.0, 0.375), 1.0)


# --------------------------------------------------------------------------
# classification


def test_classify_large_leading_coefficient_is_exterior():
    cls = schur_parameters((2.0, 0.0))
    assert isinstance(cls, Exterior)
    assert cls.witness_index == 0
    assert cls.reason is ExteriorReason.MODULUS_EXCEEDS_ONE


def test_classify_unimodular_with_zero_tail_is_boundary():
    cls = schur_parameters((1.0, 0.0))
    assert isinstance(cls, Boundary)
    assert cls.gamma_prefix == (1.0,)
    assert cls.unimodular_index == 0


def test_classify_unimodular_with_nonzero_tail_is_exterior():
    cls = schur_parameters((1.0, 0.5))
    assert isinstance(cls, Exterior)
    assert cls.witness_index == 0
    assert cls.reason is ExteriorReason.UNIMODULAR_WITH_NONZERO_TAIL


def test_classify_interior_pair():
    cls = schur_parameters((0.5, 0.375))
    assert isinstance(cls, Interior)
    assert max(abs(a - b) for a, b in zip(cls.gamma, (0.5, 0.5))) < 1e-15


def test_classify_boundary_at_deeper_index():
    # peeling (0.5, 0.75) yields a unimodular parameter one level down
    cls = schur_parameters((0.5, 0.75))
    assert isinstance(cls, Boundary)
    assert cls.unimodular_index == 1
    assert abs(cls.gamma_prefix[0] - 0.5) < 1e-15
    assert abs(cls.gamma_prefix[1] - 1.0) < 1e-15


def test_classification_band_is_configurable():
    data = (1.0 - 1e-13, 0.0)
    wide = schur_parameters(data, ToleranceConfig(cls_tol=1e-12))
    narrow = schur_parameters(data, ToleranceConfig(cls_tol=1e-15))
    assert isinstance(wide, Boundary)
    assert isinstance(narrow, Interior)


def test_interior_parameter_count_matches_input_length():
    for data in [(0.1,), (0.1, 0.2), (0.3j, -0.2, 0.1 + 0.1j, 0.05)]:
        cls = schur_parameters(data)
        assert isinstance(cls, Interior)
        assert len(cls.gamma) == len(data)


@given(data=st.lists(disk_points(1.5), min_size=1, max_size=6))
@settings(max_examples=200)
def test_classification_trichotomy(data):
    cls = schur_parameters(data)
    assert isinstance(cls, (Interior, Boundary, Exterior))
    if isinstance(cls, Interior):
        assert len(cls.gamma) == len(data)
        assert all(abs(g) < 1.0 for g in cls.gamma)
    elif isinstance(cls, Boundary):
        assert 0 <= cls.unimodular_index < len(data)
        assert len(cls.gamma_prefix) == cls.unimodular_index + 1
    else:
        assert 0 <= cls.witness_index < len(data)


# --------------------------------------------------------------------------
# data_from_parameters


def test_inverse_of_all_zero_parameters():
    assert data_from_parameters((0.0, 0.0, 0.0)).coeffs == (0.0, 0.0, 0.0)


def test_inverse_single_parameter_is_itself():
    assert data_from_parameters((0.25 - 0.1j,)).coeffs == (0.25 - 0.1j,)


def test_inverse_of_half_half():
    coeffs = data_from_parameters((0.5, 0.5)).coeffs
    assert max(abs(a - b) for a, b in zip(coeffs, (0.5, 0.375))) < 1e-15


def test_inverse_of_three_halves():
    # expanding the doubly nested automorphism to second order by hand
    coeffs = data_from_parameters((0.5, 0.5, 0.5)).coeffs
    assert max(abs(a - b) for a, b in zip(coeffs, (0.5, 0.375, 0.1875))) < 1e-15


def test_inverse_rejects_non_contractive_parameters():
    with pytest.raises(ContractViolation):
        data_from_parameters((0.5, 1.0))
    with pytest.raises(ContractViolation):
        data_from_parameters(())


@given(
    gamma=st.lists(disk_points(0.9), min_size=1, max_size=5),
)
@settings(max_examples=150)
def test_round_trip_recovers_parameters(gamma):
    cls = schur_parameters(data_from_parameters(gamma))
    assert isinstance(cls, Interior)
    assert max(abs(a - b) for a, b in zip(cls.gamma, gamma)) < 1e-8


# --------------------------------------------------------------------------
# value types


def test_data_container_validates():
    with pytest.raises(ContractViolation):
        CaratheodoryData(())
    with pytest.raises(ContractViolation):
        CaratheodoryData((float("nan"),))
    with pytest.raises(ContractViolation):
        CaratheodoryData((complex(float("inf"), 0.0),))


def test_data_container_sequence_protocol():
    data = CaratheodoryData((0.5, 0.25j))
    assert len(data) == 2
    assert data.order == 1
    assert data[1] == 0.25j
    assert list(data) == [0.5, 0.25j]


def test_tolerances_validate():
    with pytest.raises(ContractViolation):
        ToleranceConfig(cls_tol=-1e-9)
    with pytest.raises(ContractViolation):
        ToleranceConfig(cls_tol=1.0)
    with pytest.raises(ContractViolation):
        ToleranceConfig(quad_tol=0.0)
    with pytest.raises(ContractViolation):
        ToleranceConfig(geom_tol=-1.0)
    for bad in (math.inf, math.nan):
        with pytest.raises(ContractViolation):
            ToleranceConfig(quad_tol=bad)
        with pytest.raises(ContractViolation):
            ToleranceConfig(geom_tol=bad)
