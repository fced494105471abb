"""Peeling recursion, classification trichotomy, and the inverse map."""

import cmath
import math
import re

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
    RegionRequest,
    ToleranceConfig,
    build_polynomials,
    data_from_parameters,
    disk,
    half_plane,
    oracle_samples,
    schur_parameters,
)
from schurvar.schur import schur_step

from oracles import mobius


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
    with pytest.raises(ContractViolation):
        mobius(math.nan, 0.2)


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
# schur_step: one step on the generator pair (p, q), omega = p / q


def series_quotient(p, q):
    """``p / q`` as a truncated power series, ``q[0] = 1``."""
    out = []
    for k in range(len(p)):
        out.append(p[k] - sum(q[l] * out[k - l] for l in range(1, k + 1)))
    return out


def test_step_first_order():
    assert schur_step((0.5, 0.375), (1.0, 0.0), 0.5) == ((0.5,), (1.0,))


def test_step_second_order():
    p, q = schur_step((0.5, 0.375, 0.28125), (1.0, 0.0, 0.0), 0.5)
    assert max(abs(a - b) for a, b in zip(p, (0.5, 0.375))) < 1e-15
    assert q[0] == 1.0 and abs(q[1] + 0.25) < 1e-15
    # the peeled data c^(1) = p / q is (0.5, 0.5)
    assert max(abs(a - b) for a, b in zip(series_quotient(p, q), (0.5, 0.5))) < 1e-15


def test_step_zero_leading_coefficient_is_exact_left_shift():
    tail = (0.25 - 0.125j, 0.7j, -0.3)
    q = (1.0, 0.3j, -0.2, 0.1 + 0.1j)
    assert schur_step((0.0,) + tail, q, 0.0) == (tail, q[:-1])


@given(
    tail=st.lists(disk_points(1.0), min_size=1, max_size=6),
    q_tail=st.lists(disk_points(1.0), min_size=6, max_size=6),
)
def test_step_shift_property(tail, q_tail):
    q = (1.0, *q_tail[: len(tail)])
    assert schur_step((0.0, *tail), q, 0.0) == (tuple(tail), q[:-1])


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


def test_modulus_at_the_band_edge_takes_exactly_one_class():
    # gamma_1 = 1 / (1 - 1e-12) reads 1.000000000001: not above the rounded
    # 1 + cls_tol, yet |m - 1| is above cls_tol, so it is neither boundary
    # nor interior
    cls = schur_parameters((1e-6, 1.0))
    assert cls == Exterior(witness_index=1, reason=ExteriorReason.MODULUS_EXCEEDS_ONE)


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
        data_from_parameters(())
    for bad in (1.0, math.nan, math.inf, -math.inf, complex(0.1, math.nan)):
        with pytest.raises(ContractViolation):
            data_from_parameters((0.5, bad))


@given(
    gamma=st.lists(disk_points(0.9), min_size=1, max_size=5),
)
@settings(max_examples=150)
def test_round_trip_recovers_parameters(gamma):
    cls = schur_parameters(data_from_parameters(gamma))
    assert isinstance(cls, Interior)
    assert max(abs(a - b) for a, b in zip(cls.gamma, gamma)) < 1e-8


# --------------------------------------------------------------------------
# the generator recurrence against the coefficient-space forms it replaced


def reference_peel(c, band=1e-12):
    """The coefficient-space peel, one convolution per step:
    c^(j+1)_p = (c^(j)_{p+1} + conj(g) sum_{l=1..p} c^(j+1)_{p-l} c^(j)_l) / (1 - |g|^2)."""
    work = [complex(x) for x in c]
    gamma = []
    while True:
        g, j = work[0], len(gamma)
        if abs(g) - 1.0 > band:
            return Exterior(j, ExteriorReason.MODULUS_EXCEEDS_ONE)
        if abs(abs(g) - 1.0) <= band:
            if any(abs(x) > band for x in work[1:]):
                return Exterior(j, ExteriorReason.UNIMODULAR_WITH_NONZERO_TAIL)
            return Boundary(tuple(gamma) + (g,), j)
        gamma.append(g)
        if len(work) == 1:
            return Interior(tuple(gamma))
        d = 1.0 - abs(g) ** 2
        out = [work[1] / d]
        for p in range(1, len(work) - 1):
            conv = sum(out[p - l] * work[l] for l in range(1, p + 1))
            out.append((work[p + 1] + g.conjugate() * conv) / d)
        work = out


def reference_nested(prefix, inner):
    """``sigma_{g_0}(z sigma_{g_1}(... z inner))`` as a series of ``len(inner)`` terms."""
    w = [complex(x) for x in inner]
    for g in reversed(prefix):
        g = complex(g)
        zw = [0j] + w[:-1]
        w = series_quotient([g] + zw[1:], [1.0] + [g.conjugate() * x for x in zw[1:]])
    return w


def classification_key(cls):
    if isinstance(cls, Interior):
        return "interior", len(cls.gamma), None
    if isinstance(cls, Boundary):
        return "boundary", cls.unimodular_index, None
    return "exterior", cls.witness_index, cls.reason


def seeded_disk(rng, size, radius):
    return [complex(x) for x in radius * np.sqrt(rng.uniform(size=size))
            * np.exp(2j * np.pi * rng.uniform(size=size))]


def test_peel_matches_coefficient_space_reference():
    rng = np.random.default_rng(6)
    cases = []
    for trial in range(1800):
        n = trial % 9
        cases.append(seeded_disk(rng, n + 1, 1.5))  # mostly exterior
        gamma = seeded_disk(rng, n + 1, 0.9)
        cases.append(reference_nested(gamma, [0j] * (n + 1)))  # interior
        i = trial % (n + 1)
        unimodular = cmath.exp(2j * math.pi * rng.uniform())
        inner = [unimodular] + [0j] * (n - i)
        cases.append(reference_nested(gamma[:i], inner))  # boundary at i
        if i < n:
            inner[1] = 0.3 * unimodular
            cases.append(reference_nested(gamma[:i], inner))  # non-zero tail at i
    outcomes = set()
    for c in cases:
        got, want = schur_parameters(c), reference_peel(c)
        assert classification_key(got) == classification_key(want), c
        outcomes.add((type(got), getattr(got, "reason", None)))
        if not isinstance(got, Exterior):
            params = got.gamma if isinstance(got, Interior) else got.gamma_prefix
            ref = want.gamma if isinstance(want, Interior) else want.gamma_prefix
            assert max(abs(a - b) for a, b in zip(params, ref)) < 1e-9
    assert len(outcomes) == 4  # interior, boundary and both exterior reasons


def test_inverse_matches_nested_reference():
    rng = np.random.default_rng(7)
    for n in range(21):
        for _ in range(5):
            gamma = seeded_disk(rng, n + 1, 0.99)
            got = data_from_parameters(gamma).coeffs
            want = reference_nested(gamma, [0j] * (n + 1))
            assert max(abs(a - b) for a, b in zip(got, want)) < 1e-14


def test_inverse_against_50_digit_reference():
    mp = pytest.importorskip("mpmath")
    rng = np.random.default_rng(8)
    for n in (10, 40):
        for _ in range(3):
            gamma = seeded_disk(rng, n + 1, 0.99)
            got = data_from_parameters(gamma).coeffs
            with mp.workdps(50):  # the nested composition in 50-digit arithmetic
                w = [mp.mpc(0)] * (n + 1)
                for g in map(mp.mpc, reversed(gamma)):
                    num = [g] + w[:-1]
                    den = [mp.mpc(1)] + [mp.conj(g) * x for x in w[:-1]]
                    w = []
                    for k in range(n + 1):
                        w.append(num[k] - mp.fsum(den[l] * w[k - l] for l in range(1, k + 1)))
                err = max(abs(w[k] - mp.mpc(got[k])) for k in range(n + 1))
            assert err < 1e-14


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


_REQUEST = dict(data=(0.5, 0.375), j=0, z0=0.5, domain=half_plane())


@pytest.mark.parametrize(
    "build",
    [
        # these built, reading the string, the bool or the complex value as a number
        pytest.param(lambda: RegionRequest(**{**_REQUEST, "z0": "0.5"}), id="request-z0-str"),
        pytest.param(
            lambda: oracle_samples((0.5,), half_plane(), 0, "0.5", 1, 2), id="oracle-z0-str"
        ),
        pytest.param(lambda: CaratheodoryData(("0.5", "0.1")), id="data-str"),
        pytest.param(lambda: CaratheodoryData((True, False)), id="data-bool"),
        pytest.param(lambda: CaratheodoryData((np.bool_(True),)), id="data-numpy-bool"),
        pytest.param(lambda: build_polynomials(("0.5",)), id="parameters-str"),
        pytest.param(lambda: disk("1+1j", 2.0), id="disk-centre-str"),
        pytest.param(lambda: disk(0, "2"), id="disk-radius-str"),
        pytest.param(lambda: disk(0, True), id="disk-radius-bool"),
        pytest.param(lambda: disk(0, 2 + 0j), id="disk-radius-complex"),
        pytest.param(lambda: ToleranceConfig(quad_tol=True), id="tol-bool"),
        pytest.param(lambda: ToleranceConfig(geom_tol=np.complex128(1e-6)), id="tol-complex"),
        # these raised a bare TypeError or OverflowError, or built
        pytest.param(lambda: ToleranceConfig(quad_tol="1e-10"), id="tol-str"),
        pytest.param(
            lambda: RegionRequest(**{**_REQUEST, "z0": np.array([0.5])}), id="request-z0-array"
        ),
        pytest.param(lambda: CaratheodoryData((None,)), id="data-none"),
        pytest.param(lambda: CaratheodoryData((np.array(0.5),)), id="data-0-d-array"),
        pytest.param(lambda: CaratheodoryData((b"0.5",)), id="data-bytes"),
        pytest.param(lambda: disk(0, None), id="disk-radius-none"),
    ],
)
def test_scalars_that_are_not_numbers_are_refused(build):
    with pytest.raises(ContractViolation, match="must be a number"):
        build()


@pytest.mark.parametrize(
    "build",
    [
        pytest.param(lambda: CaratheodoryData((10**400,)), id="data"),
        pytest.param(lambda: RegionRequest(**{**_REQUEST, "z0": 10**400}), id="request-z0"),
        pytest.param(lambda: disk(0, 10**400), id="disk-radius"),
    ],
)
def test_an_int_too_large_for_a_float_is_refused_as_such(build):
    # a number all the same: the refusal names its size, not its type
    with pytest.raises(ContractViolation, match="is too large for a float"):
        build()


def test_numeric_scalars_keep_their_values_bit_for_bit():
    z0 = np.complex64(0.3 + 0.1j)
    assert RegionRequest(**{**_REQUEST, "z0": z0}).z0 == complex(z0)
    data = CaratheodoryData((np.float32(0.1), 1, np.int64(0), 0.25j))
    assert data.coeffs == (complex(np.float32(0.1)), 1, 0, 0.25j)
    assert all(type(c) is complex for c in data.coeffs)
    tol = ToleranceConfig(cls_tol=np.float32(1e-12), quad_tol=1, geom_tol=np.float64(1e-6))
    assert (tol.cls_tol, tol.quad_tol, tol.geom_tol) == (float(np.float32(1e-12)), 1.0, 1e-6)
    assert all(type(t) is float for t in (tol.cls_tol, tol.quad_tol, tol.geom_tol))
    assert ToleranceConfig() == ToleranceConfig(1e-12, 1e-10, 1e-6)
    assert disk(np.complex128(1 + 1j), np.int64(2)).label == "disk:1,1,2"
    # a NaN or infinite z0 is refused by its range, as before
    for z0 in (complex(math.nan, 0.0), math.inf):
        with pytest.raises(ContractViolation, match=re.escape("0 < |z0| < 1")):
            RegionRequest(**{**_REQUEST, "z0": z0})
