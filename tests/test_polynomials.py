"""Polynomial quadruple: recurrence, laws, interpolant forms, pointwise disk."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schurvar import (
    ContractViolation,
    build_polynomials,
    data_from_parameters,
    identity_residuals,
)
from schurvar.polynomials import eval_poly, lift

from oracles import (
    moveaxis_eval_poly,
    omega_nested,
    polynomial_rows,
    stacked_lift_rows,
    variability_disk,
)


def disk_points(radius: float):
    return st.builds(
        cmath.rect,
        st.floats(0.0, radius, allow_nan=False),
        st.floats(0.0, 2.0 * math.pi, allow_nan=False),
    )


def unimodular():
    return st.builds(
        lambda p: cmath.rect(1.0, p), st.floats(0.0, 2.0 * math.pi, allow_nan=False)
    )


def random_parameters(rng, max_order=8, radius=0.9):
    n = int(rng.integers(0, max_order + 1))
    mod = radius * np.sqrt(rng.random(n + 1))
    return tuple(mod * np.exp(2j * np.pi * rng.random(n + 1)))


# --------------------------------------------------------------------------
# construction


def test_build_order_zero():
    s = build_polynomials((0.5,))
    # rows: A, B, At, Bt
    assert s.coeffs.tolist() == [[0.5], [1.0], [1.0], [0.5]]


def test_build_order_one():
    s = build_polynomials((0.5, 0.5))
    assert s.coeffs.tolist() == [[0.5, 0.5], [1.0, 0.25], [0.25, 1.0], [0.5, 0.5]]


def test_build_all_zero_parameters():
    n = 3
    s = build_polynomials((0.0,) * (n + 1))
    a, b, at, bt = s.coeffs.tolist()
    assert all(c == 0.0 for c in a)
    assert b == [1.0] + [0.0] * n
    assert at == [0.0] * n + [1.0]
    assert all(c == 0.0 for c in bt)


def test_build_seed_values_hold_for_random_parameters():
    rng = np.random.default_rng(5)
    for _ in range(20):
        gamma = random_parameters(rng)
        s = build_polynomials(gamma)
        assert s.coeffs.shape == (4, len(gamma))
        assert s.coeffs[1, 0] == 1.0
        assert s.coeffs[3, 0] == gamma[0]
        # top polynomial is monic of exact degree n
        assert abs(s.coeffs[2, -1] - 1.0) < 1e-14


def test_stacked_recurrence_is_bit_identical_to_the_per_row_one():
    # tobytes tells -0.0 from +0.0, which array_equal does not
    rng = np.random.default_rng(41)
    cases = [(0.0,) * (n + 1) for n in range(61)]
    cases += [tuple(0.999 * np.exp(2j * np.pi * rng.random(n + 1))) for n in range(61)]
    cases += [disk_draw(rng, n + 1, 0.95) for n in range(61) for _ in range(5)]
    for gamma in cases:
        got = build_polynomials(gamma).coeffs
        want = polynomial_rows(gamma)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def test_coefficients_are_read_only_and_sets_compare_on_gamma():
    s = build_polynomials((0.5, 0.25j))
    with pytest.raises(ValueError):
        s.coeffs[0, 0] = 0.0
    with pytest.raises(ValueError):
        s.lift_rows[2, 0] = 0.0
    twin = build_polynomials((0.5, 0.25j))
    assert s == twin and hash(s) == hash(twin)
    assert s != build_polynomials((0.5, 0.25))


def test_build_rejects_bad_parameters():
    with pytest.raises(ContractViolation):
        build_polynomials(())
    for bad in (1.0, math.nan, math.inf, -math.inf, complex(0.1, math.nan)):
        with pytest.raises(ContractViolation):
            build_polynomials((0.5, bad))


# --------------------------------------------------------------------------
# evaluation


def test_eval_constant_term():
    assert eval_poly((1.0, 0.25), 0.0) == 1.0


def test_eval_sum_of_coefficients_at_one():
    assert abs(eval_poly((0.5, 0.5), 1.0) - 1.0) < 1e-15


def test_eval_pure_square():
    assert abs(eval_poly((0.0, 0.0, 1.0), 2j) - (-4.0)) < 1e-15


def test_eval_array_input():
    z = np.array([0.0, 1.0, 2j])
    out = eval_poly((0.0, 0.0, 1.0), z)
    assert np.allclose(out, [0.0, 1.0, -4.0])


def test_eval_rejects_empty():
    with pytest.raises(ContractViolation):
        eval_poly((), 0.3)


def horner(coeffs, z):
    """``eval_poly`` as it was for one polynomial: a tuple of Python complex
    coefficients, one Horner pass."""
    acc = np.zeros_like(np.asarray(z, dtype=np.complex128)) + coeffs[-1]
    for c in reversed(coeffs[:-1]):
        acc = acc * z + c
    if np.ndim(acc) == 0:
        return complex(acc)
    return acc


def rows(s):
    return [tuple(complex(c) for c in row) for row in s.coeffs]


def disk_draw(rng, shape, radius):
    return radius * np.sqrt(rng.random(shape)) * np.exp(2j * np.pi * rng.random(shape))


def test_stacked_eval_is_bit_identical_to_per_row_horner():
    # a scalar z is a 0-d array, as the integrand passes it: numpy rounds
    # products of Python or numpy scalars without the fused multiply-add
    # its array loops may use, so those can differ in the last bit
    rng = np.random.default_rng(37)
    for n in range(21):
        s = build_polynomials(disk_draw(rng, n + 1, 0.9))
        for shape in ((), (15,), (7, 15)):
            z = np.asarray(disk_draw(rng, shape, 0.95))
            got = eval_poly(s.coeffs, z)
            assert got.shape == (4,) + shape
            for k, row in enumerate(rows(s)):
                assert np.array_equal(got[k], horner(row, z))


def same_bits(got, want) -> bool:
    """Equal type, shape and bytes (which tell -0.0 from +0.0)."""
    if isinstance(want, complex):
        return type(got) is complex and np.asarray(got).tobytes() == np.asarray(want).tobytes()
    return got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("rows_shape", [(), (4,), (2, 3)], ids=["one", "four", "two-by-three"])
def test_eval_column_layout_is_bit_identical_to_moveaxis(rows_shape):
    rng = np.random.default_rng(43)
    for n in (0, 1, 6, 20):
        coeffs = disk_draw(rng, rows_shape + (n + 1,), 0.9)
        for layout in (coeffs, np.asfortranarray(coeffs)):
            for z in (
                0.3 - 0.2j,
                np.asarray(0.5j),
                disk_draw(rng, 1, 0.95),
                disk_draw(rng, 15, 0.95),
                disk_draw(rng, (7, 15), 0.95),
            ):
                assert same_bits(eval_poly(layout, z), moveaxis_eval_poly(layout, z))


@pytest.mark.parametrize("order", [0, 1, 8])
def test_lift_rows_are_bit_identical_to_the_stacked_form(order):
    rng = np.random.default_rng(47 + order)
    cases = [(0.0,) * (order + 1), tuple(0.999 * np.exp(2j * np.pi * rng.random(order + 1)))]
    cases += [disk_draw(rng, order + 1, 0.95) for _ in range(10)]
    for gamma in cases:
        s = build_polynomials(gamma)
        assert s.lift_rows.shape == (4, order + 1)
        assert same_bits(s.lift_rows, stacked_lift_rows(s))


# --------------------------------------------------------------------------
# the four polynomial laws


def test_law_residuals_on_random_parameters():
    rng = np.random.default_rng(11)
    for _ in range(60):
        res = identity_residuals(random_parameters(rng))
        assert res["mirror"] < 1e-10
        assert res["determinant"] < 1e-10
        assert res["coercivity"] < 1e-10
        assert res["domination"] < 1e-10


def two_call_residuals(gamma):
    """``identity_residuals`` as it was: the grid built per call, the four
    rows evaluated on it and ``A``, ``B`` on its reflection in a second pass."""
    s = build_polynomials(gamma)
    n = s.order
    ring = np.exp(1j * (2.0 * np.pi * np.arange(64) / 64))
    z = np.concatenate([r * ring for r in (0.3, 0.7, 1.0)])
    av, bv, atv, btv = eval_poly(s.coeffs, z)
    a_inv, b_inv = eval_poly(s.coeffs[:2], 1.0 / np.conjugate(z))
    zn = z**n
    mirror = max(
        float(np.max(np.abs(atv - zn * np.conjugate(b_inv)))),
        float(np.max(np.abs(btv - zn * np.conjugate(a_inv)))),
    )
    prod = s.contraction_product
    return {
        "mirror": mirror,
        "determinant": float(np.max(np.abs(atv * bv - av * btv - zn * prod))),
        "coercivity": float(max(0.0, np.max(prod - (np.abs(bv) ** 2 - np.abs(av) ** 2)))),
        "domination": float(max(0.0, np.max(np.abs(btv) - np.abs(bv)))),
    }


def test_one_pass_residuals_equal_the_two_call_form():
    rng = np.random.default_rng(43)
    cases = [disk_draw(rng, n + 1, 0.95) for n in range(41) for _ in range(3)]
    cases += [(0.0,) * 5, (0.999,) * 9]
    for gamma in cases:
        assert identity_residuals(gamma) == two_call_residuals(gamma)


def test_residuals_stay_finite_at_order_500():
    # the reflected rows grow like (1/0.3)**n; both forms first overflow at
    # order 550, and evaluating At and Bt there too must not bring it earlier
    res = identity_residuals((0.5,) * 501)
    assert all(math.isfinite(v) for v in res.values())


def test_law_suite_rejects_non_contractive_input():
    with pytest.raises(ContractViolation):
        identity_residuals((1.5,))


def test_coercivity_floor_on_dense_radial_grid():
    rng = np.random.default_rng(13)
    angles = np.exp(2j * np.pi * np.arange(64) / 64)
    grid = np.concatenate([r * angles for r in np.linspace(0.1, 1.0, 10)])
    for _ in range(20):
        s = build_polynomials(random_parameters(rng))
        av, bv, _, _ = eval_poly(s.coeffs, grid)
        slack = np.abs(bv) ** 2 - np.abs(av) ** 2 - s.contraction_product
        assert float(np.min(slack)) >= -1e-10


def test_strict_domination_margin_inside_closed_disk():
    rng = np.random.default_rng(17)
    angles = np.exp(2j * np.pi * np.arange(64) / 64)
    grid = np.concatenate([r * angles for r in np.linspace(0.1, 1.0, 10)])
    for _ in range(20):
        s = build_polynomials(random_parameters(rng))
        _, bv, _, btv = eval_poly(s.coeffs, grid)
        margin = np.abs(bv) - np.abs(btv)
        assert float(np.min(margin)) > 0.0


# --------------------------------------------------------------------------
# interpolant forms


def test_nested_at_origin_returns_leading_parameter():
    assert abs(omega_nested((0.3 - 0.2j, 0.5), 0.7, 0.0) - (0.3 - 0.2j)) < 1e-15


def test_nested_zero_parameters_is_scaled_square():
    z = 0.3 + 0.1j
    eps = 0.6 - 0.5j
    assert abs(omega_nested((0.0, 0.0), eps, z) - eps * z * z) < 1e-15


def test_nested_epsilon_zero_truncates_innermost_layer():
    z = 0.45
    want = (0.5 + 0.5 * z) / (1 + 0.25 * z)
    assert abs(omega_nested((0.5, 0.5), 0.0, z) - want) < 1e-15


def interpolant(s, w_star, z):
    """``omega = gamma_0 + z h`` from the lift's difference quotient ``h``."""
    return s.gamma[0] + z * lift(s, w_star, z)


def test_rational_matches_hand_value():
    s = build_polynomials((0.5, 0.5))
    got = interpolant(s, 0.0, 0.2)
    assert abs(got - 0.6 / 1.05) < 1e-15


def test_rational_at_origin_returns_leading_parameter():
    s = build_polynomials((0.3 - 0.2j, 0.5, -0.1))
    assert abs(interpolant(s, 0.9, 0.0) - (0.3 - 0.2j)) < 1e-15


def test_rational_zero_parameters_unimodular_case():
    s = build_polynomials((0.0, 0.0))
    assert abs(interpolant(s, 1.0, 1j) - (-1.0)) < 1e-15


@given(
    gamma=st.lists(disk_points(0.7), min_size=1, max_size=7),
    eps=disk_points(1.0),
    z=disk_points(1.0),
)
@settings(max_examples=250)
def test_nested_and_rational_forms_agree(gamma, eps, z):
    s = build_polynomials(gamma)
    assert abs(omega_nested(gamma, eps, z) - interpolant(s, eps, z)) < 1e-12


@given(
    gamma=st.lists(disk_points(0.8), min_size=1, max_size=6),
    eps=unimodular(),
    z=unimodular(),
)
@settings(max_examples=250)
def test_unimodular_on_the_boundary(gamma, eps, z):
    assert abs(abs(omega_nested(gamma, eps, z)) - 1.0) < 1e-10


# --------------------------------------------------------------------------
# lifting


def test_lift_of_constant_equals_rational_form():
    # a column of constants against a row of points, as the boundary batch
    # passes them, equals the scalar calls
    rng = np.random.default_rng(23)
    for _ in range(10):
        gamma = random_parameters(rng, max_order=5)
        s = build_polynomials(gamma)
        eps = np.exp(2j * np.pi * rng.random(4))
        z = 0.8 * np.sqrt(rng.random(3)) * np.exp(2j * np.pi * rng.random(3))
        batch = lift(s, eps[:, None], z)
        for k, m in np.ndindex(4, 3):
            assert abs(batch[k, m] - lift(s, complex(eps[k]), complex(z[m]))) < 1e-13


def test_lift_of_zero_collapses_to_polynomial_quotient():
    s = build_polynomials((0.4, -0.2j, 0.1))
    z = 0.35 - 0.2j
    _, bv, _, btv = eval_poly(s.coeffs, z)
    assert abs(interpolant(s, 0.0, z) - btv / bv) < 1e-14


def test_lift_of_identity_map_with_zero_parameters():
    s = build_polynomials((0.0, 0.0))
    assert abs(interpolant(s, 0.3, 0.3) - 0.027) < 1e-15


def test_lift_reproduces_prescribed_coefficients():
    gamma = (0.3, -0.2 + 0.1j, 0.25j)
    s = build_polynomials(gamma)
    want = data_from_parameters(gamma).coeffs
    # Taylor coefficients via equispaced samples on a small circle
    m = 64
    circle = 0.2 * np.exp(2j * np.pi * np.arange(m) / m)
    values = interpolant(s, circle * circle - 0.5, circle)
    coeffs = np.fft.fft(values) / m / (0.2 ** np.arange(m))
    assert np.max(np.abs(coeffs[: len(want)] - want)) < 1e-10


def four_pass_lift(s, zw, z):
    """The lift as written before the stacked array: one Horner pass per row,
    ``omega = (zw At + Bt) / (zw A + B)`` with ``zw = z omega_*``."""
    av, bv, atv, btv = (horner(row, z) for row in rows(s))
    return (zw * atv + btv) / (zw * av + bv)


def test_lift_matches_four_pass_formula():
    # the difference quotient rounds differently from the quotient of the
    # four rows; over these draws the two interpolants differ by <= 6.5e-16
    rng = np.random.default_rng(41)
    nodes = 0.7 * (0.5 + 0.5 * np.polynomial.legendre.leggauss(15)[0]) * np.exp(0.4j)
    eps = np.exp(2j * np.pi * np.arange(64) / 64)[:, None]
    for n in range(9):
        gamma = disk_draw(rng, n + 1, 0.9)
        s = build_polynomials(gamma)
        # boundary: a column of epsilons against the nodes
        got = interpolant(s, eps, nodes)
        assert np.max(np.abs(got - four_pass_lift(s, eps * nodes, nodes))) < 4e-15
        # oracle: a batch of degree-one Blaschke products at the nodes
        zeros = disk_draw(rng, (30, 1), 0.95)
        fronts = np.exp(2j * np.pi * rng.random((30, 1)))
        w = fronts * (nodes - zeros) / (1.0 - np.conj(zeros) * nodes)
        got = interpolant(s, w, nodes)
        assert np.max(np.abs(got - four_pass_lift(s, nodes * w, nodes))) < 4e-15
        # scalar, as q_value passes it: 0-d arrays
        z, e = np.asarray(nodes[4]), np.asarray(eps[5, 0])
        assert abs(interpolant(s, e, z) - four_pass_lift(s, e * z, z)) < 4e-15
        # h(0) = omega'(0): the data's c_1, or eps (1 - |gamma_0|^2) at order 0
        c = data_from_parameters(gamma).coeffs
        for e in (0.3, -0.6j):
            want = c[1] if n else e * (1.0 - abs(gamma[0]) ** 2)
            assert abs(lift(s, e, 0.0) - want) < 1e-14


# --------------------------------------------------------------------------
# pointwise variability disk


def test_disk_at_origin_is_degenerate():
    d = variability_disk(build_polynomials((0.3 + 0.4j, 0.2)), 0.0)
    assert d.center == 0.3 + 0.4j
    assert d.radius == 0.0


def test_disk_for_zero_parameters():
    # two zero parameters: the map is z -> eps * z**2
    z = 0.4 + 0.3j
    d = variability_disk(build_polynomials((0.0, 0.0)), z)
    assert abs(d.center) < 1e-15
    assert abs(d.radius - abs(z) ** 2) < 1e-15


def test_disk_order_zero_hand_value():
    d = variability_disk(build_polynomials((0.5,)), 0.5)
    assert abs(d.center - 0.4) < 1e-15
    assert abs(d.radius - 0.4) < 1e-15


def test_disk_rejects_boundary_point():
    with pytest.raises(ContractViolation):
        variability_disk(build_polynomials((0.5,)), 1.0)


@pytest.mark.parametrize("z", [complex(math.nan, 0.0), complex(0.0, math.nan)])
def test_disk_rejects_a_nan_point(z):
    with pytest.raises(ContractViolation):
        variability_disk(build_polynomials((0.3, 0.2j)), z)


def test_extremal_values_lie_exactly_on_the_disk_boundary():
    rng = np.random.default_rng(29)
    for _ in range(20):
        gamma = random_parameters(rng, max_order=6)
        s = build_polynomials(gamma)
        z = complex(0.9 * np.sqrt(rng.random()) * np.exp(2j * np.pi * rng.random()))
        d = variability_disk(s, z)
        for eps in np.exp(2j * np.pi * rng.random(6)):
            assert abs(abs(interpolant(s, eps, z) - d.center) - d.radius) < 1e-10


def test_subunimodular_values_lie_strictly_inside():
    rng = np.random.default_rng(31)
    for _ in range(20):
        gamma = random_parameters(rng, max_order=6)
        s = build_polynomials(gamma)
        z = complex(
            (0.1 + 0.8 * np.sqrt(rng.random())) * np.exp(2j * np.pi * rng.random())
        )
        d = variability_disk(s, z)
        eps = complex(0.8 * np.sqrt(rng.random()) * np.exp(2j * np.pi * rng.random()))
        dist = abs(interpolant(s, eps, z) - d.center)
        if d.radius > 1e-12:
            assert dist < d.radius
