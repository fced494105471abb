"""Target-domain maps: frozen values, inverse consistency, derivative, range."""

import cmath
import math

import numpy as np
import pytest

from schurvar import (
    ContractViolation,
    DegenerateDenominator,
    disk,
    half_plane,
    parse_domain,
    strip,
)


from oracles import two_where_strip_slope


def unit_disk_grid(rng, count, radius=0.95):
    return radius * np.sqrt(rng.random(count)) * np.exp(2j * np.pi * rng.random(count))


# --------------------------------------------------------------------------
# frozen values


def test_half_plane_frozen_values():
    hp = half_plane()
    assert hp.map(0.0) == 1.0
    assert abs(hp.map(0.5) - 3.0) < 1e-15
    assert abs(hp.inverse(1.0)) < 1e-15


def test_unit_disk_is_the_identity():
    d = disk(0.0, 1.0)
    for z in (0.0, 0.3 + 0.4j, -0.9j):
        assert d.map(z) == z
        assert d.inverse(z) == z


def test_shifted_scaled_disk():
    d = disk(3.0, 1.0)
    assert abs(d.map(0.5) - 3.5) < 1e-15
    assert abs(disk(1j, 2.0).inverse(1j)) < 1e-15


def test_disk_rejects_nonpositive_radius():
    with pytest.raises(ContractViolation):
        disk(0.0, 0.0)
    with pytest.raises(ContractViolation):
        disk(0.0, -1.0)


def test_disk_rejects_a_non_finite_centre_or_radius():
    nan, inf = math.nan, math.inf
    for center, radius in ((nan, 1.0), (complex(0.0, inf), 1.0), (0.0, inf), (0.0, nan)):
        with pytest.raises(ContractViolation):
            disk(center, radius)
    for label in ("disk:nan,0,1", "disk:0,-inf,1", "disk:0,0,inf"):
        with pytest.raises(ContractViolation):
            parse_domain(label)


def test_strip_frozen_values():
    s = strip()
    assert s.map(0.0) == 0.0
    assert abs(s.map(0.5) - math.log(3.0)) < 1e-15
    assert abs(s.inverse(math.log(3.0)) - 0.5) < 1e-12


def test_labels():
    assert half_plane().label == "half-plane"
    assert strip().label == "strip"
    assert disk(0.0, 1.0).label == "disk:0,0,1"
    assert disk(1 + 2j, 0.5).label == "disk:1,2,0.5"


# --------------------------------------------------------------------------
# structural laws


def test_inverse_consistency_on_random_points():
    rng = np.random.default_rng(7)
    pts = unit_disk_grid(rng, 200)
    for dom in (half_plane(), strip(), disk(0.0, 1.0), disk(1 - 1j, 2.5)):
        for z in pts:
            z = complex(z)
            assert abs(dom.inverse(dom.map(z)) - z) < 1e-10


def test_derivative_matches_finite_differences():
    rng = np.random.default_rng(9)
    pts = unit_disk_grid(rng, 100, radius=0.9)
    h = 1e-6
    for dom in (half_plane(), strip(), disk(-0.5j, 1.5)):
        for z in pts:
            z = complex(z)
            fd = (dom.map(z + h) - dom.map(z - h)) / (2 * h)
            exact = dom.derivative(z)
            assert abs(fd - exact) <= 1e-6 * max(1.0, abs(exact))


def test_half_plane_range_discipline():
    rng = np.random.default_rng(15)
    hp = half_plane()
    for z in unit_disk_grid(rng, 400, radius=0.999):
        assert hp.map(complex(z)).real > 0.0


def test_strip_range_discipline():
    rng = np.random.default_rng(19)
    s = strip()
    for z in unit_disk_grid(rng, 400, radius=0.999):
        assert abs(s.map(complex(z)).imag) < math.pi / 2


def test_derivative_at_origin():
    assert abs(half_plane().derivative(0.0) - 2.0) < 1e-15
    assert abs(strip().derivative(0.0) - 2.0) < 1e-15
    assert abs(disk(0.3, 2.0).derivative(0.0) - 2.0) < 1e-15


# --------------------------------------------------------------------------
# degenerate inputs


def test_half_plane_pole_on_the_rim():
    with pytest.raises(DegenerateDenominator):
        half_plane().map(1.0)
    with pytest.raises(DegenerateDenominator):
        half_plane().inverse(-1.0)


def test_strip_pole_on_the_rim():
    with pytest.raises(DegenerateDenominator):
        strip().map(1.0)


# --------------------------------------------------------------------------
# label parsing


def test_parse_round_trip():
    for label in ("half-plane", "strip", "disk:0,0,1", "disk:1,2,0.5"):
        assert parse_domain(label).label == label


def test_parse_disk_center_and_radius():
    dom = parse_domain("disk:1,2,0.5")
    assert abs(dom.map(0.0) - (1 + 2j)) < 1e-15
    assert abs(dom.map(1.0) - (1.5 + 2j)) < 1e-15


def test_parse_rejects_unknown_labels():
    for bad in ("halfplane", "disc:0,0,1", "disk:0,1", "disk:a,b,c", "strip(2)", ""):
        with pytest.raises(ValueError):
            parse_domain(bad)


def test_maps_accept_arrays():
    z = np.array([0.0, 0.5, 0.25j])
    hp = half_plane()
    out = hp.map(z)
    assert out.shape == z.shape
    assert abs(out[1] - 3.0) < 1e-15
    back = hp.inverse(out)
    assert np.max(np.abs(back - z)) < 1e-12



# --------------------------------------------------------------------------
# divided differences


def divided_difference_pairs(rng):
    """``(w, w0)`` in the disk with ``|w - w0|`` from 1e-14 to 0.5, then
    pairs whose strip ratio ``u = (1 + w)(1 - w0) / ((1 - w)(1 + w0))`` is
    unimodular up to the rounding of ``w``, with ``u != 1``."""
    pairs = []
    while len(pairs) < 300:
        w0 = complex(unit_disk_grid(rng, 1)[0])
        step = 10 ** rng.uniform(-14, math.log10(0.5)) * cmath.exp(2j * math.pi * rng.random())
        if abs(w0 + step) < 0.99:
            pairs.append((w0 + step, w0))
    for w0 in unit_disk_grid(rng, 100).tolist():
        theta = math.copysign(10 ** rng.uniform(-12, -1), rng.random() - 0.5)
        x = 2j * math.sin(theta / 2) * cmath.exp(0.5j * theta)  # u - 1, |u| = 1
        pairs.append(((x * (1 + w0) + 2 * w0) / (2 + x * (1 + w0)), w0))
    return pairs


REFERENCE_MAPS = {
    "half-plane": (half_plane(), lambda mp, w: (1 + w) / (1 - w)),
    "strip": (strip(), lambda mp, w: mp.log((1 + w) / (1 - w))),
    "disk": (disk(0.3 - 0.2j, 1.5), lambda mp, w: mp.mpc(0.3, -0.2) + 1.5 * w),
}


@pytest.mark.parametrize("label", sorted(REFERENCE_MAPS))
def test_divided_difference_against_50_digit_reference(label):
    # relative error <= 5.1e-16 measured; log1p(x) / x on the strip errs 3e-3
    mp = pytest.importorskip("mpmath")
    dom, ref_map = REFERENCE_MAPS[label]
    pairs = divided_difference_pairs(np.random.default_rng(61))
    w = np.array([p[0] for p in pairs])
    w0 = np.array([p[1] for p in pairs])
    batch = dom.derivative(w, w0)
    with mp.workdps(50):
        for k, (a, b) in enumerate(pairs):
            ma, mb = mp.mpc(a), mp.mpc(b)
            want = complex((ref_map(mp, ma) - ref_map(mp, mb)) / (ma - mb))
            assert abs(dom.derivative(a, b) - want) <= 4e-15 * abs(want)
            assert abs(batch[k] - want) <= 4e-15 * abs(want)


def test_divided_difference_at_equal_points_is_the_derivative():
    # u == 1 exactly on the strip: L(1) = 1, no division by x = 0
    rng = np.random.default_rng(67)
    pts = unit_disk_grid(rng, 50)
    want = {"half-plane": 2.0 / (1.0 - pts) ** 2, "strip": 2.0 / (1.0 - pts**2), "disk": 1.5}
    for label, (dom, _) in REFERENCE_MAPS.items():
        same = dom.derivative(pts, pts)
        assert np.array_equal(same, dom.derivative(pts))
        assert np.max(np.abs(same - want[label]) / np.abs(same)) < 2e-15
        for z in pts[:5].tolist():
            assert isinstance(dom.derivative(z), complex)
            assert dom.derivative(z) == dom.derivative(z, z)


def test_divided_difference_broadcasts():
    w = np.linspace(-0.5, 0.5, 7)[:, None] * (1 + 0.5j)
    w0 = np.array([0.1, -0.2j, 0.3])
    for dom, _ in REFERENCE_MAPS.values():
        out = dom.derivative(w, w0)
        assert out.shape == (7, 3)
        single = dom.derivative(complex(w[2, 0]), complex(w0[1]))
        assert abs(out[2, 1] - single) <= 1e-15 * abs(single)


def test_strip_quotient_is_bit_identical_to_the_two_where_form():
    # x == 0 exactly where w == w0; tobytes tells -0.0 from +0.0
    rng = np.random.default_rng(71)
    w = unit_disk_grid(rng, 40)
    w0 = unit_disk_grid(rng, 40)
    w0[::3] = w[::3]
    dom = strip()
    for args in ((w, w0), (w,), (w, w.copy()), (w[:, None], w0[None, :5]), (w[:7], w0[:7])):
        got, want = dom.derivative(*args), two_where_strip_slope(*args)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
    for args in (
        (0.3 + 0.1j,),
        (0.3 + 0.1j, 0.3 + 0.1j),
        (0.3 + 0.1j, -0.2j),
        (np.asarray(0.2 - 0.4j),),
        (np.asarray(0.2 - 0.4j), np.asarray(0.2 - 0.4j)),
        (np.asarray(0.2 - 0.4j), 0.1j),
    ):
        got, want = dom.derivative(*args), two_where_strip_slope(*args)
        assert type(got) is complex
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
