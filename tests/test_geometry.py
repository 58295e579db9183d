"""Exact-value and inequality tests for the convex-geometry layer."""

import math

import numpy as np
import pytest

from kscope.geometry import (
    BodyShape,
    Box,
    Disk,
    StructuringBody,
    body_from_config,
    body_to_config,
    body_volume,
    circumradius,
    gauge_norm,
    unit_ball_volume,
    window_from_config,
    window_to_config,
)


def random_windows(rng, n_boxes, n_disks, max_dim=3):
    wins = []
    for _ in range(n_boxes):
        d = int(rng.integers(1, max_dim + 1))
        lower = rng.uniform(-20.0, 20.0, size=d)
        extent = rng.uniform(0.5, 30.0, size=d)
        wins.append(Box(lower, lower + extent))
    for _ in range(n_disks):
        wins.append(Disk(rng.uniform(-20.0, 20.0, size=2), float(rng.uniform(0.5, 15.0))))
    return wins


_SHAPES = (BodyShape.L1_BALL, BodyShape.L2_BALL, BodyShape.LINF_BALL)


def random_body(rng, d):
    shape = _SHAPES[int(rng.integers(len(_SHAPES)))]
    return StructuringBody(d, shape, float(rng.uniform(0.3, 3.0)))


# ---------------------------------------------------------------------------
# gauge norms and body volumes


def test_gauge_norm_euclidean():
    b = StructuringBody(2, BodyShape.L2_BALL)
    assert gauge_norm(b, (3.0, 4.0)) == pytest.approx(5.0, abs=0.0)


def test_gauge_norm_max():
    b = StructuringBody(2, BodyShape.LINF_BALL)
    assert gauge_norm(b, (3.0, 4.0)) == 4.0


def test_gauge_norm_scaled_homogeneity():
    b = StructuringBody(2, BodyShape.L2_BALL, radius_scale=2.0)
    assert gauge_norm(b, (3.0, 4.0)) == pytest.approx(2.5, abs=1e-15)


def test_gauge_norm_l1():
    b = StructuringBody(2, BodyShape.L1_BALL)
    assert gauge_norm(b, (3.0, -4.0)) == 7.0


def test_gauge_norm_vectorized_matches_scalar():
    rng = np.random.default_rng(11)
    for d in (1, 2, 3):
        body = random_body(rng, d)
        xs = rng.normal(size=(40, d))
        batch = gauge_norm(body, xs)
        singles = np.array([gauge_norm(body, x) for x in xs])
        assert np.array_equal(batch, singles)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_gauge_norm_matches_linalg_norm(d):
    """Gauge norms equal numpy's vector p-norms divided by the scale."""
    rng = np.random.default_rng(17)
    xs = rng.normal(size=(200, d)) * rng.uniform(0.1, 50.0, size=(200, 1))
    s = float(rng.uniform(0.3, 3.0))
    for shape, order in (("l1", 1), ("l2", 2), ("linf", np.inf)):
        got = gauge_norm(StructuringBody(d, shape, s), xs)
        want = np.linalg.norm(xs, ord=order, axis=1) / s
        if shape == "l2":
            np.testing.assert_allclose(got, want, rtol=1e-15, atol=0)
        else:
            assert np.array_equal(got, want)


def test_gauge_norm_properties():
    """Positive homogeneity, symmetry under negation, zero at origin."""
    rng = np.random.default_rng(12)
    for d in (1, 2, 3):
        body = random_body(rng, d)
        x = rng.normal(size=d)
        g = gauge_norm(body, x)
        assert g > 0
        assert gauge_norm(body, -x) == g
        assert gauge_norm(body, 3.0 * x) == pytest.approx(3.0 * g, rel=1e-14)
        assert gauge_norm(body, np.zeros(d)) == 0.0


def test_gauge_norm_dimension_mismatch():
    b = StructuringBody(2, BodyShape.L2_BALL)
    with pytest.raises(ValueError):
        gauge_norm(b, (1.0, 2.0, 3.0))


def test_body_volume_unit_disk():
    assert body_volume(StructuringBody(2, BodyShape.L2_BALL)) == pytest.approx(math.pi, rel=1e-15)


def test_body_volume_square():
    assert body_volume(StructuringBody(2, BodyShape.LINF_BALL)) == 4.0


def test_body_volume_cross_polytope():
    # 2^3 / 3!
    assert body_volume(StructuringBody(3, BodyShape.L1_BALL)) == pytest.approx(4.0 / 3.0, rel=1e-15)


def test_body_volume_scaling():
    rng = np.random.default_rng(13)
    for d in (1, 2, 3):
        shape = _SHAPES[int(rng.integers(len(_SHAPES)))]
        s = float(rng.uniform(0.2, 4.0))
        unit = body_volume(StructuringBody(d, shape, 1.0))
        scaled = body_volume(StructuringBody(d, shape, s))
        assert scaled == pytest.approx(unit * s**d, rel=1e-14)


def test_unit_ball_volume_small_dims():
    assert unit_ball_volume(1) == pytest.approx(2.0)
    assert unit_ball_volume(2) == pytest.approx(math.pi)
    assert unit_ball_volume(3) == pytest.approx(4.0 * math.pi / 3.0)


def test_circumradius_values():
    s = 1.75
    assert circumradius(StructuringBody(2, BodyShape.L1_BALL, s)) == pytest.approx(s)
    assert circumradius(StructuringBody(2, BodyShape.L2_BALL, s)) == pytest.approx(s)
    assert circumradius(StructuringBody(3, BodyShape.LINF_BALL, s)) == pytest.approx(s * math.sqrt(3.0))


def test_circumradius_bounds_gauge():
    # ||x||_2 <= circumradius(B) * ||x||_B for every x
    rng = np.random.default_rng(14)
    for d in (1, 2, 3):
        body = random_body(rng, d)
        xs = rng.normal(size=(50, d))
        euclid = np.linalg.norm(xs, axis=1)
        gauges = gauge_norm(body, xs)
        assert np.all(euclid <= circumradius(body) * gauges * (1 + 1e-12))


def test_invalid_bodies_rejected():
    with pytest.raises(ValueError):
        StructuringBody(0, BodyShape.L2_BALL)
    with pytest.raises(ValueError):
        StructuringBody(2, BodyShape.L2_BALL, 0.0)
    with pytest.raises(ValueError):
        StructuringBody(2, BodyShape.L2_BALL, -1.0)
    with pytest.raises(ValueError):
        StructuringBody(2, BodyShape.L2_BALL, math.inf)
    with pytest.raises(ValueError):
        StructuringBody(2, "l7")


# ---------------------------------------------------------------------------
# windows: exact examples


def test_set_covariance_box_product():
    w = Box([0.0, 0.0], [10.0, 10.0])
    assert w.set_covariance((1.0, 2.0)) == 72.0


def test_set_covariance_at_origin_is_volume():
    w = Box([0.0, 0.0], [10.0, 10.0])
    assert w.set_covariance((0.0, 0.0)) == 100.0


def test_set_covariance_disk_disjoint():
    w = Disk((0.0, 0.0), 1.0)
    assert w.set_covariance((2.5, 0.0)) == 0.0


def test_set_covariance_disk_lens_value():
    # 2 R^2 arccos(u/(2R)) - (u/2) sqrt(4R^2 - u^2) at R=1, u=1
    w = Disk((0.0, 0.0), 1.0)
    expect = 2.0 * math.acos(0.5) - 0.5 * math.sqrt(3.0)
    assert w.set_covariance((0.0, 1.0)) == pytest.approx(expect, abs=1e-14)


def test_set_covariance_vectorized():
    rng = np.random.default_rng(15)
    for w in (Box([0.0, -2.0], [7.0, 3.0]), Disk((1.0, 1.0), 4.0)):
        ys = rng.uniform(-6.0, 6.0, size=(30, 2))
        batch = w.set_covariance(ys)
        singles = np.array([w.set_covariance(y) for y in ys])
        assert np.array_equal(batch, singles)


def test_set_covariance_box_3d_written_out():
    """|W cap (W - y)| of a 3-d box is the product of the axis overlaps."""
    rng = np.random.default_rng(18)
    w = Box([-1.0, 2.0, 0.5], [3.0, 9.5, 2.75])
    sides = w.upper - w.lower
    ys = rng.uniform(-8.0, 8.0, size=(300, 3))
    want = [
        max(sides[0] - abs(y[0]), 0.0)
        * max(sides[1] - abs(y[1]), 0.0)
        * max(sides[2] - abs(y[2]), 0.0)
        for y in ys
    ]
    np.testing.assert_allclose(w.set_covariance(ys), want, rtol=1e-15, atol=0)
    assert np.any(np.array(want) == 0.0) and np.any(np.array(want) > 0.0)


def test_inball_radius_examples():
    assert Box([0.0, 0.0], [10.0, 4.0]).inball_radius() == 2.0
    assert Disk((0.0, 0.0), 3.0).inball_radius() == 3.0
    assert Box([0.0, 0.0, 0.0], [1.0, 1.0, 1.0]).inball_radius() == 0.5


def test_erosion_volume_examples():
    assert Box([0.0, 0.0], [10.0, 10.0]).erosion_volume(1.0) == 64.0
    assert Disk((0.0, 0.0), 2.0).erosion_volume(2.0) == 0.0
    assert Box([0.0, 0.0], [10.0, 10.0]).erosion_volume(0.0) == 100.0


def test_erosion_vanishes_at_inradius():
    rng = np.random.default_rng(16)
    for w in random_windows(rng, 5, 3):
        assert w.erosion_volume(w.inball_radius()) == pytest.approx(0.0, abs=1e-12)


def test_dilation_volume_examples():
    assert Box([0.0, 0.0], [10.0, 10.0]).dilation_volume(1.0) == pytest.approx(140.0 + math.pi, rel=1e-15)
    assert Disk((0.0, 0.0), 1.0).dilation_volume(1.0) == pytest.approx(4.0 * math.pi, rel=1e-15)
    w = Box([0.0, 0.0], [3.0, 7.0])
    assert w.dilation_volume(0.0) == w.volume()


def test_dilation_volume_box_3d():
    # independent Steiner evaluation: V + S r + pi (sum of sides) r^2 + 4/3 pi r^3
    w = Box([0.0, 0.0, 0.0], [2.0, 3.0, 5.0])
    r = 0.5
    expect = 30.0 + 62.0 * r + math.pi * 10.0 * r**2 + 4.0 * math.pi / 3.0 * r**3
    assert w.dilation_volume(r) == pytest.approx(expect, rel=1e-14)
    assert expect == pytest.approx(61.0 + 8.0 * math.pi / 3.0)


def test_erosion_dilation_1d():
    w = Box([0.0], [10.0])
    assert w.erosion_volume(1.0) == 8.0
    assert w.dilation_volume(1.0) == 12.0
    assert w.set_covariance((3.0,)) == 7.0
    assert w.surface_content() == 2.0


def test_surface_content_examples():
    assert Box([0.0, 0.0], [2.0, 5.0]).surface_content() == 14.0
    assert Box([0.0, 0.0, 0.0], [2.0, 3.0, 5.0]).surface_content() == 62.0
    assert Disk((0.0, 0.0), 3.0).surface_content() == pytest.approx(6.0 * math.pi, rel=1e-15)


def test_invalid_windows_rejected():
    with pytest.raises(ValueError):
        Box([0.0, 0.0], [1.0, 0.0])
    with pytest.raises(ValueError):
        Box([0.0], [math.nan])
    with pytest.raises(ValueError):
        Disk((0.0, 0.0), 0.0)
    with pytest.raises(ValueError):
        Disk((0.0, 0.0, 0.0), 1.0)


# ---------------------------------------------------------------------------
# set covariance: structural properties


def test_set_covariance_symmetry_exact():
    rng = np.random.default_rng(17)
    for w in random_windows(rng, 12, 8):
        d = w.dimension
        ys = rng.uniform(-10.0, 10.0, size=(50, d))
        assert np.array_equal(w.set_covariance(ys), w.set_covariance(-ys))


def test_set_covariance_zero_when_disjoint():
    w = Box([0.0, 0.0], [4.0, 6.0])
    assert w.set_covariance((4.0, 0.0)) == 0.0
    assert w.set_covariance((5.0, 1.0)) == 0.0
    assert Disk((0.0, 0.0), 2.0).set_covariance((4.0, 0.0)) == 0.0


def test_set_covariance_monotone_along_rays():
    rng = np.random.default_rng(18)
    for w in random_windows(rng, 10, 6):
        d = w.dimension
        for _ in range(5):
            u = rng.normal(size=d)
            u /= np.linalg.norm(u)
            ts = np.linspace(0.0, 3.0 * w.inball_radius(), 40)
            vals = w.set_covariance(ts[:, None] * u[None, :])
            assert np.all(np.diff(vals) <= 1e-12 * w.volume())


def test_set_covariance_bounded_by_volume():
    rng = np.random.default_rng(19)
    for w in random_windows(rng, 8, 4):
        ys = rng.uniform(-5.0, 5.0, size=(40, w.dimension))
        vals = np.asarray(w.set_covariance(ys))
        assert np.all(vals >= 0.0)
        assert np.all(vals <= w.volume() * (1 + 1e-15))


# ---------------------------------------------------------------------------
# erosion/dilation inequality batteries

# one shared battery: at least 100 windows, 50 radii each
_BATTERY_RNG = np.random.default_rng(20)
_BATTERY = random_windows(_BATTERY_RNG, 60, 40)


def test_erosion_shrinkage_bound():
    """1 - |W erode r| / |W| lies in [0, d r / rho(W)] for r up to rho(W)."""
    for w in _BATTERY:
        d, rho, vol = w.dimension, w.inball_radius(), w.volume()
        for r in np.linspace(0.0, rho, 50):
            shrink = 1.0 - w.erosion_volume(r) / vol
            assert shrink >= -1e-12
            assert d * r / rho - shrink >= -1e-9


def test_dilation_growth_bound():
    """dil/|W| - 1 lies in [r/rho, (2^d - 1) r / rho] for r up to rho(W)."""
    for w in _BATTERY:
        d, rho, vol = w.dimension, w.inball_radius(), w.volume()
        for r in np.linspace(0.0, rho, 50):
            grow = w.dilation_volume(r) / vol - 1.0
            assert grow - r / rho >= -1e-9
            assert (2.0**d - 1.0) * r / rho - grow >= -1e-9


def test_dilation_minus_erosion_surface_bound():
    """Annulus volume is at most (2^d - 1 + d) r |boundary W|."""
    for w in _BATTERY:
        d, rho = w.dimension, w.inball_radius()
        surf = w.surface_content()
        for r in np.linspace(0.0, rho, 50):
            gap = w.dilation_volume(r) - w.erosion_volume(r)
            assert (2.0**d - 1.0 + d) * r * surf - gap >= -1e-9


def test_covariance_deficit_ratio_bound():
    """sup over x in rB of (|W| - |W cap (W-x)|)/|W| is at most d kappa r / rho."""
    rng = np.random.default_rng(21)
    for w in _BATTERY:
        d, rho, vol = w.dimension, w.inball_radius(), w.volume()
        body = random_body(rng, d)
        kappa = circumradius(body)
        for r in np.linspace(0.0, rho / kappa, 8)[1:]:
            dirs = rng.normal(size=(16, d))
            gauges = gauge_norm(body, dirs)
            xs = r * dirs / gauges[:, None]
            deficit = (vol - np.asarray(w.set_covariance(xs))) / vol
            assert np.all(d * kappa * r / rho - deficit >= -1e-9)


# ---------------------------------------------------------------------------
# config round trips


def test_window_config_roundtrip_box():
    w = Box([-1.0, 2.0, 0.25], [3.0, 4.5, 9.0])
    w2 = window_from_config(window_to_config(w))
    assert isinstance(w2, Box)
    assert np.array_equal(w2.lower, w.lower)
    assert np.array_equal(w2.upper, w.upper)


def test_window_config_roundtrip_disk():
    w = Disk((1.5, -2.0), 4.25)
    w2 = window_from_config(window_to_config(w))
    assert isinstance(w2, Disk)
    assert np.array_equal(w2.center, w.center)
    assert w2.radius == w.radius


def test_body_config_roundtrip():
    for shape in BodyShape:
        b = StructuringBody(2, shape, 1.25)
        assert body_from_config(body_to_config(b)) == b


def test_bad_configs_rejected():
    with pytest.raises(ValueError):
        window_from_config({"shape": "triangle"})
    with pytest.raises(ValueError):
        window_from_config({"bounds": [[0], [1]]})
    with pytest.raises(ValueError):
        window_from_config("box")
    with pytest.raises(ValueError):
        body_from_config({"shape": "l2"})
    with pytest.raises(ValueError):
        body_from_config({"shape": "l9", "dim": 2})
