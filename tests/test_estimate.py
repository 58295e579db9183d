"""Estimator exactness, invariants and MC oracle checks."""

import math

import numpy as np
import pytest

from kscope.estimate import (
    EstimatorKind,
    KEstimate,
    KernelKind,
    _Scaling,
    k_hat,
    lambda2_hat,
    lambda_hat,
    restrict_pattern,
    scaled_delta,
    sigma2_hat,
)
from kscope.geometry import BodyShape, Box, Disk, StructuringBody, gauge_norm
from kscope.gof import _piece_boundaries
from kscope.pattern import PointPattern
from kscope.simulate import PoissonModel, SeedSpec, k_function, simulate

L2 = StructuringBody(2, BodyShape.L2_BALL)
BOX10 = Box([0.0, 0.0], [10.0, 10.0])


def two_point_pattern():
    # difference vector (1,0); set covariance of [0,10]^2 there is 90
    return PointPattern([[4.0, 5.0], [5.0, 5.0]], BOX10)


# ---------------------------------------------------------------------------
# k_hat exact small cases


def test_ht_two_point_value():
    k = k_hat(two_point_pattern(), L2, 2.0)
    assert k.eval(1.0) == pytest.approx(2.0 / 90.0, rel=1e-15)
    assert k.eval(2.0) == pytest.approx(2.0 / 90.0, rel=1e-15)


def test_ht_two_point_below_distance():
    k = k_hat(two_point_pattern(), L2, 2.0)
    assert k.eval(0.5) == 0.0


def test_eval_k_right_continuity():
    k = k_hat(two_point_pattern(), L2, 2.0)
    assert k.eval(1.0 - 1e-6) == 0.0
    assert k.eval(1.0) == pytest.approx(2.0 / 90.0)
    assert k.eval(np.nextafter(1.0, 0.0)) == 0.0


def test_eval_k_empty_pattern():
    p = PointPattern([], BOX10)
    k = k_hat(p, L2, 2.0)
    assert k.eval(1.5) == 0.0
    assert k.jump_radii.size == 0


def test_eval_k_domain_errors():
    k = k_hat(two_point_pattern(), L2, 2.0)
    with pytest.raises(ValueError):
        k.eval(-0.1)
    with pytest.raises(ValueError):
        k.eval(2.0000001)
    for bad in (float("nan"), [0.5, float("nan")], float("inf")):
        with pytest.raises(ValueError, match="evaluation radius outside"):
            k.eval(bad)


def test_eval_k_vectorized_monotone():
    rng = np.random.default_rng(51)
    p = PointPattern(rng.uniform(0.0, 10.0, size=(120, 2)), BOX10)
    k = k_hat(p, L2, 2.0)
    rs = np.linspace(0.0, 2.0, 400)
    vals = k.eval(rs)
    assert np.all(np.diff(vals) >= 0.0)
    assert vals[0] == 0.0
    assert np.all(np.diff(k.jump_values) >= 0.0)


def test_k_hat_gauge_body_choice_matters():
    p = PointPattern([[4.0, 5.0], [5.0, 6.0]], BOX10)
    l1 = StructuringBody(2, BodyShape.L1_BALL)
    linf = StructuringBody(2, BodyShape.LINF_BALL)
    # difference (1,1): l1 distance 2, linf distance 1
    assert k_hat(p, l1, 2.5).eval(1.5) == 0.0
    assert k_hat(p, l1, 2.5).eval(2.0) > 0.0
    assert k_hat(p, linf, 2.5).eval(1.0) > 0.0


def test_k_hat_csv_export(tmp_path):
    k = k_hat(two_point_pattern(), L2, 2.0)
    f = tmp_path / "k.csv"
    k.to_csv(f)
    lines = f.read_text().strip().split("\n")
    assert lines[0] == "r,value"
    rows = [tuple(map(float, ln.split(","))) for ln in lines[1:]]
    # endpoints 0 and r_max plus the single jump
    assert rows[0] == (0.0, 0.0)
    assert rows[-1] == (2.0, 2.0 / 90.0)
    assert (1.0, 2.0 / 90.0) in rows


def test_k_hat_guard_vs_window():
    # inradius of the 10 x 10 box is 5
    p = two_point_pattern()
    with pytest.raises(ValueError, match="inradius"):
        k_hat(p, L2, 5.0)
    assert k_hat(p, L2, 4.999).eval(1.0) > 0.0
    # linf circumradius sqrt(2) shrinks the admissible radius
    linf = StructuringBody(2, BodyShape.LINF_BALL)
    with pytest.raises(ValueError, match="inradius"):
        k_hat(p, linf, 4.0)


def test_k_hat_r_max_validation():
    p = two_point_pattern()
    for bad in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            k_hat(p, L2, bad)


# ---------------------------------------------------------------------------
# estimator kinds


def test_naive_requires_extension():
    with pytest.raises(ValueError, match="window"):
        k_hat(two_point_pattern(), L2, 1.5, kind="naive")


def test_window_argument_rejected_for_ht():
    with pytest.raises(ValueError):
        k_hat(two_point_pattern(), L2, 1.5, kind="ht", window=BOX10)


def test_naive_counts_anchored_pairs():
    # extended observation; only the anchor point sits in the inner window
    ext = Box([-1.0, -1.0], [11.0, 11.0])
    inner = BOX10
    p = PointPattern([[9.8, 5.0], [10.5, 5.0]], ext)
    k = k_hat(p, L2, 1.0, kind="naive", window=inner)
    assert k.eval(1.0) == pytest.approx(1.0 / 100.0, rel=1e-15)
    assert k.window_volume == 100.0


def test_naive_insufficient_extension_rejected():
    ext = Box([-0.2, -0.2], [10.2, 10.2])
    p = PointPattern([[5.0, 5.0]], ext)
    with pytest.raises(ValueError):
        k_hat(p, L2, 1.0, kind="naive", window=BOX10)


def test_border_counts_interior_pairs_only():
    ext = Box([-1.0, -1.0], [11.0, 11.0])
    p = PointPattern([[9.8, 5.0], [10.5, 5.0]], ext)
    k = k_hat(restrict_pattern(p, BOX10), L2, 1.0, kind="border")
    assert k.eval(1.0) == 0.0


def test_border_below_ht_pointwise():
    # border weights 1/|W| never exceed the edge-corrected 1/setcov weights
    rng = np.random.default_rng(52)
    for _ in range(10):
        p = PointPattern(rng.uniform(0.0, 10.0, size=(80, 2)), BOX10)
        ht = k_hat(p, L2, 2.0)
        border = k_hat(p, L2, 2.0, kind=EstimatorKind.BORDER)
        rs = np.linspace(0.0, 2.0, 50)
        assert np.all(border.eval(rs) <= ht.eval(rs) + 1e-15)


def test_estimators_agree_without_edge_effects():
    """All three estimators coincide when no pair involves the boundary."""
    ext = Box([-2.0, -2.0], [12.0, 12.0])
    rng = np.random.default_rng(53)
    pts = rng.uniform(3.0, 7.0, size=(30, 2))
    border = k_hat(PointPattern(pts, BOX10), L2, 0.5, kind="border")
    naive = k_hat(PointPattern(pts, ext), L2, 0.5, kind="naive", window=BOX10)
    assert np.array_equal(border.jump_radii, naive.jump_radii)
    assert np.allclose(border.jump_values, naive.jump_values, rtol=1e-15)


# ---------------------------------------------------------------------------
# exact identities


def test_translation_invariance_exact():
    rng = np.random.default_rng(54)
    pts = rng.integers(0, 10 * 1024, size=(100, 2)) / 1024.0
    pts = np.unique(pts, axis=0)
    shift = np.array([250.0, -3.0])
    k0 = k_hat(PointPattern(pts, BOX10), L2, 2.0)
    w1 = Box(BOX10.lower + shift, BOX10.upper + shift)
    k1 = k_hat(PointPattern(pts + shift, w1), L2, 2.0)
    assert np.array_equal(k0.jump_radii, k1.jump_radii)
    assert np.array_equal(k0.jump_values, k1.jump_values)


def test_scaling_identity_power_of_two():
    # a = 2 scales every coordinate and box bound exactly in binary
    rng = np.random.default_rng(55)
    pts = rng.uniform(0.0, 10.0, size=(90, 2))
    a = 2.0
    k0 = k_hat(PointPattern(pts, BOX10), L2, 2.0)
    w1 = Box(BOX10.lower * a, BOX10.upper * a)
    k1 = k_hat(PointPattern(pts * a, w1), L2, 2.0 * a)
    rs = np.linspace(0.0, 2.0, 64)
    assert np.array_equal(k1.eval(a * rs), k0.eval(rs) / a**2)


def test_scaling_identity_general_factor():
    rng = np.random.default_rng(56)
    pts = rng.uniform(0.0, 10.0, size=(90, 2))
    a = 1.7
    k0 = k_hat(PointPattern(pts, BOX10), L2, 2.0)
    w1 = Box(BOX10.lower * a, BOX10.upper * a)
    k1 = k_hat(PointPattern(pts * a, w1), L2, 2.0 * a)
    rs = np.linspace(0.0, 2.0, 64)
    got = k1.eval(np.nextafter(a * rs, np.inf))
    assert np.allclose(got, k0.eval(rs) / a**2, rtol=1e-12, atol=1e-15)


def test_jump_multiplicity_even():
    # mirrored ordered pairs land on the same gauge distance, so every
    # border-estimator jump increment is an even multiple of 1/|W|
    rng = np.random.default_rng(57)
    p = PointPattern(rng.uniform(0.0, 10.0, size=(60, 2)), BOX10)
    k = k_hat(p, L2, 2.0, kind="border")
    increments = np.diff(np.concatenate(([0.0], k.jump_values)))
    counts = increments * k.window_volume
    assert np.allclose(counts, np.round(counts), atol=1e-9)
    assert np.all(np.round(counts).astype(int) % 2 == 0)


# ---------------------------------------------------------------------------
# step-function construction on heavily tied distances


def lattice(lo, hi):
    """Half-integer lattice points in [lo, hi]^2: every gauge distance ties."""
    axis = np.arange(lo + 0.5, hi, 1.0)
    return np.array([(x, y) for x in axis for y in axis])


def brute_force_step(pts, body, r_max, kind, w):
    """Distinct ordered-pair distances up to r_max and the cumulative weight.

    Weights per ordered pair (i, j) on the evaluation window w: ht
    ``1 / |W cap (W - diff)|``, border ``1[X_i, X_j in W] / |W|``, naive
    ``1[X_i in W] / |W|``.  Pairs of zero weight add no jump.
    """
    i, j = np.nonzero(~np.eye(len(pts), dtype=bool))
    diffs = pts[j] - pts[i]
    r = gauge_norm(body, diffs)
    inside = w.contains(pts)
    if kind == "ht":
        weights = 1.0 / w.set_covariance(diffs)
    elif kind == "border":
        weights = (inside[i] & inside[j]) / w.volume()
    else:
        weights = inside[i] / w.volume()
    keep = (r <= r_max) & (weights > 0)
    radii, tie = np.unique(r[keep], return_inverse=True)
    return radii, np.cumsum(np.bincount(tie, weights=weights[keep]))


@pytest.mark.parametrize("shape", ["l1", "l2", "linf"])
@pytest.mark.parametrize("kind", ["ht", "border", "naive"])
def test_step_function_on_tied_lattice(shape, kind):
    body = StructuringBody(2, shape)
    r_max = 3.0
    w = Box([0.0, 0.0], [12.0, 12.0])
    if kind == "naive":
        pts = lattice(-4.0, 16.0)
        p = PointPattern(pts, Box([-4.0, -4.0], [16.0, 16.0]))
        k = k_hat(p, body, r_max, kind=kind, window=w)
    else:
        pts = lattice(0.0, 12.0)
        p = PointPattern(pts, w)
        k = k_hat(p, body, r_max, kind=kind)
    radii, values = brute_force_step(pts, body, r_max, kind, w)
    assert np.all(np.diff(k.jump_radii) > 0)
    assert np.array_equal(k.jump_radii, radii)
    np.testing.assert_allclose(k.jump_values, values, rtol=1e-12, atol=0)

    if kind == "naive":
        return
    R = 0.6
    kf = k_function(PoissonModel(1.0), body)
    delta = scaled_delta(p, body, 1.0, kf, 0.5, R, kind=kind)
    jumps = delta.empirical.jump_radii
    assert np.all(np.diff(jumps) > 0)
    assert 0.0 < jumps[0] and jumps[-1] <= R
    # the breakpoints read off the jumps equal a fresh sort and lookup
    t, steps = _piece_boundaries(delta)
    t_ref = np.unique(np.concatenate(([0.0], jumps, [R])))
    assert np.array_equal(t, t_ref)
    assert np.array_equal(steps, delta.empirical.eval(t_ref[:-1]))


def test_scaled_delta_merges_coinciding_radii(monkeypatch):
    """Radii equal after division by c^alpha become one jump, the last one.

    The largest radius, ``u = c^alpha R``, divides to just above R and is
    clipped to R, where it must start no piece.
    """
    alpha = 0.5
    c_alpha = _Scaling.of(BOX10, L2, alpha, 0.5).c_alpha
    R = next(x for x in np.linspace(0.5, 0.7, 1000) if c_alpha * x / c_alpha > x)
    u = c_alpha * R
    r = next(
        x for x in np.linspace(0.5 * u, 0.9 * u, 1000)
        if np.nextafter(x, np.inf) / c_alpha == x / c_alpha
    )
    radii = np.array([0.1, r, np.nextafter(r, np.inf), u])
    fake = KEstimate(L2, EstimatorKind.HT, u, 100.0, radii, np.array([1.0, 2.0, 3.0, 4.0]))
    monkeypatch.setattr("kscope.estimate.k_hat", lambda *args, **kwargs: fake)
    delta = scaled_delta(two_point_pattern(), L2, 1.0, k_function(PoissonModel(1.0), L2), alpha, R)
    assert np.array_equal(delta.empirical.jump_radii, [0.1 / c_alpha, r / c_alpha, R])
    assert np.array_equal(
        delta.empirical.jump_values, delta.scale * np.array([1.0, 3.0, 4.0])
    )
    t, steps = _piece_boundaries(delta)
    assert np.array_equal(t, [0.0, 0.1 / c_alpha, r / c_alpha, R])
    assert np.array_equal(steps, delta.scale * np.array([0.0, 1.0, 3.0]))


def test_restrict_pattern():
    ext = Box([-1.0, -1.0], [11.0, 11.0])
    p = PointPattern([[5.0, 5.0], [10.5, 5.0], [-0.5, 0.0]], ext)
    q = restrict_pattern(p, BOX10)
    assert len(q) == 1
    assert q.window is BOX10


# ---------------------------------------------------------------------------
# intensity estimators


def test_lambda_hat_exact():
    rng = np.random.default_rng(58)
    p = PointPattern(rng.uniform(0.0, 10.0, size=(100, 2)), BOX10)
    assert lambda_hat(p) == 1.0
    assert lambda_hat(PointPattern([], BOX10)) == 0.0


def test_lambda2_hat_exact():
    rng = np.random.default_rng(59)
    p = PointPattern(rng.uniform(0.0, 10.0, size=(100, 2)), BOX10)
    assert lambda2_hat(p) == pytest.approx(0.99, rel=1e-15)
    assert lambda2_hat(PointPattern([[1.0, 1.0]], BOX10)) == 0.0
    assert lambda2_hat(PointPattern([], BOX10)) == 0.0


def test_lambda2_hat_unbiased_mc():
    m = PoissonModel(2.0)
    w = Box([0.0, 0.0], [20.0, 20.0])
    reps = 2000
    vals = np.array(
        [lambda2_hat(simulate(m, w, SeedSpec(60, k))) for k in range(reps)]
    )
    se = vals.std(ddof=1) / math.sqrt(reps)
    assert abs(vals.mean() - 4.0) <= 3.0 * se


def test_k_hat_unbiased_mc():
    """Mean of the edge-corrected estimate matches lam^2 pi r^2."""
    m = PoissonModel(100.0)
    w = Box([0.0, 0.0], [1.0, 1.0])
    r = 0.1
    reps = 600
    vals = np.array(
        [k_hat(simulate(m, w, SeedSpec(61, k)), L2, r).eval(r) for k in range(reps)]
    )
    target = 100.0**2 * math.pi * r**2
    se = vals.std(ddof=1) / math.sqrt(reps)
    assert abs(vals.mean() - target) <= 3.0 * se


# ---------------------------------------------------------------------------
# variance estimator


def test_sigma2_hat_empty_pattern():
    assert sigma2_hat(PointPattern([], BOX10)) == 0.0


def test_sigma2_hat_single_point():
    p = PointPattern([[5.0, 5.0]], BOX10)
    assert sigma2_hat(p) == pytest.approx(1.0 / 100.0, rel=1e-15)


def test_sigma2_hat_indicator_hand_value():
    # two points at distance 0.4, bandwidth chosen so support = 1
    p = PointPattern([[5.0, 5.0], [5.4, 5.0]], BOX10)
    got = sigma2_hat(p, kernel="indicator", bandwidth=0.1)
    lam = 2.0 / 100.0
    lam2 = 2.0 * 1.0 / 100.0**2
    pair = 2.0 * 1.0 / (9.6 * 10.0)
    expect = lam + pair - lam2 * 1.0 * math.pi
    assert got == pytest.approx(expect, rel=1e-14)


def test_sigma2_hat_triangular_hand_value():
    p = PointPattern([[5.0, 5.0], [5.4, 5.0]], BOX10)
    got = sigma2_hat(p, kernel=KernelKind.TRIANGULAR, bandwidth=0.1)
    lam = 2.0 / 100.0
    lam2 = 2.0 / 100.0**2
    pair = 2.0 * (1.0 - 0.4) / (9.6 * 10.0)
    expect = lam + pair - lam2 * 1.0 * math.pi / 3.0
    assert got == pytest.approx(expect, rel=1e-14)


def test_sigma2_hat_bandwidth_guard():
    p = PointPattern([[5.0, 5.0]], BOX10)
    with pytest.raises(ValueError, match="bandwidth"):
        sigma2_hat(p, bandwidth=0.51)
    with pytest.raises(ValueError):
        sigma2_hat(p, bandwidth=-0.1)


def test_sigma2_hat_poisson_consistency_mc():
    m = PoissonModel(5.0)
    w = Box([0.0, 0.0], [30.0, 30.0])
    reps = 150
    vals = np.array([sigma2_hat(simulate(m, w, SeedSpec(62, k))) for k in range(reps)])
    assert abs(vals.mean() - 5.0) / 5.0 < 0.10


# ---------------------------------------------------------------------------
# scaled comparison process


def test_scaled_delta_zero_at_origin():
    rng = np.random.default_rng(63)
    p = PointPattern(rng.uniform(0.0, 10.0, size=(90, 2)), BOX10)
    kf = k_function(PoissonModel(1.0), L2)
    delta = scaled_delta(p, L2, 1.0, kf, alpha=0.5, R=0.2)
    assert delta.eval(0.0) == 0.0


def test_scaled_delta_alpha_half_unscaled():
    rng = np.random.default_rng(64)
    p = PointPattern(rng.uniform(0.0, 10.0, size=(90, 2)), BOX10)
    kf = k_function(PoissonModel(1.0), L2)
    delta = scaled_delta(p, L2, 1.0, kf, alpha=0.5, R=0.2)
    # |W|^(1/2 - alpha) = 1 and c^alpha = sqrt(10): the process compares
    # the raw estimate at sqrt(10) r with the reference curve, unscaled
    assert delta.scale == 1.0
    c_alpha = 10.0**0.5
    assert delta.c_alpha == pytest.approx(c_alpha, rel=1e-15)
    k = k_hat(p, L2, 2.0)
    for r in (0.05, 0.1, 0.2):
        expect = k.eval(c_alpha * r) - 1.0 * math.pi * (c_alpha * r) ** 2
        assert delta.eval(r) == pytest.approx(expect, rel=1e-12, abs=1e-12)


def test_scaled_delta_normalization_scale():
    rng = np.random.default_rng(65)
    p = PointPattern(rng.uniform(0.0, 10.0, size=(90, 2)), BOX10)
    kf = k_function(PoissonModel(1.0), L2)
    delta = scaled_delta(p, L2, 1.0, kf, alpha=0.25, R=0.3)
    assert delta.scale == pytest.approx(100.0 ** (0.5 - 0.25))
    # c = |W|^(1/d) = 10, so the radius inflation factor is 10^0.25
    assert delta.c_alpha == pytest.approx(10.0**0.25)


def test_scaled_delta_alpha_domain():
    p = two_point_pattern()
    kf = k_function(PoissonModel(1.0), L2)
    for bad in (0.0, -0.1, 0.51, 0.6, 1.0):
        with pytest.raises(ValueError):
            scaled_delta(p, L2, 1.0, kf, alpha=bad, R=0.2)


def test_scaled_delta_guard_message():
    p = two_point_pattern()
    kf = k_function(PoissonModel(1.0), L2)
    with pytest.raises(ValueError, match="shrink R or alpha"):
        scaled_delta(p, L2, 1.0, kf, alpha=0.5, R=2.0)


def test_scaled_delta_piecewise_representation():
    rng = np.random.default_rng(66)
    p = PointPattern(rng.uniform(0.0, 10.0, size=(60, 2)), BOX10)
    kf = k_function(PoissonModel(0.6), L2)
    delta = scaled_delta(p, L2, 0.6, kf, alpha=0.5, R=0.2)
    assert np.all(delta.empirical.jump_radii <= 0.2 + 1e-15)
    rs = np.sort(rng.uniform(0.0, 0.2, size=50))
    emp = delta.empirical.eval(rs)
    theo = delta.theoretical(rs)
    assert np.allclose(emp - theo, delta.eval(rs), rtol=1e-13, atol=1e-13)


def test_scaled_delta_mean_zero_mc():
    """E Delta(r) = 0 under the matching null at any window size."""
    m = PoissonModel(1.0)
    w = Box([0.0, 0.0], [30.0, 30.0])
    kf = k_function(m, L2)
    reps = 200
    vals = np.array(
        [
            scaled_delta(simulate(m, w, SeedSpec(67, k)), L2, 1.0, kf, 0.5, 1.0).eval(1.0)
            for k in range(reps)
        ]
    )
    se = vals.std(ddof=1) / math.sqrt(reps)
    assert abs(vals.mean()) <= 3.0 * se


def test_scaled_delta_on_disk_window():
    m = PoissonModel(2.0)
    w = Disk((0.0, 0.0), 15.0)
    p = simulate(m, w, SeedSpec(68))
    kf = k_function(m, L2)
    delta = scaled_delta(p, L2, 2.0, kf, alpha=0.5, R=0.25)
    assert math.isfinite(delta.eval(0.25))
