"""Simulator determinism, count statistics and theoretical-oracle tests."""

import dataclasses
import json
import math

import numpy as np
import pytest
from scipy import stats

from kscope.estimate import k_hat
from kscope.geometry import BodyShape, Box, Disk, StructuringBody
from kscope.simulate import (
    MaternClusterModel,
    PoissonModel,
    SeedSpec,
    ThomasModel,
    k_function,
    k_function_from_table,
    model_from_config,
    model_to_config,
    simulate,
    theoretical_sigma2,
    theoretical_tau2,
)

L2 = StructuringBody(2, BodyShape.L2_BALL)


# ---------------------------------------------------------------------------
# model and seed validation


def test_model_parameter_guards():
    with pytest.raises(ValueError):
        PoissonModel(0.0)
    with pytest.raises(ValueError):
        PoissonModel(-2.0)
    with pytest.raises(ValueError):
        PoissonModel(math.inf)
    with pytest.raises(ValueError):
        ThomasModel(kappa=1.0, mu=0.0, sigma_c=0.5)
    with pytest.raises(ValueError):
        ThomasModel(kappa=-1.0, mu=4.0, sigma_c=0.5)
    with pytest.raises(ValueError):
        MaternClusterModel(kappa=0.25, mu=4.0, r_c=0.0)


def test_seed_spec_guards():
    with pytest.raises(ValueError):
        SeedSpec(-1)
    with pytest.raises(ValueError):
        SeedSpec(1.5)
    with pytest.raises(ValueError):
        SeedSpec(7, stream_index=-3)
    for bad in (float("nan"), float("inf"), None, "7"):
        with pytest.raises(ValueError, match="master_seed must be a nonnegative integer"):
            SeedSpec(bad)
    assert SeedSpec(3.0).rng().random() == SeedSpec(3).rng().random()


def test_model_config_roundtrip():
    models = [
        PoissonModel(2.5),
        ThomasModel(kappa=0.25, mu=4.0, sigma_c=0.5),
        MaternClusterModel(kappa=0.5, mu=3.0, r_c=0.75),
    ]
    for m in models:
        assert model_from_config(model_to_config(m)) == m
        assert model_from_config(json.loads(json.dumps(model_to_config(m)))) == m
        # the keys are the variant and the field names, Poisson's renamed
        names = {f.name for f in dataclasses.fields(m)} - {"intensity"}
        assert set(model_to_config(m)) - {"variant", "lambda"} == names
    assert model_to_config(models[0]) == {"variant": "poisson", "lambda": 2.5}
    with pytest.raises(ValueError):
        model_from_config({"variant": "hawkes"})
    with pytest.raises(ValueError):
        model_from_config({"lambda": 1.0})
    # keys are read exactly: no stray parameter, no field name for lambda
    with pytest.raises(ValueError, match=r"unknown poisson model keys: \['sigma_c'\]"):
        model_from_config({"variant": "poisson", "lambda": 1.0, "sigma_c": 0.5})
    with pytest.raises(ValueError, match=r"unknown poisson model keys: \['intensity'\]"):
        model_from_config({"variant": "poisson", "intensity": 1.0})
    with pytest.raises(ValueError, match=r"missing thomas model keys: \['sigma_c'\]"):
        model_from_config({"variant": "thomas", "kappa": 1.0, "mu": 2.0})


def test_cluster_intensity_property():
    assert ThomasModel(0.25, 4.0, 0.5).intensity == 1.0
    assert MaternClusterModel(0.5, 3.0, 0.75).intensity == 1.5


# ---------------------------------------------------------------------------
# simulation determinism and stream structure


def test_poisson_determinism():
    m = PoissonModel(1.0)
    w = Box([0.0, 0.0], [10.0, 10.0])
    a = simulate(m, w, SeedSpec(42, 0))
    b = simulate(m, w, SeedSpec(42, 0))
    assert np.array_equal(a.points, b.points)


def test_cluster_determinism():
    w = Box([0.0, 0.0], [20.0, 20.0])
    for m in (ThomasModel(0.25, 4.0, 0.5), MaternClusterModel(0.25, 4.0, 0.75)):
        a = simulate(m, w, SeedSpec(9, 3))
        b = simulate(m, w, SeedSpec(9, 3))
        assert np.array_equal(a.points, b.points)


def test_distinct_streams_differ():
    m = PoissonModel(1.0)
    w = Box([0.0, 0.0], [10.0, 10.0])
    a = simulate(m, w, SeedSpec(42, 0))
    b = simulate(m, w, SeedSpec(42, 1))
    assert a.points.shape != b.points.shape or not np.array_equal(a.points, b.points)


def test_stream_count_correlation_small():
    """Counts from neighboring streams look uncorrelated."""
    m = PoissonModel(1.0)
    w = Box([0.0, 0.0], [10.0, 10.0])
    counts = np.array(
        [
            [len(simulate(m, w, SeedSpec(1234, 2 * k + off))) for off in (0, 1)]
            for k in range(500)
        ],
        dtype=float,
    )
    corr = np.corrcoef(counts[:, 0], counts[:, 1])[0, 1]
    assert abs(corr) < 0.1


def test_simulate_on_disk_window():
    m = PoissonModel(2.0)
    w = Disk((0.0, 0.0), 5.0)
    p = simulate(m, w, SeedSpec(5))
    assert np.all(w.contains(p.points))
    # mean count over a few replicates near lambda * area
    ns = [len(simulate(m, w, SeedSpec(5, k))) for k in range(200)]
    lam_vol = 2.0 * w.volume()
    assert abs(np.mean(ns) - lam_vol) < 4.0 * math.sqrt(lam_vol / 200)


def test_cluster_requires_planar_window():
    w = Box([0.0] * 3, [10.0] * 3)
    with pytest.raises(ValueError, match="two-dimensional"):
        simulate(ThomasModel(0.25, 4.0, 0.5), w, SeedSpec(0))


# ---------------------------------------------------------------------------
# count distributions


def test_poisson_mean_count():
    m = PoissonModel(2.0)
    w = Box([0.0, 0.0], [100.0, 100.0])
    reps = 500
    mean = np.mean([len(simulate(m, w, SeedSpec(77, k))) for k in range(reps)])
    target = 2.0 * 1e4
    assert abs(mean - target) <= 3.0 * math.sqrt(target / reps)


def test_poisson_count_variance():
    m = PoissonModel(5.0)
    w = Box([0.0, 0.0], [10.0, 10.0])
    ns = np.array([len(simulate(m, w, SeedSpec(78, k))) for k in range(2000)], float)
    # Poisson: variance equals mean (500); sampling noise ~ var*sqrt(2/n)
    assert abs(np.var(ns, ddof=1) - 500.0) < 5.0 * 500.0 * math.sqrt(2.0 / 2000)


def test_thomas_mean_count_matches_kappa_mu():
    m = ThomasModel(kappa=0.25, mu=4.0, sigma_c=0.5)
    w = Box([0.0, 0.0], [50.0, 50.0])
    reps = 400
    ns = np.array([len(simulate(m, w, SeedSpec(79, k))) for k in range(reps)], float)
    se = ns.std(ddof=1) / math.sqrt(reps)
    assert abs(ns.mean() - 2500.0) <= 3.0 * se


def test_matern_mean_count_matches_kappa_mu():
    """Parent dilation by r_c removes edge bias in the expected count."""
    m = MaternClusterModel(kappa=0.25, mu=4.0, r_c=1.5)
    w = Box([0.0, 0.0], [30.0, 30.0])
    reps = 500
    ns = np.array([len(simulate(m, w, SeedSpec(80, k))) for k in range(reps)], float)
    se = ns.std(ddof=1) / math.sqrt(reps)
    assert abs(ns.mean() - 900.0) <= 3.0 * se


def test_poisson_thinning_consistency():
    """Thinned Poisson counts match the thinned-rate Poisson law."""
    m = PoissonModel(2.0)
    w = Box([0.0, 0.0], [5.0, 5.0])
    keep = 0.5
    thin_rng = np.random.default_rng(2024)
    counts = np.empty(2000, dtype=int)
    for k in range(2000):
        n = len(simulate(m, w, SeedSpec(81, k)))
        counts[k] = thin_rng.binomial(n, keep)
    # chi-square against Poisson(25), pooling tails so expected >= 5 per bin
    lam = 2.0 * 25.0 * keep
    lo, hi = 14, 37
    edges = list(range(lo, hi + 1))
    observed = np.array(
        [np.sum(counts < lo)]
        + [np.sum(counts == v) for v in edges]
        + [np.sum(counts > hi)]
    )
    pois = stats.poisson(lam)
    expected = np.array(
        [pois.cdf(lo - 1)] + [pois.pmf(v) for v in edges] + [pois.sf(hi)]
    ) * len(counts)
    assert expected.min() > 4.0
    stat = float(np.sum((observed - expected) ** 2 / expected))
    pval = float(stats.chi2.sf(stat, df=len(expected) - 1))
    assert pval > 0.001


# ---------------------------------------------------------------------------
# theoretical K-functions


def test_poisson_k_values():
    m = PoissonModel(1.0)
    assert k_function(m, L2)(2.0) == pytest.approx(4.0 * math.pi, rel=1e-14)
    linf = StructuringBody(2, BodyShape.LINF_BALL)
    assert k_function(m, linf)(1.0) == pytest.approx(4.0, rel=1e-14)
    l1_3d = StructuringBody(3, BodyShape.L1_BALL)
    assert k_function(m, l1_3d)(2.0) == pytest.approx((4.0 / 3.0) * 8.0, rel=1e-14)


def test_poisson_k_power_coeff():
    kf = k_function(PoissonModel(3.0), L2)
    assert kf.power_coeff == pytest.approx(math.pi)
    rs = np.array([0.0, 0.5, 1.0, 2.0])
    assert np.allclose(kf(rs), math.pi * rs**2, rtol=1e-14)


def test_thomas_k_saturates():
    m = ThomasModel(kappa=0.25, mu=4.0, sigma_c=0.5)
    r = 100.0
    assert k_function(m, L2)(r) == pytest.approx(math.pi * r**2 + 4.0, rel=1e-12)
    # exceeds the Poisson K at every positive radius (clustering)
    rs = np.linspace(0.1, 3.0, 20)
    assert np.all(k_function(m, L2)(rs) > math.pi * rs**2)


def test_thomas_k_closed_form():
    m = ThomasModel(kappa=0.25, mu=4.0, sigma_c=0.5)
    r = 1.25
    expect = math.pi * r**2 + 4.0 * (1.0 - math.exp(-(r**2) / (4.0 * 0.25)))
    assert k_function(m, L2)(r) == pytest.approx(expect, rel=1e-14)


def test_cluster_k_rejects_non_euclidean_bodies():
    m = ThomasModel(0.25, 4.0, 0.5)
    with pytest.raises(ValueError):
        k_function(m, StructuringBody(2, BodyShape.L1_BALL))
    with pytest.raises(ValueError):
        k_function(m, StructuringBody(2, BodyShape.LINF_BALL))


def test_cluster_k_scaled_body_consistency():
    # K for B = s * unit disk is the unit-disk K evaluated at s * r
    m = ThomasModel(0.25, 4.0, 0.5)
    s = 1.6
    scaled = k_function(m, StructuringBody(2, BodyShape.L2_BALL, s))
    unit = k_function(m, L2)
    rs = np.linspace(0.0, 2.0, 9)
    assert np.allclose(scaled(rs), unit(s * rs), rtol=1e-14)


def test_matern_k_limits():
    m = MaternClusterModel(kappa=0.25, mu=4.0, r_c=0.75)
    kf = k_function(m, L2)
    assert kf(0.0) == 0.0
    # beyond 2 r_c the overlap is complete: K = pi r^2 + 1/kappa
    for r in (1.5, 2.0, 5.0):
        assert kf(r) == pytest.approx(math.pi * r**2 + 4.0, rel=1e-12)
    rs = np.linspace(0.0, 1.5, 40)
    assert np.all(np.diff(kf(rs)) > 0)


def test_matern_overlap_against_sampling_oracle():
    """The closed-form pair-distance law matches direct MC sampling."""
    m = MaternClusterModel(kappa=1.0, mu=1.0, r_c=1.0)
    kf = k_function(m, L2)
    rng = np.random.default_rng(82)
    n = 200_000
    # two independent uniform points in the unit disk, via sqrt radius
    pts = []
    for _ in range(2):
        rad = np.sqrt(rng.random(n))
        ang = rng.random(n) * 2.0 * math.pi
        pts.append(np.column_stack((rad * np.cos(ang), rad * np.sin(ang))))
    dist = np.linalg.norm(pts[0] - pts[1], axis=1)
    for u in (0.4, 1.0, 1.6):
        # overlap CDF = kappa * (K(u) - pi u^2) with kappa = 1
        cdf = kf(u) - math.pi * u**2
        emp = float(np.mean(dist <= u))
        se = math.sqrt(cdf * (1.0 - cdf) / n)
        assert abs(emp - cdf) <= 4.0 * se + 1e-12


def test_thomas_k_against_estimator():
    """Long-run mean of the edge-corrected estimate matches the closed form."""
    m = ThomasModel(kappa=0.25, mu=4.0, sigma_c=0.5)
    w = Box([0.0, 0.0], [50.0, 50.0])
    r = 1.0
    vals = []
    for k in range(60):
        p = simulate(m, w, SeedSpec(83, k))
        vals.append(k_hat(p, L2, r).eval(r))
    vals = np.asarray(vals)
    target = m.intensity**2 * k_function(m, L2)(r)
    se = vals.std(ddof=1) / math.sqrt(len(vals))
    assert abs(vals.mean() - target) <= 3.0 * se


# ---------------------------------------------------------------------------
# sigma^2 and tau^2 oracles


def test_theoretical_sigma2_values():
    assert theoretical_sigma2(PoissonModel(5.0)) == 5.0
    assert theoretical_sigma2(ThomasModel(0.25, 4.0, 0.5)) == 5.0
    assert theoretical_sigma2(MaternClusterModel(0.5, 3.0, 1.0)) == 6.0


def test_thomas_sigma2_against_count_variance():
    m = ThomasModel(kappa=0.25, mu=4.0, sigma_c=0.5)
    w = Box([0.0, 0.0], [40.0, 40.0])
    reps = 300
    ns = np.array([len(simulate(m, w, SeedSpec(84, k))) for k in range(reps)], float)
    rate = ns.var(ddof=1) / w.volume()
    assert abs(rate - 5.0) / 5.0 < 0.15


def test_theoretical_tau2_values():
    assert theoretical_tau2(1.0, L2, 1.0, 1.0) == pytest.approx(
        2.0 * math.pi * (1.0 + 2.0 * math.pi), rel=1e-14
    )
    assert theoretical_tau2(1.0, L2, 0.0, 1.0) == 0.0
    assert theoretical_tau2(1.0, L2, 1.0, 2.0) == pytest.approx(
        2.0 * math.pi * (1.0 + 8.0 * math.pi), rel=1e-14
    )


def test_theoretical_tau2_symmetry_and_guards():
    assert theoretical_tau2(2.0, L2, 0.5, 1.5) == theoretical_tau2(2.0, L2, 1.5, 0.5)
    with pytest.raises(ValueError):
        theoretical_tau2(0.0, L2, 1.0, 1.0)
    with pytest.raises(ValueError):
        theoretical_tau2(1.0, L2, -1.0, 1.0)


# ---------------------------------------------------------------------------
# tabulated K-functions


def test_k_table_interpolation():
    kf = k_function_from_table([1.0, 2.0], [2.0, 6.0])
    # (0,0) knot is prepended
    assert kf(0.0) == 0.0
    assert kf(0.5) == pytest.approx(1.0)
    assert kf(1.5) == pytest.approx(4.0)
    assert kf(2.0) == pytest.approx(6.0)


def test_k_table_rejects_bad_input():
    with pytest.raises(ValueError):
        k_function_from_table([2.0, 1.0], [1.0, 2.0])
    with pytest.raises(ValueError):
        k_function_from_table([1.0, 2.0], [2.0, 1.0])
    with pytest.raises(ValueError):
        k_function_from_table([-1.0, 2.0], [0.0, 1.0])
    with pytest.raises(ValueError):
        k_function_from_table([1.0, 2.0], [1.0, math.nan])


def test_k_table_refuses_extrapolation():
    kf = k_function_from_table([1.0, 2.0], [2.0, 6.0])
    with pytest.raises(ValueError, match="covers radii up to"):
        kf(2.5)
