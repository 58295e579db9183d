"""Test-statistic oracles, limit constants, decisions and degenerate paths."""

import dataclasses
import json
import math

import numpy as np
import pytest
from scipy import integrate, optimize

from kscope.estimate import (
    EstimatorKind,
    KEstimate,
    ScaledDelta,
    _Scaling,
    _scaled_k,
    lambda2_hat,
    lambda_hat,
    scaled_delta,
    sigma2_hat,
)
from kscope.geometry import BodyShape, Box, Disk, StructuringBody
from kscope.gof import (
    CHI2_1,
    HALF_NORMAL,
    DegeneratePatternError,
    IntegralWeight,
    NonpositiveVarianceError,
    SupWeight,
    TestKind as Kind,
    TestReport as Report,
    chi2_statistic,
    cvm_statistic,
    ks_statistic,
    limit_constant,
    normal_cdf,
    normal_quantile,
    one_sample_reports,
    p_value,
    two_sample_cvm,
    two_sample_ks,
    two_sample_reports,
    _GL_BLOCK,
    _GL_NODES,
    _GL_WEIGHTS,
    _cvm_integral,
    _ks_sup,
    _merged_steps,
    _piece_integrals,
    _piece_masses,
)
from kscope.pattern import PointPattern
from kscope.simulate import (
    PoissonModel,
    SeedSpec,
    ThomasModel,
    k_function,
    k_function_from_table,
    simulate,
)

L2 = StructuringBody(2, BodyShape.L2_BALL)
BOX10 = Box([0.0, 0.0], [10.0, 10.0])
POISSON_K = k_function(PoissonModel(1.0), L2)
THOMAS = ThomasModel(kappa=0.25, mu=4.0, sigma_c=0.5)
THOMAS_K = k_function(THOMAS, L2)

Z975 = 1.959963984540054


def grid_pattern(spacing=1.0, jitter=0.0, rng=None):
    """10 x 10 unit-grid pattern on BOX10; lambda_hat is exactly 1."""
    xs = np.arange(0.5, 10.0, spacing)
    pts = np.array([(x, y) for x in xs for y in xs])
    if jitter and rng is not None:
        pts = pts + rng.uniform(-jitter, jitter, size=pts.shape)
    return PointPattern(pts, BOX10)


# ---------------------------------------------------------------------------
# normal distribution helpers


def test_normal_cdf_center():
    assert normal_cdf(0.0) == 0.5


def test_normal_quantile_reference_value():
    assert normal_quantile(0.975) == pytest.approx(1.959964, abs=1e-6)


def test_normal_roundtrip_grid():
    ps = np.linspace(0.001, 0.999, 999)
    back = normal_cdf(normal_quantile(ps))
    assert np.max(np.abs(back - ps)) <= 1e-8


def test_normal_quantile_domain():
    for bad in (0.0, 1.0, -0.5, 1.5):
        with pytest.raises(ValueError):
            normal_quantile(bad)


def test_normal_cdf_symmetry():
    xs = np.array([-3.0, -1.0, -0.25, 0.25, 1.0, 3.0])
    assert np.allclose(normal_cdf(xs) + normal_cdf(-xs), 1.0, atol=1e-15)


# ---------------------------------------------------------------------------
# weight specifications


def test_integral_weight_validation():
    IntegralWeight()
    IntegralWeight("exp_density", b=2.0)
    with pytest.raises(ValueError):
        IntegralWeight("exp_density")
    with pytest.raises(ValueError):
        IntegralWeight("exp_density", b=-1.0)
    with pytest.raises(ValueError):
        IntegralWeight("lebesgue", b=1.0)
    with pytest.raises(ValueError):
        IntegralWeight("uniform")


def test_sup_weight_validation():
    SupWeight()
    SupWeight("exp_decay", a=2.0)
    with pytest.raises(ValueError):
        SupWeight("exp_decay")
    with pytest.raises(ValueError):
        SupWeight("const_one", a=1.0)
    with pytest.raises(ValueError):
        SupWeight("cauchy")
    # rate must satisfy a >= d / R over the requested range
    with pytest.raises(ValueError, match="a >= d/R"):
        SupWeight("exp_decay", a=1.5).validate_domain(R=1.0, d=2)
    SupWeight("exp_decay", a=2.0).validate_domain(R=1.0, d=2)


def test_weight_config_roundtrips():
    for cls, weights, other in (
        (IntegralWeight, (IntegralWeight(), IntegralWeight("exp_density", b=0.7)), "a"),
        (SupWeight, (SupWeight(), SupWeight("exp_decay", a=3.0)), "b"),
    ):
        for w in weights:
            assert cls.from_config(w.to_config()) == w
            text = json.dumps(w.to_config())
            assert cls.from_config(json.loads(text)) == w
        # the keys are the field names, less a parameter the kind does not take
        assert set(weights[0].to_config()) == {"kind"}
        assert set(weights[1].to_config()) == {f.name for f in dataclasses.fields(cls)}
        assert cls.from_config({}) == weights[0]
        with pytest.raises(ValueError, match=f"unknown .* keys: \\['{other}'\\]"):
            cls.from_config(dict(weights[1].to_config(), **{other: 2.0}))
    # a stray parameter is no longer dropped in silence
    with pytest.raises(ValueError, match="unknown integral weight keys"):
        IntegralWeight.from_config({"kind": "lebesgue", "a": 2.0})


def test_exp_density_integral_against_simpson():
    w = IntegralWeight("exp_density", b=1.3)
    R, d = 1.4, 2
    rs = np.linspace(0.0, R, 100_001)
    oracle = integrate.simpson(rs ** (2 * d) * np.exp(-1.3 * rs ** (2 * d + 1)), x=rs)
    assert w.integral_r2d(R, d) == pytest.approx(oracle, rel=1e-8)


@pytest.mark.parametrize("b, d, R", [
    (2.0, 2, 1.0), (200.0, 2, 1.0), (0.5, 3, 0.5), (1e-3, 2, 1.0), (1.3, 1, 2.5),
    (50.0, 3, 1.5),  # b R^m = 854: the tail underflows
])
def test_exp_density_integral_closed_form(b, d, R):
    # d/dr of -exp(-b r^m) / (b m) is r^(2d) exp(-b r^m), with m = 2d + 1
    m = 2 * d + 1
    exact = -math.expm1(-b * R**m) / (b * m)
    assert IntegralWeight("exp_density", b=b).integral_r2d(R, d) == pytest.approx(
        exact, rel=1e-14
    )


def test_piece_masses_match_quadrature():
    """Blocked Gauss-Legendre masses of exp_density pieces equal quadrature."""
    w = IntegralWeight("exp_density", b=1.3)
    R = 1.2
    t = np.linspace(0.0, R, 45_002)  # 45,001 pieces span many blocks
    masses = _piece_masses(t, w, 2)
    assert masses.shape == (45_001,)
    assert 45_001 % _GL_BLOCK  # the last block is a partial one

    def mass(lo, hi):
        return integrate.quad(
            lambda r: float(w.density(r, 2)), lo, hi, epsabs=0.0, epsrel=1e-13
        )[0]

    assert masses.sum() == pytest.approx(mass(0.0, R), rel=1e-12)
    # the pieces on each side of two block boundaries, and the last piece
    for k in (0, _GL_BLOCK - 1, _GL_BLOCK, 2 * _GL_BLOCK - 1, 2 * _GL_BLOCK,
              19_999, 20_000, 45_000):
        assert masses[k] == pytest.approx(mass(t[k], t[k + 1]), rel=1e-12)


def test_piece_integrals_do_not_depend_on_the_block():
    """Each piece's value is the one-shot 16-node rule on its own row."""
    rng = np.random.default_rng(5)
    t = np.concatenate(([0.0], np.sort(rng.uniform(0.0, 2.0, 2 * _GL_BLOCK + 300)), [2.0]))
    steps = rng.uniform(0.0, 3.0, t.size - 1)

    def integrand(r, rows):
        return (steps[rows, None] - r**2) ** 2 * np.exp(-0.7 * r**5)

    lo, hi = t[:-1], t[1:]
    halves = (hi - lo) / 2.0
    r = (lo + hi)[:, None] / 2.0 + halves[:, None] * _GL_NODES[None, :]
    one_shot = halves * (integrand(r, slice(None)) * _GL_WEIGHTS[None, :]).sum(axis=1)
    assert np.array_equal(_piece_integrals(t, integrand), one_shot)


def test_thomas_exp_density_cvm_matches_quadrature():
    """The quadrature path of the CvM integral, over several blocks, equals
    per-piece adaptive quadrature of the Thomas null."""
    w = IntegralWeight("exp_density", b=2.0)
    window = Box([0.0, 0.0], [16.0, 16.0])
    p = simulate(THOMAS, window, SeedSpec(3, 0))
    delta = scaled_delta(p, L2, THOMAS.intensity, THOMAS_K, 0.5, 0.8)
    jumps = delta.empirical.jump_radii
    jumps = jumps[jumps < delta.R]
    assert delta.theory_power_beta is None
    assert jumps.size > _GL_BLOCK
    cuts = np.concatenate(([0.0], jumps, [delta.R]))
    steps = np.concatenate(([0.0], delta.empirical.jump_values[: jumps.size]))
    total = 0.0
    for lo, hi, h in zip(cuts[:-1], cuts[1:], steps):
        total += integrate.quad(
            lambda r: (h - delta.theoretical(r)) ** 2 * math.exp(-2.0 * r**5),
            lo, hi, epsabs=0.0, epsrel=1e-12,
        )[0]
    assert _cvm_integral(delta, w) == pytest.approx(total, rel=1e-11)
    rep = cvm_statistic(p, L2, THOMAS.intensity, THOMAS_K, 0.5, 0.8, weight=w, clamp=True)
    lam, lam2, s2 = _clamped_denominators(p)
    oracle = total / (lam2 * s2) + p.window.volume() * (lam - THOMAS.intensity) ** 2 / s2
    assert rep.statistic == pytest.approx(oracle, rel=1e-10)


def test_exp_decay_sup_against_dense_grid():
    v = SupWeight("exp_decay", a=2.5)
    for R, d in ((1.0, 2), (3.0, 2), (0.5, 1)):
        rs = np.linspace(0.0, R, 200_001)
        oracle = float(np.max(rs**d * np.exp(-2.5 * rs)))
        assert v.sup_rd(R, d) == pytest.approx(oracle, rel=1e-9)


# ---------------------------------------------------------------------------
# limit constants


def test_limit_constant_ks_disk():
    assert limit_constant(Kind.KS, L2, R=1.0) == pytest.approx(
        1.0 + 2.0 * math.pi, rel=1e-14
    )


def test_limit_constant_cvm_disk():
    assert limit_constant(Kind.CVM, L2, R=1.0) == pytest.approx(
        1.0 + 4.0 * math.pi**2 / 5.0, rel=1e-14
    )


def test_limit_constant_chi2_unit_interval_body():
    # one test radius, |B| = 1: the interval [-1/2, 1/2]
    body = StructuringBody(1, BodyShape.L2_BALL, 0.5)
    assert limit_constant(Kind.CHI2, body, n_radii=1) == pytest.approx(5.0)


def test_limit_constant_two_sample_matches_one_sample():
    assert limit_constant(Kind.TWO_KS, L2, R=1.0) == limit_constant(
        Kind.KS, L2, R=1.0
    )
    assert limit_constant(Kind.TWO_CVM, L2, R=1.0) == limit_constant(
        Kind.CVM, L2, R=1.0
    )


def test_limit_constant_argument_guards():
    with pytest.raises(ValueError):
        limit_constant(Kind.CHI2, L2)
    with pytest.raises(ValueError):
        limit_constant(Kind.KS, L2)
    with pytest.raises(ValueError):
        limit_constant(Kind.CVM, L2, R=-1.0)
    with pytest.raises(TypeError):
        limit_constant(Kind.CVM, L2, R=1.0, weight=SupWeight())
    with pytest.raises(TypeError):
        limit_constant(Kind.KS, L2, R=1.0, weight=IntegralWeight())


# ---------------------------------------------------------------------------
# p-values


def test_p_value_at_threshold_chi2():
    c = 4.0 * math.pi**2 + 1.0
    assert p_value(c * Z975**2, c, CHI2_1) == pytest.approx(0.05, abs=1e-9)


def test_p_value_at_threshold_half_normal():
    c = 1.0 + 2.0 * math.pi
    assert p_value(c * 1.959964, c, HALF_NORMAL) == pytest.approx(0.05, abs=1e-6)


def test_p_value_zero_statistic():
    assert p_value(0.0, 3.0, CHI2_1) == 1.0
    assert p_value(0.0, 3.0, HALF_NORMAL) == 1.0


def test_p_value_guards():
    with pytest.raises(ValueError):
        p_value(-1.0, 1.0, CHI2_1)
    with pytest.raises(ValueError):
        p_value(1.0, 0.0, CHI2_1)
    with pytest.raises(ValueError):
        p_value(1.0, 1.0, "weibull")


# ---------------------------------------------------------------------------
# zero cases and thresholds


ZERO_K = k_function_from_table([10.0], [0.0])


def test_one_sample_zero_case():
    """No pairs in range, flat null curve, matching intensity: statistic 0."""
    p = grid_pattern()
    for fn in (
        lambda: ks_statistic(p, L2, 1.0, ZERO_K, 0.5, 0.05, bandwidth=0.05),
        lambda: cvm_statistic(p, L2, 1.0, ZERO_K, 0.5, 0.05, bandwidth=0.05),
        lambda: chi2_statistic(
            p, L2, 1.0, ZERO_K, 0.5, radii=[0.025, 0.05], bandwidth=0.05
        ),
    ):
        rep = fn()
        assert rep.statistic == 0.0
        assert rep.decision == "ACCEPT"
        assert rep.p_value == 1.0


def test_ks_threshold_value():
    p = grid_pattern()
    rep = ks_statistic(
        p, L2, 1.0, POISSON_K, 0.5, 0.05, gamma=0.05, bandwidth=0.05
    )
    assert rep.threshold == pytest.approx((1.0 + 2.0 * math.pi * 0.05**2) * Z975)
    assert rep.limit_family == "SCALED_HALF_NORMAL"


def test_ks_threshold_reference_shape():
    # R = 1 gives the textbook constant (1 + 2 pi) z_0.975
    c = limit_constant(Kind.KS, L2, R=1.0)
    z = normal_quantile(0.975)
    assert c * z == pytest.approx((1.0 + 2.0 * math.pi) * 1.959964, rel=1e-6)


def test_chi2_threshold_value():
    p = grid_pattern()
    rep = chi2_statistic(
        p, L2, 1.0, POISSON_K, 0.5, radii=[0.05], gamma=0.05, bandwidth=0.05
    )
    assert rep.limit_family == "SCALED_CHI2_1"
    assert rep.threshold == pytest.approx((4.0 * math.pi**2 + 1.0) * Z975**2, rel=1e-9)


def test_chi2_default_radii():
    p = grid_pattern()
    rep = chi2_statistic(p, L2, 1.0, POISSON_K, 0.5, R=0.05, bandwidth=0.05)
    assert rep.config["radii"] == pytest.approx(
        [0.01, 0.02, 0.03, 0.04, 0.05]
    )
    assert rep.limit_constant == pytest.approx(4.0 * 5.0 * math.pi**2 + 1.0)


def test_chi2_radii_validation():
    p = grid_pattern()
    with pytest.raises(ValueError):
        chi2_statistic(p, L2, 1.0, POISSON_K, 0.5, radii=[0.05, 0.02])
    with pytest.raises(ValueError):
        chi2_statistic(p, L2, 1.0, POISSON_K, 0.5, radii=[0.0, 0.02])
    with pytest.raises(ValueError):
        chi2_statistic(p, L2, 1.0, POISSON_K, 0.5, R=0.05, radii=[0.02, 0.06])


def test_gamma_validation():
    p = grid_pattern()
    for bad in (0.0, 1.0, -0.2, 1.3):
        with pytest.raises(ValueError):
            ks_statistic(p, L2, 1.0, POISSON_K, 0.5, 0.05, gamma=bad)


def test_shared_reports_match_wrappers():
    rng = np.random.default_rng(71)
    p = grid_pattern(jitter=0.3, rng=rng)
    shared = one_sample_reports(
        p, L2, 1.0, POISSON_K, 0.5, 0.2,
        tests=(Kind.KS, Kind.CVM, Kind.CHI2), clamp=True,
    )
    assert shared[Kind.KS.value].statistic == ks_statistic(
        p, L2, 1.0, POISSON_K, 0.5, 0.2, clamp=True
    ).statistic
    assert shared[Kind.CVM.value].statistic == cvm_statistic(
        p, L2, 1.0, POISSON_K, 0.5, 0.2, clamp=True
    ).statistic
    assert shared[Kind.CHI2.value].statistic == chi2_statistic(
        p, L2, 1.0, POISSON_K, 0.5, R=0.2, clamp=True
    ).statistic


def test_one_sample_rejects_two_sample_kinds():
    p = grid_pattern()
    with pytest.raises(ValueError):
        one_sample_reports(p, L2, 1.0, POISSON_K, 0.5, 0.05, tests=("two_ks",))


# ---------------------------------------------------------------------------
# sup and integral oracles


def _clamped_denominators(p):
    lam = lambda_hat(p)
    lam2 = lambda2_hat(p)
    s2 = sigma2_hat(p)
    if s2 <= 0:
        s2 = max(s2, lam)
    return lam, lam2, s2


def test_ks_sup_matches_dense_grid():
    """Candidate-set sup equals a corner-enriched 1e5 grid evaluation.

    Each pattern is tested against the power (Poisson) null and the
    Thomas null, whose curve is not a power of r.
    """
    rng = np.random.default_rng(72)
    checked = 0
    for trial in range(100):
        n = int(rng.integers(8, 60))
        pts = rng.uniform(0.0, 10.0, size=(n, 2))
        p = PointPattern(pts, BOX10)
        lam0 = float(rng.uniform(0.5, 2.0))
        R = float(rng.uniform(0.1, 0.4))
        if trial % 2:
            weight = SupWeight("exp_decay", a=float(rng.uniform(2.0 / R, 4.0 / R)))
        else:
            weight = SupWeight()
        for null_k in (POISSON_K, THOMAS_K):
            rep = ks_statistic(p, L2, lam0, null_k, 0.5, R, weight=weight, clamp=True)

            delta = scaled_delta(p, L2, lam0, null_k, 0.5, R)
            jumps = delta.empirical.jump_radii
            grid = np.linspace(0.0, R, 100_001)
            grid = np.unique(
                np.concatenate([grid, jumps, np.nextafter(jumps, 0.0), [R]])
            )
            grid = grid[(grid >= 0.0) & (grid <= R)]
            sup = float(np.max(np.abs(delta.eval(grid)) * weight.eval(grid)))
            lam, _, s2 = _clamped_denominators(p)
            oracle = sup / (lam * math.sqrt(s2)) + math.sqrt(
                p.window.volume()
            ) * abs(lam - lam0) / math.sqrt(s2)
            assert rep.statistic == pytest.approx(oracle, rel=1e-9)
            checked += 1
    assert checked == 200


def _ks_sup_full_grid(delta, weight):
    """Reference sup: the 64-point grid on every piece, then the polish.

    Corner candidates first; for a decaying weight the grid runs on all
    pieces, and every piece whose grid maximum reaches ``best (1 - 1e-6)``
    is polished by bounded scalar optimization.
    """
    jumps = delta.empirical.jump_radii
    t = np.concatenate(([0.0], jumps[jumps < delta.R], [delta.R]))
    steps = np.concatenate(([0.0], delta.empirical.jump_values[: t.size - 2]))
    theo = np.asarray(delta.theoretical(t), dtype=float)
    right_cand = np.abs(steps - theo[:-1])
    left_cand = np.abs(steps - theo[1:])
    if weight.kind != "const_one":
        vw = weight.eval(t)
        right_cand *= vw[:-1]
        left_cand *= vw[1:]
    best = max(float(right_cand.max(initial=0.0)), float(left_cand.max(initial=0.0)))
    if weight.kind == "const_one":
        return best
    lo, hi = t[:-1], t[1:]
    frac = np.linspace(0.0, 1.0, 66)[1:-1]
    r = lo[:, None] + (hi - lo)[:, None] * frac[None, :]
    f = np.abs(
        (steps[:, None] - np.asarray(delta.theoretical(r), dtype=float))
        * weight.eval(r)
    )
    piece_best = f.max(axis=1)
    best = max(best, float(piece_best.max(initial=0.0)))
    contenders = np.nonzero(piece_best >= best * (1.0 - 1e-6))[0]
    for k in contenders:
        h = float(steps[k])

        def neg_sq(r):
            resid = h - float(delta.theoretical(r))
            return -((resid * float(weight.eval(r))) ** 2)

        res = optimize.minimize_scalar(
            neg_sq,
            bounds=(float(lo[k]), float(hi[k])),
            method="bounded",
            options={"xatol": 1e-13 * max(1.0, delta.R)},
        )
        best = max(best, math.sqrt(max(-res.fun, 0.0)))
    return best


def _polished_pieces(monkeypatch, fn, delta, weight):
    """Value of fn(delta, weight) and the intervals it polished, in order."""
    calls = []
    minimize = optimize.minimize_scalar

    def recording(fun, bounds=None, **kwargs):
        calls.append(bounds)
        return minimize(fun, bounds=bounds, **kwargs)

    with monkeypatch.context() as mp:
        mp.setattr(optimize, "minimize_scalar", recording)
        value = fn(delta, weight)
    return value, calls


def _step_delta(radii, values, beta, R=1.0):
    """A scaled difference with the given steps and the curve beta r^2."""
    empirical = KEstimate(
        L2, EstimatorKind.HT, R, 1.0,
        np.asarray(radii, dtype=float), np.asarray(values, dtype=float),
    )
    return ScaledDelta(
        alpha=0.5, R=R, null_lambda=1.0, null_k=POISSON_K, c_alpha=1.0,
        scale=1.0, empirical=empirical, theory_power_beta=beta,
    )


def test_ks_sup_pruned_matches_full_grid(monkeypatch):
    """Pruning by the per-piece bound changes neither the sup nor the
    polished contenders, bit for bit, for power, Thomas and tabulated
    nulls, on a box and a disk, and for rates from d/R to one where the
    weight underflows to 0 inside [0, R].  Three small step functions add
    the corner cases: no jump; one jump whose left limit is the unweighted
    sup; one jump whose first piece holds an interior maximum above every
    corner."""
    R = 1.0
    table_r = np.linspace(0.0, 6.0, 25)
    table_k = k_function_from_table(table_r, THOMAS_K(table_r))
    weights = [SupWeight()] + [
        SupWeight("exp_decay", a=a) for a in (2.0 / R, 4.0, 40.0, 800.0)
    ]
    assert float(weights[-1].eval(R)) == 0.0
    deltas = [
        _step_delta([], [], 3.0),
        _step_delta([0.9], [3.6], 3.0),
        _step_delta([0.9], [6.0], 3.0),
    ]
    for w_i, window in enumerate((Box([0.0, 0.0], [20.0, 20.0]), Disk([0.0, 0.0], 11.0))):
        for n_i, (model, null_k) in enumerate(
            ((PoissonModel(1.0), POISSON_K), (THOMAS, THOMAS_K), (THOMAS, table_k))
        ):
            p = simulate(model, window, SeedSpec(31, 3 * w_i + n_i))
            deltas.append(scaled_delta(p, L2, model.intensity, null_k, 0.5, R))
            assert deltas[-1].empirical.jump_radii.size > 500
    polished = 0
    for delta in deltas:
        for weight in weights:
            got = _polished_pieces(monkeypatch, _ks_sup, delta, weight)
            want = _polished_pieces(monkeypatch, _ks_sup_full_grid, delta, weight)
            assert got == want
            polished += len(want[1])
    assert polished >= 4


def test_ks_sup_pruning_keeps_near_tied_contenders(monkeypatch):
    """Hundreds of pieces tie with the best corner to rounding: every
    contender survives pruning and all of them are polished.

    The residual h - theta falls across each piece by about 1e-5 of its
    value, so a bound from the corner at the right end alone would drop
    them."""
    a, beta, w = 4.0, 3.0, 1e-7
    radii = 0.01 + w * np.arange(200)
    steps = beta * radii**2 + 6e-4 * np.exp(a * radii)
    delta = _step_delta(radii, steps, beta, R=radii[-1] + w)
    weight = SupWeight("exp_decay", a=a)
    got = _polished_pieces(monkeypatch, _ks_sup, delta, weight)
    want = _polished_pieces(monkeypatch, _ks_sup_full_grid, delta, weight)
    assert len(want[1]) == 200
    assert got == want


def test_cvm_integral_matches_quadrature():
    """Piecewise-exact integration equals per-piece adaptive quadrature."""
    rng = np.random.default_rng(73)
    checked = 0
    for trial in range(100):
        n = int(rng.integers(4, 13))
        pts = rng.uniform(0.0, 10.0, size=(n, 2))
        p = PointPattern(pts, BOX10)
        lam0 = float(rng.uniform(0.5, 2.0))
        R = float(rng.uniform(0.15, 0.5))
        if trial % 3 == 0:
            weight = IntegralWeight("exp_density", b=float(rng.uniform(0.2, 3.0)))
        else:
            weight = IntegralWeight()
        rep = cvm_statistic(p, L2, lam0, POISSON_K, 0.5, R, weight=weight, clamp=True)

        delta = scaled_delta(p, L2, lam0, POISSON_K, 0.5, R)
        cuts = np.unique(np.concatenate(([0.0], delta.empirical.jump_radii, [R])))
        cuts = cuts[(cuts >= 0.0) & (cuts <= R)]
        total = 0.0
        for lo, hi in zip(cuts[:-1], cuts[1:]):
            if hi <= lo:
                continue
            val, _ = integrate.quad(
                lambda r: delta.eval(r) ** 2 * float(weight.density(r, 2)),
                lo,
                hi,
                epsabs=1e-14,
                epsrel=1e-12,
            )
            total += val
        lam, lam2, s2 = _clamped_denominators(p)
        oracle = total / (lam2 * s2) + p.window.volume() * (lam - lam0) ** 2 / s2
        assert rep.statistic == pytest.approx(oracle, rel=1e-8)
        checked += 1
    assert checked == 100


# ---------------------------------------------------------------------------
# decision coherence battery


def test_decision_p_value_coherence():
    """REJECT iff statistic > threshold iff p_value < gamma, 1000 reports."""
    rng = np.random.default_rng(74)
    reports = []
    for trial in range(250):
        n = int(rng.integers(0, 45))
        pts = rng.uniform(0.0, 8.0, size=(n, 2))
        w = Box([0.0, 0.0], [8.0, 8.0])
        p = PointPattern(pts, w)
        lam0 = float(rng.uniform(0.3, 1.5))
        gamma = float(rng.uniform(0.01, 0.3))
        R = float(rng.uniform(0.1, 0.35))
        shared = one_sample_reports(
            p, L2, lam0, POISSON_K, 0.5, R,
            tests=(Kind.KS, Kind.CVM, Kind.CHI2),
            gamma=gamma, clamp=True,
        )
        reports.extend(shared.values())
        pb = PointPattern(rng.uniform(0.0, 8.0, size=(int(rng.integers(2, 45)), 2)), w)
        if n >= 2:
            two = two_sample_reports(
                p, pb, L2, 0.5, R,
                tests=(Kind.TWO_KS, Kind.TWO_CVM),
                gamma=gamma, clamp=True,
            )
            reports.extend(two.values())
    assert len(reports) >= 1000
    for rep in reports:
        assert rep.statistic >= 0.0
        assert 0.0 <= rep.p_value <= 1.0
        assert (rep.decision == "REJECT") == (rep.statistic > rep.threshold)
        # ties resolve toward ACCEPT on both scales
        if rep.p_value < rep.gamma:
            assert rep.decision == "REJECT"
        if rep.p_value > rep.gamma:
            assert rep.decision == "ACCEPT"


# ---------------------------------------------------------------------------
# degenerate paths


def test_degenerate_pattern_raises_without_clamp():
    p = PointPattern([[5.0, 5.0]], BOX10)
    with pytest.raises(DegeneratePatternError):
        ks_statistic(p, L2, 1.0, POISSON_K, 0.5, 0.05)
    with pytest.raises(DegeneratePatternError):
        cvm_statistic(PointPattern([], BOX10), L2, 1.0, POISSON_K, 0.5, 0.05)


def test_degenerate_pattern_clamped_rejects():
    """An empty pattern against a positive null yields a huge statistic."""
    p = PointPattern([], BOX10)
    for fn in (ks_statistic, cvm_statistic):
        rep = fn(p, L2, 1.0, POISSON_K, 0.5, 0.05, clamp=True)
        assert math.isfinite(rep.statistic)
        assert rep.decision == "REJECT"
        assert any("DEGENERATE_PATTERN" in w for w in rep.warnings)


def sparse_far_pattern():
    # 3 x 3 grid, spacing 5: no pairs within the kernel support below
    xs = [0.0, 5.0, 10.0]
    return PointPattern([(x, y) for x in xs for y in xs], BOX10)


def test_nonpositive_variance_paths():
    p = sparse_far_pattern()
    assert sigma2_hat(p, bandwidth=0.45) < 0.0
    with pytest.raises(NonpositiveVarianceError):
        ks_statistic(p, L2, 0.09, POISSON_K, 0.5, 0.05, bandwidth=0.45)
    rep = ks_statistic(
        p, L2, 0.09, POISSON_K, 0.5, 0.05, bandwidth=0.45, clamp=True
    )
    assert math.isfinite(rep.statistic)
    assert any("NONPOSITIVE_VARIANCE" in w for w in rep.warnings)


def test_small_alpha_warning():
    p = grid_pattern()
    rep = ks_statistic(
        p, L2, 1.0, POISSON_K, 0.25, 0.05, bandwidth=0.05, clamp=True
    )
    assert any("SMALL_ALPHA" in w for w in rep.warnings)
    rep2 = ks_statistic(p, L2, 1.0, POISSON_K, 0.5, 0.05, bandwidth=0.05)
    assert not any("SMALL_ALPHA" in w for w in rep2.warnings)


# ---------------------------------------------------------------------------
# two-sample tests


def poisson_pair(seed_a=101, seed_b=202, lam=1.0, side=20.0):
    w = Box([0.0, 0.0], [side, side])
    m = PoissonModel(lam)
    return simulate(m, w, SeedSpec(seed_a)), simulate(m, w, SeedSpec(seed_b))


def test_two_sample_identical_patterns_zero():
    pa, _ = poisson_pair()
    for fn in (two_sample_ks, two_sample_cvm):
        rep = fn(pa, pa, L2, 0.5, 0.3)
        assert rep.statistic == 0.0
        assert rep.decision == "ACCEPT"
        assert rep.p_value == 1.0


def test_two_sample_symmetry_exact():
    pa, pb = poisson_pair()
    for fn in (two_sample_ks, two_sample_cvm):
        assert fn(pa, pb, L2, 0.5, 0.3).statistic == fn(pb, pa, L2, 0.5, 0.3).statistic


def test_two_sample_window_volume_mismatch():
    pa, _ = poisson_pair()
    pb = simulate(PoissonModel(1.0), Box([0.0, 0.0], [20.0, 20.01]), SeedSpec(5))
    with pytest.raises(ValueError, match="volume"):
        two_sample_ks(pa, pb, L2, 0.5, 0.3)


def test_two_sample_translated_windows_allowed():
    # equal volumes suffice; absolute placement must not matter
    pa, _ = poisson_pair()
    w2 = Box([100.0, -50.0], [120.0, -30.0])
    pb = simulate(PoissonModel(1.0), w2, SeedSpec(6))
    rep = two_sample_ks(pa, pb, L2, 0.5, 0.3)
    assert math.isfinite(rep.statistic)


def test_two_sample_rejects_naive_estimator():
    pa, pb = poisson_pair()
    with pytest.raises(ValueError):
        two_sample_ks(pa, pb, L2, 0.5, 0.3, estimator="naive")


def test_two_sample_degenerate_sides():
    pa, _ = poisson_pair()
    pb = PointPattern([], pa.window)
    # one informative side suffices: the comparison completes and rejects
    rep = two_sample_ks(pa, pb, L2, 0.5, 0.3)
    assert math.isfinite(rep.statistic)
    assert rep.decision == "REJECT"
    # but two empty sides leave no denominator at all
    with pytest.raises(DegeneratePatternError):
        two_sample_ks(pb, pb, L2, 0.5, 0.3)
    single = PointPattern([[1.0, 1.0]], pa.window)
    with pytest.raises(DegeneratePatternError):
        two_sample_cvm(single, pb, L2, 0.5, 0.3, clamp=True)


def test_two_sample_report_schema():
    pa, pb = poisson_pair()
    rep = two_sample_cvm(pa, pb, L2, 0.5, 0.3)
    data = json.loads(rep.to_json())
    for key in (
        "schema_version", "test", "statistic", "limit_constant", "limit_family",
        "p_value", "gamma", "threshold", "decision", "config", "warnings",
    ):
        assert key in data
    assert data["test"] == "two_cvm"
    assert data["limit_family"] == "SCALED_CHI2_1"
    assert data["config"]["window_b"]["shape"] == "box"


def _two_sample_pieces(pa, pb, R):
    """Merged breakpoints of two raw scaled estimates and their difference
    on each piece, read off two fresh lookups."""
    da = scaled_delta(pa, L2, 1.0, POISSON_K, 0.5, R)
    db = scaled_delta(pb, L2, 1.0, POISSON_K, 0.5, R)
    cuts = np.unique(np.concatenate(
        ([0.0], da.empirical.jump_radii, db.empirical.jump_radii, [R])
    ))
    diffs = [da.empirical.eval(lo) - db.empirical.eval(lo) for lo in cuts[:-1]]
    return cuts, np.array(diffs)


@pytest.mark.parametrize("weight", [
    IntegralWeight(), IntegralWeight("exp_density", b=200.0),
], ids=["lebesgue", "exp_density"])
def test_two_sample_cvm_matches_manual_integration(weight):
    """Step-difference integral recomputed from the two raw estimates, with
    each piece's dV mass by adaptive quadrature."""
    pa, pb = poisson_pair(side=15.0)
    R = 0.3
    rep = two_sample_cvm(pa, pb, L2, 0.5, R, weight=weight)
    cuts, diffs = _two_sample_pieces(pa, pb, R)
    total = 0.0
    for lo, hi, diff in zip(cuts[:-1], cuts[1:], diffs):
        mass, _ = integrate.quad(
            lambda r: float(weight.density(r, 2)), lo, hi, epsabs=0.0, epsrel=1e-13
        )
        total += diff**2 * mass
    lam_a, lam2_a, s2_a = _clamped_denominators(pa)
    lam_b, lam2_b, s2_b = _clamped_denominators(pb)
    vol = pa.window.volume()
    oracle = total / (lam2_a * s2_a + lam2_b * s2_b) + vol * (
        lam_a - lam_b
    ) ** 2 / (s2_a + s2_b)
    assert rep.statistic == pytest.approx(oracle, rel=1e-10)


@pytest.mark.parametrize("weight", [
    SupWeight(), SupWeight("exp_decay", a=8.0),
], ids=["const_one", "exp_decay"])
def test_two_sample_ks_matches_left_endpoint_maximum(weight):
    """The weighted step difference peaks at a piece's left end, since v is
    nonincreasing; the sup is the largest of those values."""
    pa, pb = poisson_pair(side=15.0)
    R = 0.3
    rep = two_sample_ks(pa, pb, L2, 0.5, R, weight=weight)
    cuts, diffs = _two_sample_pieces(pa, pb, R)
    sup = max(abs(diff) * float(weight.eval(lo)) for lo, diff in zip(cuts[:-1], diffs))
    lam_a, lam2_a, s2_a = _clamped_denominators(pa)
    lam_b, lam2_b, s2_b = _clamped_denominators(pb)
    vol = pa.window.volume()
    oracle = sup / math.sqrt(lam2_a * s2_a + lam2_b * s2_b) + math.sqrt(vol) * abs(
        lam_a - lam_b
    ) / math.sqrt(s2_a + s2_b)
    assert rep.statistic == pytest.approx(oracle, rel=1e-12)


def test_merged_steps_match_fresh_sort():
    """Breakpoints read off one merge equal a fresh sort and two lookups.

    Two subsets of one lattice share most of their tied distances, so the
    merge meets ties within and across the two sides.
    """
    rng = np.random.default_rng(74)
    lattice = grid_pattern().points
    R = 0.55
    for _ in range(5):
        ka, kb = (
            _scaled_k(
                PointPattern(lattice[rng.random(len(lattice)) < 0.7], BOX10),
                L2, R, EstimatorKind.HT, None, _Scaling.of(BOX10, L2, 0.5, R),
            )
            for _ in range(2)
        )
        t, diff = _merged_steps(ka, kb)
        t_ref = np.unique(np.concatenate(([0.0], ka.jump_radii, kb.jump_radii, [R])))
        assert np.array_equal(t, t_ref)
        assert np.array_equal(diff, ka.eval(t_ref[:-1]) - kb.eval(t_ref[:-1]))
        t_ba, diff_ba = _merged_steps(kb, ka)
        assert np.array_equal(t_ba, t) and np.array_equal(diff_ba, -diff)


# ---------------------------------------------------------------------------
# option checks


_BAD_OPTIONS = {
    "exp_decay_below_d_over_R": ({"sup_weight": SupWeight("exp_decay", a=0.5)}, "a >= d/R"),
    "chi2_radii_decreasing": ({"tests": ("chi2",), "radii": [0.5, 0.2]}, "strictly increasing"),
    "chi2_radii_nan": ({"tests": ("chi2",), "radii": [0.2, float("nan")]}, "strictly increasing"),
    "scaled_domain": ({"R": 1.0}, "shrink R or alpha"),
    "kernel_support": ({"bandwidth": 0.6}, "kernel support"),
    "gamma_zero": ({"gamma": 0.0}, "gamma must lie"),
    "gamma_one": ({"gamma": 1.0}, "gamma must lie"),
    "null_lambda_zero": ({"null_lambda": 0.0}, "null_lambda must be"),
    "null_lambda_nan": ({"null_lambda": float("nan")}, "null_lambda must be"),
}


@pytest.mark.parametrize("case,two", [
    (case, two) for case in sorted(_BAD_OPTIONS) for two in (False, True)
    if not (two and case.startswith(("chi2", "null_lambda")))
])
def test_bad_options_fail_before_any_pair_search(case, two, monkeypatch):
    """A bad sup weight, gamma, chi2 radii or null intensity (one-sample
    only), scaled domain or kernel support raises before sigma2_hat, the
    K estimate or any pair search runs."""
    overrides, message = _BAD_OPTIONS[case]

    def reached(*args, **kwargs):
        raise AssertionError("estimation ran before the option checks")

    for name in ("sigma2_hat", "_scaled_k", "scaled_delta"):
        monkeypatch.setattr(f"kscope.gof.{name}", reached)
    monkeypatch.setattr("kscope.estimate.close_pairs", reached)
    kwargs = dict({"R": 0.5}, **overrides)
    R = kwargs.pop("R")
    null_lambda = kwargs.pop("null_lambda", 1.0)
    with pytest.raises(ValueError, match=message):
        if two:
            kwargs["tests"] = ("two_ks",)
            two_sample_reports(grid_pattern(), grid_pattern(), L2, 0.5, R, **kwargs)
        else:
            one_sample_reports(grid_pattern(), L2, null_lambda, POISSON_K, 0.5, R, **kwargs)


# ---------------------------------------------------------------------------
# report serialization


def test_report_json_roundtrip():
    p = grid_pattern()
    rep = ks_statistic(p, L2, 1.0, POISSON_K, 0.5, 0.05, bandwidth=0.05)
    back = Report.from_json(rep.to_json())
    assert back == rep
    # every field set, warnings too, and the JSON keys are the field names
    warned = dataclasses.replace(rep, warnings=["SMALL_ALPHA: test"])
    assert Report.from_json(warned.to_json()) == warned
    data = json.loads(warned.to_json())
    assert set(data) == {f.name for f in dataclasses.fields(Report)} | {"schema_version"}
    with pytest.raises(ValueError, match=r"unknown test report keys: \['extra'\]"):
        Report.from_json(json.dumps(dict(data, extra=1)))
    del data["threshold"]
    with pytest.raises(ValueError, match=r"missing test report keys: \['threshold'\]"):
        Report.from_json(json.dumps(data))


def test_report_json_is_sorted_and_stable():
    p = grid_pattern()
    rep = ks_statistic(p, L2, 1.0, POISSON_K, 0.5, 0.05, bandwidth=0.05)
    a = rep.to_json()
    b = ks_statistic(p, L2, 1.0, POISSON_K, 0.5, 0.05, bandwidth=0.05).to_json()
    assert a == b
    keys = list(json.loads(a).keys())
    assert keys == sorted(keys)


def test_report_config_echo_completeness():
    p = simulate(PoissonModel(1.0), BOX10, SeedSpec(303))
    rep = ks_statistic(p, L2, 1.0, POISSON_K, 0.5, 0.05)
    cfg = rep.config
    for key in (
        "alpha", "R", "gamma", "body", "estimator", "kernel", "bandwidth",
        "clamp", "window", "n_points", "null", "weight_v",
    ):
        assert key in cfg, key
    assert cfg["alpha"] == 0.5
    assert cfg["n_points"] == len(p)
    assert cfg["null"]["lambda0"] == 1.0
    # default bandwidth c^(-3/4) with c = 10
    assert cfg["bandwidth"] == pytest.approx(10.0**-0.75)
