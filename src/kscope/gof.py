"""Asymptotic goodness-of-fit tests built on scaled K-function comparisons.

One-sample statistics compare an observed pattern against a fully
specified hypothesis (intensity ``lam0`` plus K-function ``K0``); the
two-sample statistics compare two patterns observed on equal-volume
windows.  Each statistic converges, under the hypothesis and suitable
mixing, to a known multiple of either a single squared standard normal
(``chi_squared_1`` family) or the absolute value of a standard normal
(``half_normal`` family).  That multiple, the *limit constant*, depends
only on the structuring body, the radius interval and the chosen weight
function, so thresholds and p-values have closed forms.

Both kinds work on scaled K estimates, step functions of the
:class:`~kscope.estimate.KEstimate` type in scaled units.  A one-sample
statistic compares the estimate with the scaled hypothesized curve
(a :class:`~kscope.estimate.ScaledDelta`); a two-sample statistic merges
the jumps of the two estimates and needs no curve.

The integral (Cramer-von Mises type) statistics are computed piecewise
exactly: the empirical part is a step function, so on each piece the
integrand is a smooth function that is integrated in closed form when
the hypothesized curve is a pure power of r (Poisson) and by fixed-order
Gauss-Legendre quadrature otherwise.  The supremum (Kolmogorov-Smirnov
type) statistics evaluate a candidate set containing every jump corner
plus, for non-constant weights, refined interior maxima.  Because the
hypothesized K is nondecreasing and the weight nonincreasing, each piece
is bounded by its larger corner difference times the weight at its left
end; only the pieces whose bound reaches the best corner are searched
for interior maxima, and no other piece could change the result.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from enum import Enum

import numpy as np
from scipy import integrate, optimize, special

from .estimate import (
    EstimatorKind,
    KEstimate,
    KernelKind,
    ScaledDelta,
    _require_null_lambda,
    _run_ends,
    _Scaling,
    _scaled_k,
    _value_after,
    lambda_hat,
    lambda2_hat,
    restrict_pattern,
    scaled_delta,
    sigma2_hat,
)
from .geometry import (
    ObservationWindow,
    StructuringBody,
    _config_kwargs,
    body_to_config,
    body_volume,
    window_to_config,
)
from .pattern import PointPattern

__all__ = [
    "TestKind",
    "IntegralWeight",
    "SupWeight",
    "TestReport",
    "DegeneratePatternError",
    "NonpositiveVarianceError",
    "normal_cdf",
    "normal_quantile",
    "limit_constant",
    "p_value",
    "chi2_statistic",
    "cvm_statistic",
    "ks_statistic",
    "two_sample_cvm",
    "two_sample_ks",
    "one_sample_reports",
    "two_sample_reports",
]

SCHEMA_VERSION = 1


class TestKind(str, Enum):
    CHI2 = "chi2"
    CVM = "cvm"
    KS = "ks"
    TWO_CVM = "two_cvm"
    TWO_KS = "two_ks"


_CHI2_FAMILY = {TestKind.CHI2, TestKind.CVM, TestKind.TWO_CVM}
_TWO_SAMPLE = {TestKind.TWO_CVM, TestKind.TWO_KS}

CHI2_1 = "SCALED_CHI2_1"
HALF_NORMAL = "SCALED_HALF_NORMAL"


def _family(kind: TestKind) -> str:
    return CHI2_1 if kind in _CHI2_FAMILY else HALF_NORMAL


class DegeneratePatternError(ValueError):
    """DEGENERATE_PATTERN: too few points for the requested statistic."""


class NonpositiveVarianceError(ValueError):
    """NONPOSITIVE_VARIANCE: the variance estimate is not positive."""


def normal_cdf(x):
    """Standard normal distribution function, accurate to ~1e-16."""
    out = special.ndtr(np.asarray(x, dtype=float))
    return float(out) if np.ndim(out) == 0 else out


def normal_quantile(p):
    """Inverse of normal_cdf on (0, 1)."""
    arr = np.asarray(p, dtype=float)
    if np.any(arr <= 0.0) or np.any(arr >= 1.0):
        raise ValueError("quantile argument must lie strictly between 0 and 1")
    out = special.ndtri(arr)
    return float(out) if np.ndim(out) == 0 else out


@dataclass(frozen=True)
class IntegralWeight:
    """Weight measure V for the integral statistics.

    ``lebesgue`` is V(r) = r.  ``exp_density`` has density
    ``exp(-b r^(2d+1))`` with b > 0, which damps the large-radius part of
    the integrand; the exponent matches the r^(2d) growth of the
    integrand's variance so the limit constant stays finite for any R.
    """

    kind: str = "lebesgue"
    b: float | None = None

    def __post_init__(self):
        if self.kind not in ("lebesgue", "exp_density"):
            raise ValueError(f"unknown integral weight {self.kind!r}")
        if self.kind == "exp_density":
            if self.b is None or not (self.b > 0) or not math.isfinite(self.b):
                raise ValueError("exp_density requires a positive finite b")
        elif self.b is not None:
            raise ValueError("lebesgue weight takes no parameter")

    def density(self, r, d: int):
        if self.kind == "lebesgue":
            return np.ones_like(np.asarray(r, dtype=float))
        return np.exp(-self.b * np.asarray(r, dtype=float) ** (2 * d + 1))

    def integral_r2d(self, R: float, d: int) -> float:
        """Integral of r^(2d) dV(r) over [0, R], used by the limit constant."""
        if self.kind == "lebesgue":
            return R ** (2 * d + 1) / (2 * d + 1)
        val, _err = integrate.quad(
            lambda r: r ** (2 * d) * math.exp(-self.b * r ** (2 * d + 1)),
            0.0,
            R,
            epsabs=0.0,
            epsrel=1e-10,
            limit=200,
        )
        return val

    def to_config(self) -> dict:
        return {k: v for k, v in asdict(self).items() if v is not None}

    @staticmethod
    def from_config(cfg: dict) -> "IntegralWeight":
        return IntegralWeight(**_config_kwargs(IntegralWeight, cfg, "integral weight", ()))


@dataclass(frozen=True)
class SupWeight:
    """Weight function v for the supremum statistics.

    ``const_one`` is v = 1.  ``exp_decay`` is v(r) = exp(-a r) with
    a >= d / R, which shifts weight toward small radii while keeping
    ``r^d v(r)`` unimodal with its maximum inside [0, R].
    """

    kind: str = "const_one"
    a: float | None = None

    def __post_init__(self):
        if self.kind not in ("const_one", "exp_decay"):
            raise ValueError(f"unknown sup weight {self.kind!r}")
        if self.kind == "exp_decay":
            if self.a is None or not (self.a > 0) or not math.isfinite(self.a):
                raise ValueError("exp_decay requires a positive finite a")
        elif self.a is not None:
            raise ValueError("const_one weight takes no parameter")

    def validate_domain(self, R: float, d: int):
        if self.kind == "exp_decay" and self.a < d / R:
            raise ValueError(
                f"exp_decay rate a = {self.a} violates a >= d/R = {d / R:.6g}"
            )

    def eval(self, r):
        if self.kind == "const_one":
            return np.ones_like(np.asarray(r, dtype=float))
        return np.exp(-self.a * np.asarray(r, dtype=float))

    def sup_rd(self, R: float, d: int) -> float:
        """sup of r^d v(r) over [0, R], used by the limit constant."""
        if self.kind == "const_one":
            return R**d
        r_star = min(d / self.a, R)
        return r_star**d * math.exp(-self.a * r_star)

    def to_config(self) -> dict:
        return {k: v for k, v in asdict(self).items() if v is not None}

    @staticmethod
    def from_config(cfg: dict) -> "SupWeight":
        return SupWeight(**_config_kwargs(SupWeight, cfg, "sup weight", ()))

def limit_constant(
    kind: TestKind | str,
    body: StructuringBody,
    R: float | None = None,
    weight=None,
    n_radii: int | None = None,
) -> float:
    """Scale constant of the limiting law of a test statistic.

    chi2 uses ``4 k |B|^2 + 1`` with k the number of test radii; the
    integral statistics use ``4 |B|^2 int_0^R r^(2d) dV + 1``; the
    supremum statistics use ``2 |B| sup r^d v(r) + 1``.
    """
    kind = TestKind(kind)
    vol = body_volume(body)
    d = body.dimension
    if kind is TestKind.CHI2:
        if n_radii is None or n_radii < 1:
            raise ValueError("chi2 requires the number of test radii")
        return 4.0 * n_radii * vol**2 + 1.0
    if R is None or not (R > 0):
        raise ValueError("integral and supremum constants require R > 0")
    if kind in (TestKind.CVM, TestKind.TWO_CVM):
        weight = weight if weight is not None else IntegralWeight()
        if not isinstance(weight, IntegralWeight):
            raise TypeError("integral statistics take an IntegralWeight")
        return 4.0 * vol**2 * weight.integral_r2d(R, d) + 1.0
    weight = weight if weight is not None else SupWeight()
    if not isinstance(weight, SupWeight):
        raise TypeError("supremum statistics take a SupWeight")
    weight.validate_domain(R, d)
    return 2.0 * vol * weight.sup_rd(R, d) + 1.0


def p_value(statistic: float, limit_const: float, family: str) -> float:
    """Asymptotic p-value of a statistic under its limiting law.

    ``SCALED_CHI2_1`` uses ``2 (1 - Phi(sqrt(stat / c)))``,
    ``SCALED_HALF_NORMAL`` uses ``2 (1 - Phi(stat / c))``.
    """
    if statistic < 0 or not math.isfinite(statistic):
        raise ValueError("statistic must be a nonnegative finite float")
    if not (limit_const > 0):
        raise ValueError("limit constant must be positive")
    if family == CHI2_1:
        z = math.sqrt(statistic / limit_const)
    elif family == HALF_NORMAL:
        z = statistic / limit_const
    else:
        raise ValueError(f"unknown limit family {family!r}")
    return 2.0 * normal_cdf(-z)


@dataclass
class TestReport:
    """Outcome of one test: statistic, calibration and decision.

    ``decision`` is REJECT exactly when the statistic exceeds the
    threshold ``c z_(1-gamma/2)^2`` (chi-squared family) or
    ``c z_(1-gamma/2)`` (half-normal family); boundary ties accept.
    """

    test: str
    statistic: float
    limit_constant: float
    limit_family: str
    gamma: float
    threshold: float
    p_value: float
    decision: str
    config: dict = field(default_factory=dict)
    warnings: list = field(default_factory=list)

    def to_json(self) -> str:
        payload = {"schema_version": SCHEMA_VERSION, **asdict(self)}
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"

    @staticmethod
    def from_json(text: str) -> "TestReport":
        data = json.loads(text)
        return TestReport(**_config_kwargs(TestReport, data, "test report"))


def _require_gamma(gamma: float):
    if not (0.0 < gamma < 1.0):
        raise ValueError("gamma must lie strictly between 0 and 1")


def _threshold(kind: TestKind, c: float, gamma: float) -> float:
    """Rejection threshold ``c z^2`` (chi-squared family) or ``c z``
    (half-normal family), with z the normal quantile at 1 - gamma/2."""
    z = normal_quantile(1.0 - gamma / 2.0)
    return c * z * z if kind in _CHI2_FAMILY else c * z


def _finish(kind: TestKind, statistic: float, cal: _Calibration, gamma: float,
            base: dict, warnings: list) -> TestReport:
    """Report of one kind from its statistic and its resolved calibration."""
    c = cal.limit_constant
    threshold = _threshold(kind, c, gamma)
    pv = p_value(statistic, c, _family(kind))
    return TestReport(
        test=kind.value,
        statistic=float(statistic),
        limit_constant=float(c),
        limit_family=_family(kind),
        gamma=float(gamma),
        threshold=float(threshold),
        p_value=float(pv),
        decision="REJECT" if statistic > threshold else "ACCEPT",
        config={"test": kind.value, **base, **cal.echo},
        warnings=list(warnings),
    )


# ---------------------------------------------------------------------------
# piecewise machinery


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)


def _piece_boundaries(delta: ScaledDelta) -> tuple[np.ndarray, np.ndarray]:
    """Breakpoints 0 = t_0 < ... < t_m = R and the step value per piece.

    The jumps are strictly increasing in (0, R], so a piece starts at 0
    (where the step is 0) and at every jump below R.
    """
    k = delta.empirical
    m = int(np.searchsorted(k.jump_radii, delta.R))
    t = np.concatenate(([0.0], k.jump_radii[:m], [delta.R]))
    steps = np.concatenate(([0.0], k.jump_values[:m]))
    return t, steps


def _gl_integral(fvals: np.ndarray, halves: np.ndarray) -> float:
    return float(np.sum(halves * (fvals * _GL_WEIGHTS[None, :]).sum(axis=1)))


def _piece_masses(t: np.ndarray, weight: IntegralWeight, d: int) -> np.ndarray:
    """Mass of dV on each piece [t_k, t_k+1], by Gauss-Legendre in chunks.

    Chunking bounds the node arrays to 16 values per piece of one chunk.
    """
    lo, hi = t[:-1], t[1:]
    masses = np.empty(lo.size)
    chunk = 20000
    for start in range(0, lo.size, chunk):
        a = lo[start : start + chunk]
        b = hi[start : start + chunk]
        halves = (b - a) / 2.0
        r = (a + b)[:, None] / 2.0 + halves[:, None] * _GL_NODES[None, :]
        masses[start : start + chunk] = halves * (
            weight.density(r, d) * _GL_WEIGHTS[None, :]
        ).sum(axis=1)
    return masses


def _cvm_integral(delta: ScaledDelta, weight: IntegralWeight) -> float:
    """Integral of delta(r)^2 dV(r) over [0, R], exact per piece."""
    d = delta.dimension
    t, steps = _piece_boundaries(delta)
    lo, hi = t[:-1], t[1:]
    if weight.kind == "lebesgue" and delta.theory_power_beta is not None:
        beta = delta.theory_power_beta
        h = steps
        term0 = h * h * (hi - lo)
        p1 = d + 1
        p2 = 2 * d + 1
        term1 = -2.0 * h * beta * (hi**p1 - lo**p1) / p1
        term2 = beta * beta * (hi**p2 - lo**p2) / p2
        return float(np.sum(term0 + term1 + term2))
    total = 0.0
    chunk = 20000
    for start in range(0, lo.size, chunk):
        a = lo[start : start + chunk]
        b = hi[start : start + chunk]
        h = steps[start : start + chunk]
        halves = (b - a) / 2.0
        r = (a + b)[:, None] / 2.0 + halves[:, None] * _GL_NODES[None, :]
        resid = h[:, None] - np.asarray(delta.theoretical(r), dtype=float)
        total += _gl_integral(resid**2 * weight.density(r, d), halves)
    return total


def _ks_sup(delta: ScaledDelta, weight: SupWeight) -> float:
    """Supremum of |delta(r) v(r)| over [0, R].

    On a piece [lo, hi] the empirical part is a constant h and the
    hypothesized curve theta is nondecreasing, so h - theta(r) is monotone
    there; with v nonincreasing, every value on the piece is at most
    ``max(|h - theta(lo)|, |h - theta(hi)|) v(lo)``.  For constant v the
    corner candidates (each jump's value and left limit, both endpoints)
    therefore attain the sup.  For decaying v the corners give a first
    ``best``; a 64-point grid then searches for interior maxima, but only
    on the pieces whose bound reaches ``best (1 - 1e-6)``, the contender
    tolerance (less a further 1e-9 for rounding in theta and exp).  Any
    other piece can neither raise the sup nor become a contender, so
    pruning it changes neither the contenders nor the result.  Every
    contender is polished with bounded scalar optimization on the squared
    objective.
    """
    if weight.kind == "const_one":
        # corners read off views of the jumps, so the peak stays at scaled_delta's
        m = int(np.searchsorted(delta.empirical.jump_radii, delta.R))
        jumps = delta.empirical.jump_radii[:m]
        steps = delta.empirical.jump_values[:m]
        theo = np.asarray(delta.theoretical(jumps), dtype=float)
        theo_0, theo_r = np.asarray(
            delta.theoretical(np.array([0.0, delta.R])), dtype=float
        )
        last = steps[-1] if m else 0.0
        best = max(abs(float(theo_0)), abs(float(last - theo_r)))
        if m:
            diff = np.subtract(steps, theo)  # the value at each jump
            best = max(best, float(np.abs(diff, out=diff).max()))
            diff[0] = theo[0]  # the left limit at each jump
            np.subtract(steps[:-1], theo[1:], out=diff[1:])
            best = max(best, float(np.abs(diff, out=diff).max()))
        return best
    t, steps = _piece_boundaries(delta)
    theo = np.asarray(delta.theoretical(t), dtype=float)
    right = np.abs(steps - theo[:-1])
    left = np.abs(steps - theo[1:])
    vw = weight.eval(t)
    best = max(
        float((right * vw[:-1]).max(initial=0.0)),
        float((left * vw[1:]).max(initial=0.0)),
    )
    bound = np.maximum(right, left)
    bound *= vw[:-1]
    keep = np.flatnonzero(bound >= best * (1.0 - 1e-6) * (1.0 - 1e-9))
    frac = np.linspace(0.0, 1.0, 66)[1:-1]
    chunk = 20000
    piece_best = np.empty(keep.size)
    for start in range(0, keep.size, chunk):
        k = keep[start : start + chunk]
        a, b, h = t[k], t[k + 1], steps[k]
        r = a[:, None] + (b - a)[:, None] * frac[None, :]
        f = np.abs(
            (h[:, None] - np.asarray(delta.theoretical(r), dtype=float))
            * weight.eval(r)
        )
        piece_best[start : start + chunk] = f.max(axis=1)
    best = max(best, float(piece_best.max(initial=0.0)))
    # polish the contenders: bounded search on the smooth squared objective
    contenders = keep[piece_best >= best * (1.0 - 1e-6)]
    for k in contenders:
        h = float(steps[k])

        def neg_sq(r):
            resid = h - float(delta.theoretical(r))
            return -((resid * float(weight.eval(r))) ** 2)

        res = optimize.minimize_scalar(
            neg_sq,
            bounds=(float(t[k]), float(t[k + 1])),
            method="bounded",
            options={"xatol": 1e-13 * max(1.0, delta.R)},
        )
        best = max(best, math.sqrt(max(-res.fun, 0.0)))
    return best


# ---------------------------------------------------------------------------
# one-sample statistics


@dataclass(frozen=True)
class _Calibration:
    """A requested test kind resolved before estimation: the ``option``
    its statistic reads (the chi2 radii or the weight), that option's
    report ``echo`` and the ``limit_constant`` of its limit law."""

    option: object
    echo: dict
    limit_constant: float


def _checked_options(
    windows, body, alpha, R, bandwidth, gamma, kinds, radii, integral_weight,
    sup_weight, estimator,
) -> tuple[list, dict, list]:
    """Scaling record of each evaluation window, the :class:`_Calibration`
    of each requested kind, and the starting warnings.

    Every check on the test options runs here, before any pair search,
    in this order: gamma in (0, 1); per window, :meth:`_Scaling.of`'s
    alpha, R, scaled-domain and kernel-support checks; per kind, the
    estimator (two-sample kinds take ht or border), the chi2 radii
    (:func:`_chi2_radii`), then the weight's type and the sup weight's
    domain (:func:`limit_constant`).  Studies run it once per ladder.
    """
    _require_gamma(gamma)
    scalings = [_Scaling.of(w, body, alpha, R, bandwidth) for w in windows]
    calibrations = {}
    for kind in kinds:
        if kind in _TWO_SAMPLE and estimator is EstimatorKind.NAIVE:
            raise ValueError("two-sample tests support the ht and border estimators")
        n_radii = None
        if kind is TestKind.CHI2:
            option = _chi2_radii(radii, R)
            n_radii, echo = option.size, {"radii": option.tolist()}
        elif kind in (TestKind.CVM, TestKind.TWO_CVM):
            option = integral_weight if integral_weight is not None else IntegralWeight()
            echo = {"weight_V": option.to_config()}
        else:
            option = sup_weight if sup_weight is not None else SupWeight()
            echo = {"weight_v": option.to_config()}
        # chi2's constant reads only n_radii, the others only R and the weight
        c = limit_constant(kind, body, R, weight=option, n_radii=n_radii)
        calibrations[kind] = _Calibration(option, echo, c)
    warnings = []
    if alpha <= 0.25:
        warnings.append(
            "SMALL_ALPHA: alpha <= 1/4 is outside the regime where the "
            "scaled-domain conditions are verifiable; interpret with care"
        )
    return scalings, calibrations, warnings


def _clamped_sigma2(pat, kernel, scaling, clamp, warnings, label="") -> float:
    """sigma2_hat of pat with the record's bandwidth.

    A nonpositive value raises NONPOSITIVE_VARIANCE, or with clamping is
    replaced by ``max(sigma2_hat, lambda_hat)`` and noted in warnings.
    """
    s2 = sigma2_hat(pat, kernel=kernel, bandwidth=scaling.bandwidth)
    if s2 <= 0.0:
        if not clamp:
            raise NonpositiveVarianceError(
                f"NONPOSITIVE_VARIANCE: sigma2_hat{label} = {s2:.6g}; rerun with "
                "clamping enabled to substitute max(sigma2_hat, lambda_hat)"
            )
        warnings.append(
            f"NONPOSITIVE_VARIANCE: sigma2_hat{label} = {s2:.6g} clamped to "
            "max(sigma2_hat, lambda_hat)"
        )
        s2 = max(s2, lambda_hat(pat))
    return s2


def _base_config(
    body, alpha, R, gamma, estimator, window, kernel, scaling, clamp, extra_config
) -> dict:
    """Config echo shared by every report of one call, less the test kind."""
    cfg = {
        "alpha": alpha,
        "R": R,
        "gamma": gamma,
        "body": body_to_config(body),
        "estimator": estimator.value,
        "kernel": KernelKind(kernel).value,
        "bandwidth": scaling.bandwidth,
        "clamp": bool(clamp),
        "window": window_to_config(window),
    }
    cfg.update(extra_config or {})
    return cfg


def _chi2_radii(radii, R: float) -> np.ndarray:
    """Test radii of the chi2 statistic; the default is i R / 5, i = 1..5."""
    rr = np.asarray(
        radii if radii is not None else R * np.arange(1, 6) / 5.0, dtype=float
    )
    if rr.ndim != 1 or rr.size < 1:
        raise ValueError("chi2 radii must be a nonempty 1-d sequence")
    # written so that a NaN radius fails
    if not (rr[0] > 0 and np.all(np.diff(rr) > 0) and rr[-1] <= R * (1 + 1e-12)):
        raise ValueError("chi2 radii must be strictly increasing in (0, R]")
    return rr


def one_sample_reports(
    p: PointPattern,
    body: StructuringBody,
    null_lambda: float,
    null_k,
    alpha: float,
    R: float,
    tests=(TestKind.KS,),
    gamma: float = 0.05,
    integral_weight: IntegralWeight | None = None,
    sup_weight: SupWeight | None = None,
    radii=None,
    estimator: EstimatorKind | str = EstimatorKind.HT,
    window: ObservationWindow | None = None,
    kernel: KernelKind | str = KernelKind.INDICATOR,
    bandwidth: float | None = None,
    clamp: bool = False,
    extra_config: dict | None = None,
) -> dict:
    """Compute several one-sample tests from one shared estimation pass.

    Returns a dict mapping test kind value to :class:`TestReport`.  The
    simulated pattern, the K estimate and the variance estimate are
    computed once, so requesting ks and cvm together costs barely more
    than one of them.
    """
    kinds = [TestKind(t) for t in tests]
    if any(t in _TWO_SAMPLE for t in kinds):
        raise ValueError("two-sample kinds are not valid here")
    estimator = EstimatorKind(estimator)
    eval_window = window if estimator is EstimatorKind.NAIVE else p.window
    if eval_window is None:
        raise ValueError("the naive estimator requires an evaluation window")
    _require_null_lambda(null_lambda)
    (scaling,), calibrations, warnings = _checked_options(
        [eval_window], body, alpha, R, bandwidth, gamma, kinds, radii,
        integral_weight, sup_weight, estimator,
    )
    obs = restrict_pattern(p, eval_window) if estimator is EstimatorKind.NAIVE else p
    lam = lambda_hat(obs)
    if len(obs) <= 1:
        # n <= 1 leaves both lambda2_hat and sigma2_hat without information;
        # with clamping enabled the denominators fall back to their values
        # under the hypothesized intensity so the statistic stays finite
        # (and large, since the curve term keeps its full deviation)
        if not clamp:
            raise DegeneratePatternError(
                "DEGENERATE_PATTERN: one-sample statistics require at least "
                f"two points in the evaluation window, got {len(obs)}; "
                "enable clamping to fall back to null-based denominators"
            )
        warnings.append(
            f"DEGENERATE_PATTERN: {len(obs)} point(s); denominators fell "
            "back to the hypothesized intensity"
        )
        lam_den, lam2, s2 = null_lambda, null_lambda**2, max(lam, null_lambda)
    else:
        lam_den, lam2 = lam, lambda2_hat(obs)
        s2 = _clamped_sigma2(obs, kernel, scaling, clamp, warnings)
    vol = scaling.volume
    delta = scaled_delta(
        p, body, null_lambda, null_k, alpha, R, kind=estimator, window=window
    )
    count_sq = vol * (lam - null_lambda) ** 2 / s2
    d = body.dimension
    base = _base_config(
        body, alpha, R, gamma, estimator, eval_window, kernel, scaling, clamp,
        extra_config,
    )
    base["n_points"] = len(obs)
    base["null"] = {
        "lambda0": null_lambda,
        "k0": getattr(null_k, "description", "custom"),
    }
    reports = {}
    for t, cal in calibrations.items():
        if t is TestKind.CHI2:
            rr = cal.option
            dvals = delta.eval(rr)
            prev = np.concatenate(([0.0], dvals[:-1]))
            denom = rr**d - np.concatenate(([0.0], rr[:-1])) ** d
            stat = float(np.sum(((dvals - prev) / denom) ** 2)) / (lam2 * s2) + count_sq
        elif t is TestKind.CVM:
            stat = _cvm_integral(delta, cal.option) / (lam2 * s2) + count_sq
        else:
            stat = _ks_sup(delta, cal.option) / (lam_den * math.sqrt(s2)) + math.sqrt(
                vol
            ) * abs(lam - null_lambda) / math.sqrt(s2)
        reports[t.value] = _finish(t, stat, cal, gamma, base, warnings)
    return reports


def chi2_statistic(
    p: PointPattern,
    body: StructuringBody,
    null_lambda: float,
    null_k,
    alpha: float,
    R: float | None = None,
    radii=None,
    gamma: float = 0.05,
    **kwargs,
) -> TestReport:
    """Chi-square type test from studentized increments at k radii.

    The statistic sums the squared increments of the scaled comparison
    process between consecutive radii (divided by the increments of r^d),
    studentizes by ``lambda2_hat * sigma2_hat`` and adds the squared
    studentized count deviation; its null limit is
    ``(4 k |B|^2 + 1) chi^2_1``.  Default radii are i R / 5; when radii
    are given explicitly R defaults to the largest of them.
    """
    if R is None:
        if radii is None:
            raise ValueError("chi2 requires radii or R")
        R = float(np.max(np.asarray(radii, dtype=float)))
    return one_sample_reports(
        p, body, null_lambda, null_k, alpha, R,
        tests=(TestKind.CHI2,), gamma=gamma, radii=radii, **kwargs,
    )[TestKind.CHI2.value]


def cvm_statistic(
    p: PointPattern,
    body: StructuringBody,
    null_lambda: float,
    null_k,
    alpha: float,
    R: float,
    weight: IntegralWeight | None = None,
    gamma: float = 0.05,
    **kwargs,
) -> TestReport:
    """Integral (Cramer-von Mises type) one-sample test.

    Integrates the squared scaled comparison process against dV over
    [0, R], studentizes, and adds the squared studentized count
    deviation; its null limit is ``(4 |B|^2 int r^(2d) dV + 1) chi^2_1``.
    """
    return one_sample_reports(
        p, body, null_lambda, null_k, alpha, R,
        tests=(TestKind.CVM,), gamma=gamma, integral_weight=weight, **kwargs,
    )[TestKind.CVM.value]


def ks_statistic(
    p: PointPattern,
    body: StructuringBody,
    null_lambda: float,
    null_k,
    alpha: float,
    R: float,
    weight: SupWeight | None = None,
    gamma: float = 0.05,
    **kwargs,
) -> TestReport:
    """Supremum (Kolmogorov-Smirnov type) one-sample test.

    Takes the weighted sup of the absolute scaled comparison process over
    [0, R], studentizes by ``lambda_hat * sqrt(sigma2_hat)`` and adds the
    studentized absolute count deviation; its null limit is
    ``(2 |B| sup r^d v + 1) |N(0,1)|``.  The hypothesized K-function
    ``null_k`` must be nondecreasing, as every K-function is; the
    weighted sup relies on it to bound each piece by its corners.
    """
    return one_sample_reports(
        p, body, null_lambda, null_k, alpha, R,
        tests=(TestKind.KS,), gamma=gamma, sup_weight=weight, **kwargs,
    )[TestKind.KS.value]


# ---------------------------------------------------------------------------
# two-sample statistics


def _merged_steps(ka: KEstimate, kb: KEstimate):
    """Breakpoints of both step functions and their difference per piece.

    Both jump sets are sorted, so a stable argsort of their concatenation
    is one merge.  Counting the jumps of ``ka`` along it gives, at each
    merged jump, how many jumps of either side lie at or below it; the
    last of each run of equal radii has passed every jump of that tie.
    """
    ra = ka.jump_radii
    merged = np.concatenate((ra, kb.jump_radii))
    order = np.argsort(merged, kind="stable")
    r = merged[order]
    starts = np.flatnonzero(_run_ends(r) & (r < ka.r_max))
    n_a = np.cumsum(order < ra.size)[starts]
    n_b = starts + 1 - n_a
    t = np.concatenate(([0.0], r[starts], [ka.r_max]))
    diff = np.concatenate((
        [0.0],
        _value_after(ka.jump_values, n_a) - _value_after(kb.jump_values, n_b),
    ))
    return t, diff


def two_sample_reports(
    pa: PointPattern,
    pb: PointPattern,
    body: StructuringBody,
    alpha: float,
    R: float,
    tests=(TestKind.TWO_KS,),
    gamma: float = 0.05,
    integral_weight: IntegralWeight | None = None,
    sup_weight: SupWeight | None = None,
    estimator: EstimatorKind | str = EstimatorKind.HT,
    kernel: KernelKind | str = KernelKind.INDICATOR,
    bandwidth: float | None = None,
    clamp: bool = False,
    extra_config: dict | None = None,
) -> dict:
    """Compute several two-sample tests from one shared estimation pass.

    The hypothesis is that both patterns come from processes with the
    same intensity and K-function; no theoretical curve is needed because
    the two empirical estimates are compared directly.
    """
    kinds = [TestKind(t) for t in tests]
    if not all(t in _TWO_SAMPLE for t in kinds):
        raise ValueError("only two-sample kinds are valid here")
    estimator = EstimatorKind(estimator)
    vol_a, vol_b = pa.window.volume(), pb.window.volume()
    if abs(vol_a - vol_b) > 1e-9 * max(vol_a, vol_b):
        raise ValueError(
            f"two-sample tests require equal window volumes, got {vol_a} and {vol_b}"
        )
    scalings, calibrations, warnings = _checked_options(
        [pa.window, pb.window], body, alpha, R, bandwidth, gamma, kinds, None,
        integral_weight, sup_weight, estimator,
    )
    sides = []
    for label, pat, scaling in zip("ab", (pa, pb), scalings):
        s2 = (
            _clamped_sigma2(pat, kernel, scaling, clamp, warnings, f"({label})")
            if len(pat)
            else 0.0
        )
        sides.append((lambda_hat(pat), lambda2_hat(pat), s2))
    (lam_a, lam2_a, s2_a), (lam_b, lam2_b, s2_b) = sides
    den_curve = lam2_a * s2_a + lam2_b * s2_b
    den_count = s2_a + s2_b
    if den_curve <= 0.0 or den_count <= 0.0:
        raise DegeneratePatternError(
            "DEGENERATE_PATTERN: two-sample statistics require at least two "
            "points in at least one pattern"
        )
    ka = _scaled_k(pa, body, R, estimator, None, scalings[0])
    kb = _scaled_k(pb, body, R, estimator, None, scalings[1])
    t, diff = _merged_steps(ka, kb)
    # symmetric in (a, b) even when the two volumes differ in the last bit
    vol = 0.5 * (vol_a + vol_b)
    count_sq = vol * (lam_a - lam_b) ** 2 / den_count
    d = body.dimension
    base = _base_config(
        body, alpha, R, gamma, estimator, pa.window, kernel, scalings[0], clamp,
        extra_config,
    )
    base["n_points"] = [len(pa), len(pb)]
    base["window_b"] = window_to_config(pb.window)
    reports = {}
    for kind, cal in calibrations.items():
        if kind is TestKind.TWO_CVM:
            if cal.option.kind == "lebesgue":
                masses = np.diff(t)
            else:
                masses = _piece_masses(t, cal.option, d)
            stat = float(np.sum(diff**2 * masses)) / den_curve + count_sq
        else:
            # the difference is piecewise constant and v is non-increasing,
            # so each piece attains its sup at the left endpoint
            sup = float(np.max(np.abs(diff) * cal.option.eval(t[:-1]), initial=0.0))
            stat = sup / math.sqrt(den_curve) + math.sqrt(vol) * abs(
                lam_a - lam_b
            ) / math.sqrt(den_count)
        reports[kind.value] = _finish(kind, stat, cal, gamma, base, warnings)
    return reports


def two_sample_cvm(
    pa: PointPattern,
    pb: PointPattern,
    body: StructuringBody,
    alpha: float,
    R: float,
    weight: IntegralWeight | None = None,
    gamma: float = 0.05,
    **kwargs,
) -> TestReport:
    """Integral two-sample test for equality of intensity and K-function."""
    return two_sample_reports(
        pa, pb, body, alpha, R, tests=(TestKind.TWO_CVM,), gamma=gamma,
        integral_weight=weight, **kwargs,
    )[TestKind.TWO_CVM.value]


def two_sample_ks(
    pa: PointPattern,
    pb: PointPattern,
    body: StructuringBody,
    alpha: float,
    R: float,
    weight: SupWeight | None = None,
    gamma: float = 0.05,
    **kwargs,
) -> TestReport:
    """Supremum two-sample test for equality of intensity and K-function."""
    return two_sample_reports(
        pa, pb, body, alpha, R, tests=(TestKind.TWO_KS,), gamma=gamma,
        sup_weight=weight, **kwargs,
    )[TestKind.TWO_KS.value]
