"""Independent oracle for the benchmark's correctness checks.

Nothing here imports kscope.  Pairs come from ``scipy.spatial.cKDTree``,
set covariances and limit constants from their closed forms, and normal
quantiles and p-values from ``statistics.NormalDist``.  Windows are plain
tuples: ``("box", lower, upper)`` or ``("disk", center, radius)``.

Every K estimate here is the Horvitz-Thompson sum over ordered pairs,
accumulated as ``2 / |W cap (W - y)|`` per unordered pair, of the pairs
at gauge distance at most ``u``; the scaled contrast is
``h(r) - theta(r)`` with ``h(r) = |W|^(1/2 - alpha) Khat(c^alpha r)``.
"""

from __future__ import annotations

import math
from statistics import NormalDist

import numpy as np
from scipy import special
from scipy.spatial import cKDTree

EPS = np.finfo(float).eps / 2.0  # unit roundoff of float64

_P = {"l1": 1, "l2": 2, "linf": np.inf}
_STD = NormalDist()


# -- geometry ---------------------------------------------------------------


def box(lower, upper):
    return ("box", np.asarray(lower, float), np.asarray(upper, float))


def disk(center, radius):
    return ("disk", np.asarray(center, float), float(radius))


def volume(window) -> float:
    kind, a, b = window
    if kind == "box":
        return float(np.prod(b - a))
    return math.pi * b * b


def dimension(window) -> int:
    return window[1].size


def set_covariance(window, diffs: np.ndarray) -> np.ndarray:
    """``|W cap (W - y)|`` in closed form for each row y of diffs."""
    kind, a, b = window
    if kind == "box":
        return np.prod(np.maximum((b - a) - np.abs(diffs), 0.0), axis=1)
    u = np.sqrt((diffs * diffs).sum(axis=1))
    q = np.minimum(u / (2.0 * b), 1.0)
    lens = 2.0 * b * b * (np.arccos(q) - q * np.sqrt(1.0 - q * q))
    return np.maximum(lens, 0.0)


def body_volume(shape: str, d: int) -> float:
    """Volume of the unit ball of that shape."""
    if shape == "l1":
        return 2.0**d / math.factorial(d)
    if shape == "l2":
        return math.pi ** (d / 2.0) / math.gamma(d / 2.0 + 1.0)
    return 2.0**d


def gauge(diffs: np.ndarray, shape: str) -> np.ndarray:
    """Gauge norm of the unit ball of that shape."""
    return np.linalg.norm(diffs, ord=_P[shape], axis=1)


# -- pairs and the K step function -----------------------------------------


def pairs(points: np.ndarray, shape: str, radius: float):
    """Unordered index pairs (i < j) at p-norm distance <= radius."""
    if len(points) < 2:
        return np.zeros((0, 2), dtype=np.int64)
    tree = cKDTree(points)
    return tree.query_pairs(radius, p=_P[shape], output_type="ndarray")


class KStep:
    """Horvitz-Thompson ``lam^2 K_B`` on [0, u_max] for a unit ball B."""

    def __init__(self, points, window, shape, u_max):
        ij = pairs(points, shape, u_max)
        diffs = points[ij[:, 1]] - points[ij[:, 0]]
        dist = gauge(diffs, shape)
        weight = 2.0 / set_covariance(window, diffs)
        order = np.argsort(dist)
        self.radii = dist[order]
        self.values = np.cumsum(weight[order])
        self.ordered_pairs = 2 * len(ij)
        self.jumps = int(np.unique(self.radii).size)


def sigma2(points, window) -> tuple[float, float, int]:
    """Indicator-kernel variance estimate at the default bandwidth.

    Returns the estimate, the sum of the magnitudes of its terms (which
    sets the rounding tolerance of any value computed from it) and the
    number of ordered pairs it sums.
    """
    n, d = points.shape
    vol = volume(window)
    c = vol ** (1.0 / d)
    support = c**-0.75 * c
    ij = pairs(points, "l2", support)
    diffs = points[ij[:, 1]] - points[ij[:, 0]]
    pair_term = float(np.sum(2.0 / set_covariance(window, diffs)))
    lam = n / vol
    lam2 = n * (n - 1) / vol**2
    mass = lam2 * support**d * body_volume("l2", d)
    return lam + pair_term - mass, lam + pair_term + mass, 2 * len(ij)


# -- calibration ------------------------------------------------------------


CHI2_FAMILY = {"chi2", "cvm", "two_cvm"}


def limit_constant(test, shape, d, R=None, n_radii=None, sup_a=None, int_b=None):
    """Closed-form limit constants (lebesgue / const_one weights unless given)."""
    vol_b = body_volume(shape, d)
    if test == "chi2":
        return 4.0 * n_radii * vol_b**2 + 1.0
    if test in ("cvm", "two_cvm"):
        if int_b is None:
            return 4.0 * vol_b**2 * R ** (2 * d + 1) / (2 * d + 1) + 1.0
        # int_0^R r^(2d) exp(-b r^(2d+1)) dr, exactly
        m = 2 * d + 1
        return 4.0 * vol_b**2 * (-math.expm1(-int_b * R**m)) / (m * int_b) + 1.0
    if sup_a is None:
        return 2.0 * vol_b * R**d + 1.0
    r_star = min(d / sup_a, R)
    return 2.0 * vol_b * r_star**d * math.exp(-sup_a * r_star) + 1.0


def threshold(test, c, gamma) -> float:
    z = _STD.inv_cdf(1.0 - gamma / 2.0)
    return c * z * z if test in CHI2_FAMILY else c * z


def p_value(test, statistic, c) -> float:
    z = math.sqrt(statistic / c) if test in CHI2_FAMILY else statistic / c
    return 2.0 * _STD.cdf(-z)


# -- integrals of piecewise functions against exp(-b r^m) -------------------


def exp_power_moment(k: int, b: float, m: int, lo, hi):
    """``int_lo^hi r^k exp(-b r^m) dr`` in closed form, elementwise."""
    s = (k + 1) / m
    scale = special.gamma(s) / (m * b**s)
    return scale * (special.gammainc(s, b * hi**m) - special.gammainc(s, b * lo**m))


_GL24 = np.polynomial.legendre.leggauss(24)


def gauss_legendre(f, lo, hi) -> float:
    """Sum over pieces of a 24-point Gauss-Legendre rule of f."""
    nodes, weights = _GL24
    half = (hi - lo) / 2.0
    r = (lo + hi)[:, None] / 2.0 + half[:, None] * nodes[None, :]
    return float(np.sum(half * (f(r) * weights[None, :]).sum(axis=1)))


# -- the one- and two-sample statistics ------------------------------------


class Contrast:
    """Scaled empirical curve h and its breakpoints for one pattern."""

    def __init__(self, points, window, shape, alpha, R):
        d = dimension(window)
        self.vol = volume(window)
        self.n = len(points)
        self.c_alpha = self.vol ** (alpha / d)
        self.scale = self.vol ** (0.5 - alpha)
        self.R = R
        self.d = d
        self.k = KStep(points, window, shape, self.c_alpha * R)
        # jumps in scaled units, as the tests see them
        self.t = np.minimum(self.k.radii / self.c_alpha, R)
        self.hv = self.scale * np.concatenate(([0.0], self.k.values))
        self.lam = self.n / self.vol
        self.lam2 = self.n * (self.n - 1) / self.vol**2
        self.s2, self.s2_mag, self.s2_pairs = sigma2(points, window)

    def h(self, r):
        return self.hv[np.searchsorted(self.t, r, side="right")]

    def breakpoints(self) -> np.ndarray:
        return np.unique(np.concatenate(([0.0], self.t, [self.R])))

    def clamp_s2(self) -> float:
        """The documented clamp: a nonpositive estimate becomes lambda_hat."""
        return self.s2 if self.s2 > 0.0 else self.lam


def sup_const(con: Contrast, theta) -> float:
    """Exact ``sup |h - theta|`` for increasing theta: corners of every piece."""
    t = con.breakpoints()
    h = con.h(t[:-1])
    th = theta(t)
    return float(max(np.max(np.abs(h - th[:-1])), np.max(np.abs(h - th[1:]))))


def sup_weighted_bracket(con: Contrast, theta, a: float, n_grid: int):
    """Bracket ``[lower, upper]`` on ``sup |h - theta| exp(-a r)``.

    ``lower`` is the dense-grid maximum.  On a grid cell [g, g'] h and theta
    are nondecreasing and the weight decreasing, so the cell's supremum is
    at most ``exp(-a g) max(|h(g') - theta(g)|, |h(g) - theta(g')|)``: the
    grid value plus the rise of h and theta over one cell.
    """
    g = np.linspace(0.0, con.R, n_grid)
    hg, tg, vg = con.h(g), theta(g), np.exp(-a * g)
    lower = float(np.max(np.abs(hg - tg) * vg))
    rise = np.maximum(np.abs(hg[1:] - tg[:-1]), np.abs(hg[:-1] - tg[1:]))
    upper = float(np.max(rise * vg[:-1]))
    return lower, upper


def cvm_power(con: Contrast, beta: float, b: float | None) -> tuple[float, float]:
    """``int_0^R (h - beta r^d)^2 dV`` in closed form, and its magnitude."""
    t = con.breakpoints()
    lo, hi = t[:-1], t[1:]
    h = con.h(lo)
    d = con.d
    if b is None:
        i0 = hi - lo
        i1 = (hi ** (d + 1) - lo ** (d + 1)) / (d + 1)
        i2 = (hi ** (2 * d + 1) - lo ** (2 * d + 1)) / (2 * d + 1)
    else:
        m = 2 * d + 1
        i0 = exp_power_moment(0, b, m, lo, hi)
        i1 = exp_power_moment(d, b, m, lo, hi)
        i2 = exp_power_moment(2 * d, b, m, lo, hi)
    terms = h * h * i0 - 2.0 * h * beta * i1 + beta * beta * i2
    mag = h * h * i0 + 2.0 * np.abs(h) * beta * i1 + beta * beta * i2
    return float(np.sum(terms)), float(np.sum(mag))


def cvm_quadrature(con: Contrast, theta, b: float) -> float:
    """``int_0^R (h - theta)^2 exp(-b r^(2d+1)) dr`` by 24-point rules per piece."""
    t = con.breakpoints()
    lo, hi = t[:-1], t[1:]
    h = con.h(lo)
    m = 2 * con.d + 1
    idx = np.arange(lo.size)[:, None]

    def f(r):
        return (h[idx] - theta(r)) ** 2 * np.exp(-b * r**m)

    return gauss_legendre(f, lo, hi)


def chi2_sum(con: Contrast, theta, radii) -> tuple[float, float]:
    """Sum of squared studentizable increments, and its magnitude."""
    radii = np.asarray(radii, float)
    h, th = con.h(radii), theta(radii)
    delta = h - th
    prev = np.concatenate(([0.0], delta[:-1]))
    denom = radii**con.d - np.concatenate(([0.0], radii[:-1])) ** con.d
    x = (delta - prev) / denom
    reach = np.abs(h) + np.abs(th)
    reach = reach + np.concatenate(([0.0], reach[:-1]))
    return float(np.sum(x * x)), float(np.sum(2.0 * np.abs(x) * reach / denom))


def two_sample_parts(ca: Contrast, cb: Contrast, sup_a=None, int_b=None):
    """(sup |diff| v, int diff^2 dV) of the step function diff = h_a - h_b.

    v is 1 or exp(-a r), and dV is dr or exp(-b r^(2d+1)) dr.
    """
    t = np.unique(np.concatenate((ca.breakpoints(), cb.breakpoints())))
    lo, hi = t[:-1], t[1:]
    diff = ca.h(lo) - cb.h(lo)
    v = np.ones(lo.size) if sup_a is None else np.exp(-sup_a * lo)
    sup = float(np.max(np.abs(diff) * v))
    if int_b is None:
        masses = hi - lo
    else:
        masses = exp_power_moment(0, int_b, 2 * ca.d + 1, lo, hi)
    return sup, float(np.sum(diff * diff * masses))


# -- whole statistics with their rounding tolerance -------------------------


def _tolerance(n_terms: int, magnitude: float) -> float:
    """Rounding allowance for a float64 sum of n_terms terms of that magnitude.

    Rounding errors of a long sum grow like sqrt(n) unit roundoffs of the
    sum of magnitudes; the factor 64 covers the gap to that typical growth
    and the few operations applied to the sum afterwards.
    """
    return 64.0 * math.sqrt(n_terms) * EPS * magnitude


def one_sample(con: Contrast, test, lam0, theta, beta=None, radii=None,
               sup_a=None, int_b=None, n_grid=2**18):
    """``(lower, upper, tol)``: the statistic lies in [lower - tol, upper + tol].

    lower == upper except for the exp_decay KS statistic, whose supremum
    the oracle brackets on a dense grid.
    """
    s2 = con.clamp_s2()
    count = con.lam - lam0
    n_terms = con.k.ordered_pairs + con.s2_pairs + con.breakpoints().size
    h_max = float(con.h(con.R))
    span = h_max + abs(float(theta(con.R)))
    if test == "ks":
        den = con.lam * math.sqrt(s2)
        if sup_a is None:
            lo = hi = sup_const(con, theta)
        else:
            lo, hi = sup_weighted_bracket(con, theta, sup_a, n_grid)
        extra = math.sqrt(con.vol) * abs(count) / math.sqrt(s2)
        lo, hi = lo / den + extra, hi / den + extra
        mag_a = span
    else:
        den = con.lam2 * s2
        if test == "cvm":
            if beta is not None:
                a, mag_a = cvm_power(con, beta, int_b)
            else:
                a = cvm_quadrature(con, theta, int_b)
                mag_a = span * span * con.R
        else:
            a, mag_a = chi2_sum(con, theta, radii)
        lo = hi = a / den + con.vol * count * count / s2
    mag = mag_a / den + hi * con.s2_mag / s2
    return lo, hi, _tolerance(n_terms, mag)


def two_sample(ca: Contrast, cb: Contrast, test, sup_a=None, int_b=None):
    """``(value, tol)`` of a two-sample statistic."""
    s2a, s2b = ca.clamp_s2(), cb.clamp_s2()
    den_curve = ca.lam2 * s2a + cb.lam2 * s2b
    den_count = s2a + s2b
    vol = 0.5 * (ca.vol + cb.vol)
    sup, integral = two_sample_parts(ca, cb, sup_a, int_b)
    span = float(ca.h(ca.R)) + float(cb.h(cb.R))
    gap = ca.lam - cb.lam
    if test == "two_ks":
        value = sup / math.sqrt(den_curve) + math.sqrt(vol) * abs(gap) / math.sqrt(den_count)
        mag_a = span / math.sqrt(den_curve)
    else:
        value = integral / den_curve + vol * gap * gap / den_count
        mag_a = span * span * ca.R / den_curve
    n_terms = (ca.k.ordered_pairs + cb.k.ordered_pairs + ca.s2_pairs + cb.s2_pairs
               + ca.breakpoints().size + cb.breakpoints().size)
    mag = mag_a + value * (ca.s2_mag / s2a + cb.s2_mag / s2b)
    return value, _tolerance(n_terms, mag)
