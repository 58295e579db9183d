"""The oracle against O(n^2) brute force and numerical integration at small n.

Run with ``python3 -m pytest bench/test_oracle.py``.
"""

import math

import numpy as np
import pytest
from scipy import integrate

import oracle as O

WINDOWS = [O.box([0, 0], [9, 7]), O.disk([1, -2], 6.0)]


def _points(window, n, seed):
    rng = np.random.default_rng(seed)
    kind, a, b = window
    if kind == "box":
        return a + rng.random((n, 2)) * (b - a)
    r = b * np.sqrt(rng.random(n))
    t = 2 * math.pi * rng.random(n)
    return a + np.column_stack((r * np.cos(t), r * np.sin(t)))


def _brute_pairs(points, shape, radius):
    return {
        (i, j)
        for i in range(len(points))
        for j in range(i + 1, len(points))
        if np.linalg.norm(points[j] - points[i], ord=O._P[shape]) <= radius
    }


def _brute_k(points, window, shape, u):
    total = 0.0
    for i in range(len(points)):
        for j in range(len(points)):
            y = points[j] - points[i]
            if i != j and np.linalg.norm(y, ord=O._P[shape]) <= u:
                total += 1.0 / O.set_covariance(window, y[None, :])[0]
    return total


@pytest.mark.parametrize("shape", ["l1", "l2", "linf"])
@pytest.mark.parametrize("dim", [2, 3])
def test_pairs_match_brute_force(shape, dim):
    pts = np.random.default_rng(dim).random((120, dim)) * 5.0
    got = {tuple(p) for p in O.pairs(pts, shape, 1.3).tolist()}
    assert got == _brute_pairs(pts, shape, 1.3)


@pytest.mark.parametrize("window", WINDOWS, ids=["box", "disk"])
def test_set_covariance_matches_area_count(window):
    # count grid cells of W that stay in W after the shift
    kind, a, b = window
    lo, hi = (a, b) if kind == "box" else (a - b, a + b)
    h = 0.01
    xs = np.arange(lo[0] + h / 2, hi[0], h)
    ys = np.arange(lo[1] + h / 2, hi[1], h)
    gx, gy = np.meshgrid(xs, ys)
    grid = np.column_stack((gx.ravel(), gy.ravel()))

    def inside(p):
        if kind == "box":
            return np.all((p >= a) & (p <= b), axis=1)
        return ((p - a) ** 2).sum(axis=1) <= b * b

    base = inside(grid)
    for y in ([0.0, 0.0], [1.5, -0.7], [-3.0, 2.2]):
        area = np.count_nonzero(base & inside(grid + np.asarray(y))) * h * h
        exact = O.set_covariance(window, np.asarray([y]))[0]
        assert exact == pytest.approx(area, rel=5e-3)


@pytest.mark.parametrize("window", WINDOWS, ids=["box", "disk"])
@pytest.mark.parametrize("shape", ["l1", "l2", "linf"])
def test_k_step_matches_double_loop(window, shape):
    pts = _points(window, 60, 7)
    k = O.KStep(pts, window, shape, 1.5)
    for u in (0.4, 0.9, 1.5):
        got = k.values[np.searchsorted(k.radii, u, side="right") - 1]
        assert got == pytest.approx(_brute_k(pts, window, shape, u), rel=1e-12)


@pytest.mark.parametrize("window", WINDOWS, ids=["box", "disk"])
def test_sigma2_matches_double_loop(window):
    pts = _points(window, 80, 3)
    vol = O.volume(window)
    support = vol**0.5 * vol ** (-0.75 / 2)
    n = len(pts)
    brute = (n / vol + _brute_k(pts, window, "l2", support)
             - n * (n - 1) / vol**2 * math.pi * support**2)
    assert O.sigma2(pts, window)[0] == pytest.approx(brute, rel=1e-12)


def test_sup_const_matches_dense_evaluation():
    pts = _points(WINDOWS[0], 50, 11)
    con = O.Contrast(pts, WINDOWS[0], "l2", 0.5, 1.0)

    def theta(r):
        return 3.0 * np.asarray(r, float) ** 2

    # left limits at every breakpoint and values on a dense grid
    t = con.breakpoints()
    r = np.concatenate((np.linspace(0, 1, 200001), t, np.nextafter(t[1:], 0)))
    dense = np.max(np.abs(con.h(r) - theta(r)))
    assert O.sup_const(con, theta) == pytest.approx(dense, rel=1e-6)


def test_weighted_bracket_contains_dense_supremum():
    pts = _points(WINDOWS[1], 70, 5)
    con = O.Contrast(pts, WINDOWS[1], "l2", 0.5, 1.0)

    def theta(r):
        return 2.0 * np.asarray(r, float) ** 2

    lo, hi = O.sup_weighted_bracket(con, theta, 4.0, 4097)
    r = np.linspace(0, 1, 2_000_001)
    dense = np.max(np.abs(con.h(r) - theta(r)) * np.exp(-4.0 * r))
    assert lo <= dense <= hi


def test_integrals_match_quad():
    for k in (0, 2, 4):
        got = O.exp_power_moment(k, 2.0, 5, np.array([0.1]), np.array([0.9]))[0]
        want = integrate.quad(lambda r: r**k * math.exp(-2.0 * r**5), 0.1, 0.9,
                              epsabs=0, epsrel=1e-13)[0]
        assert got == pytest.approx(want, rel=1e-12)
    c = O.limit_constant("cvm", "l2", 2, R=1.0, int_b=2.0)
    val = integrate.quad(lambda r: r**4 * math.exp(-2.0 * r**5), 0, 1, epsrel=1e-13)[0]
    assert c == pytest.approx(4.0 * math.pi**2 * val + 1.0, rel=1e-12)
    lo, hi = np.array([0.0, 0.3]), np.array([0.3, 1.0])
    assert O.gauss_legendre(lambda r: np.cos(r), lo, hi) == pytest.approx(math.sin(1.0))


def test_cvm_closed_form_matches_quadrature():
    pts = _points(WINDOWS[0], 60, 2)
    con = O.Contrast(pts, WINDOWS[0], "l2", 0.5, 1.0)
    beta = 2.5

    def theta(r):
        return beta * np.asarray(r, float) ** 2

    exact, _ = O.cvm_power(con, beta, 2.0)
    assert O.cvm_quadrature(con, theta, 2.0) == pytest.approx(exact, rel=1e-12)


def test_calibration_closed_forms():
    assert O.limit_constant("ks", "linf", 2, R=1.0) == 9.0
    assert O.limit_constant("chi2", "l1", 2, n_radii=5) == 81.0
    z = 1.959963984540054
    assert O.threshold("ks", 9.0, 0.05) == pytest.approx(9.0 * z, rel=1e-12)
    assert O.threshold("cvm", 2.0, 0.05) == pytest.approx(2.0 * z * z, rel=1e-12)
    assert O.p_value("ks", 9.0 * z, 9.0) == pytest.approx(0.05, rel=1e-12)
    assert O.p_value("chi2", 2.0 * z * z, 2.0) == pytest.approx(0.05, rel=1e-12)
