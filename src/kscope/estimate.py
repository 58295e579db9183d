"""Edge-corrected estimation of generalized K-functions.

Three estimators of ``lam^2 K_B(r)`` are provided, all sums over the
close pairs of a pattern (each unordered pair is found once and counts
for both of its orders):

* ``ht``: each pair is weighted by the reciprocal translation overlap
  ``1 / |(W - X_i) intersect (W - X_j)|``, which removes edge bias
  exactly on any window where the overlap is positive.
* ``naive``: pairs anchored at points of the evaluation window W are
  weighted ``1 / |W|``; the second point may come from a plus-sampled
  extended window, which again gives an unbiased estimator.
* ``border``: both points must lie in W, weight ``1 / |W|``; negatively
  biased but always available.

Each estimate is a right-continuous step function built from one sort of
the pair distances: it jumps at every distinct distance, and its value
there is the running sum of the weights through the last pair of that
tie.  Pairs at equal distances are summed in an order the sort leaves
unspecified, so a jump value may differ in the last ulp from another
summation order; on the same input the result is the same on every run.

The module also estimates the intensity, the second factorial intensity
and the asymptotic variance of the scaled point count.  The scaled K
estimate ``r -> |W|^(1/2 - alpha) khat(c^alpha r)`` on [0, R] is again a
:class:`KEstimate`, in scaled units; the goodness-of-fit statistics
compare it with a hypothesized curve (:class:`ScaledDelta`) or with the
scaled estimate of a second pattern.

The quantities of the evaluation window that these depend on, c =
|W|^(1/d), ``c^alpha``, ``|W|^(1/2 - alpha)``, the sigma2_hat bandwidth
and its kernel support, are computed and checked once, in a private
``_Scaling`` record.  ``scaled_delta`` builds one; the test functions of
:mod:`kscope.gof` build one per window ahead of any pair search, and the
scaled estimate, sigma2_hat's bandwidth and the report config read it; a
Monte-Carlo study builds one per rung for its naive plus-sampling margin.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .geometry import (
    BodyShape,
    Box,
    Disk,
    ObservationWindow,
    StructuringBody,
    circumradius,
    unit_ball_volume,
)
from .pattern import PointPattern, close_pairs

__all__ = [
    "EstimatorKind",
    "KernelKind",
    "KEstimate",
    "ScaledDelta",
    "k_hat",
    "lambda_hat",
    "lambda2_hat",
    "sigma2_hat",
    "scaled_delta",
    "restrict_pattern",
]


class EstimatorKind(str, Enum):
    HT = "ht"
    NAIVE = "naive"
    BORDER = "border"


class KernelKind(str, Enum):
    INDICATOR = "indicator"
    TRIANGULAR = "triangular"


@dataclass(frozen=True)
class KEstimate:
    """Empirical estimate of ``lam^2 K_B`` as a right-continuous step function.

    The goodness-of-fit tests use the same type in scaled units: radii
    divided by ``c^alpha`` and values multiplied by ``|W|^(1/2 - alpha)``,
    with ``r_max = R``.

    Attributes
    ----------
    body : StructuringBody
    kind : EstimatorKind
    r_max : float
        Largest radius the estimate is valid for.
    window_volume : float
        Volume of the evaluation window.
    jump_radii : ndarray
        Strictly increasing gauge distances in (0, r_max] at which the
        step function jumps.
    jump_values : ndarray
        Value attained at (and right of) each jump radius.
    """

    body: StructuringBody
    kind: EstimatorKind
    r_max: float
    window_volume: float
    jump_radii: np.ndarray = field(repr=False)
    jump_values: np.ndarray = field(repr=False)

    def eval(self, r):
        """Evaluate at radii r (scalar or array); requires 0 <= r <= r_max."""
        r = np.asarray(r, dtype=float)
        single = r.ndim == 0
        rr = np.atleast_1d(r)
        # written so that a NaN radius fails
        if rr.size and not (rr.min() >= 0.0 and rr.max() <= self.r_max * (1.0 + 1e-12)):
            raise ValueError(
                f"evaluation radius outside [0, {self.r_max}]"
            )
        count = np.searchsorted(self.jump_radii, np.minimum(rr, self.r_max), side="right")
        out = _value_after(self.jump_values, count)
        return float(out[0]) if single else out

    def to_csv(self, path) -> None:
        """Write the step function as CSV rows (r, value).

        One row per jump, plus anchor rows at r = 0 and r = r_max.
        """
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("r,value\n")
            fh.write("0,0\n")
            for r, v in zip(self.jump_radii, self.jump_values):
                fh.write("%.17g,%.17g\n" % (r, v))
            if self.jump_radii.size == 0 or self.jump_radii[-1] < self.r_max:
                last = self.jump_values[-1] if self.jump_values.size else 0.0
                fh.write("%.17g,%.17g\n" % (self.r_max, last))


def _value_after(values: np.ndarray, count: np.ndarray) -> np.ndarray:
    """Step value once ``count`` jumps have passed: ``values[count - 1]``, or 0."""
    out = np.zeros(count.shape)
    hit = count > 0
    out[hit] = values[count[hit] - 1]
    return out


def _run_ends(x: np.ndarray) -> np.ndarray:
    """Mask of the last element of each run of equal values in sorted x."""
    ends = np.ones(x.shape, dtype=bool)
    np.not_equal(x[1:], x[:-1], out=ends[:-1])
    return ends


def restrict_pattern(p: PointPattern, window: ObservationWindow) -> PointPattern:
    """Pattern of the points of p that fall in the given (smaller) window."""
    keep = window.contains(p.points) if len(p) else np.ones(0, dtype=bool)
    return PointPattern(p.points[keep], window)


def _require_guard(r_max: float, body: StructuringBody, window: ObservationWindow):
    rho = window.inball_radius()
    reach = r_max * circumradius(body)
    if not reach < rho:
        raise ValueError(
            f"query radius reaches {reach:.6g} but the window inradius is "
            f"{rho:.6g}; r_max * circumradius(B) < inball_radius(W) is required"
        )


def _check_plus_sampling(
    ext: ObservationWindow, w: ObservationWindow, body: StructuringBody, r_max: float
):
    """Verify that ext contains ``W dilated by r_max * B``."""
    axis_margin = r_max * body.radius_scale
    w_lo, w_hi = w.bounding_box()
    tol = 1e-9 * max(1.0, float(np.max(np.abs(w_hi - w_lo))))
    if isinstance(ext, Box):
        ok = np.all(ext.lower <= w_lo - axis_margin + tol) and np.all(
            ext.upper >= w_hi + axis_margin - tol
        )
    elif isinstance(ext, Disk):
        eucl_margin = r_max * circumradius(body)
        if isinstance(w, Disk):
            center_gap = float(np.linalg.norm(w.center - ext.center))
            reach = center_gap + w.radius + eucl_margin
        else:
            corners = np.array(
                [[w_lo[0], w_lo[1]], [w_lo[0], w_hi[1]], [w_hi[0], w_lo[1]], [w_hi[0], w_hi[1]]]
            )
            reach = float(
                np.max(np.linalg.norm(corners - ext.center, axis=1)) + eucl_margin
            )
        ok = reach <= ext.radius + tol
    else:
        raise TypeError(f"unsupported window type {type(ext).__name__}")
    if not ok:
        raise ValueError(
            "the pattern window does not contain the evaluation window "
            f"dilated by r_max * B (needs margin {axis_margin:.6g})"
        )


def _step_from_pairs(dists, weights, body, kind, r_max, window_volume) -> KEstimate:
    """Accumulate pair contributions into a sorted step function.

    One sort orders the pairs by distance and a running sum accumulates
    their weights.  The step function jumps at the last pair of each run
    of equal distances, so ``jump_radii`` are the distinct distances and
    ``jump_values`` the running sum through every pair of each tie.  The
    sort is not stable: within a tie the summation order is unspecified,
    which can move a value in its last ulp, but it is fixed for a given
    input, so reruns are byte-identical.
    """
    order = np.argsort(dists)
    d_sorted = dists[order]
    cum = weights[order]
    del order
    np.cumsum(cum, out=cum)
    last = _run_ends(d_sorted)
    if not last.all():
        d_sorted, cum = d_sorted[last], cum[last]
    return KEstimate(
        body=body,
        kind=kind,
        r_max=float(r_max),
        window_volume=float(window_volume),
        jump_radii=d_sorted,
        jump_values=cum,
    )


def k_hat(
    p: PointPattern,
    body: StructuringBody,
    r_max: float,
    kind: EstimatorKind | str = EstimatorKind.HT,
    window: ObservationWindow | None = None,
) -> KEstimate:
    """Estimate ``lam^2 K_B`` on [0, r_max] from a point pattern.

    Parameters
    ----------
    p : PointPattern
    body : StructuringBody
    r_max : float
        Positive; ``r_max * circumradius(B)`` must stay below the
        inradius of the evaluation window.
    kind : {'ht', 'naive', 'border'}
    window : ObservationWindow, optional
        Evaluation window for the naive estimator, whose pattern must be
        observed on an extended window containing ``window`` dilated by
        ``r_max * B``.  Must be omitted for the other estimators, which
        evaluate on the pattern's own window.

    Returns
    -------
    KEstimate
    """
    kind = EstimatorKind(kind)
    if not (r_max > 0) or not math.isfinite(r_max):
        raise ValueError("r_max must be a positive finite float")
    if body.dimension != p.dimension:
        raise ValueError("body dimension does not match pattern dimension")
    if kind is EstimatorKind.NAIVE:
        if window is None:
            raise ValueError("the naive estimator requires an evaluation window")
        _check_plus_sampling(p.window, window, body, r_max)
        eval_window = window
    else:
        if window is not None:
            raise ValueError(
                "an evaluation window is only accepted by the naive estimator"
            )
        eval_window = p.window
    _require_guard(r_max, body, eval_window)

    # each unordered pair carries the weight of both of its orders; the
    # pair indices and differences are released once the weights exist,
    # so only distances and weights are alive through the sort
    ii, jj, diffs, dists = close_pairs(p.points, body, r_max)
    vol = eval_window.volume()
    if kind is EstimatorKind.HT:
        del ii, jj
        # set covariance is even in the shift, so both orders weigh the same
        weights = 2.0 / eval_window.set_covariance(diffs) if dists.size else dists
    else:
        inside = eval_window.contains(p.points)
        if kind is EstimatorKind.NAIVE:
            anchors = inside[ii].astype(float) + inside[jj]
        else:
            anchors = 2.0 * (inside[ii] & inside[jj])
        del ii, jj
        keep = anchors > 0
        dists = dists[keep]
        weights = anchors[keep] / vol
    del diffs
    return _step_from_pairs(dists, weights, body, kind, r_max, vol)


def lambda_hat(p: PointPattern) -> float:
    """Intensity estimate N(W) / |W|."""
    return len(p) / p.window.volume()


def lambda2_hat(p: PointPattern) -> float:
    """Unbiased estimate N(N - 1) / |W|^2 of the squared intensity."""
    n = len(p)
    return n * (n - 1) / p.window.volume() ** 2


def _length_scale(window: ObservationWindow) -> float:
    """c = |W|^(1/d)."""
    return window.volume() ** (1.0 / window.dimension)


def _kernel_support(window: ObservationWindow, bandwidth: float | None):
    """Bandwidth b and radius ``b c`` of the sigma2_hat kernel, checked
    against the inradius; b defaults to ``c**-0.75``."""
    c_n = _length_scale(window)
    b = c_n**-0.75 if bandwidth is None else float(bandwidth)
    if not (b > 0) or not math.isfinite(b):
        raise ValueError("bandwidth must be a positive finite float")
    support = b * c_n
    if not support < window.inball_radius():
        raise ValueError(
            f"kernel support radius {support:.6g} must stay below the window "
            f"inradius {window.inball_radius():.6g}; decrease the bandwidth"
        )
    return b, support


@dataclass(frozen=True)
class _Scaling:
    """Scaling quantities of one evaluation window W, computed and checked once.

    With c = |W|^(1/d), the scaled process reads K at ``c_alpha r`` and
    multiplies by ``scale = |W|^(1/2 - alpha)``; sigma2_hat's kernel of
    bandwidth b reaches ``support = b c``.
    """

    volume: float
    c: float
    c_alpha: float
    scale: float
    bandwidth: float | None
    support: float | None

    @classmethod
    def of(cls, window, body, alpha, R=None, bandwidth=None, kernel=True) -> "_Scaling":
        """Record of ``window`` after the checks that apply: alpha in (0, 1/2];
        given R, R positive and finite and ``c^alpha R circumradius(B) <=
        inball_radius(W) / 2``; with ``kernel``, :func:`_kernel_support`
        (without it, bandwidth and support are None)."""
        if not (0.0 < alpha <= 0.5):
            raise ValueError("alpha must lie in (0, 1/2]")
        c = _length_scale(window)
        c_alpha = c**alpha
        if R is not None:
            if not (R > 0) or not math.isfinite(R):
                raise ValueError("R must be a positive finite float")
            reach = c_alpha * R * circumradius(body)
            rho = window.inball_radius()
            if not (reach <= rho / 2.0):
                raise ValueError(
                    f"scaled query radius reaches {reach:.6g} but "
                    f"only half the window inradius ({rho / 2.0:.6g}) is allowed; "
                    "shrink R or alpha, or enlarge the window"
                )
        b, support = _kernel_support(window, bandwidth) if kernel else (None, None)
        volume = window.volume()
        return cls(volume, c, c_alpha, volume ** (0.5 - alpha), b, support)


_KERNEL_INTEGRAL = {
    KernelKind.INDICATOR: lambda d: unit_ball_volume(d),
    KernelKind.TRIANGULAR: lambda d: unit_ball_volume(d) / (d + 1),
}


def sigma2_hat(
    p: PointPattern,
    kernel: KernelKind | str = KernelKind.INDICATOR,
    bandwidth: float | None = None,
) -> float:
    """Kernel estimate of the asymptotic variance of the scaled count.

    The estimator adds the intensity estimate to an edge-corrected sum of
    kernel weights over close pairs and subtracts the kernel mass that a
    purely random pattern would contribute:

    ``lambda_hat + sum_pairs w((X_j - X_i) / (b c)) / |(W-X_i) cap (W-X_j)|
    - lambda2_hat (b c)^d integral(w)``

    with c = |W|^(1/d) and bandwidth b (default ``c**-0.75``).  Kernels
    are supported on the Euclidean unit ball: ``indicator`` is its
    indicator, ``triangular`` is ``(1 - |x|)`` on the ball.

    The result can be nonpositive at small sample sizes; callers decide
    how to handle that (see the test statistics).
    """
    kernel = KernelKind(kernel)
    w = p.window
    d = p.dimension
    _, support = _kernel_support(w, bandwidth)
    euclid = StructuringBody(d, BodyShape.L2_BALL, 1.0)
    _, _, diffs, dists = close_pairs(p.points, euclid, support)
    if dists.size:
        if kernel is KernelKind.INDICATOR:
            kvals = np.ones(dists.shape)
        else:
            kvals = 1.0 - dists / support
        # each unordered pair stands for both of its orders
        pair_term = 2.0 * float(np.sum(kvals / w.set_covariance(diffs)))
    else:
        pair_term = 0.0
    mass = _KERNEL_INTEGRAL[kernel](d)
    return lambda_hat(p) + pair_term - lambda2_hat(p) * support**d * mass


@dataclass(frozen=True)
class ScaledDelta:
    """Scaled difference between an empirical and a hypothesized K-function.

    Represents ``r -> |W|^(1/2 - alpha) (khat(c^alpha r) - lam0^2
    K0(c^alpha r))`` on [0, R] with c = |W|^(1/d).  ``empirical`` is the
    scaled K estimate, a :class:`KEstimate` in scaled units whose jumps
    are strictly increasing in (0, R]; the piecewise-exact integrators in
    the test module read its jumps directly.

    ``theory_power_beta`` is set when the hypothesized curve is exactly
    ``beta * r^d`` in scaled units (Poisson null), enabling closed-form
    piecewise integration.
    """

    alpha: float
    R: float
    null_lambda: float
    null_k: object
    c_alpha: float
    scale: float
    empirical: KEstimate
    theory_power_beta: float | None = None

    @property
    def dimension(self) -> int:
        return self.empirical.body.dimension

    def theoretical(self, r):
        """Scaled hypothesized curve at scaled radii r."""
        r = np.asarray(r, dtype=float)
        if self.theory_power_beta is not None:
            out = self.theory_power_beta * r**self.dimension
        else:
            out = self.scale * self.null_lambda**2 * np.asarray(
                self.null_k(self.c_alpha * r), dtype=float
            )
        return float(out) if np.isscalar(out) or np.ndim(out) == 0 else out

    def eval(self, r):
        """Scaled difference at scaled radii r in [0, R]."""
        r = np.asarray(r, dtype=float)
        single = r.ndim == 0
        rr = np.atleast_1d(r)
        out = self.empirical.eval(rr) - np.atleast_1d(self.theoretical(rr))
        return float(out[0]) if single else out


def _scaled_k(
    p: PointPattern,
    body: StructuringBody,
    R: float,
    kind: EstimatorKind | str,
    window: ObservationWindow | None,
    scaling: _Scaling,
) -> KEstimate:
    """Scaled K estimate ``r -> |W|^(1/2 - alpha) khat(c^alpha r)`` on [0, R].

    Estimates at ``c^alpha R`` with the scaling of the evaluation window
    and returns the result in scaled units (``r_max = R``).
    """
    c_alpha = scaling.c_alpha
    khat = k_hat(p, body, c_alpha * R, kind=kind, window=window)
    # dividing by c^alpha (or clipping at R) can merge adjacent radii; the
    # last of each run carries the value through all of them
    radii = np.minimum(khat.jump_radii / c_alpha, R)
    values = scaling.scale * khat.jump_values
    last = _run_ends(radii)
    if not last.all():
        radii, values = radii[last], values[last]
    return KEstimate(
        body=body,
        kind=khat.kind,
        r_max=float(R),
        window_volume=scaling.volume,
        jump_radii=radii,
        jump_values=values,
    )


def _require_null_lambda(null_lambda: float):
    if not (null_lambda > 0) or not math.isfinite(null_lambda):
        raise ValueError("null_lambda must be a positive finite float")


def scaled_delta(
    p: PointPattern,
    body: StructuringBody,
    null_lambda: float,
    null_k,
    alpha: float,
    R: float,
    kind: EstimatorKind | str = EstimatorKind.HT,
    window: ObservationWindow | None = None,
) -> ScaledDelta:
    """Build the scaled comparison process for a hypothesized K-function.

    Parameters
    ----------
    p : PointPattern
    body : StructuringBody
    null_lambda : float
        Hypothesized intensity, positive.
    null_k : callable
        Hypothesized K-function of the absolute radius; a
        ``KFunction`` with ``power_coeff`` set unlocks closed-form
        integration downstream.  It must be nondecreasing, as every
        K-function is: the weighted supremum statistic relies on it to
        bound each piece by its corners.
    alpha : float
        Scaling exponent in (0, 1/2].
    R : float
        Upper end of the scaled radius interval, positive.
    kind, window
        Passed through to :func:`k_hat`.

    Notes
    -----
    Requires ``c^alpha R circumradius(B) <= inball_radius(W) / 2`` so the
    largest query stays well inside the window; this is the regime where
    the edge-correction inequalities keep all remainder terms small.
    """
    _require_null_lambda(null_lambda)
    # k_hat rejects a window given to, or missing for, the wrong estimator
    eval_window = p.window if window is None else window
    scaling = _Scaling.of(eval_window, body, alpha, R, kernel=False)
    empirical = _scaled_k(p, body, R, kind, window, scaling)
    beta = None
    pc = getattr(null_k, "power_coeff", None)
    if pc is not None:
        beta = scaling.scale * null_lambda**2 * pc * scaling.volume**alpha
    return ScaledDelta(
        alpha=float(alpha),
        R=float(R),
        null_lambda=float(null_lambda),
        null_k=null_k,
        c_alpha=scaling.c_alpha,
        scale=scaling.scale,
        empirical=empirical,
        theory_power_beta=beta,
    )
