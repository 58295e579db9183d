"""Convex structuring bodies and observation windows.

This module provides the geometric primitives used by the estimators and
tests in this package:

* :class:`StructuringBody` describes an origin-symmetric convex body ``B``
  (a scaled ``l1``, ``l2`` or ``linf`` ball) together with the gauge norm
  ``||x||_B = inf{r > 0 : x in r*B}`` it induces.
* :class:`Box` and :class:`Disk` are compact convex observation windows
  with closed-form volume, inradius, set covariance, eroded and dilated
  volumes and boundary surface content.

All volume formulas are exact (no quadrature), which lets the test-suite
compare them against brute-force oracles at tight tolerances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

__all__ = [
    "BodyShape",
    "StructuringBody",
    "ObservationWindow",
    "Box",
    "Disk",
    "gauge_norm",
    "body_volume",
    "circumradius",
    "unit_ball_volume",
    "set_covariance",
    "inball_radius",
    "erosion_volume",
    "dilation_volume",
    "surface_content",
    "window_from_config",
    "window_to_config",
    "body_from_config",
    "body_to_config",
]


def unit_ball_volume(m: int) -> float:
    """Volume of the m-dimensional Euclidean unit ball.

    Parameters
    ----------
    m : int
        Dimension, m >= 0.

    Returns
    -------
    float
        ``pi**(m/2) / Gamma(m/2 + 1)``; equals 1 for m = 0.
    """
    if m < 0:
        raise ValueError("dimension must be nonnegative")
    return math.pi ** (m / 2.0) / math.gamma(m / 2.0 + 1.0)


class BodyShape(str, Enum):
    """Supported origin-symmetric convex body families."""

    L1_BALL = "l1"
    L2_BALL = "l2"
    LINF_BALL = "linf"


@dataclass(frozen=True)
class StructuringBody:
    """Origin-symmetric convex body ``B = radius_scale * unit p-ball``.

    Parameters
    ----------
    dimension : int
        Ambient dimension d >= 1.
    shape : BodyShape
        Which p-ball family the body belongs to.
    radius_scale : float, optional
        Positive scale factor applied to the unit ball, default 1.

    Notes
    -----
    The body fixes the gauge norm ``||x||_B`` used to measure inter-point
    distances, so ``r*B`` plays the role the Euclidean ball of radius r
    plays for the classical K-function.
    """

    dimension: int
    shape: BodyShape
    radius_scale: float = 1.0

    def __post_init__(self):
        if int(self.dimension) != self.dimension or self.dimension < 1:
            raise ValueError("dimension must be a positive integer")
        object.__setattr__(self, "dimension", int(self.dimension))
        object.__setattr__(self, "shape", BodyShape(self.shape))
        if not (self.radius_scale > 0.0) or not math.isfinite(self.radius_scale):
            raise ValueError("radius_scale must be a positive finite float")


def gauge_norm(body: StructuringBody, x) -> np.ndarray | float:
    """Gauge norm ``||x||_B = inf{r > 0 : x in r*B}`` of one or many vectors.

    Parameters
    ----------
    body : StructuringBody
    x : array_like
        A single vector of shape (d,) or a batch of shape (n, d).

    Returns
    -------
    float or ndarray
        The gauge norm(s); a scalar for a single vector, else shape (n,).

    Notes
    -----
    For ``B = s * unit p-ball`` the gauge norm is ``||x||_p / s``.  It is
    positively homogeneous and symmetric under ``x -> -x``.
    """
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    pts = np.atleast_2d(x)
    if pts.shape[1] != body.dimension:
        raise ValueError(
            f"vector dimension {pts.shape[1]} does not match body dimension "
            f"{body.dimension}"
        )
    norms = _row_norms(pts, body.shape)
    norms /= body.radius_scale
    return float(norms[0]) if single else norms


def _row_norms(pts: np.ndarray, shape: BodyShape) -> np.ndarray:
    """p-norm of each row of an (n, d) array, built one column at a time.

    Elementwise passes over the d columns add, compare and multiply in
    the same left-to-right order as the ``axis=1`` reductions they stand
    for, so the results are bit-identical, without the per-row overhead
    those reductions carry on narrow arrays.
    """
    cols = pts.T
    if shape is BodyShape.L2_BALL:
        acc = cols[0] * cols[0]
        for c in cols[1:]:
            acc += c * c
        return np.sqrt(acc, out=acc)
    combine = np.add if shape is BodyShape.L1_BALL else np.maximum
    acc = np.abs(cols[0])
    for c in cols[1:]:
        combine(acc, np.abs(c), out=acc)
    return acc


def body_volume(body: StructuringBody) -> float:
    """Lebesgue volume |B| of the structuring body.

    Closed forms: ``(2s)**d / d!`` for the l1 ball, ``kappa_d * s**d``
    for the l2 ball and ``(2s)**d`` for the linf ball, with s the
    radius scale and ``kappa_d`` the unit-ball volume.
    """
    d, s = body.dimension, body.radius_scale
    if body.shape is BodyShape.L1_BALL:
        return (2.0 * s) ** d / math.factorial(d)
    if body.shape is BodyShape.L2_BALL:
        return unit_ball_volume(d) * s**d
    return (2.0 * s) ** d


def circumradius(body: StructuringBody) -> float:
    """Euclidean circumradius of B, i.e. ``max{|x| : x in B}``.

    Equals ``s`` for the l1 and l2 balls and ``s * sqrt(d)`` for the
    linf ball.  Used to express window-guard and plus-sampling margins.
    """
    if body.shape is BodyShape.LINF_BALL:
        return body.radius_scale * math.sqrt(body.dimension)
    return body.radius_scale


class ObservationWindow:
    """Abstract compact convex observation window.

    Concrete windows implement exact volume, inradius, set covariance,
    eroded/dilated volumes (by Euclidean balls), boundary surface
    content, membership tests and uniform sampling.
    """

    dimension: int

    def volume(self) -> float:
        raise NotImplementedError

    def inball_radius(self) -> float:
        """Inradius rho(W): the largest r with some ball ``x + r*B_e`` in W."""
        raise NotImplementedError

    def set_covariance(self, y) -> np.ndarray | float:
        """Volume ``|W intersect (W - y)|`` for one or many shift vectors."""
        raise NotImplementedError

    def erosion_volume(self, r: float) -> float:
        """Volume of the erosion ``W minus_sunk r*B_e``."""
        raise NotImplementedError

    def dilation_volume(self, r: float) -> float:
        """Volume of the dilation ``W plus_sunk r*B_e``."""
        raise NotImplementedError

    def surface_content(self) -> float:
        """(d-1)-dimensional content of the boundary of W."""
        raise NotImplementedError

    def contains(self, points) -> np.ndarray:
        """Boolean mask of points lying in the closed window."""
        raise NotImplementedError

    def bounding_box(self) -> tuple[np.ndarray, np.ndarray]:
        """Axis-aligned bounding box as (lower, upper) arrays."""
        raise NotImplementedError

    def inflate(self, margin: float) -> "ObservationWindow":
        """A window of the same family grown outward by ``margin``."""
        raise NotImplementedError

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """Draw n points uniformly from W, shape (n, d)."""
        raise NotImplementedError

    def to_config(self) -> dict:
        raise NotImplementedError

    def __repr__(self):
        return f"{type(self).__name__}({self.to_config()})"


class Box(ObservationWindow):
    """Axis-aligned box ``[lower_1, upper_1] x ... x [lower_d, upper_d]``.

    Parameters
    ----------
    lower, upper : array_like
        Coordinate bounds with ``upper > lower`` componentwise.
    """

    def __init__(self, lower, upper):
        lower = np.asarray(lower, dtype=float)
        upper = np.asarray(upper, dtype=float)
        if lower.ndim != 1 or lower.shape != upper.shape or lower.size < 1:
            raise ValueError("lower and upper must be 1-d arrays of equal length")
        if not np.all(np.isfinite(lower)) or not np.all(np.isfinite(upper)):
            raise ValueError("box bounds must be finite")
        if not np.all(upper > lower):
            raise ValueError("box must have positive extent along every axis")
        self.lower = lower
        self.upper = upper
        self.dimension = lower.size

    @property
    def side_lengths(self) -> np.ndarray:
        return self.upper - self.lower

    def volume(self) -> float:
        return float(np.prod(self.side_lengths))

    def inball_radius(self) -> float:
        return float(np.min(self.side_lengths)) / 2.0

    def set_covariance(self, y):
        y = np.asarray(y, dtype=float)
        single = y.ndim == 1
        shifts = np.atleast_2d(y)
        if shifts.shape[1] != self.dimension:
            raise ValueError("shift dimension does not match window dimension")
        # product of the per-axis overlaps, one column at a time
        sides, cols = self.side_lengths, shifts.T
        out = np.maximum(sides[0] - np.abs(cols[0]), 0.0)
        for side, c in zip(sides[1:], cols[1:]):
            out *= np.maximum(side - np.abs(c), 0.0)
        return float(out[0]) if single else out

    def erosion_volume(self, r: float) -> float:
        if r < 0:
            raise ValueError("erosion radius must be nonnegative")
        return float(np.prod(np.maximum(self.side_lengths - 2.0 * r, 0.0)))

    def dilation_volume(self, r: float) -> float:
        # Steiner formula: sum_m kappa_m r^m e_{d-m}(side lengths), with
        # e_i the elementary symmetric polynomials.
        if r < 0:
            raise ValueError("dilation radius must be nonnegative")
        e = _elementary_symmetric(self.side_lengths)
        d = self.dimension
        return float(
            sum(unit_ball_volume(m) * r**m * e[d - m] for m in range(d + 1))
        )

    def surface_content(self) -> float:
        e = _elementary_symmetric(self.side_lengths)
        return 2.0 * e[self.dimension - 1]

    def contains(self, points) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        return np.all((pts >= self.lower) & (pts <= self.upper), axis=1)

    def bounding_box(self):
        return self.lower.copy(), self.upper.copy()

    def inflate(self, margin: float) -> "Box":
        if margin < 0:
            raise ValueError("margin must be nonnegative")
        return Box(self.lower - margin, self.upper + margin)

    def sample(self, rng, n):
        u = rng.random((n, self.dimension))
        return self.lower + u * self.side_lengths

    def to_config(self) -> dict:
        return {
            "shape": "box",
            "dim": self.dimension,
            "bounds": [self.lower.tolist(), self.upper.tolist()],
        }


class Disk(ObservationWindow):
    """Closed planar disk of given center and radius (dimension 2 only)."""

    def __init__(self, center, radius):
        center = np.asarray(center, dtype=float)
        if center.shape != (2,):
            raise ValueError("disk windows are two-dimensional; center must have shape (2,)")
        if not (radius > 0) or not math.isfinite(radius):
            raise ValueError("disk radius must be a positive finite float")
        self.center = center
        self.radius = float(radius)
        self.dimension = 2

    def volume(self) -> float:
        return math.pi * self.radius**2

    def inball_radius(self) -> float:
        return self.radius

    def set_covariance(self, y):
        y = np.asarray(y, dtype=float)
        single = y.ndim == 1
        shifts = np.atleast_2d(y)
        if shifts.shape[1] != 2:
            raise ValueError("shift dimension does not match window dimension")
        u = _row_norms(shifts, BodyShape.L2_BALL)
        R = self.radius
        out = np.zeros(u.shape)
        inside = u < 2.0 * R
        ui = u[inside]
        # lens area of two disks of radius R at center distance u; the two
        # terms cancel as u -> 2R, so clamp rounding noise at zero
        lens = 2.0 * R**2 * np.arccos(ui / (2.0 * R)) - (ui / 2.0) * np.sqrt(
            np.maximum(4.0 * R**2 - ui**2, 0.0)
        )
        out[inside] = np.maximum(lens, 0.0)
        return float(out[0]) if single else out

    def erosion_volume(self, r: float) -> float:
        if r < 0:
            raise ValueError("erosion radius must be nonnegative")
        return math.pi * max(self.radius - r, 0.0) ** 2

    def dilation_volume(self, r: float) -> float:
        if r < 0:
            raise ValueError("dilation radius must be nonnegative")
        return math.pi * (self.radius + r) ** 2

    def surface_content(self) -> float:
        return 2.0 * math.pi * self.radius

    def contains(self, points) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        diff = pts - self.center
        return (diff * diff).sum(axis=1) <= self.radius**2

    def bounding_box(self):
        return self.center - self.radius, self.center + self.radius

    def inflate(self, margin: float) -> "Disk":
        if margin < 0:
            raise ValueError("margin must be nonnegative")
        return Disk(self.center, self.radius + margin)

    def sample(self, rng, n):
        # polar inversion keeps the draw count per point fixed, which makes
        # the stream position deterministic regardless of point locations
        u = rng.random(n)
        theta = rng.random(n) * 2.0 * math.pi
        radii = self.radius * np.sqrt(u)
        return self.center + np.column_stack(
            (radii * np.cos(theta), radii * np.sin(theta))
        )

    def to_config(self) -> dict:
        return {
            "shape": "disk",
            "dim": 2,
            "center": self.center.tolist(),
            "radius": self.radius,
        }


def _elementary_symmetric(values: np.ndarray) -> list[float]:
    """Elementary symmetric polynomials e_0..e_n of the given values."""
    e = [1.0]
    for v in values:
        prev = e
        e = [1.0]
        for i in range(1, len(prev) + 1):
            above = prev[i] if i < len(prev) else 0.0
            e.append(above + float(v) * prev[i - 1])
    return e


# functional aliases mirroring the window methods

def set_covariance(w: ObservationWindow, y):
    """Set covariance ``|W intersect (W - y)|``; see the window classes."""
    return w.set_covariance(y)


def inball_radius(w: ObservationWindow) -> float:
    """Inradius rho(W) of the window."""
    return w.inball_radius()


def erosion_volume(w: ObservationWindow, r: float) -> float:
    """Volume of W eroded by the Euclidean ball of radius r."""
    return w.erosion_volume(r)


def dilation_volume(w: ObservationWindow, r: float) -> float:
    """Volume of W dilated by the Euclidean ball of radius r."""
    return w.dilation_volume(r)


def surface_content(w: ObservationWindow) -> float:
    """Boundary surface content of the window."""
    return w.surface_content()


def window_to_config(w: ObservationWindow) -> dict:
    """JSON-ready dict describing the window."""
    return w.to_config()


def window_from_config(cfg: dict) -> ObservationWindow:
    """Build a window from its config dict (inverse of window_to_config)."""
    try:
        shape = cfg["shape"]
    except (TypeError, KeyError) as exc:
        raise ValueError("window config must be a dict with a 'shape' key") from exc
    if shape == "box":
        lower, upper = cfg["bounds"]
        return Box(lower, upper)
    if shape == "disk":
        return Disk(cfg["center"], cfg["radius"])
    raise ValueError(f"unknown window shape {shape!r}")


def body_to_config(body: StructuringBody) -> dict:
    """JSON-ready dict describing the structuring body."""
    return {
        "shape": body.shape.value,
        "dim": body.dimension,
        "radius_scale": body.radius_scale,
    }


def body_from_config(cfg: dict) -> StructuringBody:
    """Build a structuring body from its config dict."""
    try:
        return StructuringBody(
            dimension=cfg["dim"],
            shape=BodyShape(cfg["shape"]),
            radius_scale=cfg.get("radius_scale", 1.0),
        )
    except (TypeError, KeyError) as exc:
        raise ValueError("body config must carry 'shape' and 'dim'") from exc
