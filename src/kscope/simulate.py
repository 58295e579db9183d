"""Point-process models, seeded simulation and theoretical summaries.

Three stationary models are provided: the homogeneous Poisson process in
any dimension, and two planar Poisson cluster processes (Gaussian and
uniform-disk offspring).  Cluster simulations place parents on a window
inflated by the offspring displacement range so that the restriction to
the target window has the exact stationary distribution.

Seeding is counter based: :class:`SeedSpec` derives an independent
generator from ``(master_seed, stream_index)``, so replicate k of a
Monte Carlo run is reproducible regardless of how replicates are
distributed over worker processes.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import asdict, dataclass
from typing import Union

import numpy as np

from .geometry import (
    BodyShape,
    ObservationWindow,
    StructuringBody,
    _config_kwargs,
    body_volume,
)
from .pattern import PointPattern

__all__ = [
    "PoissonModel",
    "ThomasModel",
    "MaternClusterModel",
    "ModelSpec",
    "SeedSpec",
    "simulate",
    "KFunction",
    "k_function",
    "k_function_from_table",
    "theoretical_sigma2",
    "theoretical_tau2",
    "model_to_config",
    "model_from_config",
]


@dataclass(frozen=True)
class PoissonModel:
    """Homogeneous Poisson process with the given intensity."""

    intensity: float

    def __post_init__(self):
        if not (self.intensity > 0) or not math.isfinite(self.intensity):
            raise ValueError("intensity must be a positive finite float")


@dataclass(frozen=True)
class ThomasModel:
    """Planar cluster process with Gaussian offspring displacements.

    Parents form a Poisson process of intensity ``kappa``; each parent
    receives a Poisson(``mu``) number of offspring displaced by
    independent N(0, sigma_c^2 I) vectors.  Total intensity is
    ``kappa * mu``.
    """

    kappa: float
    mu: float
    sigma_c: float

    def __post_init__(self):
        for name in ("kappa", "mu", "sigma_c"):
            v = getattr(self, name)
            if not (v > 0) or not math.isfinite(v):
                raise ValueError(f"{name} must be a positive finite float")

    @property
    def intensity(self) -> float:
        return self.kappa * self.mu

    @property
    def displacement_margin(self) -> float:
        # parents beyond 6 sigma contribute a vanishing fraction of
        # offspring inside the window; this margin sizes the parent window
        return 6.0 * self.sigma_c


@dataclass(frozen=True)
class MaternClusterModel:
    """Planar cluster process with uniform-disk offspring displacements.

    Like :class:`ThomasModel` but offspring are placed uniformly in the
    closed disk of radius ``r_c`` around their parent.
    """

    kappa: float
    mu: float
    r_c: float

    def __post_init__(self):
        for name in ("kappa", "mu", "r_c"):
            v = getattr(self, name)
            if not (v > 0) or not math.isfinite(v):
                raise ValueError(f"{name} must be a positive finite float")

    @property
    def intensity(self) -> float:
        return self.kappa * self.mu

    @property
    def displacement_margin(self) -> float:
        return self.r_c


ModelSpec = Union[PoissonModel, ThomasModel, MaternClusterModel]


@dataclass(frozen=True)
class SeedSpec:
    """Counter-based seed: (master_seed, stream_index) -> generator.

    Streams with the same master seed and different indices are
    statistically independent; the derivation uses the seed-sequence
    spawn mechanism and involves no global state.
    """

    master_seed: int
    stream_index: int = 0

    def __post_init__(self):
        for name in ("master_seed", "stream_index"):
            v = getattr(self, name)  # an integral float passes, NaN and inf fail
            if not isinstance(v, numbers.Real) or v != v // 1 or v < 0:
                raise ValueError(f"{name} must be a nonnegative integer")

    def rng(self) -> np.random.Generator:
        ss = np.random.SeedSequence(
            entropy=int(self.master_seed), spawn_key=(int(self.stream_index),)
        )
        return np.random.default_rng(ss)


def simulate(model: ModelSpec, window: ObservationWindow, seed: SeedSpec) -> PointPattern:
    """Draw one realization of the model restricted to the window.

    Parameters
    ----------
    model : ModelSpec
    window : ObservationWindow
        Cluster models require a two-dimensional window.
    seed : SeedSpec

    Returns
    -------
    PointPattern
        The points of the realization that fall in the (closed) window.
    """
    rng = seed.rng()
    if isinstance(model, PoissonModel):
        n = rng.poisson(model.intensity * window.volume())
        pts = window.sample(rng, n)
        return PointPattern(pts, window)
    if isinstance(model, (ThomasModel, MaternClusterModel)):
        if window.dimension != 2:
            raise ValueError("cluster models are two-dimensional")
        parent_window = window.inflate(model.displacement_margin)
        n_parents = rng.poisson(model.kappa * parent_window.volume())
        parents = parent_window.sample(rng, n_parents)
        counts = rng.poisson(model.mu, size=n_parents)
        total = int(counts.sum())
        if isinstance(model, ThomasModel):
            offsets = rng.normal(0.0, model.sigma_c, size=(total, 2))
        else:
            u = rng.random(total)
            theta = rng.random(total) * 2.0 * math.pi
            radii = model.r_c * np.sqrt(u)
            offsets = np.column_stack((radii * np.cos(theta), radii * np.sin(theta)))
        pts = np.repeat(parents, counts, axis=0) + offsets
        pts = pts[window.contains(pts)] if total else np.zeros((0, 2))
        return PointPattern(pts, window)
    raise TypeError(f"unknown model type {type(model).__name__}")


class KFunction:
    """Theoretical generalized K-function as a vectorized callable.

    ``power_coeff`` is set when ``K(r) = power_coeff * r**d`` holds
    exactly (the Poisson case); downstream integrators use it to switch
    to closed-form piecewise integration.
    """

    def __init__(self, fn, dimension: int, power_coeff: float | None = None,
                 description: str = "custom"):
        self._fn = fn
        self.dimension = dimension
        self.power_coeff = power_coeff
        self.description = description

    def __call__(self, r):
        r = np.asarray(r, dtype=float)
        out = self._fn(r)
        return float(out) if np.isscalar(out) or out.ndim == 0 else out

    def __repr__(self):
        return f"KFunction({self.description})"


def k_function(model: ModelSpec, body: StructuringBody) -> KFunction:
    """Theoretical K-function of the model for gauge balls ``r * B``.

    For the Poisson model ``K(r) = |B| r^d`` for any supported body.  The
    cluster models have known closed forms for Euclidean balls, so they
    require an l2 body; a scaled l2 body ``B = s * B_e`` is handled via
    ``K_B(r) = K_e(s * r)``.
    """
    d = body.dimension
    if isinstance(model, PoissonModel):
        vol = body_volume(body)
        return KFunction(
            lambda r: vol * np.asarray(r, dtype=float) ** d,
            d,
            power_coeff=vol,
            description="poisson",
        )
    if body.shape is not BodyShape.L2_BALL or d != 2:
        raise ValueError(
            "cluster-model K-functions are available for planar l2 bodies only"
        )
    s = body.radius_scale
    if isinstance(model, ThomasModel):
        kappa, sigma_c = model.kappa, model.sigma_c

        def k_thomas(r):
            u = np.asarray(r, dtype=float) * s
            return math.pi * u**2 + (1.0 - np.exp(-(u**2) / (4.0 * sigma_c**2))) / kappa

        return KFunction(k_thomas, 2, description="thomas")
    if isinstance(model, MaternClusterModel):
        kappa, r_c = model.kappa, model.r_c

        def k_matern(r):
            u = np.asarray(r, dtype=float) * s
            return math.pi * u**2 + _disk_overlap_cdf(u / (2.0 * r_c)) / kappa

        return KFunction(k_matern, 2, description="matern_cluster")
    raise TypeError(f"unknown model type {type(model).__name__}")


def _disk_overlap_cdf(z):
    """P(|U - V| <= u) for U, V independent uniform in a disk of radius r_c,
    written as a function of z = u / (2 r_c); rises from 0 at z = 0 to 1 at
    z = 1 and stays 1 beyond."""
    z = np.asarray(z, dtype=float)
    zc = np.clip(z, 0.0, 1.0)
    sq = np.sqrt(np.maximum(1.0 - zc**2, 0.0))
    h = 2.0 + (
        (8.0 * zc**2 - 4.0) * np.arccos(zc)
        - 2.0 * np.arcsin(zc)
        + 4.0 * zc * sq**3
        - 6.0 * zc * sq
    ) / math.pi
    return np.where(z >= 1.0, 1.0, h)


def k_function_from_table(radii, values, dimension: int = 2) -> KFunction:
    """Monotone piecewise-linear K-function from a (r, K(r)) table.

    The table must start at radius 0 or above (a (0, 0) knot is prepended
    if missing), have strictly increasing radii and non-decreasing values.
    Evaluation beyond the last tabulated radius raises, rather than
    silently extrapolating.
    """
    rs = np.asarray(radii, dtype=float)
    ks = np.asarray(values, dtype=float)
    if rs.ndim != 1 or rs.shape != ks.shape or rs.size < 1:
        raise ValueError("radii and values must be 1-d arrays of equal length")
    if not np.all(np.isfinite(rs)) or not np.all(np.isfinite(ks)):
        raise ValueError("K table entries must be finite")
    if rs[0] < 0:
        raise ValueError("K table radii must be nonnegative")
    if np.any(np.diff(rs) <= 0):
        raise ValueError("K table radii must be strictly increasing")
    if np.any(np.diff(ks) < 0) or ks[0] < 0:
        raise ValueError("K table values must be nonnegative and non-decreasing")
    if rs[0] > 0:
        rs = np.concatenate(([0.0], rs))
        ks = np.concatenate(([0.0], ks))
    r_hi = rs[-1]

    def interp(r):
        r = np.asarray(r, dtype=float)
        if np.any(r > r_hi * (1.0 + 1e-12)):
            raise ValueError(
                f"K table covers radii up to {r_hi}; cannot evaluate at "
                f"{float(np.max(r))}"
            )
        return np.interp(np.minimum(r, r_hi), rs, ks)

    return KFunction(interp, dimension, description="table")


def theoretical_sigma2(model: ModelSpec) -> float:
    """Asymptotic variance of the scaled point count.

    Equals the intensity for the Poisson process; for the cluster models
    the count variance rate is ``kappa * mu * (1 + mu)``.
    """
    if isinstance(model, PoissonModel):
        return model.intensity
    if isinstance(model, (ThomasModel, MaternClusterModel)):
        return model.kappa * model.mu * (1.0 + model.mu)
    raise TypeError(f"unknown model type {type(model).__name__}")


def theoretical_tau2(intensity: float, body: StructuringBody, s: float, t: float) -> float:
    """Asymptotic covariance of the edge-corrected estimator, Poisson case.

    For the homogeneous Poisson process with the given intensity, the
    window-normalized covariance of the estimator at radii s and t
    converges to ``2 lam^2 min(s,t)^d |B| (1 + 2 lam max(s,t)^d |B|)``.
    """
    if s < 0 or t < 0:
        raise ValueError("radii must be nonnegative")
    lam = float(intensity)
    if not (lam > 0):
        raise ValueError("intensity must be positive")
    d = body.dimension
    vol = body_volume(body)
    lo, hi = (s, t) if s <= t else (t, s)
    return 2.0 * lam**2 * lo**d * vol * (1.0 + 2.0 * lam * hi**d * vol)


_VARIANTS = {
    "poisson": PoissonModel,
    "thomas": ThomasModel,
    "matern_cluster": MaternClusterModel,
}
# the one config key that is not a field name: Poisson's intensity
_RENAMES = {PoissonModel: (("lambda", "intensity"),)}


def model_to_config(model: ModelSpec) -> dict:
    """JSON-ready dict describing the model: its variant and its fields."""
    for variant, cls in _VARIANTS.items():
        if type(model) is cls:
            cfg = {"variant": variant, **asdict(model)}
            for key, name in _RENAMES.get(cls, ()):
                cfg[key] = cfg.pop(name)
            return cfg
    raise TypeError(f"unknown model type {type(model).__name__}")


def model_from_config(cfg: dict) -> ModelSpec:
    """Build a model from its config dict (inverse of model_to_config)."""
    try:
        variant = cfg["variant"]
    except (TypeError, KeyError) as exc:
        raise ValueError("model config must be a dict with a 'variant' key") from exc
    if variant not in _VARIANTS:
        raise ValueError(f"unknown model variant {variant!r}")
    cls = _VARIANTS[variant]
    kwargs = _config_kwargs(cls, cfg, f"{variant} model", ("variant",), _RENAMES.get(cls, ()))
    return cls(**kwargs)
