"""Parallel Monte-Carlo studies validating the asymptotic theory.

Seven study kinds: ``unbiasedness`` (estimator means vs the exact
target), ``variance_convergence`` (windowed variance vs the Poisson
asymptotic covariance), ``sigma2_consistency`` (mean-square convergence
of the variance estimator), ``null_level`` (empirical type I error),
``power`` (rejection rate under an alternative), ``limit_law``
(sup-distance between the empirical statistic distribution and its
limit), and ``estimator_equivalence`` (normalized mean-square gaps
between estimator variants).

Every replicate derives its generator from (master_seed, stream_index)
alone and results are aggregated in replicate order with compensated
summation, so a report is bit-identical for any worker count.  Reports
carry explicit pass/fail checks with their bounds; nothing passes
silently.
"""

from __future__ import annotations

import json
import math
import numbers
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field

import numpy as np

from . import gof
from .estimate import (
    EstimatorKind,
    KernelKind,
    _kernel_support,
    _Scaling,
    k_hat,
    lambda2_hat,
    restrict_pattern,
    sigma2_hat,
)
from .geometry import _config_kwargs, body_from_config, circumradius, window_from_config
from .simulate import (
    PoissonModel,
    SeedSpec,
    k_function,
    model_from_config,
    simulate,
    theoretical_sigma2,
    theoretical_tau2,
)

__all__ = [
    "StudyConfig",
    "StudyReport",
    "run_study",
]

SCHEMA_VERSION = 1

_TEST_STUDIES = ("null_level", "power", "limit_law")


def _fsum_mean(values) -> float:
    values = np.asarray(values, dtype=float)
    return math.fsum(values.tolist()) / values.size


def _fsum_var(values, mean: float) -> float:
    values = np.asarray(values, dtype=float)
    return math.fsum(((v - mean) ** 2 for v in values.tolist())) / (values.size - 1)


def _fsum_cov(x, y, mx: float, my: float) -> float:
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    terms = ((a - mx) * (b - my) for a, b in zip(x.tolist(), y.tolist()))
    return math.fsum(terms) / (x.size - 1)


@dataclass(frozen=True)
class StudyConfig:
    """Declarative description of one Monte-Carlo study.

    ``windows`` is a ladder of window configs with strictly increasing
    volumes; most verdicts apply at the largest rung.  ``tolerances``
    overrides the per-study default bounds (each used bound is echoed in
    the report's checks either way).  A study reads only its own keys,
    with these defaults; any other key, or a value that is not a finite
    number, is an error:

    - unbiasedness: ``se_multiple`` 3;
    - variance_convergence: ``relative_error`` 0.15, ``decrease_slack`` 0;
    - sigma2_consistency: ``relative_bias`` 0.10;
    - null_level: ``level_low`` gamma - 0.03, ``level_high`` gamma + 0.05;
    - power: ``power_at_largest`` 0.5, ``increase_slack`` 0.05;
    - limit_law: ``limit_distance`` 0.08;
    - estimator_equivalence: ``decrease_factor`` 2.
    """

    study: str
    model: dict
    windows: tuple
    body: dict
    replicates: int
    master_seed: int
    workers: int = 1
    alpha: float = 0.5
    R: float = 1.0
    gamma: float = 0.05
    statistics: tuple = ("ks",)
    estimator: str = "ht"
    estimators: tuple = ("ht",)
    radii: tuple | None = None
    weight_V: dict | None = None
    weight_v: dict | None = None
    kernel: str = "indicator"
    bandwidth: float | None = None
    clamp: bool = True
    null_model: dict | None = None
    scaled_radius: float = 0.5
    limit_constant_scale: float = 1.0
    tolerances: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.study not in STUDY_KINDS:
            raise ValueError(
                f"unknown study {self.study!r}; expected one of {STUDY_KINDS}"
            )
        _require_count("replicates", self.replicates)
        SeedSpec(self.master_seed)  # master_seed must be a nonnegative integer
        if not self.windows:
            raise ValueError("at least one window is required")
        if not (0.0 < self.alpha <= 0.5):
            raise ValueError("alpha must lie in (0, 1/2]")
        gof._require_gamma(self.gamma)
        _require_count("workers", self.workers)
        if not (self.limit_constant_scale > 0):
            raise ValueError("limit_constant_scale must be positive")
        # the resolution every run starts from, so a bad config fails here
        # and not in the first replicate (inside a worker at workers >= 2)
        _StudyContext(self)

    def to_config(self) -> dict:
        """JSON-ready dict of the fields, tuples written as lists."""
        cfg = {
            k: list(v) if isinstance(v, tuple) else v for k, v in asdict(self).items()
        }
        return {"schema_version": SCHEMA_VERSION, **cfg}

    @staticmethod
    def from_config(cfg: dict) -> "StudyConfig":
        kwargs = _config_kwargs(StudyConfig, cfg, "study config")
        return StudyConfig(
            **{k: tuple(v) if isinstance(v, list) else v for k, v in kwargs.items()}
        )


def _require_count(name: str, value):
    if not isinstance(value, numbers.Integral) or value < 1:
        raise ValueError(f"{name} must be an integer >= 1")


@dataclass
class StudyReport:
    """Study outcome: per-window metric tables plus explicit verdicts."""

    study: str
    config: dict
    windows: list
    checks: list
    passed: bool
    replicates: int
    timing: dict = field(default_factory=dict)

    def to_json(self) -> str:
        payload = {"schema_version": SCHEMA_VERSION, **asdict(self)}
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"

    @staticmethod
    def from_json(text: str) -> "StudyReport":
        data = json.loads(text)
        return StudyReport(**_config_kwargs(StudyReport, data, "study report"))

    def to_csv(self) -> str:
        """One row per window per metric, for external plotting."""
        lines = ["window_index,volume,metric,value"]
        for idx, entry in enumerate(self.windows):
            for name in sorted(entry["metrics"]):
                value = entry["metrics"][name]
                lines.append(
                    f"{idx},{entry['volume']:.17g},{name},{value:.17g}"
                )
        return "\n".join(lines) + "\n"


def _tolerances(study: str, gamma: float, overrides) -> dict:
    """Bound of each tolerance key the study reads: its default, or the
    override; an override of another key or by a non-number is an error."""
    bounds = {
        "unbiasedness": {"se_multiple": 3.0},
        "variance_convergence": {"relative_error": 0.15, "decrease_slack": 0.0},
        "sigma2_consistency": {"relative_bias": 0.10},
        "null_level": {"level_low": gamma - 0.03, "level_high": gamma + 0.05},
        "power": {"power_at_largest": 0.5, "increase_slack": 0.05},
        "limit_law": {"limit_distance": 0.08},
        "estimator_equivalence": {"decrease_factor": 2.0},
    }[study]
    unknown = sorted(set(overrides) - set(bounds))
    if unknown:
        raise ValueError(f"unknown {study} tolerance keys: {unknown}")
    for key, value in dict(overrides).items():
        if not isinstance(value, numbers.Real) or not math.isfinite(value):
            raise ValueError(f"tolerance {key} must be a finite number, got {value!r}")
        bounds[key] = float(value)
    return bounds


def _check(name: str, value: float, bound: float, comparison: str) -> dict:
    ops = {
        "<=": value <= bound,
        ">=": value >= bound,
        "<": value < bound,
        ">": value > bound,
    }
    return {
        "name": name,
        "value": float(value),
        "bound": float(bound),
        "comparison": comparison,
        "passed": bool(ops[comparison]),
    }


class _StudyContext:
    """Resolved objects shared by all replicates of a study run.

    Building one parses and checks every part of the config, so
    ``StudyConfig`` builds one to validate itself.
    """

    def __init__(self, cfg: StudyConfig):
        self.cfg = cfg
        self.windows = [window_from_config(w) for w in cfg.windows]
        vols = [w.volume() for w in self.windows]
        if any(b <= a * (1 + 1e-12) for a, b in zip(vols, vols[1:])):
            raise ValueError("window ladder volumes must be strictly increasing")
        self.model = model_from_config(cfg.model)
        self.null_model = (
            model_from_config(cfg.null_model) if cfg.null_model is not None else self.model
        )
        self.body = body_from_config(cfg.body)
        self.weight_V = gof.IntegralWeight.from_config(cfg.weight_V or {})
        self.weight_v = gof.SupWeight.from_config(cfg.weight_v or {})
        self.statistics = tuple(gof.TestKind(s) for s in cfg.statistics)
        self.estimators = tuple(EstimatorKind(e) for e in cfg.estimators)
        estimator = EstimatorKind(cfg.estimator)
        KernelKind(cfg.kernel)
        self.radii = None if cfg.radii is None else np.asarray(cfg.radii, dtype=float)
        kind = cfg.study
        self.tolerances = _tolerances(kind, cfg.gamma, cfg.tolerances)
        if kind in _TEST_STUDIES:
            two = [s in gof._TWO_SAMPLE for s in self.statistics]
            if not two:
                raise ValueError("at least one statistic is required")
            if any(two) and not all(two):
                raise ValueError(
                    "statistics must be all one-sample or all two-sample"
                )
            self.two_sample = two[0]
            self.scalings, self.calibrations, _ = gof._checked_options(
                self.windows, self.body, cfg.alpha, cfg.R, cfg.bandwidth, cfg.gamma,
                self.statistics, self.radii, self.weight_V, self.weight_v, estimator,
            )
            if not self.two_sample:
                self.null_lambda = self.null_model.intensity
                self.null_kfun = k_function(self.null_model, self.body)
        elif kind == "sigma2_consistency":
            for w in self.windows:
                _kernel_support(w, cfg.bandwidth)
        elif kind == "unbiasedness":
            if self.radii is None or self.radii.size == 0:
                raise ValueError("unbiasedness requires evaluation radii")
            if np.any(self.radii <= 0) or np.any(np.diff(self.radii) <= 0):
                raise ValueError("radii must be positive and strictly increasing")
            self.kfun = k_function(self.model, self.body)
        elif kind == "variance_convergence":
            if not isinstance(self.model, PoissonModel):
                raise ValueError(
                    "variance_convergence requires a Poisson model (exact "
                    "covariance target)"
                )
            if cfg.replicates < 2:
                raise ValueError("variance_convergence requires replicates >= 2")
            if self.radii is None or self.radii.size not in (1, 2):
                raise ValueError(
                    "variance_convergence takes one radius (variance) or two "
                    "(covariance pair)"
                )
            if np.any(self.radii < 0):
                raise ValueError("radii must be nonnegative")
        elif kind == "estimator_equivalence":
            if not isinstance(self.model, PoissonModel):
                raise ValueError("estimator_equivalence requires a Poisson model")
            if not (cfg.scaled_radius > 0):
                raise ValueError("scaled_radius must be positive")
            self.kfun = k_function(self.model, self.body)
            self.scalings = [
                _Scaling.of(w, self.body, cfg.alpha, kernel=False) for w in self.windows
            ]

    # -- replicate kernels -------------------------------------------------

    def replicate(self, win_idx: int, rep_idx: int) -> np.ndarray:
        base = 2 * (win_idx * self.cfg.replicates + rep_idx)
        seed_a = SeedSpec(self.cfg.master_seed, base)
        seed_b = SeedSpec(self.cfg.master_seed, base + 1)
        rep, _ = _KERNELS[self.cfg.study]
        return rep(self, win_idx, seed_a, seed_b)

    def _rep_unbiasedness(self, w, seed, _seed_b) -> np.ndarray:
        window = self.windows[w]
        r_max = float(self.radii[-1])
        # the circumradius margin covers plus-sampling for every window shape
        margin = r_max * circumradius(self.body)
        need_ext = EstimatorKind.NAIVE in self.estimators
        pat = simulate(self.model, window.inflate(margin) if need_ext else window, seed)
        inner = restrict_pattern(pat, window) if need_ext else pat
        out = []
        for est in self.estimators:
            if est is EstimatorKind.NAIVE:
                k = k_hat(pat, self.body, r_max, kind=est, window=window)
            else:
                k = k_hat(inner, self.body, r_max, kind=est)
            out.append(k.eval(self.radii))
        return np.concatenate(out)

    def _rep_variance(self, w, seed, _seed_b) -> np.ndarray:
        pat = simulate(self.model, self.windows[w], seed)
        r_max = float(self.radii.max())
        if r_max == 0.0:
            return np.zeros(self.radii.size)
        k = k_hat(pat, self.body, r_max, kind=self.cfg.estimator)
        return np.asarray(k.eval(self.radii), dtype=float).reshape(-1)

    def _rep_sigma2(self, w, seed, _seed_b) -> np.ndarray:
        pat = simulate(self.model, self.windows[w], seed)
        val = sigma2_hat(pat, kernel=self.cfg.kernel, bandwidth=self.cfg.bandwidth)
        return np.array([val])

    def _rep_equivalence(self, w, seed, _seed_b) -> np.ndarray:
        window = self.windows[w]
        u0 = self.scalings[w].c_alpha * self.cfg.scaled_radius
        margin = u0 * circumradius(self.body)
        pat = simulate(self.model, window.inflate(margin), seed)
        inner = restrict_pattern(pat, window)
        ht = k_hat(inner, self.body, u0, kind="ht").eval(u0)
        naive = k_hat(pat, self.body, u0, kind="naive", window=window).eval(u0)
        plug = lambda2_hat(inner) * float(self.kfun(u0))
        return np.array([ht, naive, plug])

    def _rep_statistics(self, w, seed_a, seed_b) -> np.ndarray:
        cfg = self.cfg
        window = self.windows[w]
        if self.two_sample:
            # side b follows the hypothesis model; it defaults to the truth,
            # which gives identically distributed pairs for level studies
            pa = simulate(self.model, window, seed_a)
            pb = simulate(self.null_model, window, seed_b)
            reports = gof.two_sample_reports(
                pa, pb, self.body, cfg.alpha, cfg.R,
                tests=self.statistics, gamma=cfg.gamma,
                integral_weight=self.weight_V, sup_weight=self.weight_v,
                estimator=cfg.estimator, kernel=cfg.kernel,
                bandwidth=cfg.bandwidth, clamp=cfg.clamp,
            )
        else:
            est = EstimatorKind(cfg.estimator)
            if est is EstimatorKind.NAIVE:
                margin = self.scalings[w].c_alpha * cfg.R * circumradius(self.body)
                pat = simulate(self.model, window.inflate(margin), seed_a)
                win_arg = window
            else:
                pat = simulate(self.model, window, seed_a)
                win_arg = None
            reports = gof.one_sample_reports(
                pat, self.body, self.null_lambda, self.null_kfun,
                cfg.alpha, cfg.R, tests=self.statistics, gamma=cfg.gamma,
                integral_weight=self.weight_V, sup_weight=self.weight_v,
                radii=self.radii, estimator=est, window=win_arg,
                kernel=cfg.kernel, bandwidth=cfg.bandwidth, clamp=cfg.clamp,
            )
        return np.array([reports[s.value].statistic for s in self.statistics])

    # -- aggregation -------------------------------------------------------

    def aggregate(self, per_window: list) -> tuple[list, list]:
        _, agg = _KERNELS[self.cfg.study]
        return agg(self, per_window)

    def _window_entry(self, win_idx: int, metrics: dict) -> dict:
        return {
            "window": dict(self.cfg.windows[win_idx]),
            "volume": self.windows[win_idx].volume(),
            "metrics": {k: float(v) for k, v in metrics.items()},
        }

    def _agg_unbiasedness(self, per_window):
        cfg = self.cfg
        lam = self.model.intensity
        windows, checks = [], []
        tol_se = self.tolerances["se_multiple"]
        for w, vals in enumerate(per_window):
            metrics = {}
            for e_idx, est in enumerate(self.estimators):
                for r_idx, r in enumerate(self.radii):
                    col = vals[:, e_idx * self.radii.size + r_idx]
                    mean = _fsum_mean(col)
                    se = (
                        math.sqrt(_fsum_var(col, mean) / col.size)
                        if col.size > 1
                        else 0.0
                    )
                    target = lam**2 * float(self.kfun(r))
                    tag = f"{est.value}@r={r:g}"
                    metrics[f"mean.{tag}"] = mean
                    metrics[f"se.{tag}"] = se
                    metrics[f"target.{tag}"] = target
                    if w == len(per_window) - 1:
                        if est is EstimatorKind.BORDER:
                            checks.append(_check(
                                f"border_not_above.{tag}", mean - target,
                                tol_se * se, "<=",
                            ))
                        else:
                            checks.append(_check(
                                f"abs_bias.{tag}", abs(mean - target),
                                tol_se * se, "<=",
                            ))
            windows.append(self._window_entry(w, metrics))
        return windows, checks

    def _agg_variance(self, per_window):
        cfg = self.cfg
        lam = self.model.intensity
        s = float(self.radii.min())
        t = float(self.radii.max())
        target = theoretical_tau2(lam, self.body, s, t)
        windows, checks = [], []
        rel_errors = []
        for w, vals in enumerate(per_window):
            x, y = vals[:, 0], vals[:, -1]
            mx, my = _fsum_mean(x), _fsum_mean(y)
            cov = _fsum_cov(x, y, mx, my)
            scaled = self.windows[w].volume() * cov
            rel = abs(scaled - target) / target if target else abs(scaled)
            rel_errors.append(rel)
            windows.append(self._window_entry(w, {
                "scaled_cov": scaled,
                "target": target,
                "relative_error": rel,
            }))
        tol = self.tolerances["relative_error"]
        checks = [_check("relative_error_largest", rel_errors[-1], tol, "<=")]
        slack = self.tolerances["decrease_slack"]
        for i in range(len(rel_errors) - 1):
            checks.append(_check(
                f"relative_error_decreasing.{i}", rel_errors[i + 1],
                rel_errors[i] + slack, "<=",
            ))
        return windows, checks

    def _agg_sigma2(self, per_window):
        cfg = self.cfg
        target = theoretical_sigma2(self.model)
        windows, checks = [], []
        mses = []
        for w, vals in enumerate(per_window):
            col = vals[:, 0]
            mean = _fsum_mean(col)
            mse = _fsum_mean([(v - target) ** 2 for v in col.tolist()])
            mses.append(mse)
            windows.append(self._window_entry(w, {
                "mean": mean,
                "mse": mse,
                "target": target,
                "relative_bias": abs(mean - target) / target,
            }))
        tol = self.tolerances["relative_bias"]
        checks = [_check(
            "relative_bias_largest",
            windows[-1]["metrics"]["relative_bias"], tol, "<=",
        )]
        for i in range(len(mses) - 1):
            checks.append(_check(
                f"mse_decreasing.{i}", mses[i + 1], mses[i], "<=",
            ))
        return windows, checks

    def _agg_equivalence(self, per_window):
        cfg = self.cfg
        windows = []
        seq_naive, seq_plug = [], []
        for w, vals in enumerate(per_window):
            ht, naive, plug = vals[:, 0], vals[:, 1], vals[:, 2]
            norm = self.windows[w].volume() ** (1.0 - 2.0 * cfg.alpha)
            mse_naive = norm * _fsum_mean(
                [(a - b) ** 2 for a, b in zip(ht.tolist(), naive.tolist())]
            )
            mse_plug = norm * _fsum_mean(
                [(a - b) ** 2 for a, b in zip(ht.tolist(), plug.tolist())]
            )
            seq_naive.append(mse_naive)
            seq_plug.append(mse_plug)
            windows.append(self._window_entry(w, {
                "normalized_mse.ht_vs_naive": mse_naive,
                "normalized_mse.ht_vs_plugin": mse_plug,
            }))
        factor = self.tolerances["decrease_factor"]
        checks = []
        for name, seq in (("ht_vs_naive", seq_naive), ("ht_vs_plugin", seq_plug)):
            if len(seq) > 1 and seq[-1] > 0:
                checks.append(_check(
                    f"decrease_factor.{name}", seq[0] / seq[-1], factor, ">=",
                ))
            else:
                checks.append(_check(f"decrease_factor.{name}", factor, factor, ">="))
        return windows, checks

    def _agg_statistics(self, per_window):
        cfg = self.cfg
        windows = []
        rates = {s: [] for s in self.statistics}
        dists = {s: [] for s in self.statistics}
        for w, vals in enumerate(per_window):
            metrics = {}
            for s_idx, stat in enumerate(self.statistics):
                col = vals[:, s_idx]
                c = self.calibrations[stat].limit_constant * cfg.limit_constant_scale
                threshold = gof._threshold(stat, c, cfg.gamma)
                rate = _fsum_mean([1.0 if v > threshold else 0.0 for v in col.tolist()])
                dist = _ks_distance(col / c, gof._family(stat))
                rates[stat].append(rate)
                dists[stat].append(dist)
                n = col.size
                metrics[f"{stat.value}.rejection_rate"] = rate
                metrics[f"{stat.value}.binomial_se"] = math.sqrt(
                    max(rate * (1.0 - rate), 1e-12) / n
                )
                metrics[f"{stat.value}.limit_distance"] = dist
                metrics[f"{stat.value}.threshold"] = threshold
            windows.append(self._window_entry(w, metrics))
        checks = []
        if cfg.study == "null_level":
            lo = self.tolerances["level_low"]
            hi = self.tolerances["level_high"]
            for stat in self.statistics:
                checks.append(_check(
                    f"level_low.{stat.value}", rates[stat][-1], lo, ">=",
                ))
                checks.append(_check(
                    f"level_high.{stat.value}", rates[stat][-1], hi, "<=",
                ))
        elif cfg.study == "power":
            bound = self.tolerances["power_at_largest"]
            slack = self.tolerances["increase_slack"]
            for stat in self.statistics:
                checks.append(_check(
                    f"power_largest.{stat.value}", rates[stat][-1], bound, ">=",
                ))
                for i in range(len(rates[stat]) - 1):
                    checks.append(_check(
                        f"power_nondecreasing.{stat.value}.{i}",
                        rates[stat][i + 1], rates[stat][i] - slack, ">=",
                    ))
        else:
            bound = self.tolerances["limit_distance"]
            for stat in self.statistics:
                checks.append(_check(
                    f"limit_distance.{stat.value}", dists[stat][-1], bound, "<=",
                ))
        return windows, checks


# study kind -> (replicate, aggregate) methods of _StudyContext
_KERNELS = {
    "unbiasedness": (_StudyContext._rep_unbiasedness, _StudyContext._agg_unbiasedness),
    "variance_convergence": (_StudyContext._rep_variance, _StudyContext._agg_variance),
    "sigma2_consistency": (_StudyContext._rep_sigma2, _StudyContext._agg_sigma2),
    "null_level": (_StudyContext._rep_statistics, _StudyContext._agg_statistics),
    "power": (_StudyContext._rep_statistics, _StudyContext._agg_statistics),
    "limit_law": (_StudyContext._rep_statistics, _StudyContext._agg_statistics),
    "estimator_equivalence": (
        _StudyContext._rep_equivalence, _StudyContext._agg_equivalence,
    ),
}
STUDY_KINDS = tuple(_KERNELS)


def _ks_distance(normalized: np.ndarray, family: str) -> float:
    """Sup distance between the sample ECDF and the limit CDF."""
    v = np.sort(np.asarray(normalized, dtype=float))
    x = np.sqrt(np.maximum(v, 0.0)) if family == gof.CHI2_1 else np.maximum(v, 0.0)
    F = 2.0 * np.asarray(gof.normal_cdf(x)) - 1.0
    n = v.size
    i = np.arange(1, n + 1)
    return float(np.max(np.maximum(F - (i - 1) / n, i / n - F)))


# ---------------------------------------------------------------------------
# execution


_WORKER_CTX: dict = {}


def _init_worker(config: StudyConfig):
    _WORKER_CTX["ctx"] = _StudyContext(config)


def _run_task(task: tuple) -> np.ndarray:
    return _WORKER_CTX["ctx"].replicate(*task)


def run_study(config: StudyConfig | dict) -> StudyReport:
    """Run a study and return its deterministic report.

    The worker count comes from the config, overridden by the
    KSCOPE_THREADS environment variable when set; it never affects the
    report contents, only wall time.
    """
    if isinstance(config, dict):
        config = StudyConfig.from_config(config)
    ctx = _StudyContext(config)
    workers = int(os.environ.get("KSCOPE_THREADS", config.workers))
    if workers < 1:
        raise ValueError("worker count must be >= 1")
    tasks = [
        (w, r)
        for w in range(len(ctx.windows))
        for r in range(config.replicates)
    ]
    started = time.perf_counter()
    if workers == 1:
        results = [ctx.replicate(*t) for t in tasks]
    else:
        chunk = max(1, len(tasks) // (workers * 4))
        with ProcessPoolExecutor(
            max_workers=min(workers, len(tasks)),
            initializer=_init_worker,
            initargs=(config,),
        ) as pool:
            results = list(pool.map(_run_task, tasks, chunksize=chunk))
    elapsed = time.perf_counter() - started
    per_window = [
        np.vstack(results[w * config.replicates : (w + 1) * config.replicates])
        for w in range(len(ctx.windows))
    ]
    windows, checks = ctx.aggregate(per_window)
    return StudyReport(
        study=config.study,
        config=config.to_config(),
        windows=windows,
        checks=checks,
        passed=all(c["passed"] for c in checks),
        replicates=config.replicates,
        timing={"total_seconds": round(elapsed, 3)},
    )

