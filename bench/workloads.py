"""The benchmark's workloads: inputs from a seed, one timed round, checks.

Each workload drives kscope only through its public API and the
``kscope.cli.main`` entry point.  Every round runs the same list of
operations; ``check`` compares their outputs with the independent oracle
in ``oracle.py`` or with a property of the method.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import time
from dataclasses import asdict, dataclass, field

import numpy as np

import kscope
from kscope import cli, gof

# The checks import ``oracle`` (and through it scipy.spatial) where they run,
# so that its import time stays out of setup_s.

GAMMA = 0.05


@dataclass
class Round:
    """Counts, timings and outputs of one round of a workload.

    Rounds with equal ``inputs`` ran on the same inputs, so their outputs
    must be identical.
    """

    inputs: int = 0
    one_tests: int = 0
    one_s: float = 0.0
    two_tests: int = 0
    two_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    outputs: dict = field(default_factory=dict)

    def add(self, two_sample: bool, tests: int, seconds: float, ok: bool):
        self.attempted += 1
        self.failed += not ok
        if two_sample:
            self.two_tests += tests
            self.two_s += seconds
        else:
            self.one_tests += tests
            self.one_s += seconds


def _box(side, d=2):
    return {"shape": "box", "bounds": [[0.0] * d, [float(side)] * d]}


def _master_seed(seed, k, study):
    """Master seed of a study in round k: distinct for every (seed, k, study)."""
    return (seed * 1000 + k) * 10 + study


def _rel(a, b):
    return abs(a - b) / max(abs(b), 1e-300)


def _calibration(name, report, test, c, failures):
    """Limit constant, threshold, p-value and decision against closed forms."""
    import oracle as O

    thr = O.threshold(test, c, GAMMA)
    pv = O.p_value(test, report["statistic"], c)
    decision = "REJECT" if report["statistic"] > thr else "ACCEPT"
    for what, got, want in (
        ("limit_constant", report["limit_constant"], c),
        ("threshold", report["threshold"], thr),
    ):
        if _rel(got, want) > 1e-12:
            failures.append(f"{name}: {what} {got!r} != closed form {want!r}")
    if abs(report["p_value"] - pv) > 1e-12 + 1e-9 * pv:
        failures.append(f"{name}: p_value {report['p_value']!r} != {pv!r}")
    if report["decision"] != decision:
        failures.append(f"{name}: decision {report['decision']} != {decision}")


def _bracket(name, value, lo, hi, tol, failures):
    if not (lo - tol <= value <= hi + tol):
        failures.append(
            f"{name}: statistic {value!r} outside oracle [{lo!r}, {hi!r}] +/- {tol:.3g}"
        )


class SingleLarge:
    """One large observed pattern through the CLI: the single-test case."""

    SIDE = 170.0
    TWO_SIDE = 120.0
    GOF = (("ks", "linf"), ("cvm", "l2"), ("chi2", "l1"))
    TWO = ("ks", "cvm")

    def __init__(self, seed, out):
        self.seed = seed
        self.out = out

    def setup(self):
        model = kscope.PoissonModel(1.0)
        big = kscope.Box([0, 0], [self.SIDE, self.SIDE])
        small = kscope.Box([0, 0], [self.TWO_SIDE, self.TWO_SIDE])
        for name, window, stream in (
            ("big.csv", big, 0), ("a.csv", small, 1), ("b.csv", small, 2),
            ("warm.csv", kscope.Box([0, 0], [30, 30]), 3),
        ):
            pattern = kscope.simulate(model, window, kscope.SeedSpec(self.seed, stream))
            kscope.save_pattern(pattern, self.out / name)
        self._cli(["gof", "--pattern", str(self.out / "warm.csv"),
                   "--window", "box:0,0,30,30", "--stat", "ks", "--lambda0", "1",
                   "--R", "1", "--out", str(self.out / "warm.json")])

    def _cli(self, argv):
        with contextlib.redirect_stdout(io.StringIO()):
            started = time.perf_counter()
            code = cli.main(argv)
            return code == 0, time.perf_counter() - started

    def run_round(self, k):
        rnd = Round()
        big = f"box:0,0,{self.SIDE:g},{self.SIDE:g}"
        small = f"box:0,0,{self.TWO_SIDE:g},{self.TWO_SIDE:g}"
        calls = [
            (f"gof_{stat}", False,
             ["gof", "--pattern", str(self.out / "big.csv"), "--window", big,
              "--stat", stat, "--ball", ball, "--alpha", "0.5", "--R", "1",
              "--lambda0", "1"])
            for stat, ball in self.GOF
        ] + [
            (f"two_{stat}", True,
             ["twosample", "--pattern-a", str(self.out / "a.csv"),
              "--pattern-b", str(self.out / "b.csv"), "--window", small,
              "--stat", stat, "--ball", "l2", "--alpha", "0.5", "--R", "1"])
            for stat in self.TWO
        ]
        for name, two, argv in calls:
            path = self.out / f"{name}.json"
            path.unlink(missing_ok=True)
            ok, seconds = self._cli(argv + ["--out", str(path)])
            rnd.add(two, 1, seconds, ok)
            rnd.outputs[name] = path.read_text() if ok else None
        return rnd

    def check(self, rounds) -> list:
        import oracle as O

        failures = []
        first = rounds[0]
        if None in first.outputs.values():
            return ["a CLI call failed"]
        big = np.loadtxt(self.out / "big.csv", delimiter=",", skiprows=1)
        window = O.box([0, 0], [self.SIDE, self.SIDE])
        radii = 1.0 * np.arange(1, 6) / 5.0
        for stat, ball in self.GOF:
            report = json.loads(first.outputs[f"gof_{stat}"])
            con = O.Contrast(big, window, ball, 0.5, 1.0)
            beta = con.scale * O.body_volume(ball, 2) * con.c_alpha**2

            def theta(r, beta=beta):
                return beta * np.asarray(r, float) ** 2

            lo, hi, tol = O.one_sample(con, stat, 1.0, theta, beta=beta, radii=radii)
            del con
            _bracket(f"gof {stat}", report["statistic"], lo, hi, tol, failures)
            c = O.limit_constant(stat, ball, 2, R=1.0, n_radii=radii.size)
            _calibration(f"gof {stat}", report, stat, c, failures)
        window = O.box([0, 0], [self.TWO_SIDE, self.TWO_SIDE])
        ca = O.Contrast(np.loadtxt(self.out / "a.csv", delimiter=",", skiprows=1),
                        window, "l2", 0.5, 1.0)
        cb = O.Contrast(np.loadtxt(self.out / "b.csv", delimiter=",", skiprows=1),
                        window, "l2", 0.5, 1.0)
        for stat in self.TWO:
            test = f"two_{stat}"
            report = json.loads(first.outputs[test])
            value, tol = O.two_sample(ca, cb, test)
            _bracket(f"twosample {stat}", report["statistic"], value, value, tol, failures)
            c = O.limit_constant(test, "l2", 2, R=1.0)
            _calibration(f"twosample {stat}", report, test, c, failures)
        return failures


def _report_text(report) -> str:
    """Study report JSON without its timing and echoed worker count."""
    data = json.loads(report.to_json())
    data.pop("timing")
    data["config"].pop("workers")
    return json.dumps(data, sort_keys=True)


class _Studies:
    """Workloads made of ``run_study`` calls; subclasses define ``studies``.

    Round k runs the same studies with master seeds drawn from (seed, k), so
    the median over rounds averages over the inputs as well as over the
    machine's noise.
    """

    # At two workers, on a two-core machine shared with other work, the rates
    # drifted twice as far between sets of runs; the README has both figures.
    workers = 1

    def __init__(self, seed, out):
        self.seed = seed

    def setup(self):
        cfg = next(iter(self.studies(self.seed, 0).values()))
        kscope.run_study(dict(cfg, replicates=1, workers=1))

    def run_round(self, k):
        rnd = Round(inputs=k)
        for name, cfg in self.studies(self.seed, k).items():
            two = cfg["statistics"][0].startswith("two_")
            tests = cfg["replicates"] * len(cfg["windows"]) * len(cfg["statistics"])
            started = time.perf_counter()
            try:
                report = kscope.run_study(dict(cfg, workers=self.workers))
            except ValueError as exc:
                rnd.add(two, tests, time.perf_counter() - started, False)
                rnd.outputs[name] = f"error: {exc}"
                continue
            rnd.add(two, tests, time.perf_counter() - started, True)
            rnd.outputs[name] = _report_text(report)
        return rnd


class McNull(_Studies):
    """Monte-Carlo null-level studies: many small patterns."""

    # The small-window level of the asymptotic tests: acceptance criterion 7
    # allows [0.02, 0.10] at [0,50]^2, and on these smaller windows the levels
    # measured over 400 (2-d) and 150 (3-d) replicates per window were
    # 0.05-0.11.  The rejection count of each study, window and statistic,
    # pooled over the run's rounds, must lie within binomial tails of 1e-7 of
    # this band, a bound no seed should break by chance.
    LEVEL_BAND = (0.01, 0.15)
    TAIL = 1e-7

    @staticmethod
    def studies(seed, k):
        base = {"study": "null_level", "model": {"variant": "poisson", "lambda": 1.0},
                "alpha": 0.5, "gamma": GAMMA}
        l2 = {"shape": "l2", "dim": 2, "radius_scale": 1.0}
        return {
            "one_2d": dict(base, windows=[_box(20), _box(30)], body=l2, R=1.0,
                           replicates=40, master_seed=_master_seed(seed, k, 1),
                           statistics=["ks", "cvm", "chi2"]),
            "two_2d": dict(base, windows=[_box(20), _box(30)], body=l2, R=1.0,
                           replicates=40, master_seed=_master_seed(seed, k, 2),
                           statistics=["two_ks", "two_cvm"]),
            "one_3d": dict(base, windows=[_box(12, 3), _box(16, 3)],
                           body={"shape": "linf", "dim": 3, "radius_scale": 1.0},
                           R=0.5, replicates=8, master_seed=_master_seed(seed, k, 3),
                           statistics=["ks", "cvm", "chi2"]),
        }

    def check(self, rounds) -> list:
        from scipy.stats import binom

        failures = []
        hits, draws = {}, {}  # per (study, window, statistic), over distinct rounds
        for k in sorted({rnd.inputs for rnd in rounds}):
            rnd = next(r for r in rounds if r.inputs == k)
            for name, cfg in self.studies(self.seed, k).items():
                text = rnd.outputs[name]
                if text.startswith("error"):
                    failures.append(f"round {k} {name}: {text}")
                    continue
                n = cfg["replicates"]
                for w, entry in enumerate(json.loads(text)["windows"]):
                    for stat in cfg["statistics"]:
                        key = (name, w, stat)
                        rate = entry["metrics"][f"{stat}.rejection_rate"]
                        hits[key] = hits.get(key, 0) + round(rate * n)
                        draws[key] = draws.get(key, 0) + n
        for (name, w, stat), n in draws.items():
            lo = binom.ppf(self.TAIL, n, self.LEVEL_BAND[0])
            hi = binom.isf(self.TAIL, n, self.LEVEL_BAND[1])
            if not lo <= hits[name, w, stat] <= hi:
                failures.append(
                    f"{name} window {w} {stat}: {hits[name, w, stat]}/{n} rejections "
                    f"outside [{lo:g}, {hi:g}]"
                )
        for name, cfg in self.studies(self.seed, 0).items():
            small = dict(cfg, replicates=3)
            one = _report_text(kscope.run_study(dict(small, workers=1)))
            two = _report_text(kscope.run_study(dict(small, workers=2)))
            if one != two:
                failures.append(f"{name}: reports differ between 1 and 2 workers")
        return failures


class McWeighted(_Studies):
    """Weighted statistics: exp_decay sup weight, exp_density integral weight."""

    SUP_A = 4.0
    INT_B = 2.0
    CHECKED_REPLICATES = 2

    @classmethod
    def studies(cls, seed, k):
        thomas = {"variant": "thomas", "kappa": 0.25, "mu": 4.0, "sigma_c": 0.5}
        disk = {"shape": "disk", "center": [0.0, 0.0], "radius": 22.0}
        base = {"study": "null_level", "alpha": 0.5, "gamma": GAMMA, "R": 1.0,
                "body": {"shape": "l2", "dim": 2, "radius_scale": 1.0},
                "weight_v": {"kind": "exp_decay", "a": cls.SUP_A},
                "weight_V": {"kind": "exp_density", "b": cls.INT_B}}
        return {
            "poisson_box": dict(base, model={"variant": "poisson", "lambda": 1.0},
                                windows=[_box(40)], replicates=8,
                                master_seed=_master_seed(seed, k, 4), statistics=["ks", "cvm"]),
            "thomas_disk": dict(base, model=thomas, windows=[disk], replicates=8,
                                master_seed=_master_seed(seed, k, 5), statistics=["ks", "cvm"]),
            "two_disk": dict(base, model=thomas, windows=[disk], replicates=16,
                             master_seed=_master_seed(seed, k, 6),
                             statistics=["two_ks", "two_cvm"]),
        }

    def check(self, rounds) -> list:
        import oracle as O

        failures = []
        for rnd in rounds:
            for name, text in rnd.outputs.items():
                if text.startswith("error"):
                    failures.append(f"round {rnd.inputs} {name}: {text}")
        sup_w = gof.SupWeight("exp_decay", self.SUP_A)
        int_w = gof.IntegralWeight("exp_density", self.INT_B)
        body = kscope.StructuringBody(2, "l2")
        for name, cfg in self.studies(self.seed, 0).items():
            model = kscope.model_from_config(cfg["model"])
            win_cfg = cfg["windows"][0]
            window = kscope.window_from_config(win_cfg)
            if win_cfg["shape"] == "box":
                owin = O.box(*win_cfg["bounds"])
            else:
                owin = O.disk(win_cfg["center"], win_cfg["radius"])
            for rep in range(self.CHECKED_REPLICATES):
                # replicate rep of window 0 draws from streams 2 rep and 2 rep + 1
                seeds = [kscope.SeedSpec(cfg["master_seed"], 2 * rep + s) for s in (0, 1)]
                tag = f"{name} replicate {rep}"
                if name == "two_disk":
                    pa, pb = (kscope.simulate(model, window, s) for s in seeds)
                    reports = gof.two_sample_reports(
                        pa, pb, body, 0.5, 1.0, tests=cfg["statistics"],
                        sup_weight=sup_w, integral_weight=int_w, clamp=True)
                    ca = O.Contrast(pa.points, owin, "l2", 0.5, 1.0)
                    cb = O.Contrast(pb.points, owin, "l2", 0.5, 1.0)
                    for test in cfg["statistics"]:
                        value, tol = O.two_sample(ca, cb, test, self.SUP_A, self.INT_B)
                        report = asdict(reports[test])
                        _bracket(f"{tag} {test}", report["statistic"], value, value, tol,
                                 failures)
                        self._calibrate(tag, report, test, failures)
                    continue
                pattern = kscope.simulate(model, window, seeds[0])
                reports = gof.one_sample_reports(
                    pattern, body, model.intensity, kscope.k_function(model, body),
                    0.5, 1.0, tests=cfg["statistics"], sup_weight=sup_w,
                    integral_weight=int_w, clamp=True)
                con = O.Contrast(pattern.points, owin, "l2", 0.5, 1.0)
                theta, beta = self._null_curve(con, cfg["model"], model.intensity)
                for test in cfg["statistics"]:
                    if test == "ks":
                        lo, hi, tol = O.one_sample(con, "ks", model.intensity, theta,
                                                   sup_a=self.SUP_A)
                    else:
                        lo, hi, tol = O.one_sample(con, "cvm", model.intensity, theta,
                                                   beta=beta, int_b=self.INT_B)
                        # kscope integrates each piece by a 16-point rule
                        tol += 1e-10 * abs(hi)
                    report = asdict(reports[test])
                    _bracket(f"{tag} {test}", report["statistic"], lo, hi, tol, failures)
                    self._calibrate(tag, report, test, failures)
        return failures

    def _calibrate(self, tag, report, test, failures):
        import oracle as O

        c = O.limit_constant(test, "l2", 2, R=1.0, sup_a=self.SUP_A, int_b=self.INT_B)
        _calibration(f"{tag} {test}", report, test, c, failures)

    @staticmethod
    def _null_curve(con, model_cfg, lam0):
        """Scaled hypothesized curve theta(r), and beta when it is beta r^2."""
        if model_cfg["variant"] == "poisson":
            beta = con.scale * lam0**2 * math.pi * con.c_alpha**2
            return (lambda r: beta * np.asarray(r, float) ** 2), beta
        kappa, sigma = model_cfg["kappa"], model_cfg["sigma_c"]

        def theta(r):
            u = con.c_alpha * np.asarray(r, float)
            k = math.pi * u**2 + (1.0 - np.exp(-(u**2) / (4.0 * sigma**2))) / kappa
            return con.scale * lam0**2 * k

        return theta, None


WORKLOADS = {
    "single_large": SingleLarge,
    "mc_null": McNull,
    "mc_weighted": McWeighted,
}
