"""Monte-Carlo harness tests.

Fast configurations throughout: these exercise config validation, seed
bookkeeping, worker-count invariance, aggregation, and report formats.
The statistically strict runs live in the acceptance suite.
"""

import dataclasses
import json
import math

import numpy as np
import pytest

from kscope import estimate, gof, mcharness
from kscope.cli import main
from kscope.estimate import _Scaling
from kscope.geometry import (
    BodyShape,
    Box,
    StructuringBody,
    body_from_config,
    circumradius,
    window_from_config,
)
from kscope.gof import limit_constant, normal_quantile, TestKind as Kind
from kscope.mcharness import StudyConfig, StudyReport, run_study
from kscope.simulate import (
    PoissonModel,
    SeedSpec,
    k_function,
    simulate,
    theoretical_sigma2,
    theoretical_tau2,
)


def box(side):
    return {"shape": "box", "bounds": [[0.0, 0.0], [float(side), float(side)]]}


L2_BODY = {"shape": "l2", "dim": 2, "radius_scale": 1.0}
POISSON1 = {"variant": "poisson", "lambda": 1.0}


def base_config(**overrides):
    cfg = dict(
        study="unbiasedness",
        model=POISSON1,
        windows=(box(8), box(10)),
        body=L2_BODY,
        replicates=50,
        master_seed=7,
        radii=(0.5, 1.0),
        estimators=("ht", "border"),
    )
    cfg.update(overrides)
    return StudyConfig(**cfg)


# -- configuration ----------------------------------------------------------


def test_config_roundtrip():
    cfg = base_config(
        workers=3,
        alpha=0.4,
        R=0.8,
        gamma=0.1,
        statistics=("ks", "cvm"),
        estimator="border",
        weight_V={"kind": "lebesgue"},
        weight_v={"kind": "exp_decay", "a": 2.5},
        kernel="triangular",
        bandwidth=0.2,
        clamp=False,
        null_model={"variant": "poisson", "lambda": 2.0},
        scaled_radius=0.7,
        limit_constant_scale=1.5,
        tolerances={"se_multiple": 4.0},
    )
    again = StudyConfig.from_config(cfg.to_config())
    assert again == cfg
    # and the dict itself survives a JSON trip
    assert StudyConfig.from_config(json.loads(json.dumps(cfg.to_config()))) == cfg
    # its keys are the field names, and no field keeps its default
    names = {f.name for f in dataclasses.fields(StudyConfig)}
    assert set(cfg.to_config()) == names | {"schema_version"}
    for f in dataclasses.fields(StudyConfig):
        if f.default_factory is not dataclasses.MISSING:
            assert getattr(cfg, f.name) != f.default_factory(), f.name
        elif f.default is not dataclasses.MISSING:
            assert getattr(cfg, f.name) != f.default, f.name
    required = dict(cfg.to_config())
    del required["replicates"]
    with pytest.raises(ValueError, match=r"missing study config keys: \['replicates'\]"):
        StudyConfig.from_config(required)


def test_config_rejections():
    with pytest.raises(ValueError, match="unknown study"):
        base_config(study="bogus")
    with pytest.raises(ValueError, match="replicates"):
        base_config(replicates=0)
    with pytest.raises(ValueError, match="window"):
        base_config(windows=())
    with pytest.raises(ValueError, match="alpha"):
        base_config(alpha=0.6)
    with pytest.raises(ValueError, match="alpha"):
        base_config(alpha=0.0)
    with pytest.raises(ValueError, match="gamma"):
        base_config(gamma=1.0)
    with pytest.raises(ValueError, match="gamma"):
        base_config(gamma=0.0)
    with pytest.raises(ValueError, match="workers"):
        base_config(workers=0)
    with pytest.raises(ValueError, match="limit_constant_scale"):
        base_config(limit_constant_scale=0.0)
    with pytest.raises(ValueError, match="strictly increasing"):
        base_config(windows=(box(10), box(10)))
    with pytest.raises(ValueError, match="strictly increasing"):
        base_config(windows=(box(10), box(8)))
    with pytest.raises(ValueError):
        base_config(model={"variant": "poisson", "lambda": 0.0})
    with pytest.raises(ValueError):
        base_config(model={"variant": "nope"})
    with pytest.raises(ValueError):
        base_config(null_model={"variant": "poisson", "lambda": -1.0})
    with pytest.raises(ValueError):
        base_config(body={"shape": "l2"})
    with pytest.raises(ValueError):
        base_config(statistics=("ks", "bogus"))
    with pytest.raises(ValueError):
        base_config(estimator="bogus")
    with pytest.raises(ValueError):
        base_config(estimators=("ht", "bogus"))


def test_from_config_rejects_unknown_keys():
    cfg = base_config().to_config()
    cfg["typo_key"] = 1
    with pytest.raises(ValueError, match="unknown study config keys"):
        StudyConfig.from_config(cfg)
    # schema_version itself is tolerated
    assert "schema_version" in base_config().to_config()


def test_study_specific_validation():
    with pytest.raises(ValueError, match="radii"):
        run_study(base_config(radii=None))
    with pytest.raises(ValueError, match="strictly increasing"):
        run_study(base_config(radii=(1.0, 0.5)))
    thomas = {"variant": "thomas", "kappa": 1.0, "mu": 2.0, "sigma_c": 0.3}
    with pytest.raises(ValueError, match="Poisson"):
        run_study(base_config(
            study="variance_convergence", model=thomas, radii=(0.5,),
        ))
    with pytest.raises(ValueError, match="replicates"):
        run_study(base_config(
            study="variance_convergence", replicates=1, radii=(0.5,),
        ))
    with pytest.raises(ValueError, match="one radius"):
        run_study(base_config(
            study="variance_convergence", radii=(0.2, 0.4, 0.6),
        ))
    with pytest.raises(ValueError, match="one-sample or all two-sample"):
        run_study(base_config(
            study="null_level", statistics=("ks", "two_ks"), radii=None,
        ))
    with pytest.raises(ValueError, match="Poisson"):
        run_study(base_config(
            study="estimator_equivalence", model=thomas, radii=None,
        ))
    with pytest.raises(ValueError, match="scaled_radius"):
        run_study(base_config(
            study="estimator_equivalence", scaled_radius=0.0, radii=None,
        ))


def test_scaled_domain_guard_rejects_ladder_early(tmp_path):
    # c^alpha R circumradius(B) = sqrt(8) * 0.5 * sqrt(3) exceeds rho / 2 = 2
    cfg = {
        "study": "null_level",
        "model": POISSON1,
        "windows": [
            {"shape": "box", "bounds": [[0.0] * 3, [8.0] * 3]},
            {"shape": "box", "bounds": [[0.0] * 3, [11.0] * 3]},
        ],
        "body": {"shape": "linf", "dim": 3, "radius_scale": 1.0},
        "replicates": 4,
        "master_seed": 5,
        "statistics": ["ks"],
        "R": 0.5,
        "workers": 2,
    }
    with pytest.raises(ValueError, match="half the window inradius"):
        StudyConfig.from_config(cfg)
    cfg_path = tmp_path / "guard.json"
    cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
    assert main(["mc", str(cfg_path)]) == 1
    # the guard only concerns the test-statistic studies
    StudyConfig.from_config(dict(cfg, study="unbiasedness", radii=[0.5]))


# well-formed configs that a replicate would otherwise be the first to reject;
# on box(12), c = 12 and the inradius is 6
_LATE_ERRORS = {
    "naive_two_sample": (
        {"statistics": ["two_ks"], "estimator": "naive"}, "ht and border"),
    "chi2_radii_decreasing": (
        {"statistics": ["chi2"], "radii": [0.4, 0.2]}, "strictly increasing"),
    "chi2_radii_beyond_R": (
        {"statistics": ["chi2"], "radii": [0.2, 0.6]}, "strictly increasing"),
    "exp_decay_below_d_over_R": (
        {"weight_v": {"kind": "exp_decay", "a": 3.0}}, "a >= d/R"),
    "two_sample_exp_decay": (
        {"statistics": ["two_ks"], "weight_v": {"kind": "exp_decay", "a": 3.0}},
        "a >= d/R"),
    "unknown_weight_V": (
        {"statistics": ["cvm"], "weight_V": {"kind": "bogus"}}, "integral weight"),
    "unknown_kernel": ({"kernel": "bogus"}, "bogus"),
    "zero_bandwidth": ({"bandwidth": 0.0}, "bandwidth"),
    "negative_bandwidth": ({"study": "sigma2_consistency", "bandwidth": -1.0}, "bandwidth"),
    "kernel_support_reaches_inradius": ({"bandwidth": 0.5}, "kernel support"),
    "sigma2_kernel_support": (
        {"study": "sigma2_consistency", "bandwidth": 0.5}, "kernel support"),
    "chi2_radii_nan": (
        {"statistics": ["chi2"], "radii": [0.2, float("nan")]}, "strictly increasing"),
    "master_seed_negative": ({"master_seed": -1}, "master_seed must be"),
    "master_seed_fractional": ({"master_seed": 1.5}, "master_seed must be"),
    "replicates_fractional": ({"replicates": 2.5}, "replicates must be an integer"),
    "workers_fractional": ({"workers": 1.5}, "workers must be an integer"),
    "tolerance_key_typo": (
        {"tolerances": {"level_lo": 0.0}}, r"unknown null_level tolerance keys: \['level_lo'\]"),
    "tolerance_key_of_other_study": (
        {"tolerances": {"se_multiple": 4.0}}, "unknown null_level tolerance keys"),
    "tolerance_not_a_number": (
        {"tolerances": {"level_low": "low"}}, "tolerance level_low must be a finite number"),
    "tolerance_nan": (
        {"tolerances": {"level_high": float("nan")}}, "tolerance level_high must be"),
    "unknown_model_key": (
        {"model": {"variant": "poisson", "lambda": 1.0, "sigma_c": 0.5}},
        r"unknown poisson model keys: \['sigma_c'\]"),
    "unknown_null_model_key": (
        {"null_model": {"variant": "poisson", "lambda": 1.0, "r_c": 0.5}},
        r"unknown poisson model keys: \['r_c'\]"),
    "unknown_weight_V_key": (
        {"statistics": ["cvm"], "weight_V": {"kind": "lebesgue", "a": 2.0}},
        r"unknown integral weight keys: \['a'\]"),
    "unknown_weight_v_key": (
        {"weight_v": {"kind": "const_one", "b": 2.0}}, r"unknown sup weight keys: \['b'\]"),
}


@pytest.mark.parametrize("case", sorted(_LATE_ERRORS))
def test_config_errors_fail_before_any_replicate(case, tmp_path):
    overrides, message = _LATE_ERRORS[case]
    cfg = dict(
        study="null_level", model=POISSON1, windows=[box(12)], body=L2_BODY,
        replicates=2, master_seed=3, statistics=["ks"], R=0.5, workers=2,
    )
    cfg.update(overrides)
    with pytest.raises(ValueError, match=message):
        StudyConfig.from_config(cfg)
    cfg_path = tmp_path / "late.json"
    cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
    assert main(["mc", str(cfg_path)]) == 1


# -- determinism ------------------------------------------------------------


def _strip_volatile(report, drop_workers=False):
    data = json.loads(report.to_json())
    data.pop("timing")
    if drop_workers:
        data["config"].pop("workers")
    return data


def test_rerun_is_bit_identical():
    cfg = base_config(replicates=6, windows=(box(5), box(6)), radii=(0.4,),
                      estimators=("ht",))
    a = run_study(cfg)
    b = run_study(cfg)
    assert _strip_volatile(a) == _strip_volatile(b)


def test_worker_count_does_not_change_results():
    kwargs = dict(replicates=6, windows=(box(5), box(6)), radii=(0.4,),
                  estimators=("ht", "border"))
    serial = run_study(base_config(workers=1, **kwargs))
    pooled = run_study(base_config(workers=8, **kwargs))
    assert _strip_volatile(serial, drop_workers=True) == _strip_volatile(
        pooled, drop_workers=True
    )


def test_thread_env_override(monkeypatch):
    cfg = base_config(replicates=6, windows=(box(5), box(6)), radii=(0.4,),
                      estimators=("ht",), workers=1)
    serial = run_study(cfg)
    monkeypatch.setenv("KSCOPE_THREADS", "3")
    pooled = run_study(cfg)
    # the override changes execution only; the config echo stays workers=1
    assert _strip_volatile(serial) == _strip_volatile(pooled)
    monkeypatch.setenv("KSCOPE_THREADS", "0")
    with pytest.raises(ValueError, match="worker count"):
        run_study(cfg)


# -- study smoke runs -------------------------------------------------------


@pytest.fixture(scope="module")
def unbias_report():
    return run_study(base_config())


def test_unbiasedness_report(unbias_report):
    rep = unbias_report
    assert rep.study == "unbiasedness"
    assert rep.replicates == 50
    assert len(rep.windows) == 2
    m = rep.windows[-1]["metrics"]
    # lambda^2 * K(r) for unit-rate Poisson and an L2 ball
    assert m["target.ht@r=0.5"] == pytest.approx(math.pi * 0.25)
    assert m["target.border@r=1"] == pytest.approx(math.pi)
    for tag in ("ht@r=0.5", "ht@r=1", "border@r=0.5", "border@r=1"):
        assert m[f"mean.{tag}"] > 0.0
        assert m[f"se.{tag}"] > 0.0
    names = {c["name"] for c in rep.checks}
    assert names == {
        "abs_bias.ht@r=0.5", "abs_bias.ht@r=1",
        "border_not_above.border@r=0.5", "border_not_above.border@r=1",
    }
    assert rep.passed
    assert all(c["passed"] for c in rep.checks)


def test_variance_zero_radius_is_degenerate_zero():
    rep = run_study(base_config(
        study="variance_convergence", replicates=3,
        windows=(box(5), box(6)), radii=(0.0,), estimators=("ht",),
    ))
    for entry in rep.windows:
        assert entry["metrics"]["scaled_cov"] == 0.0
        assert entry["metrics"]["target"] == 0.0
        assert entry["metrics"]["relative_error"] == 0.0
    assert rep.passed


def test_variance_smoke_targets():
    model = {"variant": "poisson", "lambda": 2.0}
    rep = run_study(base_config(
        study="variance_convergence", model=model, replicates=80,
        windows=(box(8), box(11)), radii=(0.3, 0.6), estimators=("ht",),
        tolerances={"relative_error": 10.0, "decrease_slack": 10.0},
    ))
    from kscope.geometry import StructuringBody, BodyShape

    body = StructuringBody(2, BodyShape.L2_BALL)
    want = theoretical_tau2(2.0, body, 0.3, 0.6)
    for entry in rep.windows:
        assert entry["metrics"]["target"] == pytest.approx(want, rel=1e-12)
        assert math.isfinite(entry["metrics"]["scaled_cov"])
    names = [c["name"] for c in rep.checks]
    assert names[0] == "relative_error_largest"
    assert "relative_error_decreasing.0" in names
    assert rep.passed  # bounds deliberately loose


def test_sigma2_smoke_and_empty_patterns():
    # intensity low enough that many replicates carry zero or one point;
    # the estimator returns 0 there and aggregation must stay finite
    rep = run_study(base_config(
        study="sigma2_consistency", replicates=40,
        model={"variant": "poisson", "lambda": 0.02},
        windows=(box(4), box(6)), radii=None, estimators=("ht",),
        tolerances={"relative_bias": 100.0},
    ))
    for entry in rep.windows:
        assert math.isfinite(entry["metrics"]["mean"])
        assert entry["metrics"]["mse"] >= 0.0
        assert entry["metrics"]["target"] == pytest.approx(0.02)
    assert {c["name"] for c in rep.checks} >= {"relative_bias_largest"}


def test_sigma2_target_for_cluster_model():
    thomas = {"variant": "thomas", "kappa": 0.5, "mu": 3.0, "sigma_c": 0.4}
    rep = run_study(base_config(
        study="sigma2_consistency", model=thomas, replicates=5,
        windows=(box(6), box(8)), radii=None, estimators=("ht",),
        tolerances={"relative_bias": 100.0},
    ))
    want = 0.5 * 3.0 * 4.0  # kappa mu (1 + mu)
    assert rep.windows[0]["metrics"]["target"] == pytest.approx(want)
    from kscope.simulate import ThomasModel

    assert theoretical_sigma2(ThomasModel(0.5, 3.0, 0.4)) == pytest.approx(want)


def test_null_level_metrics_and_threshold():
    rep = run_study(base_config(
        study="null_level", replicates=40, windows=(box(12),), R=0.5,
        radii=None, estimators=("ht",), statistics=("ks", "cvm"),
        tolerances={"level_low": -1.0, "level_high": 1.0},
    ))
    m = rep.windows[0]["metrics"]
    z = normal_quantile(0.975)
    from kscope.geometry import StructuringBody, BodyShape

    body = StructuringBody(2, BodyShape.L2_BALL)
    assert m["ks.threshold"] == pytest.approx(
        limit_constant(Kind.KS, body, R=0.5) * z
    )
    assert m["cvm.threshold"] == pytest.approx(
        limit_constant(Kind.CVM, body, R=0.5) * z * z
    )
    for stat in ("ks", "cvm"):
        assert 0.0 <= m[f"{stat}.rejection_rate"] <= 1.0
        assert m[f"{stat}.binomial_se"] > 0.0
        assert 0.0 <= m[f"{stat}.limit_distance"] <= 1.0
    assert {c["name"] for c in rep.checks} == {
        "level_low.ks", "level_high.ks", "level_low.cvm", "level_high.cvm",
    }
    assert rep.passed


@pytest.mark.parametrize("statistics", [("chi2", "ks", "cvm"), ("two_ks", "two_cvm")])
def test_study_thresholds_are_the_reports(statistics):
    """Each window's threshold equals the one a report call gives for a
    replicate of it; chi2 runs with its default radii."""
    cfg = base_config(
        study="null_level", replicates=2, windows=(box(10), box(12)), R=0.5,
        radii=None, estimators=("ht",), statistics=statistics,
        weight_v={"kind": "exp_decay", "a": 8.0},
        weight_V={"kind": "exp_density", "b": 1.0},
        tolerances={"level_low": -1.0, "level_high": 1.0},
    )
    rep = run_study(cfg)
    body = body_from_config(L2_BODY)
    kwargs = dict(
        tests=statistics, clamp=True,
        integral_weight=gof.IntegralWeight("exp_density", 1.0),
        sup_weight=gof.SupWeight("exp_decay", 8.0),
    )
    for w, entry in enumerate(rep.windows):
        window = window_from_config(cfg.windows[w])
        stream = 2 * w * cfg.replicates
        pa = simulate(PoissonModel(1.0), window, SeedSpec(cfg.master_seed, stream))
        if statistics[0].startswith("two_"):
            pb = simulate(PoissonModel(1.0), window, SeedSpec(cfg.master_seed, stream + 1))
            reports = gof.two_sample_reports(pa, pb, body, 0.5, 0.5, **kwargs)
        else:
            reports = gof.one_sample_reports(
                pa, body, 1.0, k_function(PoissonModel(1.0), body), 0.5, 0.5, **kwargs
            )
        for stat in statistics:
            assert entry["metrics"][f"{stat}.threshold"] == reports[stat].threshold


def test_two_sample_power_smoke():
    rep = run_study(base_config(
        study="power", replicates=30, windows=(box(8), box(10)), R=0.5,
        radii=None, estimators=("ht",), statistics=("two_ks",),
        tolerances={"power_at_largest": 0.0, "increase_slack": 1.0},
    ))
    m = rep.windows[-1]["metrics"]
    assert "two_ks.rejection_rate" in m
    names = {c["name"] for c in rep.checks}
    assert names == {"power_largest.two_ks", "power_nondecreasing.two_ks.0"}
    assert rep.passed


def test_limit_law_smoke():
    rep = run_study(base_config(
        study="limit_law", replicates=40, windows=(box(12),), R=0.5,
        radii=None, estimators=("ht",), statistics=("ks",),
        tolerances={"limit_distance": 1.0},
    ))
    dist = rep.windows[0]["metrics"]["ks.limit_distance"]
    assert 0.0 < dist < 1.0
    assert rep.checks[0]["name"] == "limit_distance.ks"
    assert rep.checks[0]["bound"] == 1.0
    assert rep.passed


def test_limit_constant_scale_forces_failure():
    # inflating the limit constant suppresses every rejection, so the
    # lower level bound must fail; this is the harness self-check hook
    rep = run_study(base_config(
        study="null_level", replicates=25, windows=(box(10),), R=0.5,
        radii=None, estimators=("ht",), statistics=("ks",),
        limit_constant_scale=1000.0,
    ))
    assert rep.windows[0]["metrics"]["ks.rejection_rate"] == 0.0
    low = next(c for c in rep.checks if c["name"] == "level_low.ks")
    assert not low["passed"]
    assert not rep.passed
    assert rep.config["limit_constant_scale"] == 1000.0


def test_equivalence_smoke():
    rep = run_study(base_config(
        study="estimator_equivalence", replicates=40,
        windows=(box(5), box(9)), radii=None, estimators=("ht",),
        scaled_radius=0.5, tolerances={"decrease_factor": 1e-9},
    ))
    for entry in rep.windows:
        assert entry["metrics"]["normalized_mse.ht_vs_naive"] >= 0.0
        assert entry["metrics"]["normalized_mse.ht_vs_plugin"] >= 0.0
    names = {c["name"] for c in rep.checks}
    assert names == {
        "decrease_factor.ht_vs_naive", "decrease_factor.ht_vs_plugin",
    }


def test_naive_null_level_inflates_by_the_records_margin(monkeypatch):
    """A naive one-sample study simulates on the rung inflated by
    c^alpha R circumradius(B), with c^alpha from the rung's scaling record,
    on a rung where |W|**(alpha / d) is not that c^alpha."""
    rung = {"shape": "box", "bounds": [[0.0, 0.0], [6.0, 16.0]]}
    window, body = window_from_config(rung), body_from_config(L2_BODY)
    alpha, R = 0.45, 0.5
    scaling = _Scaling.of(window, body, alpha, R)
    assert scaling.c_alpha != window.volume() ** (alpha / 2)
    simulated = []
    original = mcharness.simulate

    def recording(model, w, seed):
        simulated.append(w)
        return original(model, w, seed)

    monkeypatch.setattr(mcharness, "simulate", recording)
    rep = run_study(dict(
        study="null_level", model=POISSON1, windows=[rung], body=L2_BODY,
        replicates=20, master_seed=11, alpha=alpha, R=R,
        statistics=["ks", "cvm", "chi2"], estimator="naive",
    ))
    assert rep.replicates == 20 and len(rep.windows) == 1
    want = window.inflate(scaling.c_alpha * R * circumradius(body))
    assert len(simulated) == 20
    for w in simulated:
        assert np.array_equal(w.lower, want.lower)
        assert np.array_equal(w.upper, want.upper)


@pytest.mark.parametrize("bandwidth", [None, 0.3])
def test_report_bandwidth_times_c_is_the_searched_support(bandwidth, monkeypatch):
    """A report's echoed bandwidth times c is the radius sigma2_hat searched."""
    searched = []
    original = estimate.close_pairs

    def recording(points, body, r_max):
        searched.append((body.shape, r_max))
        return original(points, body, r_max)

    monkeypatch.setattr(estimate, "close_pairs", recording)
    window = Box([0.0, 0.0], [12.0, 12.0])
    linf = StructuringBody(2, BodyShape.LINF_BALL)
    p = simulate(PoissonModel(1.0), window, SeedSpec(5, 0))
    rep = gof.ks_statistic(
        p, linf, 1.0, k_function(PoissonModel(1.0), linf), 0.5, 0.5,
        bandwidth=bandwidth,
    )
    c = _Scaling.of(window, linf, 0.5, 0.5, bandwidth).c
    assert [r for shape, r in searched if shape is BodyShape.L2_BALL] == [
        rep.config["bandwidth"] * c
    ]


# -- report formats ---------------------------------------------------------


def test_report_json_roundtrip(unbias_report):
    text = unbias_report.to_json()
    assert text.endswith("\n")
    assert StudyReport.from_json(text) == unbias_report
    # its keys are the field names; every field is set
    data = json.loads(text)
    assert set(data) == {f.name for f in dataclasses.fields(StudyReport)} | {
        "schema_version"
    }
    assert data["timing"] and data["windows"] and data["checks"]
    with pytest.raises(ValueError, match=r"unknown study report keys: \['extra'\]"):
        StudyReport.from_json(json.dumps(dict(data, extra=1)))
    # stable key order
    assert text == json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n"


def test_report_csv_format(unbias_report):
    rep = unbias_report
    lines = rep.to_csv().splitlines()
    assert lines[0] == "window_index,volume,metric,value"
    expected_rows = sum(len(e["metrics"]) for e in rep.windows)
    assert len(lines) == 1 + expected_rows
    seen = []
    for line in lines[1:]:
        idx, vol, metric, value = line.split(",")
        entry = rep.windows[int(idx)]
        assert float(vol) == entry["volume"]
        assert float(value) == entry["metrics"][metric]
        seen.append((int(idx), metric))
    # rows grouped by window, metrics sorted within each
    assert seen == sorted(seen)


def test_check_records_are_self_describing(unbias_report):
    for c in unbias_report.checks:
        assert set(c) == {"name", "value", "bound", "comparison", "passed"}
        assert c["comparison"] in ("<=", ">=", "<", ">")
        assert isinstance(c["passed"], bool)
