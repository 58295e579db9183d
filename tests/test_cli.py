"""End-to-end command-line tests.

Every test drives ``main(argv)`` in-process: file pipelines, exit
codes (0 completed, 1 usage/config error, 2 reject under
--fail-on-reject, 3 failed study verdict) and byte-level determinism
of the written artifacts.
"""

import json
import math

import numpy as np
import pytest

from kscope.cli import main
from kscope.pattern import load_pattern
from kscope.geometry import Box

BOX12 = "box:0,0,12,12"
BOX10 = "box:0,0,10,10"


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """Simulated inputs shared by the read-only CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    pat12 = root / "poisson12.csv"
    rc = main(["simulate", "--model", "poisson", "--lambda", "1.0",
               "--window", BOX12, "--seed", "5", "--out", str(pat12)])
    assert rc == 0
    pa = root / "a10.csv"
    pb = root / "b10.csv"
    for path, seed in ((pa, 1), (pb, 2)):
        rc = main(["simulate", "--model", "poisson", "--lambda", "1.0",
                   "--window", BOX10, "--seed", str(seed), "--out", str(path)])
        assert rc == 0
    two = root / "two_points.csv"
    two.write_text("x,y\n4,5\n5,5\n", encoding="utf-8")
    return {"root": root, "pat12": pat12, "pa": pa, "pb": pb, "two": two}


# -- simulate ----------------------------------------------------------------


def test_simulate_outputs_and_determinism(tmp_path, capsys):
    out1 = tmp_path / "p1.csv"
    out2 = tmp_path / "p2.csv"
    argv = ["simulate", "--model", "poisson", "--lambda", "2.0",
            "--window", BOX10, "--seed", "42"]
    assert main(argv + ["--out", str(out1)]) == 0
    assert main(argv + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    pattern = load_pattern(out1, Box([0, 0], [10, 10]))
    meta = json.loads((tmp_path / "p1.csv.meta.json").read_text())
    assert meta["command"] == "simulate"
    assert meta["model"] == {"variant": "poisson", "lambda": 2.0}
    assert meta["seed"] == {"master_seed": 42, "stream_index": 0}
    assert meta["n_points"] == len(pattern)
    assert "created_utc" in meta
    out = capsys.readouterr().out
    assert f"wrote {len(pattern)} points" in out
    # a different stream must decouple the draw
    out3 = tmp_path / "p3.csv"
    assert main(argv + ["--stream", "1", "--out", str(out3)]) == 0
    assert out3.read_bytes() != out1.read_bytes()


def test_simulate_cluster_models(tmp_path):
    rc = main(["simulate", "--model", "thomas", "--kappa", "0.5", "--mu", "3",
               "--sigma-c", "0.4", "--window", BOX10, "--seed", "7",
               "--out", str(tmp_path / "t.csv")])
    assert rc == 0
    rc = main(["simulate", "--model", "matern_cluster", "--kappa", "0.5",
               "--mu", "3", "--r-c", "1.0", "--window", BOX10, "--seed", "7",
               "--out", str(tmp_path / "m.csv")])
    assert rc == 0


def test_simulate_disk_window(tmp_path):
    rc = main(["simulate", "--model", "poisson", "--lambda", "1.0",
               "--window", "disk:5,5,4", "--seed", "3",
               "--out", str(tmp_path / "d.csv")])
    assert rc == 0


def test_simulate_usage_errors(tmp_path, capsys):
    out = str(tmp_path / "x.csv")
    # negative intensity is a model-domain error
    rc = main(["simulate", "--model", "poisson", "--lambda", "-1",
               "--window", BOX10, "--seed", "1", "--out", out])
    assert rc == 1
    assert "intensity must be" in capsys.readouterr().err
    # thomas without its parameters
    rc = main(["simulate", "--model", "thomas", "--kappa", "0.5",
               "--window", BOX10, "--seed", "1", "--out", out])
    assert rc == 1
    assert "requires" in capsys.readouterr().err
    # malformed window specs
    for spec in ("box:0,0,10", "sphere:0,0,1", "box:a,b,c,d", "disk:1,2"):
        rc = main(["simulate", "--model", "poisson", "--lambda", "1",
                   "--window", spec, "--seed", "1", "--out", out])
        assert rc == 1
    # bad subcommand / missing subcommand
    assert main(["frobnicate"]) == 1
    assert main([]) == 1
    assert main(["simulate", "--model", "nope", "--window", BOX10,
                 "--seed", "1", "--out", out]) == 1


# -- kfun --------------------------------------------------------------------


def test_kfun_two_point_table(files, tmp_path, capsys):
    out = tmp_path / "k.csv"
    rc = main(["kfun", "--pattern", str(files["two"]), "--window", BOX10,
               "--rmax", "2", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "r,value"
    rows = [tuple(map(float, ln.split(","))) for ln in lines[1:]]
    assert rows[0] == (0.0, 0.0)
    # one unit-distance pair, Horvitz-Thompson weight 1/setcov = 1/90
    assert rows[-1][0] == 2.0
    assert rows[-1][1] == 2.0 / 90.0
    meta = json.loads((tmp_path / "k.csv.meta.json").read_text())
    assert meta["command"] == "kfun"
    assert meta["estimator"] == "ht"
    assert meta["n_points"] == 2
    assert "jumps" in capsys.readouterr().out
    # identical reruns give identical tables
    out2 = tmp_path / "k2.csv"
    assert main(["kfun", "--pattern", str(files["two"]), "--window", BOX10,
                 "--rmax", "2", "--out", str(out2)]) == 0
    assert out.read_bytes() == out2.read_bytes()


def test_kfun_estimators_and_balls(files, tmp_path):
    for extra in (["--estimator", "border"], ["--ball", "linf:0.5"],
                  ["--ball", "l1"]):
        rc = main(["kfun", "--pattern", str(files["pat12"]), "--window", BOX12,
                   "--rmax", "1.5", "--out", str(tmp_path / "k.csv")] + extra)
        assert rc == 0


def test_kfun_naive_needs_extended_pattern(files, tmp_path, capsys):
    # pattern observed on the evaluation window itself: no plus-sampling
    rc = main(["kfun", "--pattern", str(files["pat12"]), "--window", BOX12,
               "--estimator", "naive", "--rmax", "1.0",
               "--out", str(tmp_path / "k.csv")])
    assert rc == 1
    assert "does not contain the evaluation window" in capsys.readouterr().err
    # with a declared extended pattern window the same call succeeds
    inner = "box:2,2,10,10"
    rc = main(["kfun", "--pattern", str(files["pat12"]), "--window", inner,
               "--pattern-window", BOX12, "--estimator", "naive",
               "--rmax", "1.0", "--out", str(tmp_path / "k.csv")])
    assert rc == 0


def test_kfun_guard_and_ball_errors(files, tmp_path, capsys):
    out = str(tmp_path / "k.csv")
    rc = main(["kfun", "--pattern", str(files["pat12"]), "--window", BOX12,
               "--rmax", "6", "--out", out])
    assert rc == 1
    assert "window inradius" in capsys.readouterr().err
    assert main(["kfun", "--pattern", str(files["pat12"]), "--window", BOX12,
                 "--ball", "l3", "--rmax", "1", "--out", out]) == 1
    assert main(["kfun", "--pattern", str(files["pat12"]), "--window", BOX12,
                 "--ball", "l2:abc", "--rmax", "1", "--out", out]) == 1


# -- gof ---------------------------------------------------------------------


def gof_argv(files, stat="ks", **kw):
    argv = ["gof", "--pattern", str(files["pat12"]), "--window", BOX12,
            "--stat", stat, "--lambda0", kw.pop("lambda0", "1.0"),
            "--R", kw.pop("R", "0.5")]
    for key, val in kw.items():
        argv += [f"--{key}", val]
    return argv


def test_gof_stdout_report(files, capsys):
    assert main(gof_argv(files)) == 0
    text = capsys.readouterr().out
    report = json.loads(text)
    assert report["test"] == "ks"
    assert report["decision"] in ("ACCEPT", "REJECT")
    assert 0.0 <= report["p_value"] <= 1.0
    assert report["config"]["alpha"] == 0.5
    assert report["config"]["inputs"]["pattern_path"] == str(files["pat12"])
    # stdout reports are byte-stable
    assert main(gof_argv(files)) == 0
    assert capsys.readouterr().out == text
    # and free of wall-clock fields
    assert "created" not in report.get("config", {})
    assert "time" not in report


def test_gof_report_file_determinism(files, tmp_path, capsys):
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    assert main(gof_argv(files, stat="cvm", out=str(out1))) == 0
    assert main(gof_argv(files, stat="cvm", out=str(out2))) == 0
    assert out1.read_bytes() == out2.read_bytes()
    summary = capsys.readouterr().out
    assert "cvm: statistic=" in summary


def test_gof_fail_on_reject(files, capsys):
    # lambda0 far from the truth: the count term alone forces REJECT
    argv = gof_argv(files, lambda0="5.0") + ["--fail-on-reject"]
    assert main(argv) == 2
    report = json.loads(capsys.readouterr().out)
    assert report["decision"] == "REJECT"
    # same data without the flag still exits 0
    assert main(gof_argv(files, lambda0="5.0")) == 0


def test_gof_chi2_radii(files, capsys):
    assert main(gof_argv(files, stat="chi2", radii="0.2,0.4")) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["config"]["radii"] == [0.2, 0.4]
    assert main(gof_argv(files, stat="chi2", radii="0.4,0.2")) == 1


def test_gof_null_table(files, tmp_path, capsys):
    knots = np.linspace(0.0, 5.0, 401)
    table = tmp_path / "null_k.csv"
    lines = ["r,K0"] + [f"{r:.17g},{math.pi * r * r:.17g}" for r in knots]
    table.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert main(gof_argv(files) + ["--null", "table", "--null-k",
                                   str(table)]) == 0
    from_table = json.loads(capsys.readouterr().out)
    assert main(gof_argv(files)) == 0
    from_poisson = json.loads(capsys.readouterr().out)
    # a dense piecewise-linear table of the Poisson K reproduces the statistic
    assert from_table["statistic"] == pytest.approx(
        from_poisson["statistic"], rel=1e-4, abs=1e-6
    )


def test_gof_config_errors(files, tmp_path, capsys):
    assert main(gof_argv(files, alpha="0.6")) == 1
    assert "alpha" in capsys.readouterr().err
    assert main(gof_argv(files, gamma="0")) == 1
    assert main(gof_argv(files, R="5")) == 1
    assert "shrink R or alpha" in capsys.readouterr().err
    # missing lambda0
    argv = ["gof", "--pattern", str(files["pat12"]), "--window", BOX12,
            "--stat", "ks", "--R", "0.5"]
    assert main(argv) == 1
    assert "--lambda0" in capsys.readouterr().err
    # table null without a table
    assert main(gof_argv(files) + ["--null", "table"]) == 1
    # malformed table rows
    bad = tmp_path / "bad.csv"
    bad.write_text("r,K0\n1,2,3\n", encoding="utf-8")
    assert main(gof_argv(files) + ["--null", "table", "--null-k",
                                   str(bad)]) == 1
    assert "expected two columns" in capsys.readouterr().err
    # missing pattern file
    assert main(["gof", "--pattern", str(tmp_path / "nope.csv"),
                 "--window", BOX12, "--stat", "ks", "--lambda0", "1",
                 "--R", "0.5"]) == 1


def test_gof_weight_flags(files, capsys):
    assert main(gof_argv(files) + ["--weight-v", "exp_decay:8"]) == 0
    capsys.readouterr()
    # decay rate below d/R fails the domain check
    assert main(gof_argv(files) + ["--weight-v", "exp_decay:2"]) == 1
    assert main(gof_argv(files) + ["--weight-v", "bogus"]) == 1
    assert main(gof_argv(files) + ["--weight-v", "exp_decay"]) == 1
    assert main(gof_argv(files) + ["--weight-v", "const_one:3"]) == 1
    assert main(gof_argv(files, stat="cvm") + ["--weight-V",
                                               "exp_density:1"]) == 0
    capsys.readouterr()
    assert main(gof_argv(files, stat="cvm") + ["--weight-V",
                                               "lebesgue:2"]) == 1
    assert main(gof_argv(files, stat="cvm") + ["--weight-V",
                                               "exp_density"]) == 1


# -- twosample ----------------------------------------------------------------


def test_twosample_basic(files, capsys):
    argv = ["twosample", "--pattern-a", str(files["pa"]), "--pattern-b",
            str(files["pb"]), "--window", BOX10, "--stat", "ks", "--R", "0.5"]
    assert main(argv) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["test"] == "two_ks"
    assert report["decision"] in ("ACCEPT", "REJECT")


def test_twosample_identical_patterns(files, capsys):
    argv = ["twosample", "--pattern-a", str(files["pa"]), "--pattern-b",
            str(files["pa"]), "--window", BOX10, "--stat", "cvm",
            "--R", "0.5"]
    assert main(argv) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["statistic"] == 0.0
    assert report["p_value"] == 1.0
    assert report["decision"] == "ACCEPT"


def test_out_of_memory_is_a_clean_error(files, monkeypatch, capsys):
    message = "Unable to allocate 3.00 GiB for an array with shape (402653184,)"

    def exhausted(*args, **kwargs):
        raise MemoryError(message)

    monkeypatch.setattr("kscope.gof.ks_statistic", exhausted)
    assert main(gof_argv(files)) == 1
    assert capsys.readouterr().err == f"error: out of memory: {message}\n"


def test_twosample_window_rules(files, capsys):
    # volume mismatch between the two windows
    argv = ["twosample", "--pattern-a", str(files["pa"]), "--pattern-b",
            str(files["pb"]), "--window-a", BOX10, "--window-b",
            "box:0,0,10,10.01", "--stat", "ks", "--R", "0.5"]
    assert main(argv) == 1
    assert "volume" in capsys.readouterr().err
    # translated congruent windows are fine
    argv = ["twosample", "--pattern-a", str(files["pa"]), "--pattern-b",
            str(files["pb"]), "--window-a", BOX10, "--window-b", BOX10,
            "--stat", "ks", "--R", "0.5"]
    assert main(argv) == 0
    capsys.readouterr()
    # one window flag alone is not enough
    argv = ["twosample", "--pattern-a", str(files["pa"]), "--pattern-b",
            str(files["pb"]), "--window-a", BOX10, "--stat", "ks",
            "--R", "0.5"]
    assert main(argv) == 1
    assert "provide --window" in capsys.readouterr().err
    # the naive estimator has no two-sample variance theory
    argv = ["twosample", "--pattern-a", str(files["pa"]), "--pattern-b",
            str(files["pb"]), "--window", BOX10, "--stat", "ks", "--R", "0.5",
            "--estimator", "naive"]
    assert main(argv) == 1


# -- mc ------------------------------------------------------------------------


def study_config(**overrides):
    cfg = {
        "study": "unbiasedness",
        "model": {"variant": "poisson", "lambda": 1.0},
        "windows": [
            {"shape": "box", "bounds": [[0.0, 0.0], [4.0, 4.0]]},
            {"shape": "box", "bounds": [[0.0, 0.0], [5.0, 5.0]]},
        ],
        "body": {"shape": "l2", "dim": 2, "radius_scale": 1.0},
        "replicates": 20,
        "master_seed": 11,
        "radii": [0.3],
        "estimators": ["ht"],
    }
    cfg.update(overrides)
    return cfg


def test_mc_default_outputs(tmp_path, capsys):
    cfg_path = tmp_path / "study.json"
    cfg_path.write_text(json.dumps(study_config()), encoding="utf-8")
    assert main(["mc", str(cfg_path)]) == 0
    report_path = tmp_path / "study.report.json"
    csv_path = tmp_path / "study.report.csv"
    report = json.loads(report_path.read_text())
    assert report["study"] == "unbiasedness"
    assert report["passed"] is True
    assert csv_path.read_text().splitlines()[0] == "window_index,volume,metric,value"
    assert "PASS" in capsys.readouterr().out


def test_mc_verdict_failure_exits_3(tmp_path, capsys):
    cfg = study_config(
        study="null_level",
        windows=[{"shape": "box", "bounds": [[0.0, 0.0], [10.0, 10.0]]}],
        replicates=8,
        radii=None,
        statistics=["ks"],
        R=0.5,
        limit_constant_scale=1000.0,
    )
    cfg_path = tmp_path / "lvl.json"
    cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
    out = tmp_path / "lvl_report.json"
    assert main(["mc", str(cfg_path), "--out", str(out)]) == 3
    captured = capsys.readouterr()
    assert "FAIL" in captured.out
    assert "failed level_low.ks" in captured.err
    assert json.loads(out.read_text())["passed"] is False


def test_mc_config_errors(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    assert main(["mc", str(bad)]) == 1
    assert "invalid JSON" in capsys.readouterr().err
    unknown = tmp_path / "unknown.json"
    unknown.write_text(json.dumps(study_config(typo_key=1)), encoding="utf-8")
    assert main(["mc", str(unknown)]) == 1
    assert "unknown study config keys" in capsys.readouterr().err
    assert main(["mc", str(tmp_path / "missing.json")]) == 1


def test_mc_worker_env_override(tmp_path, monkeypatch):
    cfg_path = tmp_path / "study.json"
    cfg_path.write_text(json.dumps(study_config(replicates=6)),
                        encoding="utf-8")
    out1 = tmp_path / "serial.json"
    out2 = tmp_path / "pooled.json"
    assert main(["mc", str(cfg_path), "--out", str(out1)]) == 0
    monkeypatch.setenv("KSCOPE_THREADS", "2")
    assert main(["mc", str(cfg_path), "--out", str(out2)]) == 0
    a = json.loads(out1.read_text())
    b = json.loads(out2.read_text())
    a.pop("timing")
    b.pop("timing")
    assert a == b
