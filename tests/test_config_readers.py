"""Every config reader rejects a key it does not know, names it, and reads
back what its writer wrote, after a trip through JSON."""

import json
import re

import pytest

from kscope.cli import main
from kscope.geometry import (
    BodyShape,
    Box,
    Disk,
    StructuringBody,
    body_from_config,
    body_to_config,
    window_from_config,
)
from kscope.gof import IntegralWeight, SupWeight, TestReport as Report
from kscope.mcharness import StudyConfig, StudyReport
from kscope.simulate import (
    MaternClusterModel,
    PoissonModel,
    ThomasModel,
    model_from_config,
    model_to_config,
)


def _window_to_config(w):
    return w.to_config()


def _report_to_dict(report):
    return json.loads(report.to_json())


def _reads_json(cls):
    return lambda data: cls.from_json(json.dumps(data))


BOX8 = {"shape": "box", "bounds": [[0.0, 0.0], [8.0, 8.0]]}

# name: (writer, reader, record, a typo'd key the reader must reject)
READERS = {
    "poisson": (model_to_config, model_from_config, PoissonModel(2.5), "lamda"),
    "thomas": (model_to_config, model_from_config,
               ThomasModel(kappa=0.25, mu=4.0, sigma_c=0.5), "sigma"),
    "matern_cluster": (model_to_config, model_from_config,
                       MaternClusterModel(kappa=0.5, mu=3.0, r_c=0.75), "rc"),
    "body": (body_to_config, body_from_config,
             StructuringBody(3, BodyShape.LINF_BALL, 1.25), "radus_scale"),
    "box": (_window_to_config, window_from_config,
            Box([-1.0, 2.0, 0.25], [3.0, 4.5, 9.0]), "bound"),
    "disk": (_window_to_config, window_from_config, Disk((1.5, -2.0), 4.25), "centre"),
    "integral_weight": (IntegralWeight.to_config, IntegralWeight.from_config,
                        IntegralWeight("exp_density", b=0.7), "a"),
    "sup_weight": (SupWeight.to_config, SupWeight.from_config,
                   SupWeight("exp_decay", a=3.0), "b"),
    "study_config": (StudyConfig.to_config, StudyConfig.from_config, StudyConfig(
        study="unbiasedness", model={"variant": "poisson", "lambda": 1.0},
        windows=(BOX8,), body={"shape": "l2", "dim": 2, "radius_scale": 1.0},
        replicates=2, master_seed=7, radii=(0.5, 1.0),
    ), "replicate"),
    "test_report": (_report_to_dict, _reads_json(Report), Report(
        test="ks", statistic=0.5, limit_constant=2.0, limit_family="half_normal",
        gamma=0.05, threshold=3.9, p_value=0.8, decision="ACCEPT",
        config={"alpha": 0.5}, warnings=["SMALL_ALPHA: test"],
    ), "pvalue"),
    "study_report": (_report_to_dict, _reads_json(StudyReport), StudyReport(
        study="unbiasedness", config={"replicates": 2}, windows=[], checks=[],
        passed=True, replicates=2, timing={"wall_s": 1.0},
    ), "check"),
}


@pytest.mark.parametrize("name", READERS)
def test_reader_roundtrips_and_rejects_unknown_key(name):
    write, read, record, typo = READERS[name]
    cfg = json.loads(json.dumps(write(record)))
    assert write(read(cfg)) == write(record)
    with pytest.raises(ValueError, match=rf"unknown .*keys: \['{typo}'\]"):
        read(dict(cfg, **{typo: 1.0}))


@pytest.mark.parametrize("cfg", [
    dict(BOX8, dim=3),
    dict(BOX8, dim=1),
    {"shape": "disk", "center": [0.0, 0.0], "radius": 1.0, "dim": 3},
])
def test_window_dim_must_match_the_window(cfg):
    with pytest.raises(ValueError, match=f"has dim {cfg['dim']}, but the window is 2-dim"):
        window_from_config(cfg)


def test_window_dim_is_optional():
    # as study configs write them, e.g. the benchmark's workloads
    assert window_from_config(BOX8).to_config() == dict(BOX8, dim=2)
    disk = {"shape": "disk", "center": [1.0, 2.0], "radius": 3.0}
    assert window_from_config(disk).to_config() == dict(disk, dim=2)


@pytest.mark.parametrize("cfg, missing", [
    ({"shape": "box", "dim": 2}, "missing box window keys: ['bounds']"),
    ({"shape": "disk", "center": [0.0, 0.0]}, "missing disk window keys: ['radius']"),
    ({"shape": "l2"}, "missing body keys: ['dim']"),
])
def test_missing_keys_are_named(cfg, missing):
    reader = body_from_config if cfg["shape"] == "l2" else window_from_config
    with pytest.raises(ValueError) as err:
        reader(cfg)
    assert str(err.value) == missing


DISK1 = {"shape": "disk", "center": [0.0, 0.0], "radius": 1.0}

# (reader, config, message): a value of the wrong type or shape is named by
# its record and key, as a ValueError
WRONG_VALUES = [
    (body_from_config, {"shape": "l2", "dim": None}, "body key 'dim': expected a number"),
    (body_from_config, {"shape": "l2", "dim": "2"}, "body key 'dim': expected a number"),
    (body_from_config, {"shape": "l2", "dim": 2.5}, "body key 'dim': expected a whole number"),
    (body_from_config, {"shape": "l2", "dim": 2, "radius_scale": "1"},
     "body key 'radius_scale': expected a number"),
    (body_from_config, {"shape": "l7", "dim": 2}, "body key 'shape': 'l7' is not a valid"),
    (window_from_config, dict(DISK1, radius="1"), "disk window key 'radius': expected a number"),
    (window_from_config, dict(DISK1, center="0,0"),
     "disk window key 'center': expected a list of numbers"),
    (window_from_config, dict(BOX8, bounds=[[0.0, 0.0], [8.0, 8.0], [9.0, 9.0]]),
     r"box window key 'bounds': expected two rows \[lower, upper\], got 3"),
    (window_from_config, dict(BOX8, bounds=[[0.0, 0.0], [8.0]]), "box window key 'bounds'"),
    (window_from_config, dict(BOX8, bounds=None),
     "box window key 'bounds': expected a list of rows of numbers"),
]


@pytest.mark.parametrize("read, cfg, message", WRONG_VALUES)
def test_wrong_value_types_name_record_and_key(read, cfg, message):
    with pytest.raises(ValueError, match=message):
        read(cfg)


@pytest.mark.parametrize("read, cfg, message", WRONG_VALUES[:1] + WRONG_VALUES[5:8])
def test_mc_exits_1_naming_the_wrong_value(tmp_path, capsys, read, cfg, message):
    study = {
        "study": "unbiasedness", "model": {"variant": "poisson", "lambda": 1.0},
        "windows": [BOX8, dict(BOX8, bounds=[[0.0, 0.0], [9.0, 9.0]])],
        "body": {"shape": "l2", "dim": 2, "radius_scale": 1.0},
        "replicates": 2, "master_seed": 1, "radii": [0.3],
    }
    if read is body_from_config:
        study["body"] = cfg
    else:
        study["windows"] = [cfg, dict(BOX8, bounds=[[0.0, 0.0], [9.0, 9.0]])]
    path = tmp_path / "study.json"
    path.write_text(json.dumps(study), encoding="utf-8")
    assert main(["mc", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert re.search(message, err)


def test_numeric_values_of_any_number_type_are_read():
    assert body_from_config({"shape": "l2", "dim": 2.0, "radius_scale": 2}) == StructuringBody(
        2, BodyShape.L2_BALL, 2.0)
    box = window_from_config({"shape": "box", "bounds": [[0, 0], [8, 8]]})
    assert box.to_config() == dict(BOX8, dim=2)
    assert window_from_config(dict(DISK1, radius=1)).to_config() == dict(DISK1, dim=2)
