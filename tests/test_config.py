import json
import re
from dataclasses import replace
from pathlib import Path

import pytest

from posediff.camera import CameraIntrinsics, camera_to_dict
from posediff.config import (RunConfig, apply_overrides, config_from_dict,
                             config_sha256, config_to_dict, load_config)
from posediff.core import DEFAULT_SKELETON
from posediff.denoise import RegressionTarget, TrainConfig
from posediff.errors import ConfigError
from posediff.sampler import FlipMode, SamplerConfig, SigmaMode


def test_defaults_from_empty_document():
    cfg = config_from_dict({})
    assert cfg.seed == 0
    assert cfg.t_max == 1000
    assert cfg.signal_scale == 2.0
    assert cfg.skeleton == DEFAULT_SKELETON
    assert cfg.sampler.hypotheses == 20
    assert cfg.sampler.iterations == 10
    assert cfg.sampler.sigma_mode is SigmaMode.STOCHASTIC
    assert cfg.train.target is RegressionTarget.PREDICT_Y0
    assert cfg.metrics.pck_threshold_mm == 150.0
    assert config_from_dict({}) == RunConfig()


def test_unknown_keys_rejected_everywhere():
    with pytest.raises(ConfigError, match="bogus"):
        config_from_dict({"bogus": 1})
    with pytest.raises(ConfigError, match="sampler"):
        config_from_dict({"sampler": {"hypothess": 4}})
    with pytest.raises(ConfigError, match="scenario"):
        config_from_dict({"scenario": {"poses": 4}})
    with pytest.raises(ConfigError):
        config_from_dict({"train": {"momentum": 0.9}})
    with pytest.raises(ConfigError):
        config_from_dict({"denoiser": {"width": 32}})
    with pytest.raises(ConfigError):
        config_from_dict({"metrics": {"pck": 1}})
    # keys that configured nothing and were removed
    with pytest.raises(ConfigError, match="image_height"):
        config_from_dict({"image_height": 1000})
    for key, value in (("hypothesis_count", 20),
                       ("hypothesis_model", {"kind": "iid_gaussian"})):
        with pytest.raises(ConfigError, match=key):
            config_from_dict({"scenario": {key: value}})


def test_enum_and_model_parsing():
    cfg = config_from_dict({
        "sampler": {"sigma_mode": "deterministic", "flip_mode": "diffusion"},
        "denoiser": {"target": "predict_eps"},
    })
    assert cfg.sampler.sigma_mode is SigmaMode.DETERMINISTIC
    assert cfg.sampler.flip_mode is FlipMode.DIFFUSION
    assert cfg.train.target is RegressionTarget.PREDICT_EPS

    with pytest.raises(ConfigError):
        config_from_dict({"sampler": {"sigma_mode": "sometimes"}})


@pytest.mark.parametrize("section, value", [
    ("train", 5), ("scenario", [1]), ("sampler", "x"), ("metrics", None),
    ("denoiser", 3.5)])
def test_sections_must_be_objects(section, value):
    with pytest.raises(ConfigError, match=f"^{section} must be a JSON object"):
        config_from_dict({section: value})


def test_readme_config_example_loads():
    # the docs may not name a key that the loader refuses
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    example = re.search(r"cat > cfg.json <<'EOF'\n(.*?)\nEOF", readme,
                        re.S).group(1)
    cfg = config_from_dict(json.loads(example))
    assert (cfg.seed, cfg.sampler.hypotheses, cfg.train.steps) == (7, 8, 2000)


def test_cross_check_iterations_vs_t_max():
    with pytest.raises(ConfigError, match="iterations"):
        config_from_dict({"t_max": 5, "sampler": {"iterations": 10}})
    cfg = config_from_dict({"t_max": 10, "sampler": {"iterations": 10}})
    assert cfg.sampler.iterations == 10


def load_config_path(tmp_path, doc):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(doc))
    return load_config(p)


def test_camera_and_skeleton_sources(tmp_path):
    cam = CameraIntrinsics.pinhole(fx=900.0, fy=901.0, cx=1.0, cy=2.0)
    (tmp_path / "cam.json").write_text(json.dumps(camera_to_dict(cam)))
    cfg = load_config_path(tmp_path, {"camera": "cam.json"})
    assert cfg.camera == cam
    inline = config_from_dict({"camera": {"model": "pinhole", "fx": 900.0,
                                          "fy": 901.0, "cx": 1.0, "cy": 2.0}})
    assert inline.camera == cam
    with pytest.raises(ConfigError, match="not found"):
        config_from_dict({"camera": "missing.json"}, base_dir=tmp_path)
    with pytest.raises(ConfigError):
        config_from_dict({"camera": 7})
    with pytest.raises(ConfigError):
        config_from_dict({"skeleton": 7})


def test_load_config_errors(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        load_config(tmp_path / "nope.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError, match="JSON"):
        load_config(bad)
    arr = tmp_path / "arr.json"
    arr.write_text("[1, 2]")
    with pytest.raises(ConfigError, match="object"):
        load_config(arr)


def test_dict_round_trip():
    cfg = config_from_dict({
        "seed": 9, "t_max": 300,
        "scenario": {"pose_count": 7, "noise_2d_px": 1.5},
        "sampler": {"hypotheses": 5, "iterations": 4, "flip_mode": "once"},
        "train": {"steps": 11},
        "metrics": {"pmpjpe_scale": False},
    })
    again = config_from_dict(config_to_dict(cfg))
    assert again == cfg


def test_hash_stable_and_ignores_out_dir():
    a = config_from_dict({"seed": 3, "out_dir": "x"})
    b = config_from_dict({"seed": 3, "out_dir": "y"})
    c = config_from_dict({"seed": 4, "out_dir": "x"})
    assert config_sha256(a) == config_sha256(b)
    assert config_sha256(a) != config_sha256(c)
    assert len(config_sha256(a)) == 64


def test_builders_inject_cross_cutting_values():
    cfg = config_from_dict({"seed": 5, "t_max": 200, "signal_scale": 1.0,
                            "sampler": {"hypotheses": 3, "iterations": 7},
                            "train": {"steps": 13},
                            "denoiser": {"hidden_width": 16}})
    scfg = cfg.sampler
    assert isinstance(scfg, SamplerConfig)
    assert (scfg.seed, scfg.t_max, scfg.signal_scale) == (5, 200, 1.0)
    assert (scfg.hypotheses, scfg.iterations) == (3, 7)

    tcfg = cfg.train
    assert isinstance(tcfg, TrainConfig)
    assert (tcfg.seed, tcfg.t_max, tcfg.signal_scale) == (5, 200, 1.0)
    assert tcfg.steps == 13
    assert tcfg.hidden_width == 16
    # scenario inherits seed, skeleton, and camera
    assert cfg.scenario.seed == 5
    assert cfg.scenario.skeleton == cfg.skeleton
    assert cfg.scenario.camera == cfg.camera
    # copies that disagree with the top level are refused
    with pytest.raises(ConfigError, match="sampler"):
        RunConfig(seed=5)
    with pytest.raises(ConfigError, match="train"):
        replace(cfg, train=replace(cfg.train, t_max=100))


def test_apply_overrides():
    cfg = RunConfig()
    assert apply_overrides(cfg) == cfg
    out = apply_overrides(cfg, seed=None, hypotheses=None)
    assert out == cfg

    out = apply_overrides(cfg, seed=42, hypotheses=3, iterations=2,
                          sigma_mode="deterministic", flip_mode="once",
                          out_dir="elsewhere")
    assert out.seed == 42
    # a seed override reaches every library config
    assert out.scenario.seed == out.sampler.seed == out.train.seed == 42
    assert out.sampler.hypotheses == 3
    assert out.sampler.sigma_mode is SigmaMode.DETERMINISTIC
    assert out.sampler.flip_mode is FlipMode.ONCE
    assert out.out_dir == "elsewhere"

    with pytest.raises(ConfigError):
        apply_overrides(cfg, fantasy=1)
    with pytest.raises(ConfigError):
        apply_overrides(cfg, sigma_mode="never")
    with pytest.raises(ConfigError):
        apply_overrides(config_from_dict({"t_max": 10}), iterations=11)
    for bad in ({"hypotheses": 0}, {"iterations": 0}, {"hypotheses": "x"}):
        with pytest.raises(ConfigError):
            apply_overrides(cfg, **bad)


@pytest.mark.parametrize("doc", [
    {"metrics": {"pmpjpe_scale": "false"}},
    {"metrics": {"pmpjpe_scale": 0}},
    {"sampler": {"hypotheses": 2.9}},
    {"sampler": {"hypotheses": 2.0}},
    {"sampler": {"iterations": True}},
    {"seed": "7"},
    {"t_max": None},
    {"image_width": 1000.5},
    {"train": {"learning_rate": "0.001"}},
    {"train": {"beta1": True}},
    {"denoiser": {"hidden_width": 16.0}},
    {"denoiser": {"target": 1}},
    {"scenario": {"pose_count": 3.0}},
    {"scenario": {"root_box_mm": [["0", 0, 1000], [10, 10, 2000]]}},
    {"out_dir": 5},
    {"scenario": {"noise_2d_px": "0.5"}},
])
def test_wrong_json_types_rejected(doc):
    # no silent coercion: "false" is not False, 2.9 is not 2
    with pytest.raises(ConfigError, match="must be"):
        config_from_dict(doc)


def test_float_fields_take_integers():
    as_int = config_from_dict({"signal_scale": 2, "train": {"beta2": 1},
                               "metrics": {"pck_threshold_mm": 150}})
    as_float = config_from_dict({"signal_scale": 2.0, "train": {"beta2": 1.0},
                                 "metrics": {"pck_threshold_mm": 150.0}})
    assert as_int == as_float
    assert isinstance(as_int.signal_scale, float)
    assert json.dumps(config_to_dict(as_int)) == json.dumps(
        config_to_dict(as_float))
    assert config_sha256(as_int) == config_sha256(as_float)
    with pytest.raises(ConfigError, match="learning_rate"):
        config_from_dict({"train": {"learning_rate": 10 ** 400}})


def test_override_counts_must_be_integers():
    for bad in ({"hypotheses": 2.9}, {"iterations": True}, {"seed": "3"}):
        with pytest.raises(ConfigError, match="must be an integer"):
            apply_overrides(RunConfig(), **bad)


def test_scenario_box_parsing():
    cfg = config_from_dict({"scenario": {
        "root_box_mm": [[0, 0, 1000], [10, 10, 2000]]}})
    assert cfg.scenario.root_box_mm == ((0.0, 0.0, 1000.0),
                                        (10.0, 10.0, 2000.0))
    with pytest.raises(ConfigError):
        config_from_dict({"scenario": {"root_box_mm": [[0, 0], [1, 1]]}})
    with pytest.raises(ConfigError):
        config_from_dict({"scenario": {"root_box_mm": "big"}})
