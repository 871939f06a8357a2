import json
import re
from dataclasses import fields, replace
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from posediff.camera import DISTORTED, CameraIntrinsics, camera_to_dict
from posediff.config import (RunConfig, apply_overrides, config_from_dict,
                             config_sha256, config_to_dict, load_config)
from posediff.core import DEFAULT_SKELETON, Skeleton
from posediff.denoise import (ContractiveOracle, NoisyOracle, TrainConfig,
                              init_params)
from posediff.errors import ConfigError
from posediff.sampler import (FlipMode, SamplerConfig, SigmaMode,
                              timestep_ladder)
from posediff.schedule import make_cosine_schedule
from posediff.synth import ScenarioConfig, gen_poses


def test_defaults_from_empty_document():
    cfg = config_from_dict({})
    assert cfg.seed == 0
    assert cfg.t_max == 1000
    assert cfg.scenario.skeleton == DEFAULT_SKELETON
    assert cfg.sampler.hypotheses == 20
    assert cfg.sampler.iterations == 10
    assert cfg.sampler.sigma_mode is SigmaMode.STOCHASTIC
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
    # keys that configured nothing, or a value that the method or the
    # dataset fixes, and were removed
    for section, key, value in (
            (None, "image_height", 1000),
            (None, "image_width", 1000),
            (None, "signal_scale", 2.0),
            ("denoiser", "pixel_scale", 0.001),
            ("scenario", "hypothesis_count", 20),
            ("scenario", "hypothesis_model", {"kind": "iid_gaussian"}),
            ("denoiser", "target", "predict_eps"),
            ("denoiser", "target", "predict_y0")):
        doc = {key: value} if section is None else {section: {key: value}}
        with pytest.raises(ConfigError, match=key):
            config_from_dict(doc)


SECTIONS = ("scenario", "denoiser", "train", "sampler", "metrics")
# Every value a config document sets. A new knob is an edit here.
SETTABLE = (
    "seed", "out_dir", "t_max", "skeleton", "camera",
    "scenario.pose_count", "scenario.frames_per_pose",
    "scenario.noise_2d_px", "scenario.max_swing_deg",
    "scenario.root_box_mm",
    "denoiser.hidden_width", "denoiser.hidden_layers",
    "denoiser.oracle_lambda", "denoiser.oracle_sigma_mm",
    "train.steps", "train.batch_size", "train.learning_rate",
    "train.weight_decay", "train.beta1", "train.beta2",
    "sampler.hypotheses", "sampler.iterations", "sampler.sigma_mode",
    "sampler.flip_mode",
    "metrics.pck_threshold_mm", "metrics.pmpjpe_scale")


def test_document_sets_exactly_the_listed_values():
    doc = config_to_dict(RunConfig())
    keys = [k for k in doc if k not in SECTIONS]
    keys += [f"{s}.{k}" for s in SECTIONS for k in doc[s]]
    assert sorted(keys) == sorted(SETTABLE)
    assert len(SETTABLE) == 26
    # each one loads on its own, at its default
    for key in SETTABLE:
        section, _, name = key.rpartition(".")
        one = ({name: doc[name]} if not section
               else {section: {name: doc[section][name]}})
        assert config_from_dict(one) == RunConfig()

def test_enum_and_model_parsing():
    cfg = config_from_dict({
        "sampler": {"sigma_mode": "deterministic", "flip_mode": "diffusion"},
    })
    assert cfg.sampler.sigma_mode is SigmaMode.DETERMINISTIC
    assert cfg.sampler.flip_mode is FlipMode.DIFFUSION

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


def test_readme_library_example_runs(capsys):
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    example = re.search(r"## Library use\n\n```python\n(.*?)```", readme,
                        re.S).group(1)
    exec(compile(example, "README.md", "exec"), {})
    mpjpe = float(capsys.readouterr().out)
    assert 0 < mpjpe < 100


def test_cross_check_iterations_vs_t_max():
    with pytest.raises(ConfigError, match="iterations"):
        config_from_dict({"t_max": 5, "sampler": {"iterations": 10}})
    cfg = config_from_dict({"t_max": 10, "sampler": {"iterations": 10}})
    assert cfg.sampler.iterations == 10


def test_t_max_below_two_refused():
    for t_max in (1, 0, -3):
        with pytest.raises(ConfigError, match=f"t_max must be >= 2, got {t_max}"):
            config_from_dict({"t_max": t_max, "sampler": {"iterations": 1}})
    assert config_from_dict({"t_max": 2, "sampler": {"iterations": 1}}).t_max == 2


def load_config_path(tmp_path, doc):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(doc))
    return load_config(p)


def test_camera_and_skeleton_sources(tmp_path):
    cam = CameraIntrinsics.pinhole(fx=900.0, fy=901.0, cx=1.0, cy=2.0)
    (tmp_path / "cam.json").write_text(json.dumps(camera_to_dict(cam)))
    cfg = load_config_path(tmp_path, {"camera": "cam.json"})
    assert cfg.scenario.camera == cam
    inline = config_from_dict({"camera": {"model": "pinhole", "fx": 900.0,
                                          "fy": 901.0, "cx": 1.0, "cy": 2.0}})
    assert inline.scenario.camera == cam
    with pytest.raises(ConfigError, match="not found"):
        config_from_dict({"camera": "missing.json"}, base_dir=tmp_path)
    (tmp_path / "dir.json").mkdir()
    for what in ("camera", "skeleton"):
        with pytest.raises(ConfigError, match=f"^{what} path is not a file"):
            config_from_dict({what: "dir.json"}, base_dir=tmp_path)
    with pytest.raises(ConfigError):
        config_from_dict({"camera": 7})
    with pytest.raises(ConfigError):
        config_from_dict({"skeleton": 7})


def test_load_config_errors(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        load_config(tmp_path / "nope.json")
    with pytest.raises(ConfigError, match="^config path is not a file"):
        load_config(tmp_path)
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


# A value off the default for every field of every library config. A
# field that config_to_dict left out would come back at its default.
OFF_DEFAULT = {
    "scenario": {
        "skeleton": Skeleton(parents=(0, 0, 0), mirror_pairs=((1, 2),),
                             bone_lengths=(0.0, 90.0, 90.0),
                             joint_names=("root", "l", "r")),
        "camera": CameraIntrinsics(fx=900.0, fy=950.0, cx=480.0, cy=360.0,
                                   k1=0.1, k2=-0.02, k3=0.003, p1=0.001,
                                   p2=-0.002, model=DISTORTED),
        "pose_count": 7, "frames_per_pose": 3, "noise_2d_px": 1.5,
        "seed": 9, "root_box_mm": ((-10.0, -20.0, 3000.0),
                                   (10.0, 20.0, 4000.0)),
        "max_swing_deg": 20.0},
    "train": {"steps": 11, "batch_size": 5, "learning_rate": 0.01,
              "beta1": 0.8, "beta2": 0.99, "weight_decay": 0.2, "seed": 9,
              "hidden_width": 16, "hidden_layers": 3},
    "sampler": {"hypotheses": 5, "iterations": 4,
                "sigma_mode": SigmaMode.DETERMINISTIC,
                "flip_mode": FlipMode.ONCE, "seed": 9},
    "denoiser": {"oracle_lambda": 0.25, "oracle_sigma_mm": 7.0},
    # 150 is the one threshold accepted
    "metrics": {"pck_threshold_mm": 150.0, "pmpjpe_scale": False},
}


def test_every_library_config_field_survives_the_document():
    default = RunConfig()
    sections = {}
    for name, values in OFF_DEFAULT.items():
        lib = getattr(default, name)
        assert set(values) == {f.name for f in fields(lib)}, name
        for key, value in values.items():
            assert value != getattr(lib, key) or key == "pck_threshold_mm"
        sections[name] = replace(lib, **values)
    cfg = RunConfig(seed=9, out_dir="elsewhere", t_max=300, **sections)
    again = config_from_dict(config_to_dict(cfg))
    for name, values in OFF_DEFAULT.items():
        for key in values:
            assert getattr(getattr(again, name), key) == values[key], (name,
                                                                      key)
    assert again == cfg
    assert apply_overrides(cfg, hypotheses=6).train == cfg.train


def test_hash_stable_and_ignores_out_dir():
    a = config_from_dict({"seed": 3, "out_dir": "x"})
    b = config_from_dict({"seed": 3, "out_dir": "y"})
    c = config_from_dict({"seed": 4, "out_dir": "x"})
    assert config_sha256(a) == config_sha256(b)
    assert config_sha256(a) != config_sha256(c)
    assert len(config_sha256(a)) == 64


def test_builders_inject_cross_cutting_values():
    cfg = config_from_dict({"seed": 5, "t_max": 200,
                            "sampler": {"hypotheses": 3, "iterations": 7},
                            "train": {"steps": 13},
                            "denoiser": {"hidden_width": 16}})
    scfg = cfg.sampler
    assert isinstance(scfg, SamplerConfig)
    assert scfg.seed == 5
    assert (scfg.hypotheses, scfg.iterations) == (3, 7)

    tcfg = cfg.train
    assert isinstance(tcfg, TrainConfig)
    assert tcfg.seed == 5
    assert tcfg.steps == 13
    assert tcfg.hidden_width == 16
    # scenario inherits the seed
    assert cfg.scenario.seed == 5
    # seeds that disagree with the top level are refused: the runs would
    # draw with other seeds than config.json records
    with pytest.raises(ConfigError, match="sampler"):
        RunConfig(seed=5)
    with pytest.raises(ConfigError, match="train"):
        replace(cfg, train=replace(cfg.train, seed=6))
    with pytest.raises(ConfigError, match="scenario"):
        RunConfig(scenario=ScenarioConfig(seed=9))


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
    {"t_max": 1000.5},
    {"train": {"learning_rate": "0.001"}},
    {"train": {"beta1": True}},
    {"denoiser": {"hidden_width": 16.0}},
    {"scenario": {"pose_count": 3.0}},
    {"scenario": {"root_box_mm": [["0", 0, 1000], [10, 10, 2000]]}},
    {"out_dir": 5},
    {"scenario": {"noise_2d_px": "0.5"}},
])
def test_wrong_json_types_rejected(doc):
    # no silent coercion: "false" is not False, 2.9 is not 2
    with pytest.raises(ConfigError, match="must be"):
        config_from_dict(doc)


@pytest.mark.parametrize("section, key, value", [
    ("denoiser", "oracle_lambda", 1.5), ("denoiser", "oracle_lambda", -0.1),
    ("denoiser", "oracle_sigma_mm", -2), ("metrics", "pck_threshold_mm", -1),
    ("metrics", "pck_threshold_mm", 0), ("metrics", "pck_threshold_mm", 100),
    ("denoiser", "hidden_width", 3),
    ("denoiser", "hidden_width", 0), ("denoiser", "hidden_layers", 0),
    ("train", "beta1", 1.5),
    ("train", "beta1", -0.5), ("train", "beta2", 1),
    ("train", "weight_decay", -5), ("train", "steps", 0),
    ("train", "batch_size", 0), ("train", "learning_rate", -1)])
def test_out_of_range_values_rejected_at_load(section, key, value):
    # refused when the config loads, not once an oracle, the metrics or
    # training first use the value
    with pytest.raises(ConfigError, match=f"^{key} must be"):
        config_from_dict({section: {key: value}})


def test_float_fields_take_integers():
    as_int = config_from_dict({"denoiser": {"oracle_sigma_mm": 20},
                               "train": {"beta2": 0},
                               "metrics": {"pck_threshold_mm": 150}})
    as_float = config_from_dict({"denoiser": {"oracle_sigma_mm": 20.0},
                                 "train": {"beta2": 0.0},
                                 "metrics": {"pck_threshold_mm": 150.0}})
    assert as_int == as_float
    assert isinstance(as_int.denoiser.oracle_sigma_mm, float)
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


# --- every document is refused at load or runs -------------------------------

_WRONG = st.sampled_from([None, True, "1", [1], float("nan"), float("inf")])


def _ints(lo, hi):
    """Integers in [lo, hi]; one in ten is a float or a wrong type."""
    return st.integers(0, 9).flatmap(
        lambda i: st.one_of(st.floats(lo, hi), _WRONG) if i == 0
        else st.integers(lo, hi))


def _floats(lo, hi):
    """Numbers in [lo, hi]; one in ten is a wrong type."""
    return st.integers(0, 9).flatmap(
        lambda i: _WRONG if i == 0
        else st.one_of(st.floats(lo, hi), st.integers(int(lo), int(hi))))


# Sizes stay small: t_max <= 300, pose_count <= 4, frames_per_pose <= 3,
# H <= 6, width <= 20, so no document asks for a large schedule or batch.
_SECTIONS = {
    "scenario": {"pose_count": _ints(0, 4),
                 "frames_per_pose": _ints(0, 3),
                 "noise_2d_px": _floats(-0.5, 5),
                 "max_swing_deg": _floats(-1, 181),
                 "root_box_mm": st.sampled_from([
                     [[-100, -100, 3000], [100, 100, 4000]],
                     [[0, 0, 5], [1.5, 1, 10]], [[0, 0, -10], [1, 1, 10]],
                     [[0, 0, 5], [1, 1, 1]], [[0, 0], [1, 1]], "box"])},
    "train": {"steps": _ints(0, 30), "batch_size": _ints(0, 8),
              "learning_rate": _floats(-0.1, 1),
              "beta1": _floats(-0.1, 1.05), "beta2": _floats(-0.1, 1.05),
              "weight_decay": _floats(-0.1, 1)},
    "denoiser": {"hidden_width": _ints(-1, 20),
                 "hidden_layers": _ints(0, 3),
                 "oracle_lambda": _floats(-0.1, 1.05),
                 "oracle_sigma_mm": _floats(-1, 50)},
    "sampler": {"hypotheses": _ints(0, 6), "iterations": _ints(0, 12),
                "sigma_mode": st.sampled_from(
                    ["stochastic", "deterministic", "never", 1]),
                "flip_mode": st.sampled_from(
                    ["none", "once", "diffusion", "twice", None])},
    "metrics": {"pck_threshold_mm": st.sampled_from([150, 150.0, 100, "150"]),
                "pmpjpe_scale": st.sampled_from([True, False, 0, "true"])},
}
_TOP = {"seed": _ints(-3, 2 ** 70), "t_max": _ints(0, 300),
        "out_dir": st.sampled_from(["out", "elsewhere", 3]),
        "camera": st.sampled_from([
            None, {"fx": 900, "fy": 900, "cx": 400, "cy": 300},
            {"fx": 900, "fy": 900, "cx": -4, "cy": 300},
            {"fx": 900, "fy": 900, "cx": 400, "cy": 300, "k1": 0.1,
             "model": "distorted"},
            {"fx": 0, "fy": 900, "cx": 400, "cy": 300},
            {"fx": 900, "fy": 900, "cx": 400, "cy": 300, "k1": 0.1}]),
        "skeleton": st.sampled_from([
            None, {"parents": [0, 0, 0], "mirror_pairs": [[1, 2]],
                   "bone_lengths": [0, 100, 100]},
            {"parents": [0, 0], "mirror_pairs": [],
             "bone_lengths": [0, -5]},
            {"parents": [0, 2, 1], "mirror_pairs": [],
             "bone_lengths": [0, 1, 1]}])}


# (section, key, values); section None is the top level. The last
# entries break a document's shape.
_ENTRIES = ([(None, key, values) for key, values in _TOP.items()]
            + [(section, key, values) for section, keys in _SECTIONS.items()
               for key, values in keys.items()]
            + [(None, "bogus", st.just(1)), ("train", "bogus", st.just(1)),
               (None, "sampler", st.just([]))])


@st.composite
def _documents(draw):
    """A few keys at once, so that most documents load."""
    doc = {}
    for section, key, values in draw(st.lists(st.sampled_from(_ENTRIES),
                                              max_size=6)):
        where = doc if section is None else doc.setdefault(section, {})
        if isinstance(where, dict):
            where[key] = draw(values)
    return doc


@settings(max_examples=300, deadline=None)
@given(_documents())
def test_document_refused_at_load_or_builds_everything(doc):
    try:
        cfg = config_from_dict(doc)
    except ConfigError:
        return
    sched = make_cosine_schedule(cfg.t_max)
    timestep_ladder(sched.t_max, cfg.sampler.iterations)
    for lib in (cfg.scenario, cfg.train, cfg.sampler, cfg.denoiser,
                cfg.metrics):
        replace(lib)
    # the first pose alone: each pose has a stream of its own, and the
    # default document asks for 100
    gt, _ = gen_poses(replace(cfg.scenario, pose_count=1))[0]
    init_params(gt.num_joints, hidden_width=cfg.train.hidden_width,
                hidden_layers=cfg.train.hidden_layers)
    ContractiveOracle(gt, cfg.denoiser.oracle_lambda)
    NoisyOracle(gt, cfg.denoiser.oracle_sigma_mm, seed=cfg.seed)
