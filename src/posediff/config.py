"""Run configuration: one JSON document driving every CLI command.

The document is a nested object with optional sections; anything not
given falls back to package defaults, and unknown keys are rejected so
typos fail loudly. The library configs (scenario, sampler, training)
are held directly, built with the top-level cross-cutting values
(seed, t_max, signal scale, skeleton, camera) put in.
"""
from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, replace
from pathlib import Path

from .camera import (CameraIntrinsics, camera_from_dict, camera_to_dict,
                     load_camera)
from .core import (DEFAULT_SKELETON, Skeleton, load_skeleton,
                   skeleton_from_dict, skeleton_to_dict)
from .denoise import DEFAULT_PIXEL_SCALE, RegressionTarget, TrainConfig
from .errors import ConfigError, PoseDiffError
from .sampler import FlipMode, SamplerConfig, SigmaMode
from .schedule import DEFAULT_SIGNAL_SCALE
from .synth import (Bimodal, DepthRay, HypothesisModel, IidGaussian,
                    ScenarioConfig, DEFAULT_CAMERA)


_TYPE_NAMES = {bool: "true or false", int: "an integer", float: "a number",
               str: "a string"}


def _typed(value, kind: type, where: str):
    """``value`` as ``kind``, refusing a value of another JSON type.

    A bool takes only a bool, an int only an int (not a bool), a float
    an int or a float (not a bool), a str only a str.
    """
    ok = isinstance(value, (int, float) if kind is float else kind)
    if not ok or (kind is not bool and isinstance(value, bool)):
        raise ConfigError(f"{where} must be {_TYPE_NAMES[kind]}, "
                          f"got {value!r}")
    try:
        return kind(value)
    except OverflowError as exc:  # an integer too large for a float
        raise ConfigError(f"{where}: {exc}") from exc


def _take(d: dict, known: dict, where: str) -> dict:
    """Merge ``d`` over the defaults ``known``; a given value whose
    default is a bool, int, float or str must have that type."""
    unknown = set(d) - set(known)
    if unknown:
        raise ConfigError(f"unknown key(s) in {where}: {', '.join(sorted(unknown))}")
    merged = dict(known)
    for key, value in d.items():
        kind = type(known[key])
        merged[key] = (_typed(value, kind, f"{where}.{key}")
                       if kind in _TYPE_NAMES else value)
    return merged


def _model_from_dict(d: dict) -> HypothesisModel:
    kind = d.get("kind")
    try:
        if kind == "iid_gaussian":
            rest = _take({k: v for k, v in d.items() if k != "kind"},
                         {"sigma_mm": 30.0}, "hypothesis_model")
            return IidGaussian(sigma_mm=rest["sigma_mm"])
        if kind == "depth_ray":
            rest = _take({k: v for k, v in d.items() if k != "kind"},
                         {"sigma_ray_mm": 80.0, "sigma_perp_mm": 5.0},
                         "hypothesis_model")
            return DepthRay(sigma_ray_mm=rest["sigma_ray_mm"],
                            sigma_perp_mm=rest["sigma_perp_mm"])
        if kind == "bimodal":
            rest = _take({k: v for k, v in d.items() if k != "kind"},
                         {"offset_mm": 150.0, "p_wrong": 0.3,
                          "sigma_correct_mm": 5.0}, "hypothesis_model")
            return Bimodal(offset_mm=rest["offset_mm"],
                           p_wrong=rest["p_wrong"],
                           sigma_correct_mm=rest["sigma_correct_mm"])
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad hypothesis_model: {exc}") from exc
    raise ConfigError(f"hypothesis_model.kind must be one of iid_gaussian, "
                      f"depth_ray, bimodal; got {kind!r}")


def _model_to_dict(m: HypothesisModel) -> dict:
    if isinstance(m, IidGaussian):
        return {"kind": "iid_gaussian", "sigma_mm": m.sigma_mm}
    if isinstance(m, DepthRay):
        return {"kind": "depth_ray", "sigma_ray_mm": m.sigma_ray_mm,
                "sigma_perp_mm": m.sigma_perp_mm}
    return {"kind": "bimodal", "offset_mm": m.offset_mm, "p_wrong": m.p_wrong,
            "sigma_correct_mm": m.sigma_correct_mm}


@dataclass(frozen=True)
class DenoiserSettings:
    """Oracle knobs; the network's own settings live in ``TrainConfig``."""

    oracle_lambda: float = 0.5
    oracle_sigma_mm: float = 20.0


@dataclass(frozen=True)
class MetricSettings:
    pck_threshold_mm: float = 150.0
    pmpjpe_scale: bool = True


@dataclass(frozen=True)
class RunConfig:
    seed: int = 0
    out_dir: str = "out"
    t_max: int = 1000
    signal_scale: float = DEFAULT_SIGNAL_SCALE
    image_width: int = 1000
    image_height: int = 1000
    skeleton: Skeleton = DEFAULT_SKELETON
    camera: CameraIntrinsics = DEFAULT_CAMERA
    scenario: ScenarioConfig = field(default_factory=ScenarioConfig)
    denoiser: DenoiserSettings = DenoiserSettings()
    train: TrainConfig = TrainConfig()
    sampler: SamplerConfig = SamplerConfig()
    metrics: MetricSettings = MetricSettings()

    def __post_init__(self):
        # The library configs carry their own copies of these values;
        # copies that disagree would run with other values than
        # config.json records.
        top = (self.seed, self.t_max, self.signal_scale)
        for name in ("sampler", "train"):
            part = getattr(self, name)
            if (part.seed, part.t_max, part.signal_scale) != top:
                raise ConfigError(f"{name} seed, t_max and signal_scale "
                                  f"must equal the top-level {top}")


def _scenario_from_dict(d: dict, skeleton: Skeleton, camera: CameraIntrinsics,
                        seed: int) -> ScenarioConfig:
    defaults = {
        "pose_count": 100,
        "frames_per_pose": 1,
        "noise_2d_px": 0.0,
        "hypothesis_count": 20,
        "hypothesis_model": {"kind": "iid_gaussian", "sigma_mm": 30.0},
        "root_box_mm": [[-800.0, -600.0, 3500.0], [800.0, 600.0, 6500.0]],
        "max_swing_deg": 35.0,
    }
    v = _take(d, defaults, "scenario")
    model = v["hypothesis_model"]
    if isinstance(model, dict):
        model = _model_from_dict(model)
    box = v["root_box_mm"]
    try:
        box = tuple(tuple(_typed(x, float, "scenario.root_box_mm")
                          for x in corner) for corner in (box[0], box[1]))
        if len(box[0]) != 3 or len(box[1]) != 3:
            raise ValueError("root_box_mm needs two 3-vectors")
        return ScenarioConfig(
            skeleton=skeleton, camera=camera,
            pose_count=v["pose_count"],
            frames_per_pose=v["frames_per_pose"],
            noise_2d_px=v["noise_2d_px"],
            hypothesis_count=v["hypothesis_count"],
            hypothesis_model=model, seed=seed,
            root_box_mm=box, max_swing_deg=v["max_swing_deg"])
    except (TypeError, ValueError, IndexError) as exc:
        raise ConfigError(f"bad scenario section: {exc}") from exc


def config_from_dict(doc: dict, *, base_dir: Path | None = None) -> RunConfig:
    """Build a RunConfig from a parsed JSON document."""
    defaults = {
        "seed": 0,
        "out_dir": "out",
        "t_max": 1000,
        "signal_scale": DEFAULT_SIGNAL_SCALE,
        "image_width": 1000,
        "image_height": 1000,
        "skeleton": None,
        "camera": None,
        "scenario": {},
        "denoiser": {},
        "train": {},
        "sampler": {},
        "metrics": {},
    }
    v = _take(doc, defaults, "config")
    try:
        seed, t_max = v["seed"], v["t_max"]

        skeleton = v["skeleton"]
        if skeleton is None:
            skeleton = DEFAULT_SKELETON
        elif isinstance(skeleton, str):
            path = Path(skeleton)
            if base_dir is not None and not path.is_absolute():
                path = base_dir / path
            skeleton = load_skeleton(path)
        elif isinstance(skeleton, dict):
            skeleton = skeleton_from_dict(skeleton)
        else:
            raise ConfigError("skeleton must be null, a path, or an object")

        camera = v["camera"]
        if camera is None:
            camera = DEFAULT_CAMERA
        elif isinstance(camera, str):
            path = Path(camera)
            if base_dir is not None and not path.is_absolute():
                path = base_dir / path
            if not path.exists():
                raise ConfigError(f"camera file not found: {path}")
            camera = load_camera(path)
        elif isinstance(camera, dict):
            camera = camera_from_dict(camera)
        else:
            raise ConfigError("camera must be null, a path, or an object")

        signal_scale = v["signal_scale"]
        den = _take(v["denoiser"], {
            "hidden_width": 128, "hidden_layers": 2, "target": "predict_y0",
            "pixel_scale": DEFAULT_PIXEL_SCALE, "oracle_lambda": 0.5,
            "oracle_sigma_mm": 20.0}, "denoiser")
        denoiser = DenoiserSettings(
            oracle_lambda=den["oracle_lambda"],
            oracle_sigma_mm=den["oracle_sigma_mm"])

        tr = _take(v["train"], {
            "steps": 2000, "batch_size": 32, "learning_rate": 1e-3,
            "weight_decay": 0.1, "beta1": 0.9, "beta2": 0.999}, "train")
        train = TrainConfig(
            steps=tr["steps"], batch_size=tr["batch_size"],
            learning_rate=tr["learning_rate"],
            weight_decay=tr["weight_decay"],
            beta1=tr["beta1"], beta2=tr["beta2"],
            seed=seed, t_max=t_max, signal_scale=signal_scale,
            target=RegressionTarget(den["target"]),
            hidden_width=den["hidden_width"],
            hidden_layers=den["hidden_layers"],
            pixel_scale=den["pixel_scale"])

        sa = _take(v["sampler"], {
            "hypotheses": 20, "iterations": 10, "sigma_mode": "stochastic",
            "flip_mode": "none"}, "sampler")
        sampler = SamplerConfig(
            hypotheses=sa["hypotheses"], iterations=sa["iterations"],
            t_max=t_max, sigma_mode=SigmaMode(sa["sigma_mode"]),
            flip_mode=FlipMode(sa["flip_mode"]), seed=seed,
            signal_scale=signal_scale)

        me = _take(v["metrics"], {"pck_threshold_mm": 150.0,
                                  "pmpjpe_scale": True}, "metrics")
        metrics = MetricSettings(pck_threshold_mm=me["pck_threshold_mm"],
                                 pmpjpe_scale=me["pmpjpe_scale"])

        cfg = RunConfig(
            seed=seed, out_dir=v["out_dir"], t_max=t_max,
            signal_scale=signal_scale,
            image_width=v["image_width"],
            image_height=v["image_height"],
            skeleton=skeleton, camera=camera,
            scenario=_scenario_from_dict(v["scenario"], skeleton, camera, seed),
            denoiser=denoiser, train=train, sampler=sampler, metrics=metrics)
    except ConfigError:
        raise
    except (PoseDiffError, ValueError, TypeError, KeyError) as exc:
        raise ConfigError(str(exc)) from exc
    return cfg


def load_config(path: str | Path) -> RunConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        doc = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON in {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"config {path} must hold a JSON object")
    return config_from_dict(doc, base_dir=path.parent)


def config_to_dict(cfg: RunConfig) -> dict:
    sc = cfg.scenario
    return {
        "seed": cfg.seed,
        "out_dir": cfg.out_dir,
        "t_max": cfg.t_max,
        "signal_scale": cfg.signal_scale,
        "image_width": cfg.image_width,
        "image_height": cfg.image_height,
        "skeleton": skeleton_to_dict(cfg.skeleton),
        "camera": camera_to_dict(cfg.camera),
        "scenario": {
            "pose_count": sc.pose_count,
            "frames_per_pose": sc.frames_per_pose,
            "noise_2d_px": sc.noise_2d_px,
            "hypothesis_count": sc.hypothesis_count,
            "hypothesis_model": _model_to_dict(sc.hypothesis_model),
            "root_box_mm": [list(sc.root_box_mm[0]), list(sc.root_box_mm[1])],
            "max_swing_deg": sc.max_swing_deg,
        },
        "denoiser": {
            "hidden_width": cfg.train.hidden_width,
            "hidden_layers": cfg.train.hidden_layers,
            "target": cfg.train.target.value,
            "pixel_scale": cfg.train.pixel_scale,
            "oracle_lambda": cfg.denoiser.oracle_lambda,
            "oracle_sigma_mm": cfg.denoiser.oracle_sigma_mm,
        },
        "train": {
            "steps": cfg.train.steps,
            "batch_size": cfg.train.batch_size,
            "learning_rate": cfg.train.learning_rate,
            "weight_decay": cfg.train.weight_decay,
            "beta1": cfg.train.beta1,
            "beta2": cfg.train.beta2,
        },
        "sampler": {
            "hypotheses": cfg.sampler.hypotheses,
            "iterations": cfg.sampler.iterations,
            "sigma_mode": cfg.sampler.sigma_mode.value,
            "flip_mode": cfg.sampler.flip_mode.value,
        },
        "metrics": {
            "pck_threshold_mm": cfg.metrics.pck_threshold_mm,
            "pmpjpe_scale": cfg.metrics.pmpjpe_scale,
        },
    }


def config_sha256(cfg: RunConfig) -> str:
    # out_dir is plumbing, not content; two runs that differ only in
    # where they write should hash the same.
    doc = config_to_dict(cfg)
    del doc["out_dir"]
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def apply_overrides(cfg: RunConfig, **overrides) -> RunConfig:
    """Apply CLI flag overrides; None values are 'not given'."""
    updates = {k: v for k, v in overrides.items() if v is not None}
    top = {k: updates.pop(k) for k in ("seed", "out_dir") if k in updates}
    samp = {k: updates.pop(k) for k in
            ("hypotheses", "iterations", "sigma_mode", "flip_mode")
            if k in updates}
    if updates:
        raise ConfigError(f"unknown override(s): {', '.join(sorted(updates))}")
    try:
        for key, kind in (("hypotheses", int), ("iterations", int),
                          ("sigma_mode", SigmaMode), ("flip_mode", FlipMode)):
            if key in samp:
                samp[key] = (_typed(samp[key], int, key) if kind is int
                             else kind(samp[key]))
        if "seed" in top:
            seed = top["seed"] = samp["seed"] = _typed(top["seed"], int,
                                                       "seed")
            top["train"] = replace(cfg.train, seed=seed)
            top["scenario"] = replace(cfg.scenario, seed=seed)
        if "out_dir" in top:
            top["out_dir"] = str(top["out_dir"])
        return replace(cfg, sampler=replace(cfg.sampler, **samp), **top)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
