"""Run configuration: one JSON document driving every CLI command.

The document is a nested object with optional sections; a value not
given takes the default of the dataclass that holds it, and unknown
keys are rejected so typos fail loudly. The library configs (scenario,
sampler, training) are held directly, built with the top-level
cross-cutting values (seed, t_max, signal scale, skeleton, camera) put
in.
"""
from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, replace
from enum import Enum
from pathlib import Path

from .camera import (CameraIntrinsics, camera_from_dict, camera_to_dict,
                     load_camera)
from .core import (DEFAULT_SKELETON, Skeleton, load_skeleton,
                   skeleton_from_dict, skeleton_to_dict)
from .denoise import RegressionTarget, TrainConfig
from .errors import ConfigError, PoseDiffError, reject_non_finite
from .sampler import FlipMode, SamplerConfig, SigmaMode
from .schedule import DEFAULT_SIGNAL_SCALE
from .synth import DEFAULT_CAMERA, ScenarioConfig


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
    """Merge the section ``d`` over the defaults ``known``; a given value
    whose default is a bool, int, float or str must have that type."""
    if not isinstance(d, dict):
        raise ConfigError(f"{where} must be a JSON object, got {d!r}")
    unknown = set(d) - set(known)
    if unknown:
        raise ConfigError(f"unknown key(s) in {where}: {', '.join(sorted(unknown))}")
    merged = dict(known)
    for key, value in d.items():
        kind = type(known[key])
        merged[key] = (_typed(value, kind, f"{where}.{key}")
                       if kind in _TYPE_NAMES else value)
    return merged


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


def _source(value, base_dir: Path | None, what: str, default, load,
            from_dict):
    """A skeleton or camera given as null, a file path or an object."""
    if value is None:
        return default
    if isinstance(value, dict):
        return from_dict(value)
    if not isinstance(value, str):
        raise ConfigError(f"{what} must be null, a path, or an object")
    path = Path(value)
    if base_dir is not None and not path.is_absolute():
        path = base_dir / path
    if not path.exists():
        raise ConfigError(f"{what} file not found: {path}")
    return load(path)


def _scenario_from_dict(d: dict, **given) -> ScenarioConfig:
    v = _take(d, _DEFAULTS["scenario"], "scenario")
    box = v["root_box_mm"]
    try:
        v["root_box_mm"] = box = tuple(
            tuple(_typed(x, float, "scenario.root_box_mm") for x in corner)
            for corner in (box[0], box[1]))
        if len(box[0]) != 3 or len(box[1]) != 3:
            raise ValueError("root_box_mm needs two 3-vectors")
        return ScenarioConfig(**v, **given)
    except (TypeError, ValueError, IndexError) as exc:
        raise ConfigError(f"bad scenario section: {exc}") from exc


def config_from_dict(doc: dict, *, base_dir: Path | None = None) -> RunConfig:
    """Build a RunConfig from a parsed JSON document."""
    v = _take(doc, _DEFAULTS, "config")
    try:
        shared = {k: v[k] for k in ("seed", "t_max", "signal_scale")}
        skeleton = v["skeleton"] = _source(
            v["skeleton"], base_dir, "skeleton", DEFAULT_SKELETON,
            load_skeleton, skeleton_from_dict)
        camera = v["camera"] = _source(
            v["camera"], base_dir, "camera", DEFAULT_CAMERA, load_camera,
            camera_from_dict)
        # The denoiser section holds the network's settings, which
        # TrainConfig carries, and the oracles' own.
        den = _take(v["denoiser"], _DEFAULTS["denoiser"], "denoiser")
        v["denoiser"] = DenoiserSettings(
            **{k: den.pop(k) for k in ("oracle_lambda", "oracle_sigma_mm")})
        den["target"] = RegressionTarget(den["target"])
        v["train"] = TrainConfig(**_take(v["train"], _DEFAULTS["train"],
                                         "train"), **den, **shared)
        sa = _take(v["sampler"], _DEFAULTS["sampler"], "sampler")
        sa["sigma_mode"] = SigmaMode(sa["sigma_mode"])
        sa["flip_mode"] = FlipMode(sa["flip_mode"])
        v["sampler"] = SamplerConfig(**sa, **shared)
        v["metrics"] = MetricSettings(**_take(v["metrics"],
                                              _DEFAULTS["metrics"], "metrics"))
        v["scenario"] = _scenario_from_dict(
            v["scenario"], skeleton=skeleton, camera=camera, seed=v["seed"])
        return RunConfig(**v)
    except ConfigError:
        raise
    except (PoseDiffError, ValueError, TypeError, KeyError) as exc:
        raise ConfigError(str(exc)) from exc


def load_config(path: str | Path) -> RunConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        doc = json.loads(path.read_text(), parse_constant=reject_non_finite)
    except ValueError as exc:
        raise ConfigError(f"invalid JSON in {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"config {path} must hold a JSON object")
    return config_from_dict(doc, base_dir=path.parent)


def _pick(obj, *names) -> dict:
    """The named fields of ``obj``, enums as their JSON values."""
    values = {name: getattr(obj, name) for name in names}
    return {k: v.value if isinstance(v, Enum) else v
            for k, v in values.items()}


def config_to_dict(cfg: RunConfig) -> dict:
    sc = cfg.scenario
    return {
        **_pick(cfg, "seed", "out_dir", "t_max", "signal_scale",
                "image_width"),
        "skeleton": skeleton_to_dict(cfg.skeleton),
        "camera": camera_to_dict(cfg.camera),
        "scenario": {
            **_pick(sc, "pose_count", "frames_per_pose", "noise_2d_px",
                    "max_swing_deg"),
            "root_box_mm": [list(sc.root_box_mm[0]), list(sc.root_box_mm[1])],
        },
        "denoiser": {
            **_pick(cfg.train, "hidden_width", "hidden_layers", "target",
                    "pixel_scale"),
            **_pick(cfg.denoiser, "oracle_lambda", "oracle_sigma_mm"),
        },
        "train": _pick(cfg.train, "steps", "batch_size", "learning_rate",
                       "weight_decay", "beta1", "beta2"),
        "sampler": _pick(cfg.sampler, "hypotheses", "iterations",
                         "sigma_mode", "flip_mode"),
        "metrics": _pick(cfg.metrics, "pck_threshold_mm", "pmpjpe_scale"),
    }


# Every default as the document spells it. Skeleton and camera stay
# None here: a given path or object is read by ``_source``.
_DEFAULTS = {**config_to_dict(RunConfig()), "skeleton": None, "camera": None}


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
