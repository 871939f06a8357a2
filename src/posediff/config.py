"""Run configuration: one JSON document driving every CLI command.

The document is a nested object with optional sections; a value not
given takes the default of the dataclass that holds it, and unknown
keys are rejected so typos fail loudly. The library configs (scenario,
sampler, training) are held directly, built with the top-level seed
put in; the document's skeleton and camera are the scenario's.
"""
from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path

from .camera import camera_from_dict, camera_to_dict, load_camera
from .core import (DEFAULT_SKELETON, load_skeleton, skeleton_from_dict,
                   skeleton_to_dict)
from .denoise import TrainConfig
from .errors import (ConfigError, PoseDiffError, finite_number, json_object,
                     read_utf8, reject_unknown_keys, require_field)
from .metrics import PCK_DEFAULT_THRESHOLD_MM
from .sampler import FlipMode, SamplerConfig, SigmaMode
from .synth import DEFAULT_CAMERA, ScenarioConfig


def _take(d: dict, known: dict, where: str) -> dict:
    """Merge the section ``d`` over the defaults ``known``; a given value
    whose default is a bool, int, float or str must have that type."""
    if not isinstance(d, dict):
        raise ConfigError(f"{where} must be a JSON object, got {d!r}")
    reject_unknown_keys(d, known, where, ConfigError)
    merged = dict(known)
    for key, value in d.items():
        kind = type(known[key])
        merged[key] = (require_field(d, key, kind, where, ConfigError)
                       if kind in (bool, int, float, str) else value)
    return merged


@dataclass(frozen=True)
class DenoiserSettings:
    """Oracle knobs; the network's own settings live in ``TrainConfig``."""

    oracle_lambda: float = 0.5
    oracle_sigma_mm: float = 20.0

    def __post_init__(self):
        if not 0.0 <= self.oracle_lambda < 1.0:
            raise ValueError(f"oracle_lambda must be in [0, 1), got "
                             f"{self.oracle_lambda}")
        if not self.oracle_sigma_mm >= 0:
            raise ValueError(f"oracle_sigma_mm must be >= 0, got "
                             f"{self.oracle_sigma_mm}")


@dataclass(frozen=True)
class MetricSettings:
    pck_threshold_mm: float = PCK_DEFAULT_THRESHOLD_MM
    pmpjpe_scale: bool = True

    def __post_init__(self):
        # metrics.csv names the column pck150, and AUC spans 0-150 mm
        if self.pck_threshold_mm != PCK_DEFAULT_THRESHOLD_MM:
            raise ValueError(f"pck_threshold_mm must be "
                             f"{PCK_DEFAULT_THRESHOLD_MM:g}, the threshold "
                             f"of the pck150 column, got "
                             f"{self.pck_threshold_mm}")


@dataclass(frozen=True)
class RunConfig:
    seed: int = 0
    out_dir: str = "out"
    t_max: int = 1000
    scenario: ScenarioConfig = field(default_factory=ScenarioConfig)
    denoiser: DenoiserSettings = DenoiserSettings()
    train: TrainConfig = TrainConfig()
    sampler: SamplerConfig = SamplerConfig()
    metrics: MetricSettings = MetricSettings()

    def __post_init__(self):
        # RngStream keys on the seed's low 64 bits; a seed beyond them
        # would draw another seed's data under its own config hash.
        if not 0 <= self.seed < 2 ** 64:
            raise ConfigError(f"seed must be in [0, 2**64), got {self.seed}")
        # The library configs carry their own seeds; one that disagreed
        # would run with another seed than config.json records.
        for name in ("sampler", "train", "scenario"):
            if getattr(self, name).seed != self.seed:
                raise ConfigError(f"{name} seed must equal the top-level "
                                  f"{self.seed}")
        # the schedule needs one real step beyond the identity step 0
        if self.t_max < 2:
            raise ConfigError(f"t_max must be >= 2, got {self.t_max}")
        if self.sampler.iterations > self.t_max:
            raise ConfigError(f"sampler iterations {self.sampler.iterations} "
                              f"exceeds t_max {self.t_max}")


def require_file(path: Path, what: str) -> None:
    """Refuse a ``path`` that is missing or is not a file, naming it
    as the ``what`` file."""
    if not path.exists():
        raise ConfigError(f"{what} file not found: {path}")
    if not path.is_file():
        raise ConfigError(f"{what} path is not a file: {path}")


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
    require_file(path, what)
    return load(path)


def _scenario_from_dict(d: dict, **given) -> ScenarioConfig:
    v = _take(d, _DEFAULTS["scenario"], "scenario")
    box = v["root_box_mm"]
    shaped = (isinstance(box, list) and len(box) == 2
              and all(isinstance(c, list) and len(c) == 3 for c in box))
    corners = shaped and tuple(tuple(map(finite_number, c)) for c in box)
    if not shaped or None in corners[0] + corners[1]:
        raise ConfigError(f"scenario: 'root_box_mm' must be two lists of 3 "
                          f"numbers, got {box!r}")
    return ScenarioConfig(**{**v, "root_box_mm": corners}, **given)


def config_from_dict(doc: dict, *, base_dir: Path | None = None) -> RunConfig:
    """Build a RunConfig from a parsed JSON document."""
    v = _take(doc, _DEFAULTS, "config")
    try:
        skeleton = _source(v.pop("skeleton"), base_dir, "skeleton",
                           DEFAULT_SKELETON, load_skeleton, skeleton_from_dict)
        camera = _source(v.pop("camera"), base_dir, "camera", DEFAULT_CAMERA,
                         load_camera, camera_from_dict)
        # The denoiser section holds the network's settings, which
        # TrainConfig carries, and the oracles' own.
        den = _take(v["denoiser"], _DEFAULTS["denoiser"], "denoiser")
        v["denoiser"] = DenoiserSettings(
            **{k: den.pop(k) for k in ("oracle_lambda", "oracle_sigma_mm")})
        v["train"] = TrainConfig(**_take(v["train"], _DEFAULTS["train"],
                                         "train"), **den, seed=v["seed"])
        sa = _take(v["sampler"], _DEFAULTS["sampler"], "sampler")
        sa["sigma_mode"] = SigmaMode(sa["sigma_mode"])
        sa["flip_mode"] = FlipMode(sa["flip_mode"])
        v["sampler"] = SamplerConfig(**sa, seed=v["seed"])
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
    require_file(path, "config")
    doc = json_object(read_utf8(path, ConfigError), str(path), ConfigError)
    return config_from_dict(doc, base_dir=path.parent)


def _pick(obj, *names) -> dict:
    """The named fields of ``obj``, enums as their JSON values."""
    values = {name: getattr(obj, name) for name in names}
    return {k: v.value if isinstance(v, Enum) else v
            for k, v in values.items()}


def config_to_dict(cfg: RunConfig) -> dict:
    sc = cfg.scenario
    return {
        **_pick(cfg, "seed", "out_dir", "t_max"),
        "skeleton": skeleton_to_dict(sc.skeleton),
        "camera": camera_to_dict(sc.camera),
        "scenario": {
            **_pick(sc, "pose_count", "frames_per_pose", "noise_2d_px",
                    "max_swing_deg"),
            "root_box_mm": [list(sc.root_box_mm[0]), list(sc.root_box_mm[1])],
        },
        "denoiser": {
            **_pick(cfg.train, "hidden_width", "hidden_layers"),
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
    """Apply CLI flag overrides; None values are 'not given'.

    The overrides are written into ``config_to_dict(cfg)`` and read back
    with ``config_from_dict``, so they are checked like document values.
    """
    given = {k: v for k, v in overrides.items() if v is not None}
    sampler = ("hypotheses", "iterations", "sigma_mode", "flip_mode")
    reject_unknown_keys(given, ("seed", "out_dir", *sampler), "overrides",
                        ConfigError)
    doc = config_to_dict(cfg)
    for key, value in given.items():
        (doc["sampler"] if key in sampler else doc)[key] = value
    return config_from_dict(doc)
