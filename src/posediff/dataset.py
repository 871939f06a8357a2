"""On-disk dataset layout shared by the CLI commands.

A dataset is a directory:

    manifest.json        skeleton, camera, sequence index
    gt/<name>.jsonl      3D poses, millimeters (optional per sequence)
    kp/<name>.jsonl      2D keypoints, pixels

The manifest pins everything needed to re-run inference: joint count,
skeleton, camera, and the hash of the config that generated the data.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from .camera import CameraIntrinsics, camera_from_dict, camera_to_dict
from .core import PoseSeq2D, PoseSeq3D, Skeleton, skeleton_from_dict, \
    skeleton_to_dict
from .errors import PoseFileSchemaError, json_object, require_field
from .poseio import load_poses, save_poses

MANIFEST_NAME = "manifest.json"
_MANIFEST_MAGIC = "posediff-dataset"


@dataclass(frozen=True)
class Sequence:
    name: str
    keypoints: PoseSeq2D
    gt: PoseSeq3D | None

    @property
    def num_frames(self) -> int:
        return self.keypoints.num_frames


@dataclass(frozen=True)
class Dataset:
    skeleton: Skeleton
    camera: CameraIntrinsics
    sequences: tuple[Sequence, ...]
    config_sha256: str | None = None

    def __len__(self) -> int:
        return len(self.sequences)

    @property
    def has_gt(self) -> bool:
        return all(s.gt is not None for s in self.sequences)


def save_dataset(root: str | Path, skeleton: Skeleton, camera: CameraIntrinsics,
                 sequences: list[tuple[PoseSeq2D, PoseSeq3D | None]],
                 *, config_sha256: str | None = None) -> Path:
    """Write a dataset directory; returns the manifest path."""
    root = Path(root)
    (root / "kp").mkdir(parents=True, exist_ok=True)
    entries = []
    for i, (kp, gt) in enumerate(sequences):
        name = f"seq_{i:04d}"
        save_poses(kp, root / "kp" / f"{name}.jsonl")
        entry = {"name": name, "frames": kp.num_frames,
                 "keypoints": f"kp/{name}.jsonl"}
        if gt is not None:
            if gt.num_frames != kp.num_frames or gt.num_joints != kp.num_joints:
                raise ValueError(f"sequence {name}: gt and keypoints disagree "
                                 f"on frame or joint count")
            (root / "gt").mkdir(exist_ok=True)
            save_poses(gt, root / "gt" / f"{name}.jsonl")
            entry["gt"] = f"gt/{name}.jsonl"
        entries.append(entry)
    manifest = {
        "format": _MANIFEST_MAGIC,
        "version": 1,
        "num_joints": skeleton.num_joints,
        "skeleton": skeleton_to_dict(skeleton),
        "camera": camera_to_dict(camera),
        "config_sha256": config_sha256,
        "sequences": entries,
    }
    path = root / MANIFEST_NAME
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return path


def load_dataset(root: str | Path) -> Dataset:
    root = Path(root)
    path = root / MANIFEST_NAME
    if not path.exists():
        raise PoseFileSchemaError(f"{path}: not found")
    manifest = json_object(path.read_text(), str(path), PoseFileSchemaError)
    if manifest.get("format") != _MANIFEST_MAGIC:
        raise PoseFileSchemaError(f"{path}: not a dataset manifest")

    def need(record, key, kind, where=str(path)):
        return require_field(record, key, kind, where, PoseFileSchemaError)
    skeleton = skeleton_from_dict(need(manifest, "skeleton", dict),
                                  f"{path}: skeleton")
    camera = camera_from_dict(need(manifest, "camera", dict),
                              f"{path}: camera")
    num_joints = need(manifest, "num_joints", int)
    if num_joints != skeleton.num_joints:
        raise PoseFileSchemaError(
            f"{path}: num_joints {num_joints} does not match skeleton "
            f"({skeleton.num_joints})")
    sequences = []
    for i, entry in enumerate(need(manifest, "sequences", list)):
        where = f"{path}: sequence {i}"
        name = need(entry, "name", str, where)
        seq = f"{path}: sequence {name}"
        kp = load_poses(root / need(entry, "keypoints", str, where))
        if not isinstance(kp, PoseSeq2D):
            raise PoseFileSchemaError(f"{seq}: keypoint file holds 3D data")
        gt = None
        if "gt" in entry:
            gt = load_poses(root / need(entry, "gt", str, where))
            if not isinstance(gt, PoseSeq3D):
                raise PoseFileSchemaError(f"{seq}: gt file holds 2D data")
            if gt.num_frames != kp.num_frames:
                raise PoseFileSchemaError(
                    f"{seq}: gt frame count {gt.num_frames} != keypoint "
                    f"frame count {kp.num_frames}")
        if kp.num_joints != num_joints:
            raise PoseFileSchemaError(
                f"{seq}: joint count {kp.num_joints} does not match "
                f"manifest ({num_joints})")
        if need(entry, "frames", int, where) != kp.num_frames:
            raise PoseFileSchemaError(
                f"{seq}: manifest says {entry['frames']} frames, file "
                f"holds {kp.num_frames}")
        sequences.append(Sequence(name=name, keypoints=kp, gt=gt))
    return Dataset(skeleton=skeleton, camera=camera,
                   sequences=tuple(sequences),
                   config_sha256=manifest.get("config_sha256"))
