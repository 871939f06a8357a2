"""Synthetic data: random articulated poses and noisy 2D inputs.

Poses come from forward kinematics over the skeleton with per-joint
random swings, so bone lengths are exact by construction.

Realism is a non-goal; the generators exist to make ordering and
invariance claims testable at desk scale.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .camera import DEFAULT_Z_MIN, CameraIntrinsics, project
from .core import PoseSeq2D, PoseSeq3D, Skeleton, DEFAULT_SKELETON
from .rng import RngStream, stream_id

DEFAULT_CAMERA = CameraIntrinsics.pinhole(fx=1100.0, fy=1100.0,
                                          cx=500.0, cy=500.0)

# Unit rest directions (from parent) for the 17-joint default skeleton:
# legs hang down (+y), spine and head go up, shoulders go sideways.
_REST_DIRECTIONS_17 = np.array([
    [0.0, 0.0, 0.0],    # pelvis (root, unused)
    [-1.0, 0.0, 0.0],   # r_hip
    [0.0, 1.0, 0.0],    # r_knee
    [0.0, 1.0, 0.0],    # r_ankle
    [1.0, 0.0, 0.0],    # l_hip
    [0.0, 1.0, 0.0],    # l_knee
    [0.0, 1.0, 0.0],    # l_ankle
    [0.0, -1.0, 0.0],   # spine
    [0.0, -1.0, 0.0],   # thorax
    [0.0, -1.0, 0.0],   # neck
    [0.0, -1.0, 0.0],   # head
    [1.0, 0.0, 0.0],    # l_shoulder
    [0.0, 1.0, 0.0],    # l_elbow
    [0.0, 1.0, 0.0],    # l_wrist
    [-1.0, 0.0, 0.0],   # r_shoulder
    [0.0, 1.0, 0.0],    # r_elbow
    [0.0, 1.0, 0.0],    # r_wrist
])


@dataclass(frozen=True)
class ScenarioConfig:
    """Everything ``gen_poses`` reads to make a synthetic dataset."""

    skeleton: Skeleton = DEFAULT_SKELETON
    camera: CameraIntrinsics = DEFAULT_CAMERA
    pose_count: int = 100
    frames_per_pose: int = 1
    noise_2d_px: float = 0.0
    seed: int = 0
    root_box_mm: tuple[tuple[float, float, float],
                       tuple[float, float, float]] = ((-800.0, -600.0, 3500.0),
                                                      (800.0, 600.0, 6500.0))
    max_swing_deg: float = 35.0

    def __post_init__(self):
        if self.pose_count < 1 or self.frames_per_pose < 1:
            raise ValueError("pose_count and frames_per_pose must be >= 1")
        if self.noise_2d_px < 0:
            raise ValueError("noise_2d_px must be >= 0")
        lo, hi = self.root_box_mm
        if any(l > h for l, h in zip(lo, hi)):
            raise ValueError(f"root box is empty: {self.root_box_mm}")
        if not lo[2] > 0:
            raise ValueError("root box reaches behind the camera (z must be > 0)")
        if not 0.0 <= self.max_swing_deg < 180.0:
            raise ValueError("max_swing_deg must be in [0, 180)")
        # Every rest direction lies in the image plane, and a bone swings
        # at most max_swing_deg off it, so no joint comes nearer than its
        # root by more than sin(swing) times its distance along the bones.
        reach = _bone_reach(self.skeleton) * np.sin(
            np.deg2rad(min(self.max_swing_deg, 90.0)))
        if not lo[2] - reach > DEFAULT_Z_MIN:
            raise ValueError(
                f"root_box_mm starts at depth {lo[2]:g} mm, but a joint may "
                f"come {reach:g} mm nearer than its root: to the camera's "
                f"near plane at {DEFAULT_Z_MIN:g} mm")


def _bone_reach(skeleton: Skeleton) -> float:
    """The longest distance along the bones from the root to a joint."""
    dist = [0.0] * skeleton.num_joints
    for j in skeleton.topological_order()[1:]:
        dist[j] = dist[skeleton.parents[j]] + skeleton.bone_lengths[j]
    return max(dist)


def _rest_directions(skeleton: Skeleton) -> np.ndarray:
    if skeleton.parents == DEFAULT_SKELETON.parents:
        return _REST_DIRECTIONS_17
    # Arbitrary skeletons get a generic droop; exact direction is moot
    # because swings randomize it anyway.
    dirs = np.tile(np.array([0.0, 1.0, 0.0]), (skeleton.num_joints, 1))
    dirs[skeleton.root] = 0.0
    return dirs


def _rotate(v: np.ndarray, axis: np.ndarray, angle: float) -> np.ndarray:
    """Rodrigues rotation of a single 3-vector."""
    c, s = np.cos(angle), np.sin(angle)
    return v * c + np.cross(axis, v) * s + axis * np.dot(axis, v) * (1.0 - c)


def gen_poses(cfg: ScenarioConfig) -> list[tuple[PoseSeq3D, PoseSeq2D]]:
    """Generate (ground truth, 2D input) pairs, one per pose index.

    Roots are uniform in the configured box, each bone direction is the
    rest direction tilted by a random axis-angle swing, and the 2D
    input is the exact projection plus isotropic pixel noise.
    """
    skeleton = cfg.skeleton
    rest = _rest_directions(skeleton)
    order = skeleton.topological_order()
    lo = np.array(cfg.root_box_mm[0])
    hi = np.array(cfg.root_box_mm[1])
    # abs: -0.0 passes the range check, and numpy refuses uniform(0, -0)
    max_swing = abs(np.deg2rad(cfg.max_swing_deg))
    out = []
    for p in range(cfg.pose_count):
        rng = RngStream(cfg.seed, stream_id("synth_pose", p))
        rng_px = rng.spawn("px")
        joints = np.zeros((cfg.frames_per_pose, skeleton.num_joints, 3))
        for k in range(cfg.frames_per_pose):
            joints[k, skeleton.root] = rng.uniform(0.0, 1.0, 3) * (hi - lo) + lo
            for j in order[1:]:
                axis = rng.unit_vectors(())
                angle = float(rng.uniform(0.0, max_swing))
                direction = _rotate(rest[j], axis, angle)
                joints[k, j] = (joints[k, skeleton.parents[j]]
                                + skeleton.bone_lengths[j] * direction)
        gt = PoseSeq3D(joints)
        x = project(gt, cfg.camera)
        if cfg.noise_2d_px > 0:
            noisy = x.joints + cfg.noise_2d_px * rng_px.standard_normal(x.joints.shape)
            x = PoseSeq2D(noisy)
        out.append((gt, x))
    return out

