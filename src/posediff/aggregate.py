"""Combine H pose hypotheses into one estimate.

Production-feasible methods: ``avg`` (plain mean), ``ppma`` (pick one
hypothesis per frame by total reprojection error), ``jpma`` (pick per
joint by that joint's reprojection error). Oracle settings requiring
ground truth: ``pbest`` (best hypothesis per frame), ``jbest`` (best
hypothesis per joint). Ties always resolve to the lowest hypothesis
index, so results are independent of evaluation order.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .camera import CameraIntrinsics, project_with_mask
from .core import HypothesisSet, PoseSeq2D, PoseSeq3D, derived
from .errors import AggregationError, ShapeError


@dataclass(frozen=True)
class AggregationReport:
    """Result of a selection aggregator.

    ``chosen`` holds the winning hypothesis index per (frame, joint);
    pose-level methods repeat their per-frame choice across joints.
    ``reproj_error_px`` is the winning joint's pixel error for the
    reprojection methods, None for the ground-truth oracles.
    """

    method: str
    pose: PoseSeq3D
    chosen: np.ndarray | None
    reproj_error_px: np.ndarray | None

    def __post_init__(self):
        if self.chosen is None:
            return
        chosen = np.asarray(self.chosen, dtype=np.int64)
        if chosen.shape != self.pose.joints.shape[:2]:
            raise ShapeError(f"chosen shape {chosen.shape} != pose frames/joints "
                             f"{self.pose.joints.shape[:2]}")
        chosen = chosen.copy()
        chosen.setflags(write=False)
        object.__setattr__(self, "chosen", chosen)

    @property
    def feasible(self) -> bool:
        """Whether the method runs in production: it reads no ground truth."""
        return "ground truth" not in METHOD_INPUTS[self.method]


def _check_shape(hs: HypothesisSet, other: PoseSeq2D | PoseSeq3D,
                 what: str) -> None:
    if (hs.num_frames, hs.num_joints) != (other.num_frames, other.num_joints):
        raise ShapeError(
            f"hypotheses are ({hs.num_frames}, {hs.num_joints}) but {what} "
            f"({other.num_frames}, {other.num_joints})")


def _reprojection_errors(hs: HypothesisSet, x: PoseSeq2D,
                         cam: CameraIntrinsics) -> np.ndarray:
    """Per-hypothesis pixel errors, (H, N, J), read-only, one hypothesis
    at a time: no (H, N, J, 2) projection is made. Excluded joints are
    +inf."""
    _check_shape(hs, x, "keypoints are")
    err = np.empty(hs.poses.shape[:-1])
    for h, pose in enumerate(hs.poses):
        uv, valid = project_with_mask(pose, cam)
        uv -= x.joints
        err[h] = _norms(uv)
        err[h][~valid] = np.inf
    err.setflags(write=False)
    return err


def _distances(hs: HypothesisSet, gt: PoseSeq3D) -> np.ndarray:
    """Per-hypothesis joint distances to the ground truth, (H, N, J),
    read-only, one hypothesis at a time: no (H, N, J, 3) difference is
    made."""
    _check_shape(hs, gt, "ground truth is")
    dist = np.empty(hs.poses.shape[:-1])
    for h, pose in enumerate(hs.poses):
        dist[h] = _norms(pose - gt.joints)
    dist.setflags(write=False)
    return dist


def _norms(diff: np.ndarray) -> np.ndarray:
    """Euclidean norms over the last axis of ``diff``, which is squared
    in place: for real input, exactly ``np.linalg.norm(diff, axis=-1)``."""
    np.square(diff, out=diff)
    err = np.add.reduce(diff, axis=-1)
    return np.sqrt(err, out=err)


# Why no hypothesis may be chosen, for an (H, N, J) or an (H, N) cost.
_DEAD = {3: "every hypothesis is behind the camera for joint {}",
         2: "every hypothesis has a behind-camera joint"}


def _select(method: str, hs: HypothesisSet, cost: np.ndarray,
            err: np.ndarray | None = None) -> AggregationReport:
    """Keep the lowest-cost hypothesis per joint of an (H, N, J) cost,
    or per frame of an (H, N) cost; ties go to the lowest index. An
    infinite cost excludes a hypothesis. ``err`` is the (H, N, J) pixel
    error reported for the chosen joints."""
    # Costs are never NaN and never negative, so the lowest cost is
    # infinite only where every hypothesis is excluded, and the first
    # index that holds it is argmin's, with no transposed copy of cost.
    low = cost.min(axis=0)
    dead = np.isinf(low)
    if np.any(dead):
        frame, *joint = map(int, np.argwhere(dead)[0])
        raise AggregationError(_DEAD[cost.ndim].format(*joint), frame=frame)
    chosen = (cost == low).argmax(axis=0)
    if chosen.ndim == 1:
        chosen = np.repeat(chosen[:, None], hs.num_joints, axis=1)
    pose = np.take_along_axis(hs.poses, chosen[None, ..., None], axis=0)[0]
    pose.setflags(write=False)  # fresh, so PoseSeq3D takes it uncopied
    if err is not None:
        err = np.take_along_axis(err, chosen[None], axis=0)[0]
    return AggregationReport(method, PoseSeq3D(pose), chosen, err)


def agg_average(hs: HypothesisSet) -> PoseSeq3D:
    """Elementwise mean over hypotheses."""
    mean = hs.poses.mean(axis=0)
    mean.setflags(write=False)  # fresh, so PoseSeq3D takes it uncopied
    return PoseSeq3D(mean)


def agg_jpma(hs: HypothesisSet, x: PoseSeq2D,
             cam: CameraIntrinsics) -> AggregationReport:
    """Joint-level selection by reprojection error.

    For every frame and joint, reproject that joint of every hypothesis
    and keep the hypothesis whose projection lands closest to the 2D
    input. Behind-camera joints are skipped; a joint with no surviving
    hypothesis is an error.
    """
    err = derived(hs, _reprojection_errors, x, cam)
    return _select("jpma", hs, err, err)


def agg_ppma(hs: HypothesisSet, x: PoseSeq2D,
             cam: CameraIntrinsics) -> AggregationReport:
    """Pose-level selection by total reprojection error.

    A hypothesis with any behind-camera joint in a frame is excluded
    for that whole frame (its total is not comparable).
    """
    err = derived(hs, _reprojection_errors, x, cam)
    return _select("ppma", hs, err.sum(axis=2), err)


def agg_pbest(hs: HypothesisSet, gt: PoseSeq3D) -> AggregationReport:
    """Oracle: per frame, the hypothesis with the lowest mean joint error."""
    return _select("pbest", hs, derived(hs, _distances, gt).mean(axis=2))


def agg_jbest(hs: HypothesisSet, gt: PoseSeq3D) -> AggregationReport:
    """Oracle: per joint, the hypothesis closest to the ground truth."""
    return _select("jbest", hs, derived(hs, _distances, gt))


# Aggregator names accepted by the CLI, in output order, with the inputs
# each reads besides the hypotheses. Only the methods that do not read
# the ground truth are usable in production.
METHOD_INPUTS = {"avg": (), "jpma": ("keypoints", "camera"),
                 "ppma": ("keypoints", "camera"),
                 "pbest": ("ground truth",), "jbest": ("ground truth",)}
METHOD_NAMES = tuple(METHOD_INPUTS)


def run_aggregator(method: str, hs: HypothesisSet, *,
                   x: PoseSeq2D | None = None,
                   cam: CameraIntrinsics | None = None,
                   gt: PoseSeq3D | None = None) -> AggregationReport:
    """Uniform entry point; wraps agg_average in a report."""
    if method not in METHOD_INPUTS:
        raise ValueError(f"unknown aggregator {method!r}, expected one of "
                         f"{', '.join(METHOD_NAMES)}")
    given = {"keypoints": x, "camera": cam, "ground truth": gt}
    missing = [k for k in METHOD_INPUTS[method] if given[k] is None]
    if missing:
        raise ValueError(f"{method} needs {' and '.join(missing)}")
    if method == "avg":
        return AggregationReport("avg", agg_average(hs), None, None)
    if method == "jpma":
        return agg_jpma(hs, x, cam)
    if method == "ppma":
        return agg_ppma(hs, x, cam)
    if method == "pbest":
        return agg_pbest(hs, gt)
    return agg_jbest(hs, gt)
