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

from .camera import DEFAULT_Z_MIN, CameraIntrinsics, project_with_mask
from .core import HypothesisSet, PoseSeq2D, PoseSeq3D
from .errors import AggregationError, ShapeError


@dataclass(frozen=True)
class AggregationReport:
    """Result of a selection aggregator.

    ``chosen`` holds the winning hypothesis index per (frame, joint);
    pose-level methods repeat their per-frame choice across joints.
    ``reproj_error_px`` is the winning joint's pixel error for the
    reprojection methods, None for the ground-truth oracles.
    ``feasible`` marks methods usable without ground truth.
    """

    method: str
    pose: PoseSeq3D
    chosen: np.ndarray | None
    reproj_error_px: np.ndarray | None
    feasible: bool

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


def _check_keypoints(hs: HypothesisSet, x: PoseSeq2D) -> None:
    if (hs.num_frames, hs.num_joints) != (x.num_frames, x.num_joints):
        raise ShapeError(
            f"hypotheses are ({hs.num_frames}, {hs.num_joints}) but keypoints "
            f"are ({x.num_frames}, {x.num_joints})")


def _check_gt(hs: HypothesisSet, gt: PoseSeq3D) -> None:
    if (hs.num_frames, hs.num_joints) != (gt.num_frames, gt.num_joints):
        raise ShapeError(
            f"hypotheses are ({hs.num_frames}, {hs.num_joints}) but ground "
            f"truth is ({gt.num_frames}, {gt.num_joints})")


def _gather_joints(hs: HypothesisSet, chosen: np.ndarray) -> np.ndarray:
    """Select joints[n, j] from hypothesis chosen[n, j]."""
    idx = chosen[None, ..., None]
    return np.take_along_axis(hs.poses, idx, axis=0)[0]


def _reprojection_errors(hs: HypothesisSet, x: PoseSeq2D,
                         cam: CameraIntrinsics,
                         z_min: float) -> np.ndarray:
    """Per-hypothesis pixel errors, (H, N, J); excluded joints are +inf."""
    uv, valid = project_with_mask(hs.poses, cam, z_min=z_min)
    err = np.linalg.norm(uv - x.joints[None], axis=-1)
    err[~valid] = np.inf
    return err


def agg_average(hs: HypothesisSet) -> PoseSeq3D:
    """Elementwise mean over hypotheses."""
    return PoseSeq3D(hs.poses.mean(axis=0))


def agg_jpma(hs: HypothesisSet, x: PoseSeq2D, cam: CameraIntrinsics, *,
             z_min: float = DEFAULT_Z_MIN) -> AggregationReport:
    """Joint-level selection by reprojection error.

    For every frame and joint, reproject that joint of every hypothesis
    and keep the hypothesis whose projection lands closest to the 2D
    input. Behind-camera joints are skipped; a joint with no surviving
    hypothesis is an error.
    """
    _check_keypoints(hs, x)
    err = _reprojection_errors(hs, x, cam, z_min)
    dead = np.all(np.isinf(err), axis=0)
    if np.any(dead):
        frame, joint = map(int, np.argwhere(dead)[0])
        raise AggregationError(
            f"every hypothesis is behind the camera for frame {frame}, "
            f"joint {joint}")
    chosen = err.argmin(axis=0)
    best_err = np.take_along_axis(err, chosen[None], axis=0)[0]
    return AggregationReport(method="jpma",
                             pose=PoseSeq3D(_gather_joints(hs, chosen)),
                             chosen=chosen, reproj_error_px=best_err,
                             feasible=True)


def agg_ppma(hs: HypothesisSet, x: PoseSeq2D, cam: CameraIntrinsics, *,
             z_min: float = DEFAULT_Z_MIN) -> AggregationReport:
    """Pose-level selection by total reprojection error.

    A hypothesis with any behind-camera joint in a frame is excluded
    for that whole frame (its total is not comparable).
    """
    _check_keypoints(hs, x)
    err = _reprojection_errors(hs, x, cam, z_min)
    totals = err.sum(axis=2)  # over joints -> (H, N)
    dead = np.all(np.isinf(totals), axis=0)
    if np.any(dead):
        frame = int(np.argwhere(dead)[0][0])
        raise AggregationError(
            f"every hypothesis has a behind-camera joint in frame {frame}")
    pick = totals.argmin(axis=0)  # (N,)
    chosen = np.repeat(pick[:, None], hs.num_joints, axis=1)
    best_err = np.take_along_axis(err, chosen[None], axis=0)[0]
    return AggregationReport(method="ppma",
                             pose=PoseSeq3D(_gather_joints(hs, chosen)),
                             chosen=chosen, reproj_error_px=best_err,
                             feasible=True)


def agg_pbest(hs: HypothesisSet, gt: PoseSeq3D) -> AggregationReport:
    """Oracle: per frame, the hypothesis with the lowest mean joint error."""
    _check_gt(hs, gt)
    dist = np.linalg.norm(hs.poses - gt.joints[None], axis=-1)  # (H, N, J)
    pick = dist.mean(axis=2).argmin(axis=0)  # (N,)
    chosen = np.repeat(pick[:, None], hs.num_joints, axis=1)
    return AggregationReport(method="pbest",
                             pose=PoseSeq3D(_gather_joints(hs, chosen)),
                             chosen=chosen, reproj_error_px=None,
                             feasible=False)


def agg_jbest(hs: HypothesisSet, gt: PoseSeq3D) -> AggregationReport:
    """Oracle: per joint, the hypothesis closest to the ground truth."""
    _check_gt(hs, gt)
    dist = np.linalg.norm(hs.poses - gt.joints[None], axis=-1)
    chosen = dist.argmin(axis=0)
    return AggregationReport(method="jbest",
                             pose=PoseSeq3D(_gather_joints(hs, chosen)),
                             chosen=chosen, reproj_error_px=None,
                             feasible=False)


# Aggregator names accepted by the CLI, in output order.
METHOD_NAMES = ("avg", "jpma", "ppma", "pbest", "jbest")


def run_aggregator(method: str, hs: HypothesisSet, *,
                   x: PoseSeq2D | None = None,
                   cam: CameraIntrinsics | None = None,
                   gt: PoseSeq3D | None = None,
                   z_min: float = DEFAULT_Z_MIN) -> AggregationReport:
    """Uniform entry point; wraps agg_average in a report."""
    if method == "avg":
        return AggregationReport(method="avg", pose=agg_average(hs),
                                 chosen=None, reproj_error_px=None,
                                 feasible=True)
    if method == "jpma":
        if x is None or cam is None:
            raise ValueError("jpma needs keypoints and a camera")
        return agg_jpma(hs, x, cam, z_min=z_min)
    if method == "ppma":
        if x is None or cam is None:
            raise ValueError("ppma needs keypoints and a camera")
        return agg_ppma(hs, x, cam, z_min=z_min)
    if method == "pbest":
        if gt is None:
            raise ValueError("pbest needs ground truth")
        return agg_pbest(hs, gt)
    if method == "jbest":
        if gt is None:
            raise ValueError("jbest needs ground truth")
        return agg_jbest(hs, gt)
    raise ValueError(f"unknown aggregator {method!r}, expected one of "
                     f"{', '.join(METHOD_NAMES)}")
