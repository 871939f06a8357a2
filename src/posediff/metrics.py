"""Pose error metrics.

All metrics take (prediction, ground truth) pairs of identical shape.
``mpjpe`` is the raw mean joint distance in millimeters; ``pmpjpe``
aligns each predicted frame to its ground-truth frame with a similarity
transform before measuring; ``pck``/``auc`` are threshold-based
fractions.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import PoseSeq3D
from .errors import DegenerateAlignmentError, ShapeError

PCK_DEFAULT_THRESHOLD_MM = 150.0
AUC_MAX_MM = 150.0
AUC_STEP_MM = 5.0

# A frame whose centered joint cloud has second singular value below
# this multiple of the first is treated as collinear.
_COLLINEAR_RTOL = 1e-9


def _paired(pred: PoseSeq3D, gt: PoseSeq3D) -> tuple[np.ndarray, np.ndarray]:
    if pred.joints.shape != gt.joints.shape:
        raise ShapeError(
            f"prediction shape {pred.joints.shape} != ground truth {gt.joints.shape}")
    return pred.joints, gt.joints


def joint_errors(pred: PoseSeq3D, gt: PoseSeq3D) -> np.ndarray:
    """Per-joint Euclidean errors, shape (frames, joints), millimeters."""
    p, g = _paired(pred, gt)
    return np.linalg.norm(p - g, axis=-1)


def mpjpe(pred: PoseSeq3D, gt: PoseSeq3D) -> float:
    """Mean per-joint position error over all frames and joints."""
    return float(joint_errors(pred, gt).mean())


def align_frame(pred: np.ndarray, gt: np.ndarray, *,
                with_scale: bool = True) -> np.ndarray:
    """Similarity-align predicted frames onto their ground truth.

    Takes one (J, 3) frame or an (F, J, 3) stack aligned frame by frame
    in one batched pass. For each frame finds rotation R (reflections
    excluded), translation, and optionally a uniform scale minimizing
    the summed squared joint error, and returns the transformed
    prediction in the input's shape. Raises when either cloud of some
    frame is coincident or collinear, where the rotation is not
    identifiable; for a stack the error's ``frame`` is the first such
    frame.
    """
    if (pred.shape != gt.shape or pred.ndim not in (2, 3)
            or pred.shape[-1] != 3):
        raise ShapeError(f"align_frame: bad shapes {pred.shape} vs {gt.shape}")
    if pred.shape[-2] < 3:
        raise DegenerateAlignmentError(
            f"alignment needs at least 3 joints, got {pred.shape[-2]}")
    stacked = pred.ndim == 3
    if not stacked:
        pred, gt = pred[None], gt[None]

    mu_p = pred.mean(axis=1, keepdims=True)
    mu_g = gt.mean(axis=1, keepdims=True)
    p0 = pred - mu_p
    g0 = gt - mu_g
    norm_p = np.linalg.norm(p0, axis=(1, 2))
    norm_g = np.linalg.norm(g0, axis=(1, 2))
    sv_p = np.linalg.svd(p0, compute_uv=False)
    sv_g = np.linalg.svd(g0, compute_uv=False)
    # Checked in this order within a frame; the first bad frame is named.
    problems = (
        ((norm_p == 0.0) | (norm_g == 0.0),
         "all joints coincide, alignment undefined"),
        (sv_p[:, 1] <= _COLLINEAR_RTOL * sv_p[:, 0],
         "prediction joints are collinear"),
        (sv_g[:, 1] <= _COLLINEAR_RTOL * sv_g[:, 0],
         "ground truth joints are collinear"),
    )
    bad = np.any([mask for mask, _ in problems], axis=0)
    if bad.any():
        k = int(np.argmax(bad))
        message = next(msg for mask, msg in problems if mask[k])
        raise DegenerateAlignmentError(message, frame=k if stacked else None)

    pn = p0 / norm_p[:, None, None]
    gn = g0 / norm_g[:, None, None]
    u, s, vt = np.linalg.svd(pn.transpose(0, 2, 1) @ gn)
    rot = u @ vt
    # Where that is a reflection, flip the axis with the smallest
    # singular value to stay in SO(3).
    flip = np.linalg.det(rot) < 0
    u[flip, :, -1] *= -1.0
    s[flip, -1] *= -1.0
    rot[flip] = u[flip] @ vt[flip]
    scale = s.sum(axis=1) * norm_g / norm_p if with_scale else np.ones(len(p0))
    aligned = scale[:, None, None] * p0 @ rot + mu_g
    return aligned if stacked else aligned[0]


def pmpjpe(pred: PoseSeq3D, gt: PoseSeq3D, *, with_scale: bool = True) -> float:
    """MPJPE after per-frame similarity alignment of pred onto gt."""
    p, g = _paired(pred, gt)
    aligned = align_frame(p, g, with_scale=with_scale)
    return float(np.linalg.norm(aligned - g, axis=-1).mean(axis=1).mean())


def pck(pred: PoseSeq3D, gt: PoseSeq3D,
        threshold_mm: float = PCK_DEFAULT_THRESHOLD_MM) -> float:
    """Fraction of joints with error strictly below the threshold."""
    if not threshold_mm > 0:
        raise ValueError(f"threshold must be positive, got {threshold_mm}")
    return float((joint_errors(pred, gt) < threshold_mm).mean())


def auc(pred: PoseSeq3D, gt: PoseSeq3D) -> float:
    """Mean correct-keypoint fraction over thresholds 0, 5, ..., 150 mm.

    The 0 mm point counts exact matches only, so a perfect prediction
    scores exactly 1.
    """
    errors = joint_errors(pred, gt)
    thresholds = np.arange(0.0, AUC_MAX_MM + AUC_STEP_MM / 2, AUC_STEP_MM)
    fractions = [(errors == 0.0).mean()]
    fractions += [(errors < th).mean() for th in thresholds[1:]]
    return float(np.mean(fractions))


@dataclass(frozen=True)
class MetricReport:
    """Bundle of the four standard metrics."""

    mpjpe_mm: float
    pmpjpe_mm: float
    pck150: float
    auc: float


def compute_metrics(pred: PoseSeq3D, gt: PoseSeq3D, *,
                    with_scale: bool = True) -> MetricReport:
    return MetricReport(
        mpjpe_mm=mpjpe(pred, gt),
        pmpjpe_mm=pmpjpe(pred, gt, with_scale=with_scale),
        pck150=pck(pred, gt),
        auc=auc(pred, gt),
    )
