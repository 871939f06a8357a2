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

from .core import PoseSeq3D, derived
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


def _collinear(sv: np.ndarray) -> np.ndarray:
    """The collinearity rule, per frame, on the singular values of a
    stack of centred clouds."""
    return sv[:, 1] <= _COLLINEAR_RTOL * sv[:, 0]


def _collinear_screened(p0: np.ndarray) -> np.ndarray:
    """``_collinear`` of the centred (F, J, 3) clouds ``p0``, predicted or
    ground truth, with an SVD only for frames that a cheap exact screen
    does not clear.

    With G = p0^T p0, e2 the sum of its principal 2x2 minors and tr its
    trace, e2 <= 3 l0 l1 and l0 <= tr for its eigenvalues l0 >= l1 >=
    l2. So e2 > 1e-6 tr^2 gives s1/s0 = sqrt(l1/l0) > 5.8e-4: five
    orders above the rule's bound, far outside either side's rounding.
    A frame whose products overflow is not cleared.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        gram = p0.transpose(0, 2, 1) @ p0
        d0, d1, d2 = gram[:, 0, 0], gram[:, 1, 1], gram[:, 2, 2]
        e2 = (d0 * d1 - gram[:, 0, 1] ** 2 + d0 * d2 - gram[:, 0, 2] ** 2
              + d1 * d2 - gram[:, 1, 2] ** 2)
        tr = d0 + d1 + d2
        unclear = ~(e2 > 1e-6 * tr * tr)
    collinear = np.zeros(len(p0), dtype=bool)
    if unclear.any():
        collinear[unclear] = _collinear(
            np.linalg.svd(p0[unclear], compute_uv=False))
    return collinear


class _Target:
    """The ground truth's half of aligning (F, J, 3) frames onto ``gt``:
    its centroids, norms, collinearity, by the prediction's screen, and
    normalised centred clouds."""

    def __init__(self, gt: PoseSeq3D):
        self.mu = gt.joints.mean(axis=1, keepdims=True)
        g0 = gt.joints - self.mu
        self.norm = np.linalg.norm(g0, axis=(1, 2))
        self.collinear = _collinear_screened(g0)
        # A coincident frame divides by zero here; it is refused before
        # its cloud is read.
        with np.errstate(divide="ignore", invalid="ignore"):
            g0 /= self.norm[:, None, None]
        self.unit = g0


def align_frame(pred: np.ndarray, gt: PoseSeq3D, *,
                with_scale: bool = True) -> np.ndarray:
    """Similarity-align an (F, J, 3) stack of predicted frames onto the
    frames of ``gt``, frame by frame in one batched pass. ``gt``
    computes its half of the alignment once, for every prediction
    aligned against it.
    For each frame finds rotation R (reflections excluded), translation,
    and optionally a uniform scale minimizing the summed squared joint
    error, and returns the transformed prediction, (F, J, 3).
    Raises when either cloud of some frame is coincident or collinear,
    where the rotation is not identifiable; the error's ``frame`` is
    the first such frame.
    """
    if pred.shape != gt.joints.shape:
        raise ShapeError(
            f"align_frame: bad shapes {pred.shape} vs {gt.joints.shape}")
    if pred.shape[1] < 3:
        raise DegenerateAlignmentError(
            f"alignment needs at least 3 joints, got {pred.shape[1]}")
    target = derived(gt, _Target)

    mu_p = pred.mean(axis=1, keepdims=True)
    p0 = pred - mu_p
    norm_p = np.linalg.norm(p0, axis=(1, 2))
    # Checked in this order within a frame; the first bad frame is named.
    problems = (
        ((norm_p == 0.0) | (target.norm == 0.0),
         "all joints coincide, alignment undefined"),
        (_collinear_screened(p0), "prediction joints are collinear"),
        (target.collinear, "ground truth joints are collinear"),
    )
    bad = np.any([mask for mask, _ in problems], axis=0)
    if bad.any():
        k = int(np.argmax(bad))
        message = next(msg for mask, msg in problems if mask[k])
        raise DegenerateAlignmentError(message, frame=k)

    pn = p0 / norm_p[:, None, None]
    u, s, vt = np.linalg.svd(pn.transpose(0, 2, 1) @ target.unit)
    rot = u @ vt
    # Where that is a reflection, flip the axis with the smallest
    # singular value to stay in SO(3).
    flip = np.linalg.det(rot) < 0
    u[flip, :, -1] *= -1.0
    s[flip, -1] *= -1.0
    rot[flip] = u[flip] @ vt[flip]
    scale = (s.sum(axis=1) * target.norm / norm_p if with_scale
             else np.ones(len(p0)))
    # scale * p0 @ rot + mu, in the buffers of p0 and pn
    p0 *= scale[:, None, None]
    aligned = np.matmul(p0, rot, out=pn)
    aligned += target.mu
    return aligned


def pmpjpe(pred: PoseSeq3D, gt: PoseSeq3D, *, with_scale: bool = True) -> float:
    """MPJPE after per-frame similarity alignment of pred onto gt."""
    return float(frame_errors(pred, gt, with_scale=with_scale)[1].mean())


def _below(errors: np.ndarray, thresholds) -> np.ndarray:
    """The fraction of ``errors`` strictly below each threshold, counted
    on one sorted copy: bitwise the mean of ``errors < th``."""
    ordered = np.sort(errors, axis=None)
    return ordered.searchsorted(thresholds, side="left") / ordered.size


def pck(pred: PoseSeq3D, gt: PoseSeq3D,
        threshold_mm: float = PCK_DEFAULT_THRESHOLD_MM) -> float:
    """Fraction of joints with error strictly below the threshold."""
    if not threshold_mm > 0:
        raise ValueError(f"threshold must be positive, got {threshold_mm}")
    return float(_below(joint_errors(pred, gt), [threshold_mm])[0])


# The AUC thresholds above 0 mm, then PCK's: one sorted pass counts all.
_THRESHOLDS = np.append(
    np.arange(0.0, AUC_MAX_MM + AUC_STEP_MM / 2, AUC_STEP_MM)[1:],
    PCK_DEFAULT_THRESHOLD_MM)


def _auc(errors: np.ndarray, below: np.ndarray) -> float:
    """AUC from the joint errors and their fractions below each of the
    AUC thresholds above 0 mm."""
    return float(np.mean([(errors == 0.0).mean(), *below]))


def auc(pred: PoseSeq3D, gt: PoseSeq3D) -> float:
    """Mean correct-keypoint fraction over thresholds 0, 5, ..., 150 mm.

    The 0 mm point counts exact matches only, so a perfect prediction
    scores exactly 1.
    """
    errors = joint_errors(pred, gt)
    return _auc(errors, _below(errors, _THRESHOLDS[:-1]))


@dataclass(frozen=True)
class MetricReport:
    """Bundle of the four standard metrics."""

    mpjpe_mm: float
    pmpjpe_mm: float
    pck150: float
    auc: float


def frame_errors(pred: PoseSeq3D, gt: PoseSeq3D, *,
                 with_scale: bool = True) -> tuple[np.ndarray, np.ndarray]:
    """The per-frame part of the metrics of ``pred`` against ``gt``: the
    (F, J) joint errors and each frame's P-MPJPE, (F,). ``gt``
    computes its half of P-MPJPE's alignment once, for every call. The
    joint errors take the aligned frames' buffer once their P-MPJPE is
    taken, so no third pose-sized array is made."""
    p, g = _paired(pred, gt)
    aligned = align_frame(p, gt, with_scale=with_scale)
    aligned -= g
    frame_pmpjpe = np.linalg.norm(aligned, axis=-1).mean(axis=1)
    return (np.linalg.norm(np.subtract(p, g, out=aligned), axis=-1),
            frame_pmpjpe)


def pool_metrics(parts: list[tuple[np.ndarray, np.ndarray]]) -> MetricReport:
    """The four metrics over every frame of ``parts``, ``frame_errors``
    results in frame order: bitwise those of one call over all the
    frames."""
    errors = np.concatenate([e for e, _ in parts])
    below = _below(errors, _THRESHOLDS)
    return MetricReport(
        mpjpe_mm=float(errors.mean()),
        pmpjpe_mm=float(np.concatenate([p for _, p in parts]).mean()),
        pck150=float(below[-1]),
        auc=_auc(errors, below[:-1]),
    )


def compute_metrics(pred: PoseSeq3D, gt: PoseSeq3D, *,
                    with_scale: bool = True) -> MetricReport:
    """The four metrics of ``pred`` against ``gt``, from one joint-error
    array."""
    return pool_metrics([frame_errors(pred, gt, with_scale=with_scale)])
