"""SVG rendering of projected poses.

Each frame becomes one standalone SVG in camera pixel space: ground
truth drawn with solid strokes, hypotheses dashed in per-hypothesis
colors. Joints at or behind the camera are omitted together with their
incident bones, and a warning string is collected per omission. Output
bytes are deterministic for identical input.
"""
from __future__ import annotations

import numpy as np

from .camera import CameraIntrinsics, project_with_mask
from .core import HypothesisSet, PoseSeq3D, Skeleton

GT_COLOR = "#1f77b4"

# Qualitative palette, reused cyclically across hypotheses.
HYPOTHESIS_COLORS = (
    "#d62728", "#2ca02c", "#ff7f0e", "#9467bd", "#8c564b",
    "#e377c2", "#7f7f7f", "#bcbd22", "#17becf", "#aec7e8",
)


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def _draw_pose(parts: list[str], joints3d: np.ndarray, cam: CameraIntrinsics,
               skeleton: Skeleton, *, color: str, dashed: bool, width: float,
               label: str, warnings: list[str]) -> None:
    uv, visible = project_with_mask(joints3d, cam)
    for j in np.nonzero(~visible)[0]:
        warnings.append(f"{label}: joint {int(j)} behind camera, omitted")
    dash = ' stroke-dasharray="6 4"' if dashed else ""
    for j, parent in enumerate(skeleton.parents):
        if j == parent or not (visible[j] and visible[parent]):
            continue
        parts.append(
            f'<line x1="{_fmt(uv[parent, 0])}" y1="{_fmt(uv[parent, 1])}" '
            f'x2="{_fmt(uv[j, 0])}" y2="{_fmt(uv[j, 1])}" '
            f'stroke="{color}" stroke-width="{width}"{dash}/>')
    for j in np.nonzero(visible)[0]:
        parts.append(
            f'<circle cx="{_fmt(uv[j, 0])}" cy="{_fmt(uv[j, 1])}" r="3" '
            f'fill="{color}"/>')


def render_frame(gt: np.ndarray | None, hyps: np.ndarray | None,
                 cam: CameraIntrinsics, skeleton: Skeleton, *,
                 width: int = 1000, height: int = 1000
                 ) -> tuple[str, list[str]]:
    """Render one frame to an SVG string.

    ``gt`` is (J, 3) or None; ``hyps`` is (H, J, 3) or None. Returns
    (svg, warnings).
    """
    if gt is None and hyps is None:
        raise ValueError("nothing to render: no ground truth, no hypotheses")
    warnings: list[str] = []
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    if hyps is not None:
        for h, pose in enumerate(hyps):
            color = HYPOTHESIS_COLORS[h % len(HYPOTHESIS_COLORS)]
            _draw_pose(parts, pose, cam, skeleton, color=color, dashed=True,
                       width=1.5, label=f"hypothesis {h}",
                       warnings=warnings)
    if gt is not None:
        _draw_pose(parts, gt, cam, skeleton, color=GT_COLOR, dashed=False,
                   width=2.5, label="ground truth",
                   warnings=warnings)
    parts.append("</svg>")
    return "\n".join(parts) + "\n", warnings


def render_sequence(gt: PoseSeq3D | None, hyps: HypothesisSet | None,
                    cam: CameraIntrinsics, skeleton: Skeleton, *,
                    width: int = 1000, height: int = 1000
                    ) -> tuple[list[str], list[str]]:
    """Render every frame; returns (svg strings, accumulated warnings)."""
    frames = gt.num_frames if gt is not None else hyps.num_frames
    if gt is not None and hyps is not None and hyps.num_frames != gt.num_frames:
        raise ValueError(f"ground truth has {gt.num_frames} frames, "
                         f"hypotheses have {hyps.num_frames}")
    svgs, warnings = [], []
    for k in range(frames):
        svg, warns = render_frame(
            gt.joints[k] if gt is not None else None,
            hyps.poses[:, k] if hyps is not None else None,
            cam, skeleton, width=width, height=height)
        svgs.append(svg)
        warnings.extend(f"frame {k}, {w}" for w in warns)
    return svgs, warnings
