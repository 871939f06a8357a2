"""Perspective camera: projection, lens distortion, back-projection.

Points are camera-frame millimeters (x right, y down, z forward);
pixels are (u, v). The distorted model applies one radial polynomial
``d_r = 1 + k1 r^2 + k2 r^4 + k3 r^6`` and a scalar tangential gain
``d_t = 2 p1 x'^2 + 2 p2 y'^2`` to the normalized coordinates, then a
per-axis shift ``p1 r^2`` / ``p2 r^2``:

    x_d = x' (d_r + d_t) + p1 r^2
    y_d = y' (d_r + d_t) + p2 r^2

This is the formulation used by the motion-capture datasets this
package mimics; it is not the OpenCV tangential model, so do not swap
one for the other when porting calibration values.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import PoseSeq2D, PoseSeq3D
from .errors import (BehindCameraError, json_object, reject_unknown_keys,
                     require_field)

# Joints closer than this to the image plane do not project meaningfully.
DEFAULT_Z_MIN = 1.0  # mm

PINHOLE = "pinhole"
DISTORTED = "distorted"


@dataclass(frozen=True)
class CameraIntrinsics:
    """Intrinsics in pixels; distortion coefficients are dimensionless."""

    fx: float
    fy: float
    cx: float
    cy: float
    k1: float = 0.0
    k2: float = 0.0
    k3: float = 0.0
    p1: float = 0.0
    p2: float = 0.0
    model: str = PINHOLE

    def __post_init__(self):
        if not (self.fx > 0 and self.fy > 0):
            raise ValueError(f"focal lengths must be positive, got ({self.fx}, {self.fy})")
        if self.model not in (PINHOLE, DISTORTED):
            raise ValueError(f"unknown camera model {self.model!r}")
        if self.model == PINHOLE and any(
                c != 0.0 for c in (self.k1, self.k2, self.k3, self.p1, self.p2)):
            raise ValueError("pinhole model cannot carry distortion coefficients")

    @classmethod
    def pinhole(cls, fx: float, fy: float, cx: float, cy: float) -> "CameraIntrinsics":
        return cls(fx=fx, fy=fy, cx=cx, cy=cy, model=PINHOLE)

    @classmethod
    def distorted(cls, fx: float, fy: float, cx: float, cy: float, *,
                  k1: float = 0.0, k2: float = 0.0, k3: float = 0.0,
                  p1: float = 0.0, p2: float = 0.0) -> "CameraIntrinsics":
        return cls(fx=fx, fy=fy, cx=cx, cy=cy,
                   k1=k1, k2=k2, k3=k3, p1=p1, p2=p2, model=DISTORTED)


def project_array(points: np.ndarray, cam: CameraIntrinsics) -> np.ndarray:
    """Project (..., 3) camera-frame points to (..., 2) pixels.

    Depth is used as-is; callers are responsible for masking or
    rejecting points at or behind the image plane.
    """
    points = np.asarray(points, dtype=np.float64)
    z = points[..., 2]
    xn = points[..., 0] / z
    yn = points[..., 1] / z
    if cam.model == DISTORTED:
        r2 = xn * xn + yn * yn
        d_r = 1.0 + cam.k1 * r2 + cam.k2 * r2 * r2 + cam.k3 * r2 * r2 * r2
        d_t = 2.0 * cam.p1 * xn * xn + 2.0 * cam.p2 * yn * yn
        xd = xn * (d_r + d_t) + cam.p1 * r2
        yd = yn * (d_r + d_t) + cam.p2 * r2
    else:
        xd, yd = xn, yn
    u = cam.fx * xd + cam.cx
    v = cam.fy * yd + cam.cy
    return np.stack([u, v], axis=-1)


def project(pose: PoseSeq3D, cam: CameraIntrinsics) -> PoseSeq2D:
    """Project a 3D sequence, rejecting joints at or behind
    ``DEFAULT_Z_MIN``."""
    z = pose.joints[..., 2]
    bad = z <= DEFAULT_Z_MIN
    if np.any(bad):
        frame, joint = map(int, np.argwhere(bad)[0])
        raise BehindCameraError(frame, joint, float(z[frame, joint]))
    return PoseSeq2D(project_array(pose.joints, cam))


def project_with_mask(points: np.ndarray,
                      cam: CameraIntrinsics) -> tuple[np.ndarray, np.ndarray]:
    """Project (..., 3) points, masking depths at or behind
    ``DEFAULT_Z_MIN`` instead of raising.

    Returns (pixels, valid) where ``valid`` is a boolean (...) array;
    pixel values for invalid entries are zeros, never inf or NaN.
    """
    points = np.asarray(points, dtype=np.float64)
    valid = points[..., 2] > DEFAULT_Z_MIN
    safe = points.copy()
    safe[..., 2] = np.where(valid, points[..., 2], 1.0)
    uv = project_array(safe, cam)
    uv[~valid] = 0.0
    return uv, valid


def camera_to_dict(cam: CameraIntrinsics) -> dict:
    return {
        "model": cam.model,
        "fx": cam.fx, "fy": cam.fy, "cx": cam.cx, "cy": cam.cy,
        "k1": cam.k1, "k2": cam.k2, "k3": cam.k3,
        "p1": cam.p1, "p2": cam.p2,
    }


def camera_from_dict(d: dict, where: str = "camera") -> CameraIntrinsics:
    """Intrinsics from a JSON object; an unknown key or a value of the
    wrong JSON type raises ``ValueError`` naming ``where`` and the key."""
    required = ("fx", "fy", "cx", "cy")
    optional = ("k1", "k2", "k3", "p1", "p2")
    reject_unknown_keys(d, ("model", *required, *optional), where)
    numbers = {key: require_field(d, key, float, where)
               for key in (*required, *optional)
               if key in d or key in required}
    model = require_field(d, "model", str, where) if "model" in d else PINHOLE
    try:
        return CameraIntrinsics(**numbers, model=model)
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from exc


def load_camera(path: str | Path) -> CameraIntrinsics:
    return camera_from_dict(json_object(Path(path).read_text(), str(path)),
                            str(path))
