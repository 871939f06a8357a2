"""Pose sequence files.

A pose file is JSON-lines: a header object ``{"J": <joints>, "dims": 2|3}``
followed by one record per frame, ``{"frame": k, "joints": [[...], ...]}``
with ``J`` rows of ``dims`` coordinates each. Frames are written and
required in order (0, 1, 2, ...). Coordinates are serialized with
Python's shortest-exact float representation, so a save/load round trip
is bit-identical.
"""
from __future__ import annotations

import json
import math
import reprlib
from pathlib import Path

import numpy as np

from .core import PoseSeq2D, PoseSeq3D
from .errors import (PoseFileParseError, PoseFileSchemaError, finite_number,
                     json_object, read_utf8, require_field)


def _parse_line(text: str, line_no: int, path: str | Path) -> dict:
    return json_object(text, str(path),
                       lambda message: PoseFileParseError(message, line_no))


def save_poses(pose: PoseSeq3D | PoseSeq2D, path: str | Path) -> None:
    """Write ``pose`` as a pose file, built whole and written at once."""
    lines = [json.dumps({"J": pose.num_joints, "dims": pose.joints.shape[-1]})]
    lines += [json.dumps({"frame": k, "joints": joints})
              for k, joints in enumerate(pose.joints.tolist())]
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")


def load_poses(path: str | Path) -> PoseSeq3D | PoseSeq2D:
    lines = read_utf8(path, PoseFileParseError).splitlines()
    if not lines or not any(line.strip() for line in lines):
        raise PoseFileParseError(f"{path}: empty pose file")

    header = _parse_line(lines[0], 1, path)
    num_joints, dims = (
        require_field(header, key, int, f"{path}: header",
                      lambda message: PoseFileSchemaError(message, line=1))
        for key in ("J", "dims"))
    if num_joints < 1:
        raise PoseFileSchemaError(
            f"{path}: header J must be >= 1, got {num_joints}", line=1)
    if dims not in (2, 3):
        raise PoseFileSchemaError(
            f"{path}: header dims must be 2 or 3, got {dims}", line=1)

    frames: list[list[list[float]]] = []
    for idx, text in enumerate(lines[1:], start=2):
        if not text.strip():
            continue
        rec = _parse_line(text, idx, path)
        if "frame" not in rec or "joints" not in rec:
            raise PoseFileParseError(
                f"{path}: record needs 'frame' and 'joints'", line=idx)
        if type(rec["frame"]) is not int or rec["frame"] != len(frames):
            raise PoseFileSchemaError(
                f"{path}: expected frame {len(frames)}, got {rec['frame']!r}",
                line=idx)
        joints = rec["joints"]
        if not isinstance(joints, list) or len(joints) != num_joints:
            raise PoseFileSchemaError(
                f"{path}: expected {num_joints} joints, got "
                f"{len(joints) if isinstance(joints, list) else type(joints).__name__}",
                line=idx)
        for row in joints:
            if not isinstance(row, list) or len(row) != dims:
                raise PoseFileSchemaError(
                    f"{path}: expected {dims} coordinates per joint", line=idx)
            for v in row:
                # math.isfinite raises on an integer too large for a
                # float; finite_number refuses it, as it does a bool
                if not (math.isfinite(v) if type(v) is float
                        else finite_number(v) is not None):
                    kind = ("non-numeric" if isinstance(v, bool) or not
                            isinstance(v, (int, float)) else "non-finite")
                    raise PoseFileParseError(
                        f"{path}: {kind} coordinate {reprlib.repr(v)}",
                        line=idx)
        frames.append(joints)
    if not frames:
        raise PoseFileParseError(f"{path}: no frame records after header")

    arr = np.array(frames, dtype=np.float64)
    return PoseSeq3D(arr) if dims == 3 else PoseSeq2D(arr)
