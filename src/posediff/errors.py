"""Exception types shared across the package.

Errors that carry structural information (frame/joint indices, line
numbers, training step) expose it as attributes so callers can react
programmatically instead of parsing messages. The helpers at the end
check parsed JSON, so that every loader refuses the same things.
"""
from __future__ import annotations

import math


class PoseDiffError(Exception):
    """Base class for all package-specific errors."""


class SkeletonError(PoseDiffError, ValueError):
    """Skeleton topology is malformed or inconsistent with the data."""


class ShapeError(PoseDiffError, ValueError):
    """Array arguments have incompatible shapes."""


class PoseFileParseError(PoseDiffError, ValueError):
    """A pose file line is not valid JSON or not a valid record."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class PoseFileSchemaError(PoseDiffError, ValueError):
    """A pose file record disagrees with the file header."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class BehindCameraError(PoseDiffError, ValueError):
    """A joint sits at or behind the camera plane, projection undefined."""

    def __init__(self, frame: int, joint: int, z: float):
        super().__init__(
            f"joint {joint} of frame {frame} has depth {z:g} mm, "
            "at or behind the camera"
        )
        self.frame = frame
        self.joint = joint
        self.z = z


class AggregationError(PoseDiffError, ValueError):
    """No hypothesis is usable for some frame or joint."""


class DegenerateAlignmentError(PoseDiffError, ValueError):
    """Procrustes alignment is ill-posed (collinear or collapsed joints)."""


class NumericError(PoseDiffError, ArithmeticError):
    """A computation produced non-finite values."""

    def __init__(self, message: str, layer: int | None = None):
        if layer is not None:
            message = f"layer {layer}: {message}"
        super().__init__(message)
        self.layer = layer


class TrainingDivergedError(PoseDiffError, RuntimeError):
    """Training loss or gradients became non-finite."""

    def __init__(self, step: int, message: str = ""):
        detail = message or "loss or gradient became non-finite"
        super().__init__(f"training diverged at step {step}: {detail}")
        self.step = step


class MissingGroundTruthError(PoseDiffError, ValueError):
    """A ground-truth-dependent aggregator was requested without labels."""


class ConfigError(PoseDiffError, ValueError):
    """Run configuration is missing, malformed, or inconsistent."""


def reject_non_finite(token: str):
    """``parse_constant`` for ``json.loads``: NaN and Infinity are not
    JSON, and a file posediff writes never holds them."""
    raise ValueError(f"non-finite constant {token}")


def finite_number(value) -> float | None:
    """``value`` as a float if it is a finite JSON number, else None."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    try:
        value = float(value)
    except OverflowError:  # an integer too large for a float
        return None
    return value if math.isfinite(value) else None


def require_field(record, key: str, kind, where: str, error=ValueError):
    """``record[key]`` if it has type ``kind`` (never bool), else ``error``.

    ``float`` takes any finite JSON number and gives it as a float.
    """
    present = isinstance(record, dict) and key in record
    value = record[key] if present else None
    if kind is float:
        value = finite_number(value)
    if isinstance(value, bool) or not isinstance(value, kind):
        state = ("is missing" if not present else "is not a finite number"
                 if kind is float else "has the wrong type")
        raise error(f"{where}: {key!r} {state}")
    return value
