"""Exception types shared across the package.

Errors that carry structural information (frame/joint indices, line
numbers, training step) expose it as attributes so callers can react
programmatically instead of parsing messages. The helpers at the end
turn outside JSON into typed values, for every loader and the config.
"""
from __future__ import annotations

import json
import math
import reprlib


class PoseDiffError(Exception):
    """Base class for all package-specific errors."""


class SkeletonError(PoseDiffError, ValueError):
    """Skeleton topology is malformed or inconsistent with the data."""


class ShapeError(PoseDiffError, ValueError):
    """Array arguments have incompatible shapes."""


class _PoseFileError(PoseDiffError, ValueError):
    """An error in a pose file, at line ``line`` if one is known."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class PoseFileParseError(_PoseFileError):
    """A pose file line is not valid JSON or not a valid record."""


class PoseFileSchemaError(_PoseFileError):
    """A pose file record disagrees with the file header."""


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


def _reject_non_finite(token: str):
    raise ValueError(f"non-finite constant {token}")


def json_object(text: str | bytes, where: str, error=ValueError) -> dict:
    """``text`` parsed as a JSON object, else ``error`` naming ``where``.
    NaN and Infinity are not JSON, and no file posediff writes has them."""
    try:
        value = json.loads(text, parse_constant=_reject_non_finite)
    except ValueError as exc:  # also a bad UTF-8 byte
        raise error(f"{where}: invalid JSON: {exc}") from exc
    if not isinstance(value, dict):
        raise error(f"{where}: must hold a JSON object, got "
                    f"{reprlib.repr(value)}")
    return value


def reject_unknown_keys(record: dict, known, where: str,
                        error=ValueError) -> None:
    """Raise ``error`` naming the keys of ``record`` not in ``known``."""
    unknown = sorted(set(record) - set(known))
    if unknown:
        raise error(f"{where}: unknown key(s) {', '.join(map(repr, unknown))}")


def finite_number(value) -> float | None:
    """``value`` as a float if it is a finite JSON number, else None."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    try:
        value = float(value)
    except OverflowError:  # an integer too large for a float
        return None
    return value if math.isfinite(value) else None


_KIND_NAMES = {bool: "true or false", int: "an integer", float: "a number",
               str: "a string", list: "a list", dict: "an object"}


def require_field(record, key: str, kind, where: str, error=ValueError):
    """``record[key]`` if it is a JSON value of type ``kind``, else
    ``error`` naming ``where``, the key, the type and the value given.

    ``bool`` takes only true or false, ``int`` an integer but not a
    bool, and ``float`` any finite JSON number, given as a float.
    """
    if not (isinstance(record, dict) and key in record):
        raise error(f"{where}: {key!r} is missing")
    value = record[key]
    typed = finite_number(value) if kind is float else value
    if not isinstance(typed, kind) or isinstance(typed, bool) != (kind is bool):
        raise error(f"{where}: {key!r} must be {_KIND_NAMES[kind]}, "
                    f"got {reprlib.repr(value)}")
    return typed
