"""Core pose data types: skeletons, pose sequences, hypothesis sets.

Conventions used throughout the package:

* 3D joints live in camera coordinates, millimeters, with x to the
  right, y down, z along the optical axis (positive in front of the
  camera).
* 2D keypoints live in pixel coordinates, u right, v down.
* Arrays are float64 and frozen (``writeable=False``) on construction,
  so downstream code can hold references without defensive copies.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

import numpy as np

from .errors import (ShapeError, SkeletonError, finite_number, json_object,
                     reject_unknown_keys, require_field)


def _frozen_f64(a, ndim: int, last: int, what: str) -> np.ndarray:
    """Coerce to a read-only float64 array of given rank and last axis."""
    arr = np.asarray(a, dtype=np.float64)
    if arr.ndim != ndim or arr.shape[-1] != last:
        want = ", ".join(["..."] * (ndim - 1) + [str(last)])
        raise ShapeError(f"{what}: expected shape ({want}) with {ndim} axes, "
                         f"got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{what}: coordinates must be finite")
    if arr is a and arr.flags.writeable:
        arr = arr.copy()  # never flip flags on a caller-owned array
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class Skeleton:
    """Rooted joint tree with left/right symmetry annotations.

    ``parents[i]`` is the parent joint of ``i``; the root points at
    itself. ``mirror_pairs`` lists ``(left, right)`` index pairs that
    swap under a left/right flip. ``bone_lengths[i]`` is the length of
    the bone from ``parents[i]`` to ``i`` in millimeters (the root entry
    is zero by convention).
    """

    parents: tuple[int, ...]
    mirror_pairs: tuple[tuple[int, int], ...]
    bone_lengths: tuple[float, ...]
    joint_names: tuple[str, ...] | None = None

    def __post_init__(self):
        j = len(self.parents)
        if j < 1:
            raise SkeletonError("skeleton needs at least one joint")
        roots = [i for i, p in enumerate(self.parents) if p == i]
        if len(roots) != 1:
            raise SkeletonError(f"expected exactly one root joint, found {roots}")
        if any(not (0 <= p < j) for p in self.parents):
            raise SkeletonError("parent index out of range")
        # Every joint must reach the root without revisiting a joint.
        root = roots[0]
        for i in range(j):
            seen, cur = set(), i
            while cur != root:
                if cur in seen:
                    raise SkeletonError(f"parent cycle involving joint {cur}")
                seen.add(cur)
                cur = self.parents[cur]
        paired: set[int] = set()
        for left, right in self.mirror_pairs:
            if not (0 <= left < j and 0 <= right < j):
                raise SkeletonError(f"mirror pair ({left}, {right}) out of range")
            if left == right:
                raise SkeletonError(f"joint {left} mirrors itself")
            if left in paired or right in paired:
                raise SkeletonError("a joint appears in more than one mirror pair")
            paired.update((left, right))
        if len(self.bone_lengths) != j:
            raise SkeletonError("bone_lengths must have one entry per joint")
        for i, length in enumerate(self.bone_lengths):
            if i != root and not length > 0:
                raise SkeletonError(f"bone length of joint {i} must be positive")
        if self.joint_names is not None and len(self.joint_names) != j:
            raise SkeletonError("joint_names must have one entry per joint")

    @property
    def num_joints(self) -> int:
        return len(self.parents)

    @property
    def root(self) -> int:
        return next(i for i, p in enumerate(self.parents) if p == i)

    def mirror_permutation(self) -> np.ndarray:
        """Joint permutation that swaps each mirror pair."""
        perm = np.arange(self.num_joints)
        for left, right in self.mirror_pairs:
            perm[left], perm[right] = right, left
        return perm

    def topological_order(self) -> list[int]:
        """Joint indices ordered parent-before-child, root first."""
        order, placed = [self.root], {self.root}
        while len(order) < self.num_joints:
            for i, p in enumerate(self.parents):
                if i not in placed and p in placed:
                    order.append(i)
                    placed.add(i)
        return order


@dataclass(frozen=True, eq=False)
class _PoseSeq:
    """Poses of shape (frames, joints, coords); subclasses set ``coords``."""

    joints: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "joints", _frozen_f64(
            self.joints, 3, self.coords, type(self).__name__))

    @property
    def num_frames(self) -> int:
        return self.joints.shape[0]

    @property
    def num_joints(self) -> int:
        return self.joints.shape[1]


@dataclass(frozen=True, eq=False)
class PoseSeq3D(_PoseSeq):
    """A sequence of 3D poses, shape (frames, joints, 3), millimeters."""

    coords = 3


@dataclass(frozen=True, eq=False)
class PoseSeq2D(_PoseSeq):
    """A sequence of 2D keypoint frames, shape (frames, joints, 2), pixels."""

    coords = 2


@dataclass(frozen=True, eq=False)
class HypothesisSet:
    """A stack of H candidate 3D sequences for the same 2D input.

    Shape (H, frames, joints, 3). Indexing yields individual
    ``PoseSeq3D`` objects; hypothesis order is meaningful (ties in
    aggregation resolve to the lowest index).
    """

    poses: np.ndarray

    def __post_init__(self):
        arr = _frozen_f64(self.poses, 4, 3, "HypothesisSet")
        if arr.shape[0] < 1:
            raise ShapeError("HypothesisSet: need at least one hypothesis")
        object.__setattr__(self, "poses", arr)

    @classmethod
    def from_sequences(cls, seqs: list[PoseSeq3D]) -> "HypothesisSet":
        if not seqs:
            raise ShapeError("HypothesisSet: need at least one hypothesis")
        shapes = {s.joints.shape for s in seqs}
        if len(shapes) > 1:
            raise ShapeError(f"HypothesisSet: hypotheses disagree on "
                             f"(frames, joints): {sorted(shapes)}")
        return cls(np.stack([s.joints for s in seqs], axis=0))

    @property
    def count(self) -> int:
        return self.poses.shape[0]

    @property
    def num_frames(self) -> int:
        return self.poses.shape[1]

    @property
    def num_joints(self) -> int:
        return self.poses.shape[2]

    def __len__(self) -> int:
        return self.count

    def __getitem__(self, h: int) -> PoseSeq3D:
        return PoseSeq3D(self.poses[h])

    def __iter__(self) -> Iterator[PoseSeq3D]:
        for h in range(self.count):
            yield self[h]


def _take_mirrored(a: np.ndarray, skeleton: Skeleton,
                   out: np.ndarray | None) -> np.ndarray:
    """``a`` (..., J, D) with each mirror pair swapped, gathered into
    ``out`` (made when None), which must not overlap ``a``."""
    if skeleton.num_joints != a.shape[-2]:
        raise SkeletonError(
            f"skeleton has {skeleton.num_joints} joints, pose has {a.shape[-2]}")
    if out is None:
        out = np.empty(a.shape, dtype=a.dtype)
    elif np.may_share_memory(a, out):
        raise ValueError("flip: out overlaps the input")
    # "clip" never clips a permutation; "raise" would buffer the gather
    return np.take(a, skeleton.mirror_permutation(), axis=-2, out=out,
                   mode="clip")


def flip_array3d(a: np.ndarray, skeleton: Skeleton,
                 out: np.ndarray | None = None) -> np.ndarray:
    """Mirror a (..., J, 3) array: negate x, swap left/right joints.
    Given ``out``, an array shaped like ``a`` that does not overlap it,
    the result is written there and ``out`` is returned."""
    out = _take_mirrored(a, skeleton, out)
    np.negative(out[..., 0], out=out[..., 0])
    return out


def flip_array2d(a: np.ndarray, skeleton: Skeleton, image_width: float,
                 out: np.ndarray | None = None) -> np.ndarray:
    """Mirror a (..., J, 2) keypoint array about the vertical image axis.
    ``out`` is as for :func:`flip_array3d`."""
    if not image_width > 0:
        raise ValueError(f"image_width must be positive, got {image_width}")
    out = _take_mirrored(a, skeleton, out)
    np.subtract(image_width, out[..., 0], out=out[..., 0])
    return out


# 17-joint skeleton in the usual capture order: pelvis root, right leg,
# left leg, spine to head, left arm, right arm. Lengths are rounded
# adult-scale values in millimeters.
JOINT_NAMES_17 = (
    "pelvis", "r_hip", "r_knee", "r_ankle",
    "l_hip", "l_knee", "l_ankle",
    "spine", "thorax", "neck", "head",
    "l_shoulder", "l_elbow", "l_wrist",
    "r_shoulder", "r_elbow", "r_wrist",
)

DEFAULT_SKELETON = Skeleton(
    parents=(0, 0, 1, 2, 0, 4, 5, 0, 7, 8, 9, 8, 11, 12, 8, 14, 15),
    mirror_pairs=((4, 1), (5, 2), (6, 3), (11, 14), (12, 15), (13, 16)),
    bone_lengths=(0.0, 132.0, 442.0, 439.0, 132.0, 442.0, 439.0,
                  233.0, 257.0, 121.0, 115.0,
                  150.0, 279.0, 252.0, 150.0, 279.0, 252.0),
    joint_names=JOINT_NAMES_17,
)


def skeleton_to_dict(skeleton: Skeleton) -> dict:
    d = {
        "num_joints": skeleton.num_joints,
        "parents": list(skeleton.parents),
        "mirror_pairs": [list(p) for p in skeleton.mirror_pairs],
        "bone_lengths": list(skeleton.bone_lengths),
    }
    if skeleton.joint_names is not None:
        d["joint_names"] = list(skeleton.joint_names)
    return d


def skeleton_from_dict(d: dict,
                       where: str = "malformed skeleton record") -> Skeleton:
    """A skeleton from a JSON object; an unknown key, or a list or an
    item of one of the wrong JSON type, raises ``SkeletonError`` naming
    ``where`` and the key."""
    reject_unknown_keys(d, ("num_joints", "parents", "mirror_pairs",
                            "bone_lengths", "joint_names"), where,
                        SkeletonError)

    def items(key: str, ok) -> list:
        value = require_field(d, key, list, where, SkeletonError)
        bad = [item for item in value if not ok(item)]
        if bad:
            raise SkeletonError(f"{where}: {key!r} holds {bad[0]!r}")
        return value

    def is_int(x) -> bool:
        return type(x) is int

    parents = items("parents", is_int)
    pairs = items("mirror_pairs", lambda p: isinstance(p, list)
                  and len(p) == 2 and all(map(is_int, p)))
    lengths = items("bone_lengths", lambda x: finite_number(x) is not None)
    names = (None if d.get("joint_names") is None
             else tuple(items("joint_names", lambda n: isinstance(n, str))))
    count = (require_field(d, "num_joints", int, where, SkeletonError)
             if "num_joints" in d else len(parents))
    if count != len(parents):
        raise SkeletonError(f"{where}: num_joints={count} disagrees with "
                            f"{len(parents)} parents")
    try:
        return Skeleton(parents=tuple(parents),
                        mirror_pairs=tuple((a, b) for a, b in pairs),
                        bone_lengths=tuple(map(float, lengths)),
                        joint_names=names)
    except SkeletonError as exc:
        raise SkeletonError(f"{where}: {exc}") from exc


def load_skeleton(path: str | Path) -> Skeleton:
    d = json_object(Path(path).read_text(), str(path), SkeletonError)
    return skeleton_from_dict(d, str(path))
