import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from posediff.core import (DEFAULT_SKELETON, HypothesisSet, JOINT_NAMES_17,
                           PoseSeq2D, PoseSeq3D, Skeleton, flip_array2d,
                           flip_array3d, load_skeleton, skeleton_from_dict,
                           skeleton_to_dict)
from posediff.errors import ShapeError, SkeletonError


# --- Skeleton validation ----------------------------------------------------

def test_skeleton_rejects_two_roots():
    with pytest.raises(SkeletonError):
        Skeleton(parents=(0, 1, 2), mirror_pairs=(),
                 bone_lengths=(0.0, 1.0, 1.0))


def test_skeleton_rejects_cycle():
    with pytest.raises(SkeletonError):
        Skeleton(parents=(0, 2, 1), mirror_pairs=(),
                 bone_lengths=(0.0, 1.0, 1.0))


def test_skeleton_rejects_out_of_range_parent():
    with pytest.raises(SkeletonError):
        Skeleton(parents=(0, 5), mirror_pairs=(), bone_lengths=(0.0, 1.0))


def test_skeleton_rejects_joint_in_two_pairs():
    with pytest.raises(SkeletonError):
        Skeleton(parents=(0, 0, 0, 0), mirror_pairs=((1, 2), (1, 3)),
                 bone_lengths=(0.0, 1.0, 1.0, 1.0))


def test_skeleton_rejects_self_pair():
    with pytest.raises(SkeletonError):
        Skeleton(parents=(0, 0), mirror_pairs=((1, 1),),
                 bone_lengths=(0.0, 1.0))


def test_skeleton_rejects_pair_out_of_range():
    with pytest.raises(SkeletonError):
        Skeleton(parents=(0, 0), mirror_pairs=((1, 9),),
                 bone_lengths=(0.0, 1.0))


def test_skeleton_rejects_nonpositive_bone_length():
    with pytest.raises(SkeletonError):
        Skeleton(parents=(0, 0), mirror_pairs=(), bone_lengths=(0.0, 0.0))


def test_topological_order_children_after_parents(tri_skeleton):
    order = DEFAULT_SKELETON.topological_order()
    seen = set()
    for j in order:
        parent = DEFAULT_SKELETON.parents[j]
        assert parent == j or parent in seen
        seen.add(j)
    assert len(order) == DEFAULT_SKELETON.num_joints


def test_default_skeleton_shape():
    assert DEFAULT_SKELETON.num_joints == 17
    assert DEFAULT_SKELETON.root == 0
    assert len(JOINT_NAMES_17) == 17
    # mirrored limbs must have identical bone lengths
    for left, right in DEFAULT_SKELETON.mirror_pairs:
        assert (DEFAULT_SKELETON.bone_lengths[left]
                == DEFAULT_SKELETON.bone_lengths[right])


def test_mirror_permutation_is_involution():
    perm = np.asarray(DEFAULT_SKELETON.mirror_permutation())
    assert np.array_equal(perm[perm], np.arange(17))


def test_skeleton_json_round_trip(tmp_path):
    path = tmp_path / "skel.json"
    path.write_text(json.dumps(skeleton_to_dict(DEFAULT_SKELETON)))
    loaded = load_skeleton(path)
    assert loaded == DEFAULT_SKELETON


def test_skeleton_dict_round_trip(tri_skeleton):
    assert skeleton_from_dict(skeleton_to_dict(tri_skeleton)) == tri_skeleton


def test_skeleton_dict_joint_count_cross_check(tri_skeleton):
    doc = skeleton_to_dict(tri_skeleton)
    doc["num_joints"] = 5
    with pytest.raises(SkeletonError):
        skeleton_from_dict(doc)


@pytest.mark.parametrize("key, value", [
    ("joint_names", 5), ("num_joints", [3]),
    ("parents", "000"), ("parents", [0, True, 0]), ("parents", [0, 0.0, 0]),
    ("mirror_pairs", [[1, 2, 0]]), ("mirror_pairs", [["1", 2]]),
    ("bone_lengths", [0.0, "100", 100.0]), ("bone_lengths", "0"),
    ("joint_names", ["a", 2, "c"]), ("num_joints", 3.0)])
def test_skeleton_dict_wrong_types_rejected(tri_skeleton, key, value):
    # no coercion: "000" is not [0, 0, 0], 3.0 is not 3
    doc = skeleton_to_dict(tri_skeleton)
    doc[key] = value
    with pytest.raises(SkeletonError, match=f"malformed.*'{key}'"):
        skeleton_from_dict(doc)


# --- pose sequence containers ----------------------------------------------

def test_poseseq3d_rejects_nan():
    arr = np.zeros((1, 2, 3))
    arr[0, 0, 0] = np.nan
    with pytest.raises(ValueError):
        PoseSeq3D(arr)


def test_poseseq2d_rejects_inf():
    arr = np.zeros((1, 2, 2))
    arr[0, 1, 1] = np.inf
    with pytest.raises(ValueError):
        PoseSeq2D(arr)


def test_poseseq3d_rejects_wrong_last_axis():
    with pytest.raises(ShapeError):
        PoseSeq3D(np.zeros((1, 2, 2)))


def test_poseseq2d_rejects_3d_payload():
    with pytest.raises(ShapeError):
        PoseSeq2D(np.zeros((1, 2, 3)))


def test_poseseq_is_immutable():
    p = PoseSeq3D(np.zeros((1, 2, 3)))
    with pytest.raises(ValueError):
        p.joints[0, 0, 0] = 1.0


def test_poseseq_does_not_mutate_caller_array():
    arr = np.zeros((1, 2, 3))
    PoseSeq3D(arr)
    arr[0, 0, 0] = 7.0  # caller's copy must stay writable


def test_hypothesis_set_indexing():
    arr = np.arange(2 * 3 * 2 * 3, dtype=float).reshape(2, 3, 2, 3)
    hs = HypothesisSet(arr)
    assert hs.count == 2 and len(hs) == 2
    assert isinstance(hs[1], PoseSeq3D)
    assert np.array_equal(hs[1].joints, arr[1])
    assert [np.array_equal(p.joints, arr[i]) for i, p in enumerate(hs)]


def test_hypothesis_set_from_sequences_shape_mismatch():
    a = PoseSeq3D(np.zeros((1, 2, 3)))
    b = PoseSeq3D(np.zeros((2, 2, 3)))
    with pytest.raises(ShapeError):
        HypothesisSet.from_sequences([a, b])


def test_hypothesis_set_needs_one():
    with pytest.raises(ShapeError):
        HypothesisSet.from_sequences([])


# --- horizontal flip ---------------------------------------------------------

def test_flip3d_unpaired_joint_negates_x():
    skel = Skeleton(parents=(0,), mirror_pairs=(), bone_lengths=(0.0,))
    out = flip_array3d(np.array([[[3.0, 1.0, 2.0]]]), skel)
    assert np.array_equal(out, [[[-3.0, 1.0, 2.0]]])


def test_flip3d_pair_swap_hand_traced(tri_skeleton):
    # pair (1,2): negate x then swap -> joint1=(2,0,0), joint2=(-1,0,0)
    p = np.array([[[0.0, 0.0, 5.0],
                   [1.0, 0.0, 0.0],
                   [-2.0, 0.0, 0.0]]])
    out = flip_array3d(p, tri_skeleton)
    assert np.array_equal(out[0, 1], [2.0, 0.0, 0.0])
    assert np.array_equal(out[0, 2], [-1.0, 0.0, 0.0])
    assert np.array_equal(out[0, 0], [0.0, 0.0, 5.0])


def test_flip2d_reflects_around_width():
    skel = Skeleton(parents=(0,), mirror_pairs=(), bone_lengths=(0.0,))
    out = flip_array2d(np.array([[[100.0, 40.0]]]), skel, image_width=1000.0)
    assert np.array_equal(out, [[[900.0, 40.0]]])


def test_flip2d_requires_positive_width(tri_skeleton):
    with pytest.raises(ValueError):
        flip_array2d(np.zeros((1, 3, 2)), tri_skeleton, image_width=0.0)


@settings(max_examples=30)
@given(st.integers(0, 2 ** 31 - 1))
def test_flip3d_involution(seed):
    rng = np.random.default_rng(seed)
    p = rng.normal(size=(2, 17, 3))
    out = flip_array3d(flip_array3d(p, DEFAULT_SKELETON), DEFAULT_SKELETON)
    assert np.array_equal(out, p)


@settings(max_examples=30)
@given(st.integers(0, 2 ** 31 - 1))
def test_flip2d_involution(seed):
    # u -> w - u is an involution in exact arithmetic; in float64 the
    # double reflection lands within one rounding step of the input.
    rng = np.random.default_rng(seed)
    p = rng.uniform(0, 1000, size=(2, 17, 2))
    once = flip_array2d(p, DEFAULT_SKELETON, image_width=1000.0)
    twice = flip_array2d(once, DEFAULT_SKELETON, image_width=1000.0)
    np.testing.assert_allclose(twice, p, rtol=0, atol=1e-9)
