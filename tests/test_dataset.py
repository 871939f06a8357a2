import json

import numpy as np
import pytest

from posediff.dataset import MANIFEST_NAME, load_dataset, save_dataset
from posediff.errors import PoseFileSchemaError

from conftest import random_keypoints, random_pose


def _pairs(rng, n=2, frames=3, joints=3, with_gt=True):
    out = []
    for _ in range(n):
        gt = random_pose(rng, frames=frames, joints=joints)
        kp = random_keypoints(rng, frames=frames, joints=joints)
        out.append((kp, gt if with_gt else None))
    return out


def test_round_trip_with_gt(tmp_path, tri_skeleton, simple_camera):
    rng = np.random.default_rng(0)
    pairs = _pairs(rng)
    save_dataset(tmp_path, tri_skeleton, simple_camera, pairs,
                 config_sha256="ab" * 32)
    ds = load_dataset(tmp_path)
    assert len(ds) == 2
    assert ds.has_gt
    assert ds.skeleton == tri_skeleton
    assert ds.camera == simple_camera
    assert ds.config_sha256 == "ab" * 32
    for seq, (kp, gt) in zip(ds.sequences, pairs):
        assert np.array_equal(seq.keypoints.joints, kp.joints)
        assert np.array_equal(seq.gt.joints, gt.joints)
        assert seq.num_frames == 3


def test_round_trip_without_gt(tmp_path, tri_skeleton, simple_camera):
    pairs = _pairs(np.random.default_rng(1), with_gt=False)
    save_dataset(tmp_path, tri_skeleton, simple_camera, pairs)
    ds = load_dataset(tmp_path)
    assert not ds.has_gt
    assert ds.sequences[0].gt is None
    assert not (tmp_path / "gt").exists()
    assert ds.config_sha256 is None


def test_mixed_gt_means_no_gt(tmp_path, tri_skeleton, simple_camera):
    rng = np.random.default_rng(2)
    pairs = _pairs(rng, n=1) + _pairs(rng, n=1, with_gt=False)
    save_dataset(tmp_path, tri_skeleton, simple_camera, pairs)
    ds = load_dataset(tmp_path)
    assert ds.sequences[0].gt is not None
    assert ds.sequences[1].gt is None
    assert not ds.has_gt


def test_save_rejects_mismatched_pair(tmp_path, tri_skeleton, simple_camera):
    rng = np.random.default_rng(3)
    kp = random_keypoints(rng, frames=2, joints=3)
    gt = random_pose(rng, frames=3, joints=3)
    with pytest.raises(ValueError, match="disagree"):
        save_dataset(tmp_path, tri_skeleton, simple_camera, [(kp, gt)])


def test_missing_manifest(tmp_path):
    with pytest.raises(PoseFileSchemaError, match="manifest"):
        load_dataset(tmp_path)


def test_wrong_magic(tmp_path):
    (tmp_path / MANIFEST_NAME).write_text(json.dumps({"format": "other"}))
    with pytest.raises(PoseFileSchemaError, match="not a dataset"):
        load_dataset(tmp_path)


def test_invalid_manifest_json(tmp_path):
    (tmp_path / MANIFEST_NAME).write_text("{broken")
    with pytest.raises(PoseFileSchemaError, match="JSON"):
        load_dataset(tmp_path)


def _manifest_edit(root, fn):
    path = root / MANIFEST_NAME
    doc = json.loads(path.read_text())
    fn(doc)
    path.write_text(json.dumps(doc))


def test_joint_count_cross_checks(tmp_path, tri_skeleton, simple_camera):
    save_dataset(tmp_path, tri_skeleton, simple_camera,
                 _pairs(np.random.default_rng(4)))

    def bump(doc):
        doc["num_joints"] = 4

    _manifest_edit(tmp_path, bump)
    with pytest.raises(PoseFileSchemaError, match="num_joints"):
        load_dataset(tmp_path)


def test_gt_joint_count_cross_check(tmp_path, tri_skeleton, simple_camera):
    # a gt file must hold the manifest's joints, as a keypoint file must
    rng = np.random.default_rng(8)
    save_dataset(tmp_path, tri_skeleton, simple_camera, _pairs(rng))
    from posediff.poseio import save_poses
    save_poses(_pairs(rng, n=1, joints=2)[0][1],
               tmp_path / "gt" / "seq_0001.jsonl")
    with pytest.raises(PoseFileSchemaError, match=(
            "sequence seq_0001: gt joint count 2 does not match manifest "
            r"\(3\)$")):
        load_dataset(tmp_path)


@pytest.mark.parametrize("name", [
    "", ".", "..", "../escaped", "a/b", "a\\b", "a\0b", "seq_0000"])
def test_sequence_name_must_be_a_new_file_name(tmp_path, tri_skeleton,
                                              simple_camera, name):
    # every command writes files named after the sequence: a name that
    # leaves its directory, or that an earlier sequence has, is refused
    save_dataset(tmp_path, tri_skeleton, simple_camera,
                 _pairs(np.random.default_rng(9), n=3))

    def rename(doc):
        doc["sequences"][1]["name"] = name

    _manifest_edit(tmp_path, rename)
    why = ("is also sequence 0's" if name == "seq_0000"
           else "cannot name a file")
    with pytest.raises(PoseFileSchemaError) as info:
        load_dataset(tmp_path)
    assert str(info.value) == (f"{tmp_path / MANIFEST_NAME}: sequence 1: "
                               f"name {name!r} {why}")


def test_frame_count_cross_check(tmp_path, tri_skeleton, simple_camera):
    save_dataset(tmp_path, tri_skeleton, simple_camera,
                 _pairs(np.random.default_rng(5)))

    def lie_about_frames(doc):
        doc["sequences"][0]["frames"] = 99

    _manifest_edit(tmp_path, lie_about_frames)
    with pytest.raises(PoseFileSchemaError, match="99"):
        load_dataset(tmp_path)


def test_swapped_dimensionality_detected(tmp_path, tri_skeleton, simple_camera):
    save_dataset(tmp_path, tri_skeleton, simple_camera,
                 _pairs(np.random.default_rng(6), n=1))

    def swap(doc):
        doc["sequences"][0]["keypoints"] = doc["sequences"][0]["gt"]

    _manifest_edit(tmp_path, swap)
    with pytest.raises(PoseFileSchemaError, match="3D"):
        load_dataset(tmp_path)


def test_gt_frame_mismatch_detected(tmp_path, tri_skeleton, simple_camera):
    rng = np.random.default_rng(7)
    save_dataset(tmp_path, tri_skeleton, simple_camera, _pairs(rng, n=2))
    # point sequence 0's gt at sequence 1's file after giving it more frames
    other = _pairs(rng, n=1, frames=5)[0]
    from posediff.poseio import save_poses
    save_poses(other[1], tmp_path / "gt" / "seq_0000.jsonl")
    with pytest.raises(PoseFileSchemaError, match="frame count"):
        load_dataset(tmp_path)
