import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from posediff.aggregate import (METHOD_NAMES, agg_average, agg_jbest,
                                agg_jpma, agg_pbest, agg_ppma, run_aggregator)
from posediff.camera import CameraIntrinsics
from posediff.core import HypothesisSet, PoseSeq2D, PoseSeq3D
from posediff.errors import AggregationError, ShapeError

from conftest import random_keypoints, random_pose


def test_average_is_elementwise_mean():
    poses = np.zeros((2, 1, 3, 3))
    poses[0, 0, 0, 0] = 2.0
    poses[1, 0, 0, 0] = 4.0
    out = agg_average(HypothesisSet(poses))
    assert out.joints[0, 0, 0] == 3.0
    assert np.all(out.joints[0, 1:] == 0.0)


def test_average_of_single_hypothesis_is_identity():
    poses = np.random.default_rng(0).normal(size=(1, 2, 3, 3))
    out = agg_average(HypothesisSet(poses))
    np.testing.assert_array_equal(out.joints, poses[0])


# Hand-checkable scene: unit focal length, centered origin. Hypothesis A
# nails joint 0 but misplaces joint 1; hypothesis B is the reverse.
# With keypoints x = [(0,0), (0.5,0)]:
#   joint 0: A=(0,0,2)->(0,0) err 0;     B=(0.2,0,2)->(0.1,0) err 0.1
#   joint 1: A=(1.2,0,2)->(0.6,0) err 0.1; B=(1,0,2)->(0.5,0) err 0
# JPMA picks A's joint 0 and B's joint 1; PPMA totals tie at 0.1 and
# the tie goes to the lower index, A.
@pytest.fixture
def hand_scene():
    cam = CameraIntrinsics.pinhole(fx=1.0, fy=1.0, cx=0.0, cy=0.0)
    hyp_a = np.array([[[0.0, 0.0, 2.0], [1.2, 0.0, 2.0]]])
    hyp_b = np.array([[[0.2, 0.0, 2.0], [1.0, 0.0, 2.0]]])
    hs = HypothesisSet(np.stack([hyp_a, hyp_b]))
    x = PoseSeq2D(np.array([[[0.0, 0.0], [0.5, 0.0]]]))
    return cam, hs, x


def test_jpma_hand_trace(hand_scene):
    cam, hs, x = hand_scene
    rep = agg_jpma(hs, x, cam)
    assert rep.method == "jpma"
    assert rep.feasible
    assert np.array_equal(rep.chosen, [[0, 1]])
    np.testing.assert_array_equal(rep.pose.joints[0, 0], [0.0, 0.0, 2.0])
    np.testing.assert_array_equal(rep.pose.joints[0, 1], [1.0, 0.0, 2.0])
    np.testing.assert_allclose(rep.reproj_error_px, [[0.0, 0.0]], atol=1e-15)


def test_ppma_hand_trace_tie_to_lowest_index(hand_scene):
    cam, hs, x = hand_scene
    rep = agg_ppma(hs, x, cam)
    assert np.array_equal(rep.chosen, [[0, 0]])
    np.testing.assert_array_equal(rep.pose.joints, hs.poses[0])


def test_pbest_and_jbest_hand_values():
    gt = PoseSeq3D(np.zeros((1, 2, 3)))
    h1 = np.zeros((1, 2, 3))
    h1[0, 1, 0] = 10.0  # errors (0, 10): mean 5
    h2 = np.zeros((1, 2, 3))
    h2[0, 0, 0] = 10.0  # errors (10, 0): mean 5, tie -> h1
    hs = HypothesisSet(np.stack([h1, h2]))

    pb = agg_pbest(hs, gt)
    assert np.array_equal(pb.chosen, [[0, 0]])
    np.testing.assert_array_equal(pb.pose.joints, h1)
    assert not pb.feasible
    assert pb.reproj_error_px is None

    jb = agg_jbest(hs, gt)
    assert np.array_equal(jb.chosen, [[0, 1]])
    np.testing.assert_array_equal(jb.pose.joints, gt.joints)


def test_gt_in_set_gives_zero_error():
    rng = np.random.default_rng(1)
    gt = random_pose(rng, frames=2, joints=4)
    noise = PoseSeq3D(gt.joints + rng.normal(scale=50.0, size=gt.joints.shape))
    hs = HypothesisSet.from_sequences([noise, gt])
    assert np.array_equal(agg_pbest(hs, gt).pose.joints, gt.joints)
    assert np.array_equal(agg_jbest(hs, gt).pose.joints, gt.joints)


def test_jpma_excludes_behind_camera_joints(simple_camera):
    # hypothesis 0's joint 0 is behind the camera, so joint 0 falls to
    # hypothesis 1; joint 1 still goes to hypothesis 0 on pixel error
    h0 = np.array([[[0.0, 0.0, -100.0], [100.0, 0.0, 2000.0]]])
    h1 = np.array([[[50.0, 0.0, 2000.0], [100.0, 0.0, 1000.0]]])
    hs = HypothesisSet(np.stack([h0, h1]))
    x = PoseSeq2D(np.array([[[525.0, 500.0], [550.0, 500.0]]]))
    rep = agg_jpma(hs, x, simple_camera)
    assert np.array_equal(rep.chosen[0], [1, 0])


def test_jpma_all_hypotheses_behind_camera(simple_camera):
    poses = np.full((2, 1, 2, 3), 1000.0)
    poses[:, 0, 1, 2] = -1.0  # joint 1 behind in every hypothesis
    x = PoseSeq2D(np.full((1, 2, 2), 500.0))
    with pytest.raises(AggregationError):
        agg_jpma(HypothesisSet(poses), x, simple_camera)


def test_ppma_excludes_whole_frame_on_partial_violation(simple_camera):
    # hypothesis 0: joint 1 behind -> frame total inf -> hypothesis 1 wins
    h0 = np.array([[[0.0, 0.0, 2000.0], [0.0, 0.0, -50.0]]])
    h1 = np.array([[[0.0, 0.0, 1500.0], [30.0, 0.0, 1500.0]]])
    hs = HypothesisSet(np.stack([h0, h1]))
    x = PoseSeq2D(np.full((1, 2, 2), 500.0))
    rep = agg_ppma(hs, x, simple_camera)
    assert np.array_equal(rep.chosen, [[1, 1]])


def test_ppma_all_hypotheses_dead_frame(simple_camera):
    poses = np.full((2, 2, 2, 3), 1000.0)
    poses[0, 1, 0, 2] = -1.0
    poses[1, 1, 1, 2] = -1.0
    x = PoseSeq2D(np.full((2, 2, 2), 500.0))
    with pytest.raises(AggregationError):
        agg_ppma(HypothesisSet(poses), x, simple_camera)


def test_selection_ties_resolve_to_lowest_index(simple_camera):
    # identical hypotheses: every method must pick index 0
    pose = random_pose(np.random.default_rng(2), frames=1, joints=3)
    hs = HypothesisSet(np.stack([pose.joints, pose.joints, pose.joints]))
    from posediff.camera import project
    x = PoseSeq2D(project(pose, simple_camera).joints)
    assert np.all(agg_jpma(hs, x, simple_camera).chosen == 0)
    assert np.all(agg_ppma(hs, x, simple_camera).chosen == 0)
    assert np.all(agg_pbest(hs, pose).chosen == 0)
    assert np.all(agg_jbest(hs, pose).chosen == 0)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_selection_closure(seed):
    # every selected joint must literally come from some hypothesis
    cam = CameraIntrinsics.pinhole(fx=1000.0, fy=1000.0, cx=500.0, cy=500.0)
    rng = np.random.default_rng(seed)
    gt = random_pose(rng, frames=2, joints=4)
    poses = gt.joints[None] + rng.normal(scale=60.0, size=(3, 2, 4, 3))
    hs = HypothesisSet(poses)
    x = random_keypoints(rng, frames=2, joints=4)
    for rep in (agg_jpma(hs, x, cam), agg_ppma(hs, x, cam),
                agg_pbest(hs, gt), agg_jbest(hs, gt)):
        gathered = rep.pose.joints
        for n in range(2):
            for j in range(4):
                h = rep.chosen[n, j]
                assert np.array_equal(gathered[n, j], poses[h, n, j])


def test_jbest_never_worse_than_pbest():
    rng = np.random.default_rng(3)
    gt = random_pose(rng, frames=3, joints=5)
    poses = gt.joints[None] + rng.normal(scale=40.0, size=(6, 3, 5, 3))
    hs = HypothesisSet(poses)
    from posediff.metrics import mpjpe
    assert mpjpe(agg_jbest(hs, gt).pose, gt) <= mpjpe(agg_pbest(hs, gt).pose, gt) + 1e-12


def test_single_hypothesis_collapse(simple_camera):
    rng = np.random.default_rng(4)
    gt = random_pose(rng, frames=2, joints=3)
    only = PoseSeq3D(gt.joints + rng.normal(scale=30.0, size=gt.joints.shape))
    hs = HypothesisSet(only.joints[None])
    x = random_keypoints(rng, frames=2, joints=3)
    for method in METHOD_NAMES:
        rep = run_aggregator(method, hs, x=x, cam=simple_camera, gt=gt)
        np.testing.assert_array_equal(rep.pose.joints, only.joints)


def test_run_aggregator_validation(simple_camera):
    hs = HypothesisSet(np.full((1, 1, 3, 3), 100.0))
    gt = PoseSeq3D(np.full((1, 3, 3), 100.0))
    x = PoseSeq2D(np.full((1, 3, 2), 500.0))
    with pytest.raises(ValueError):
        run_aggregator("jpma", hs)
    with pytest.raises(ValueError):
        run_aggregator("ppma", hs, x=x)
    with pytest.raises(ValueError):
        run_aggregator("pbest", hs, x=x, cam=simple_camera)
    with pytest.raises(ValueError):
        run_aggregator("jbest", hs)
    with pytest.raises(ValueError):
        run_aggregator("median", hs)
    rep = run_aggregator("avg", hs)
    assert rep.method == "avg" and rep.feasible and rep.chosen is None


def test_shape_mismatches_rejected(simple_camera):
    hs = HypothesisSet(np.full((2, 1, 3, 3), 100.0))
    with pytest.raises(ShapeError):
        agg_jpma(hs, PoseSeq2D(np.zeros((1, 4, 2))), simple_camera)
    with pytest.raises(ShapeError):
        agg_pbest(hs, PoseSeq3D(np.zeros((2, 3, 3))))


def test_report_chosen_shape_check():
    from posediff.aggregate import AggregationReport
    pose = PoseSeq3D(np.zeros((1, 2, 3)))
    with pytest.raises(ShapeError):
        AggregationReport(method="jpma", pose=pose,
                          chosen=np.zeros((2, 2), dtype=np.int64),
                          reproj_error_px=None, feasible=True)
