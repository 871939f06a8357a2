import gc
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from posediff import aggregate
from posediff.aggregate import (METHOD_INPUTS, METHOD_NAMES, agg_average,
                                agg_jbest, agg_jpma, agg_pbest, agg_ppma,
                                run_aggregator)
from posediff.camera import DEFAULT_Z_MIN, CameraIntrinsics
from posediff.core import HypothesisSet, PoseSeq2D, PoseSeq3D
from posediff.denoise import NoisyOracle
from posediff.errors import AggregationError, ShapeError
from posediff.sampler import SamplerConfig, run_sampler
from posediff.schedule import make_cosine_schedule

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
    poses = np.full((2, 3, 2, 3), 1000.0)
    poses[:, 2, 1, 2] = -1.0  # frame 2, joint 1 behind in every hypothesis
    x = PoseSeq2D(np.full((3, 2, 2), 500.0))
    with pytest.raises(AggregationError) as info:
        agg_jpma(HypothesisSet(poses), x, simple_camera)
    assert info.value.frame == 2
    assert str(info.value) == ("frame 2: every hypothesis is behind the "
                               "camera for joint 1")


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
    with pytest.raises(AggregationError) as info:
        agg_ppma(HypothesisSet(poses), x, simple_camera)
    assert info.value.frame == 1
    assert info.value.reason == "every hypothesis has a behind-camera joint"


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


@pytest.mark.parametrize("shape", [(7, 9, 4), (7, 9)])
def test_selection_matches_argmin_on_ties_and_inf(shape):
    # costs of a few values and inf, so that most entries tie: the
    # choice is numpy's argmin, the lowest index of the lowest cost
    rng = np.random.default_rng(8)
    cost = rng.choice([0.5, 1.0, 2.0, np.inf], size=shape)
    cost[-1][np.all(np.isinf(cost), axis=0)] = 2.0
    poses = rng.normal(size=(7, 9, 4, 3))
    rep = aggregate._select("pbest", HypothesisSet(poses), cost)
    want = np.argmin(cost, axis=0)
    if want.ndim == 1:
        want = np.repeat(want[:, None], 4, axis=1)
    assert np.array_equal(rep.chosen, want)
    assert np.array_equal(rep.pose.joints, np.take_along_axis(
        poses, want[None, ..., None], axis=0)[0])
    cost[:, 5] = np.inf
    with pytest.raises(AggregationError) as info:
        aggregate._select("pbest", HypothesisSet(poses), cost)
    assert info.value.frame == 5


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


@pytest.mark.parametrize("method, feasible",
                         [("avg", True), ("jpma", True), ("ppma", True),
                          ("pbest", False), ("jbest", False)])
def test_feasible_means_no_ground_truth_read(simple_camera, method, feasible):
    hs = HypothesisSet(np.full((2, 1, 3, 3), 100.0))
    gt = PoseSeq3D(np.full((1, 3, 3), 100.0))
    x = PoseSeq2D(np.full((1, 3, 2), 500.0))
    rep = run_aggregator(method, hs, x=x, cam=simple_camera, gt=gt)
    assert rep.feasible is feasible
    assert feasible == ("ground truth" not in METHOD_INPUTS[method])


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
                          reproj_error_px=None)


@pytest.mark.parametrize("method", METHOD_NAMES)
@pytest.mark.parametrize("seed", [0, 1])
def test_stacked_sequences_equal_per_sequence_calls(method, seed):
    # the CLI aggregates a dataset's sequences over their stacked frames;
    # every method works frame by frame, so that must equal one call per
    # sequence, concatenated, bitwise: through a distorted camera, with
    # joints at or behind the camera and tied hypotheses
    rng = np.random.default_rng(seed)
    cam = CameraIntrinsics.distorted(fx=1100.0, fy=1150.0, cx=480.0,
                                     cy=510.0, k1=0.02, k2=-0.005,
                                     k3=0.0004, p1=0.001, p2=-0.002)
    counts = (4, 7, 1, 9)
    ends = np.cumsum(counts)
    poses = rng.normal(scale=200.0, size=(20, ends[-1], 5, 3))
    poses[..., 2] += 2000.0
    poses[3] = poses[1]                 # a tie on every cost
    poses[7, 2:5, 4] = poses[6, 2:5, 4]  # a tie on some joints only
    poses[0, 1, 2, 2] = -5.0            # behind the camera
    poses[2, 8, :2, 2] = DEFAULT_Z_MIN  # at the near plane, excluded
    poses[5, 13:16, 3, 2] = 0.0
    x = rng.uniform(0.0, 1000.0, size=(ends[-1], 5, 2))
    gt = poses[9] + rng.normal(scale=20.0, size=poses.shape[1:])
    whole = run_aggregator(method, HypothesisSet(poses), x=PoseSeq2D(x),
                           cam=cam, gt=PoseSeq3D(gt))
    parts = [run_aggregator(method, HypothesisSet(poses[:, a:b]),
                            x=PoseSeq2D(x[a:b]), cam=cam,
                            gt=PoseSeq3D(gt[a:b]))
             for a, b in zip((0, *ends[:-1]), ends)]
    assert np.array_equal(whole.pose.joints,
                          np.concatenate([p.pose.joints for p in parts]))
    for field in ("chosen", "reproj_error_px"):
        got, want = getattr(whole, field), [getattr(p, field) for p in parts]
        if got is None:
            assert all(w is None for w in want)
        else:
            assert np.array_equal(got, np.concatenate(want))


def _assert_same_report(got, want):
    assert got.method == want.method
    assert np.array_equal(got.pose.joints, want.pose.joints)
    for field in ("chosen", "reproj_error_px"):
        a, b = getattr(got, field), getattr(want, field)
        assert (a is None and b is None) or np.array_equal(a, b), field


@pytest.mark.parametrize("seed", [0, 1])
def test_shared_costs_equal_fresh_sets_at_every_prefix(monkeypatch, seed):
    # every method on the first h hypotheses of a HypothesisSet is what
    # it is on those h alone, bitwise, with ties across the prefix edge,
    # behind-camera joints and a frame where only late hypotheses see a
    # joint; each hypothesis of the whole set is projected once, on its
    # own
    rng = np.random.default_rng(seed)
    cam = CameraIntrinsics.distorted(fx=1100.0, fy=1150.0, cx=480.0,
                                     cy=510.0, k1=0.02, k2=-0.005,
                                     k3=0.0004, p1=0.001, p2=-0.002)
    poses = rng.normal(scale=200.0, size=(12, 6, 5, 3))
    poses[..., 2] += 2000.0
    poses[4] = poses[2]                  # ties inside the prefix
    poses[9] = poses[3]                  # and across its edge
    poses[0, 1, 2, 2] = -5.0             # behind the camera
    poses[:3, 4, 1, 2] = DEFAULT_Z_MIN   # only h >= 3 see this joint
    x = PoseSeq2D(rng.uniform(0.0, 1000.0, size=(6, 5, 2)))
    gt = PoseSeq3D(poses[5, :] + rng.normal(scale=20.0, size=(6, 5, 3)))
    kwargs = dict(x=x, cam=cam, gt=gt)
    cells = [(h, m) for h in (12, 1, 3, 4, 10) for m in METHOD_NAMES]
    want = {}
    for h, method in cells:
        try:
            want[h, method] = run_aggregator(
                method, HypothesisSet(poses[:h]), **kwargs)
        except AggregationError as exc:
            want[h, method] = exc
    assert any(isinstance(w, AggregationError) for w in want.values())

    projected = []
    real = aggregate.project_with_mask

    def counted(points, camera):
        projected.append(points.shape)
        return real(points, camera)
    monkeypatch.setattr(aggregate, "project_with_mask", counted)
    shared = HypothesisSet(poses)
    for h, method in cells:
        if isinstance(want[h, method], AggregationError):
            with pytest.raises(AggregationError,
                               match=f"^{want[h, method]}$"):
                run_aggregator(method, shared.first(h), **kwargs)
        else:
            _assert_same_report(
                run_aggregator(method, shared.first(h), **kwargs),
                want[h, method])
    assert projected == [(6, 5, 3)] * 12
    assert all(not cost.flags.writeable for cost in shared._derived.values())


def test_hypothesis_set_prefix_rules():
    shared = HypothesisSet(np.full((3, 1, 3, 3), 100.0))
    assert shared.first(3).count == 3
    assert np.array_equal(shared.first(2).poses, shared.poses[:2])
    # at its full count a set is its own prefix: no second set is made
    assert shared.first(3) is shared
    for h in (0, 4, -1):
        with pytest.raises(ValueError):
            shared.first(h)
    # a cost is kept per input: other keypoints are another cost
    cam = CameraIntrinsics.pinhole(fx=1000.0, fy=1000.0, cx=500.0, cy=500.0)
    near = agg_jpma(shared.first(2), PoseSeq2D(np.full((1, 3, 2), 500.0)), cam)
    far = agg_jpma(shared.first(2), PoseSeq2D(np.full((1, 3, 2), 400.0)), cam)
    assert len(shared._derived) == 2
    assert not np.array_equal(near.reproj_error_px, far.reproj_error_px)


def test_hypothesis_set_dies_with_its_last_reference():
    # with the cyclic collector off, a set and the costs it caches go as
    # soon as nothing refers to it, so no set may refer to itself; a
    # prefix keeps its whole set, and the costs, alive
    cam = CameraIntrinsics.pinhole(fx=1000.0, fy=1000.0, cx=500.0, cy=500.0)
    x = PoseSeq2D(np.full((1, 3, 2), 500.0))
    gc.disable()
    try:
        shared = HypothesisSet(np.full((3, 1, 3, 3), 100.0))
        agg_jpma(shared, x, cam)
        assert len(shared._derived) == 1
        whole, prefix = weakref.ref(shared), shared.first(2)
        agg_ppma(prefix, x, cam)
        del shared
        assert whole() is not None and len(prefix.whole_set()._derived) == 1
        del prefix
        assert whole() is None
    finally:
        gc.enable()


def test_a_sampled_set_shares_its_costs_without_opting_in(monkeypatch):
    # a plain run_sampler result projects each hypothesis once, for
    # jpma, then ppma, then every prefix of it
    rng = np.random.default_rng(8)
    gt = random_pose(rng, frames=3, joints=5)
    x = random_keypoints(rng, frames=3, joints=5)
    cam = CameraIntrinsics.pinhole(fx=1000.0, fy=1000.0, cx=500.0, cy=500.0)
    hs = run_sampler(x, NoisyOracle(gt, 20.0, seed=2),
                     SamplerConfig(hypotheses=6, iterations=3, seed=4),
                     make_cosine_schedule(60))
    projected = []
    real = aggregate.project_with_mask

    def counted(points, camera):
        projected.append(points.shape)
        return real(points, camera)
    monkeypatch.setattr(aggregate, "project_with_mask", counted)
    agg_jpma(hs, x, cam)
    agg_ppma(hs, x, cam)
    for h in range(1, hs.count + 1):
        agg_jpma(hs.first(h), x, cam)
        agg_ppma(hs.first(h), x, cam)
    assert projected == [(3, 5, 3)] * 6


def test_reprojection_makes_one_hypothesis_at_a_time():
    # numpy's buffers are traced: the errors peak below their own (H, N,
    # J) array plus one hypothesis's projection, taken as eight (N, J)
    # float64 arrays (its pixels, depths, norms, mask and numpy's own
    # buffers), so no (H, N, J, 2) pixel array is made
    h, n, j = 20, 64, 17
    rng = np.random.default_rng(4)
    poses = rng.normal(scale=200.0, size=(h, n, j, 3))
    poses[..., 2] += 3000.0
    poses[3, 5, 2, 2] = -1.0  # behind the camera
    hs = HypothesisSet(poses)
    x = PoseSeq2D(rng.uniform(0.0, 1000.0, size=(n, j, 2)))
    cam = CameraIntrinsics.pinhole(1100.0, 1100.0, 500.0, 500.0)
    want = aggregate._reprojection_errors(hs, x, cam)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        got = aggregate._reprojection_errors(hs, x, cam)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert np.array_equal(got, want) and got[3, 5, 2] == np.inf
    assert peak < h * n * j * 8 + 8 * n * j * 8
