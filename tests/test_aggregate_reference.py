"""The four selection aggregators against explicit per-frame and
per-joint loops.

The costs (pixel errors, distances and their per-frame reductions) are
computed with numpy; the exclusion of behind-camera joints, the minimum
and the lowest-index tie-break are plain loops here. The inputs contain
duplicated hypotheses, so ties are common, and joints at or behind
``DEFAULT_Z_MIN``.
"""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from posediff.aggregate import agg_jbest, agg_jpma, agg_pbest, agg_ppma
from posediff.camera import (DEFAULT_Z_MIN, CameraIntrinsics,
                             project_with_mask)
from posediff.core import HypothesisSet, PoseSeq2D, PoseSeq3D
from posediff.errors import AggregationError

CAM = CameraIntrinsics.pinhole(fx=1000.0, fy=1000.0, cx=500.0, cy=500.0)


def _lowest_argmin(costs, allowed):
    """Index of the smallest allowed cost, the lowest index on a tie;
    None when nothing is allowed."""
    best = None
    for h, (c, ok) in enumerate(zip(costs, allowed)):
        if ok and (best is None or c < costs[best]):
            best = h
    return best


def _gather(poses, chosen):
    n_frames, n_joints = chosen.shape
    out = np.empty((n_frames, n_joints, 3))
    for n in range(n_frames):
        for j in range(n_joints):
            out[n, j] = poses[chosen[n, j], n, j]
    return out


def _pixel_errors(poses, x):
    uv, _ = project_with_mask(poses, CAM)
    return np.linalg.norm(uv - x[None], axis=-1)  # (H, N, J)


def ref_jpma(poses, x):
    h_count, n_frames, n_joints = poses.shape[:3]
    err = _pixel_errors(poses, x)
    chosen = np.zeros((n_frames, n_joints), dtype=np.int64)
    for n in range(n_frames):
        for j in range(n_joints):
            allowed = [poses[h, n, j, 2] > DEFAULT_Z_MIN
                       for h in range(h_count)]
            best = _lowest_argmin(err[:, n, j], allowed)
            if best is None:
                return None
            chosen[n, j] = best
    return chosen


def ref_ppma(poses, x):
    h_count, n_frames, n_joints = poses.shape[:3]
    totals = _pixel_errors(poses, x).sum(axis=2)  # (H, N)
    chosen = np.zeros((n_frames, n_joints), dtype=np.int64)
    for n in range(n_frames):
        allowed = []
        for h in range(h_count):
            ok = True
            for j in range(n_joints):
                if not poses[h, n, j, 2] > DEFAULT_Z_MIN:
                    ok = False
            allowed.append(ok)
        best = _lowest_argmin(totals[:, n], allowed)
        if best is None:
            return None
        for j in range(n_joints):
            chosen[n, j] = best
    return chosen


def ref_pbest(poses, gt):
    h_count, n_frames, n_joints = poses.shape[:3]
    means = np.linalg.norm(poses - gt[None], axis=-1).mean(axis=2)  # (H, N)
    chosen = np.zeros((n_frames, n_joints), dtype=np.int64)
    for n in range(n_frames):
        best = _lowest_argmin(means[:, n], [True] * h_count)
        for j in range(n_joints):
            chosen[n, j] = best
    return chosen


def ref_jbest(poses, gt):
    h_count, n_frames, n_joints = poses.shape[:3]
    dist = np.linalg.norm(poses - gt[None], axis=-1)  # (H, N, J)
    chosen = np.zeros((n_frames, n_joints), dtype=np.int64)
    for n in range(n_frames):
        for j in range(n_joints):
            chosen[n, j] = _lowest_argmin(dist[:, n, j], [True] * h_count)
    return chosen


@st.composite
def scenes(draw):
    """Hypotheses (some duplicated, some joints at or behind
    DEFAULT_Z_MIN), ground truth and keypoints."""
    h_count = draw(st.integers(1, 5))
    n_frames = draw(st.integers(1, 3))
    n_joints = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    gt = rng.normal(scale=200.0, size=(n_frames, n_joints, 3))
    gt[..., 2] += 2000.0
    distinct = gt[None] + rng.normal(scale=60.0,
                                     size=(h_count, n_frames, n_joints, 3))
    # Hypothesis h is a copy of hypothesis source[h] (itself when equal).
    source = [draw(st.integers(0, h)) for h in range(h_count)]
    poses = distinct[source].copy()
    depth = st.sampled_from([DEFAULT_Z_MIN, 0.0, -300.0])
    for h in range(h_count):
        for n in range(n_frames):
            for j in range(n_joints):
                if draw(st.integers(0, 9)) == 0:
                    poses[h, n, j, 2] = draw(depth)
    x = rng.uniform(0.0, 1000.0, size=(n_frames, n_joints, 2))
    return poses, gt, x


def _check(report, chosen, poses):
    assert report.chosen.dtype == np.int64
    np.testing.assert_array_equal(report.chosen, chosen)
    assert np.array_equal(report.pose.joints, _gather(poses, chosen))


@settings(max_examples=200, deadline=None)
@given(scenes())
def test_reprojection_aggregators_match_loops(scene):
    poses, _, x = scene
    hs, kp = HypothesisSet(poses), PoseSeq2D(x)
    err = _pixel_errors(poses, x)
    for agg, ref in ((agg_jpma, ref_jpma), (agg_ppma, ref_ppma)):
        chosen = ref(poses, x)
        if chosen is None:
            with pytest.raises(AggregationError):
                agg(hs, kp, CAM)
            continue
        report = agg(hs, kp, CAM)
        _check(report, chosen, poses)
        assert np.array_equal(report.reproj_error_px,
                              np.take_along_axis(err, chosen[None], 0)[0])


@settings(max_examples=200, deadline=None)
@given(scenes())
def test_ground_truth_oracles_match_loops(scene):
    poses, gt, _ = scene
    hs, truth = HypothesisSet(poses), PoseSeq3D(gt)
    _check(agg_pbest(hs, truth), ref_pbest(poses, gt), poses)
    _check(agg_jbest(hs, truth), ref_jbest(poses, gt), poses)
