import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from posediff.core import PoseSeq3D
from posediff.errors import DegenerateAlignmentError, ShapeError
from posediff import metrics
from posediff.metrics import (AUC_MAX_MM, AUC_STEP_MM,
                              PCK_DEFAULT_THRESHOLD_MM, align_frame, auc,
                              compute_metrics, joint_errors, mpjpe, pck,
                              pmpjpe)

from conftest import random_pose


def _shift(pose: PoseSeq3D, dx_mm: float) -> PoseSeq3D:
    out = pose.joints.copy()
    out[..., 0] += dx_mm
    return PoseSeq3D(out)


def _perturb(pose: PoseSeq3D, rng, scale_mm: float) -> PoseSeq3D:
    return PoseSeq3D(pose.joints + rng.normal(scale=scale_mm,
                                              size=pose.joints.shape))


def test_mpjpe_zero_on_identical():
    p = random_pose(np.random.default_rng(0))
    assert mpjpe(p, p) == 0.0


def test_mpjpe_uniform_shift():
    gt = random_pose(np.random.default_rng(1))
    assert mpjpe(_shift(gt, 3.0), gt) == pytest.approx(3.0, abs=1e-12)


def test_mpjpe_mixes_joint_errors():
    gt = PoseSeq3D(np.zeros((1, 2, 3)))
    pred = np.zeros((1, 2, 3))
    pred[0, 1, 0] = 10.0
    assert mpjpe(PoseSeq3D(pred), gt) == pytest.approx(5.0, abs=1e-12)


def test_joint_errors_shape_and_values():
    gt = PoseSeq3D(np.zeros((2, 3, 3)))
    pred = np.zeros((2, 3, 3))
    pred[1, 2, 1] = 4.0
    e = joint_errors(PoseSeq3D(pred), gt)
    assert e.shape == (2, 3)
    assert e[1, 2] == 4.0
    assert e[0].sum() == 0.0


def test_mpjpe_shape_mismatch():
    with pytest.raises(ShapeError):
        mpjpe(PoseSeq3D(np.zeros((1, 2, 3))), PoseSeq3D(np.zeros((1, 3, 3))))


def _random_rotation(rng):
    m = rng.normal(size=(3, 3))
    q, r = np.linalg.qr(m)
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] *= -1.0
    return q


def test_pmpjpe_absorbs_similarity_transform():
    rng = np.random.default_rng(2)
    gt = random_pose(rng, frames=3, joints=8)
    r = _random_rotation(rng)
    pred = PoseSeq3D(1.7 * gt.joints @ r.T + np.array([120.0, -40.0, 310.0]))
    assert pmpjpe(pred, gt) < 1e-9


def test_pmpjpe_absorbs_pure_scale():
    gt = random_pose(np.random.default_rng(3), joints=6)
    assert pmpjpe(PoseSeq3D(2.0 * gt.joints), gt) < 1e-9


def test_pmpjpe_without_scale_keeps_scale_error():
    gt = random_pose(np.random.default_rng(4), joints=6)
    doubled = PoseSeq3D(2.0 * gt.joints)
    assert pmpjpe(doubled, gt, with_scale=True) < 1e-9
    assert pmpjpe(doubled, gt, with_scale=False) > 1.0


def test_reflection_not_absorbed():
    # the alignment stays in SO(3), so a mirrored pose keeps its error
    rng = np.random.default_rng(5)
    gt = random_pose(rng, frames=1, joints=10)
    mirrored = gt.joints.copy()
    mirrored[..., 0] *= -1.0
    assert pmpjpe(PoseSeq3D(mirrored), gt) > 10.0


def test_collinear_target_degenerate():
    gt = np.zeros((1, 4, 3))
    gt[0, :, 0] = np.arange(4.0) + 1.0
    pred = random_pose(np.random.default_rng(6), frames=1, joints=4)
    with pytest.raises(DegenerateAlignmentError):
        pmpjpe(pred, PoseSeq3D(gt))


def test_too_few_joints_degenerate():
    with pytest.raises(DegenerateAlignmentError):
        align_frame(np.zeros((1, 2, 3)), PoseSeq3D(np.ones((1, 2, 3))))


def test_coincident_joints_degenerate():
    with pytest.raises(DegenerateAlignmentError):
        align_frame(np.random.default_rng(0).normal(size=(1, 4, 3)),
                    PoseSeq3D(np.ones((1, 4, 3))))


def test_align_frame_recovers_target():
    rng = np.random.default_rng(7)
    gt = random_pose(rng, frames=1, joints=9)
    r = _random_rotation(rng)
    pred = 0.6 * gt.joints @ r.T + 55.0
    aligned = align_frame(pred, gt)
    np.testing.assert_allclose(aligned, gt.joints, atol=1e-8)


def _stack(rng, frames=12, joints=9):
    gt = random_pose(rng, frames=frames, joints=joints).joints.copy()
    pred = gt + rng.normal(scale=60.0, size=gt.shape)
    pred[::3, :, 0] *= -1.0  # some frames need the reflection fix
    return pred, gt


@pytest.mark.parametrize("with_scale", [True, False])
def test_align_stack_matches_single_frames(with_scale):
    pred, gt = _stack(np.random.default_rng(12))
    stacked = align_frame(pred, PoseSeq3D(gt), with_scale=with_scale)
    assert stacked.shape == pred.shape
    for k in range(pred.shape[0]):
        single = align_frame(pred[k:k + 1], PoseSeq3D(gt[k:k + 1]),
                             with_scale=with_scale)
        assert np.abs(stacked[k] - single[0]).max() <= 1e-12


def _reference_pmpjpe(pred, gt, with_scale):
    # textbook per-frame Umeyama alignment, one frame at a time
    total = 0.0
    for p, g in zip(pred, gt):
        p0, g0 = p - p.mean(axis=0), g - g.mean(axis=0)
        u, s, vt = np.linalg.svd(p0.T @ g0)
        d = np.sign(np.linalg.det(u @ vt))
        fix = np.diag([1.0, 1.0, d])
        rot = u @ fix @ vt
        scale = (s * np.diag(fix)).sum() / (p0 ** 2).sum() if with_scale else 1.0
        aligned = scale * p0 @ rot + g.mean(axis=0)
        total += np.linalg.norm(aligned - g, axis=-1).mean()
    return total / len(pred)


@pytest.mark.parametrize("with_scale", [True, False])
def test_pmpjpe_matches_per_frame_reference(with_scale):
    pred, gt = _stack(np.random.default_rng(13), frames=40, joints=17)
    got = pmpjpe(PoseSeq3D(pred), PoseSeq3D(gt), with_scale=with_scale)
    want = _reference_pmpjpe(pred, gt, with_scale)
    assert got == pytest.approx(want, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("which, kind, message", [
    ("pred", "collinear", "prediction joints are collinear"),
    ("gt", "collinear", "ground truth joints are collinear"),
    ("pred", "coincident", "all joints coincide"),
    ("gt", "coincident", "all joints coincide"),
])
def test_degenerate_frame_in_stack_is_named(which, kind, message):
    pred, gt = _stack(np.random.default_rng(14), frames=9, joints=6)
    target = pred if which == "pred" else gt
    if kind == "collinear":
        target[4] = np.outer(np.arange(6.0), [1.0, 2.0, -0.5]) + 100.0
    else:
        target[4] = 250.0
    with pytest.raises(DegenerateAlignmentError, match="frame 4"):
        pmpjpe(PoseSeq3D(pred), PoseSeq3D(gt))
    with pytest.raises(DegenerateAlignmentError,
                       match=f"^frame 4: {message}") as info:
        align_frame(pred, PoseSeq3D(gt))
    assert info.value.frame == 4


@pytest.mark.parametrize("gt_kind, message", [
    ("collinear", "prediction joints are collinear"),
    ("coincident", "all joints coincide")])
def test_degenerate_precedence_within_a_frame(gt_kind, message):
    # coincident, then prediction collinear, then ground truth collinear;
    # a collinear prediction is named before any later frame
    pred, gt = _stack(np.random.default_rng(15), frames=5, joints=6)
    line = np.outer(np.arange(6.0), [1.0, 2.0, -0.5]) + 100.0
    pred[1] = line
    gt[1] = line if gt_kind == "collinear" else 250.0
    gt[3] = 250.0
    with pytest.raises(DegenerateAlignmentError,
                       match=f"^frame 1: {message}"):
        align_frame(pred, PoseSeq3D(gt))


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_pmpjpe_never_exceeds_rms_error(seed):
    # The alignment minimises the squared error, and the identity is one
    # of the transforms it searches, so P-MPJPE is at most the unaligned
    # RMS joint error. It is not always at most MPJPE: about 1 in 400
    # of these poses has P-MPJPE > MPJPE (seed 209048783).
    rng = np.random.default_rng(seed)
    gt = random_pose(rng, frames=1, joints=7)
    pred = _perturb(gt, rng, 40.0)
    rms = np.sqrt(np.mean(np.sum((pred.joints - gt.joints) ** 2, axis=-1)))
    assert pmpjpe(pred, gt) <= rms + 1e-9


def test_pck_half_inside():
    gt = PoseSeq3D(np.zeros((1, 2, 3)))
    pred = np.zeros((1, 2, 3))
    pred[0, 0, 0] = 100.0
    pred[0, 1, 0] = 200.0
    assert pck(PoseSeq3D(pred), gt, threshold_mm=150.0) == 0.5


def test_pck_boundary_is_strict():
    gt = PoseSeq3D(np.zeros((1, 1, 3)))
    pred = PoseSeq3D(np.full((1, 1, 3), 150.0) * np.array([1.0, 0.0, 0.0]))
    assert pck(pred, gt, threshold_mm=150.0) == 0.0
    assert pck(pred, gt, threshold_mm=150.0 + 1e-6) == 1.0


def test_pck_default_threshold():
    assert PCK_DEFAULT_THRESHOLD_MM == 150.0
    gt = PoseSeq3D(np.zeros((1, 1, 3)))
    pred = PoseSeq3D(np.full((1, 1, 3), 200.0))
    assert pck(pred, gt) == 0.0


def test_pck_rejects_nonpositive_threshold():
    gt = random_pose(np.random.default_rng(10))
    with pytest.raises(ValueError):
        pck(gt, gt, threshold_mm=0.0)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_pck_monotone_in_threshold(seed):
    rng = np.random.default_rng(seed)
    gt = random_pose(rng, frames=2, joints=5)
    pred = _perturb(gt, rng, 80.0)
    vals = [pck(pred, gt, threshold_mm=t) for t in (10.0, 50.0, 150.0, 400.0)]
    assert all(a <= b for a, b in zip(vals, vals[1:]))


def test_auc_grid_constants():
    assert AUC_MAX_MM == 150.0
    assert AUC_STEP_MM == 5.0


def test_auc_constant_error():
    # all joints at 80 mm: of the 31 thresholds 0, 5, ..., 150 only the
    # 14 values 85..150 count the joint as correct
    gt = PoseSeq3D(np.zeros((2, 3, 3)))
    pred = np.zeros((2, 3, 3))
    pred[..., 0] = 80.0
    assert auc(PoseSeq3D(pred), gt) == pytest.approx(14.0 / 31.0, abs=1e-12)


def test_auc_extremes():
    gt = random_pose(np.random.default_rng(8))
    assert auc(gt, gt) == 1.0
    assert auc(_shift(gt, 1e6), gt) == 0.0


def test_auc_zero_threshold_counts_exact_matches_only():
    gt = PoseSeq3D(np.zeros((1, 2, 3)))
    pred = np.zeros((1, 2, 3))
    pred[0, 1, 0] = 1e-12  # nonzero error fails the 0 mm point
    # 0 mm passes one joint of two, every other threshold passes both
    assert auc(PoseSeq3D(pred), gt) == pytest.approx(30.5 / 31.0, abs=1e-12)


def test_compute_metrics_bundle():
    rng = np.random.default_rng(9)
    gt = random_pose(rng, frames=4, joints=6)
    pred = _perturb(gt, rng, 30.0)
    m = compute_metrics(pred, gt)
    assert m.mpjpe_mm == pytest.approx(mpjpe(pred, gt))
    assert m.pmpjpe_mm == pytest.approx(pmpjpe(pred, gt))
    assert m.pck150 == pytest.approx(pck(pred, gt))
    assert m.auc == pytest.approx(auc(pred, gt))
    assert m.pmpjpe_mm <= m.mpjpe_mm


def test_compute_metrics_respects_options():
    rng = np.random.default_rng(11)
    gt = random_pose(rng, frames=2, joints=6)
    pred = PoseSeq3D(2.0 * gt.joints)
    strict = compute_metrics(pred, gt, with_scale=False)
    loose = compute_metrics(pred, gt, with_scale=True)
    assert loose.pmpjpe_mm < 1e-9
    assert strict.pmpjpe_mm > 1.0


@pytest.mark.parametrize("with_scale", [True, False])
def test_compute_metrics_holds_at_most_three_pose_arrays(with_scale):
    # numpy's buffers are traced: with the ground truth's half of the
    # alignment made beforehand, as every scoring but a sequence's first
    # finds it, one call over 1024 frames peaks below three (F, J, 3)
    # float64 arrays, so P-MPJPE scales, rotates and shifts the
    # prediction in its own two buffers and no joint errors wait through
    # it
    rng = np.random.default_rng(12)
    gt = PoseSeq3D(random_pose(rng, frames=1024, joints=17).joints)
    pred = _perturb(gt, rng, 30.0)
    want = compute_metrics(pred, PoseSeq3D(gt.joints), with_scale=with_scale)
    compute_metrics(pred, gt, with_scale=with_scale)  # prepares gt
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        got = compute_metrics(pred, gt, with_scale=with_scale)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert got == want
    assert peak <= 3 * pred.joints.nbytes


def _errors_on_thresholds() -> tuple[PoseSeq3D, PoseSeq3D, np.ndarray]:
    """A (prediction, ground truth) pair whose joint errors are exact
    zeros, every AUC threshold, and one ulp either side of some."""
    thresholds = np.arange(0.0, AUC_MAX_MM + AUC_STEP_MM / 2, AUC_STEP_MM)
    errors = np.concatenate([
        [0.0, 0.0, 1e-150, 1e-12], thresholds, thresholds[1:],
        np.nextafter(thresholds[1:], 0.0), np.nextafter(thresholds[1:], np.inf),
        [PCK_DEFAULT_THRESHOLD_MM, 151.0, 1e6]])
    errors = np.concatenate([errors, np.zeros(-len(errors) % 3)])
    errors = errors.reshape(-1, 3)
    # a triangle in the y-z plane, so that no frame is collinear; each
    # joint moves by its error along x, and the norm of (e, 0, 0) is e
    gt = np.zeros(errors.shape + (3,))
    gt[:, 1, 1] = gt[:, 2, 2] = 100.0
    pred = gt.copy()
    pred[..., 0] = errors
    pred, gt = PoseSeq3D(pred), PoseSeq3D(gt)
    assert np.array_equal(joint_errors(pred, gt), errors)
    return pred, gt, errors


def test_pck_and_auc_are_boolean_means_on_thresholds():
    # bitwise the means of errors < th, and of errors == 0 at 0 mm
    pred, gt, errors = _errors_on_thresholds()
    thresholds = np.arange(0.0, AUC_MAX_MM + AUC_STEP_MM / 2, AUC_STEP_MM)
    for th in thresholds[1:]:
        assert pck(pred, gt, threshold_mm=th) == (errors < th).mean()
    want_auc = float(np.mean([(errors == 0.0).mean()]
                             + [(errors < th).mean() for th in thresholds[1:]]))
    assert auc(pred, gt) == want_auc
    report = compute_metrics(pred, gt)
    assert report.pck150 == (errors < PCK_DEFAULT_THRESHOLD_MM).mean()
    assert report.auc == want_auc
    assert report.mpjpe_mm == errors.mean()


@pytest.mark.parametrize("with_scale", [True, False])
def test_ground_truth_scores_bitwise(with_scale):
    # a prepared ground truth, reused across predictions, changes no bit
    # against one that prepares afresh for each
    rng = np.random.default_rng(21)
    joints = random_pose(rng, frames=40, joints=17).joints
    prepared = PoseSeq3D(joints)
    for scale_mm in (0.0, 5.0, 40.0, 300.0, 40.0):
        pred = _perturb(prepared, rng, scale_mm)
        assert (compute_metrics(pred, prepared, with_scale=with_scale)
                == compute_metrics(pred, PoseSeq3D(joints),
                                   with_scale=with_scale))
        assert (pmpjpe(pred, prepared, with_scale=with_scale)
                == pmpjpe(pred, PoseSeq3D(joints), with_scale=with_scale))
        assert np.array_equal(
            align_frame(pred.joints, prepared, with_scale=with_scale),
            align_frame(pred.joints, PoseSeq3D(joints),
                        with_scale=with_scale))
    with pytest.raises(ShapeError):
        align_frame(pred.joints[0], prepared)


def test_a_plain_ground_truth_is_prepared_once(monkeypatch):
    # every call against one PoseSeq3D reuses its half of the alignment
    made = []

    class Counted(metrics._Target):
        def __init__(self, gt):
            made.append(gt)
            super().__init__(gt)
    monkeypatch.setattr(metrics, "_Target", Counted)
    rng = np.random.default_rng(5)
    gt = random_pose(rng, frames=8, joints=6)
    for scale_mm in (10.0, 30.0):
        compute_metrics(_perturb(gt, rng, scale_mm), gt)
    assert [g is gt for g in made] == [True]


def _clouds(rng, singular_values, count=64, joints=17) -> np.ndarray:
    """``count`` centred (joints, 3) clouds with the given singular
    values, each in a random orientation."""
    out = np.empty((count, joints, 3))
    for k in range(count):
        a = rng.normal(size=(joints, 3))
        q, _ = np.linalg.qr(a - a.mean(axis=0))
        rot, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        out[k] = (q * singular_values) @ rot.T * rng.uniform(1e-3, 1e4)
    return out


def _assert_target_screened(clouds):
    # the ground truth's side goes through the same screen: its
    # collinearity is the SVD rule on the clouds it centres
    g0 = clouds - clouds.mean(axis=1, keepdims=True)
    rule = metrics._collinear(np.linalg.svd(g0, compute_uv=False))
    assert np.array_equal(metrics._Target(PoseSeq3D(clouds)).collinear, rule)


@pytest.mark.parametrize("ratio", [1e-8, 2e-9, 1e-9, 5e-10, 5.7e-4, 5.8e-4,
                                   5.9e-4, 7.0e-4, 7.1e-4, 9.9e-4, 1.01e-3])
@pytest.mark.parametrize("third", [0.0, 0.5, 1.0])
def test_collinearity_screen_agrees_with_the_svd_rule(ratio, third):
    # s1/s0 = ratio near the rule's bound (1e-9) and near where the
    # screen starts clearing clouds; s2 = third * s1
    p0 = _clouds(np.random.default_rng(int(ratio * 1e12) + int(third * 10)),
                 (1.0, ratio, third * ratio))
    rule = metrics._collinear(np.linalg.svd(p0, compute_uv=False))
    svd, decomposed = np.linalg.svd, []

    def counted(a, *args, **kwargs):
        decomposed.append(len(a))
        return svd(a, *args, **kwargs)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(np.linalg, "svd", counted)
        assert np.array_equal(metrics._collinear_screened(p0), rule)
    # e2 / tr^2 is about (1 + third^2) ratio^2 here, so the screen
    # clears every cloud well past its 1e-6 and none well before it
    e2 = (1.0 + third ** 2 + third ** 2 * ratio ** 2) * ratio ** 2
    if e2 > 1.05e-6:
        assert decomposed == []
    elif e2 < 0.95e-6:
        assert decomposed == [len(p0)]
    if ratio >= 1e-8:
        assert not rule.any()
    elif ratio <= 5e-10:
        assert rule.all()
    _assert_target_screened(p0)


@pytest.mark.parametrize("scale", [1e60, 1e100, 1e140])
def test_collinearity_screen_overflow_falls_back_to_the_rule(scale):
    # the Gram products overflow long before the norms do; such frames
    # go to the SVD rule, without a warning
    rng = np.random.default_rng(5)
    p0 = _clouds(rng, (1.0, 0.5, 0.2), count=8) * scale
    rule = metrics._collinear(np.linalg.svd(p0, compute_uv=False))
    assert np.array_equal(metrics._collinear_screened(p0), rule)
    _assert_target_screened(p0)
    # and so do coincident clouds, whose products are all zero
    _assert_target_screened(np.full((2, 17, 3), 250.0))
    gt = PoseSeq3D(rng.normal(size=(3, 6, 3)) * scale)
    pred = PoseSeq3D(gt.joints + rng.normal(size=(3, 6, 3)) * scale * 0.1)
    report = compute_metrics(pred, gt)
    assert 0.0 < report.pmpjpe_mm < scale and 0.0 < report.mpjpe_mm < scale
