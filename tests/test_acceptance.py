"""Acceptance gate: one test per release criterion, A1 through A11.

Each test pins the tolerance it enforces and prints one PASS line with
the measured quantity (visible with ``pytest -s``); under ``pytest -v``
the per-test PASSED/FAILED verdicts are the one-line-per-criterion
record. These are end-to-end claims about the assembled system, not
unit checks; they overlap the per-module tests on purpose.
"""
import time

import numpy as np

from posediff.aggregate import (agg_average, agg_jbest, agg_jpma, agg_pbest,
                                METHOD_NAMES, run_aggregator)
from posediff.camera import CameraIntrinsics, project
from posediff.core import DEFAULT_SKELETON, PoseSeq3D
from posediff.denoise import (ContractiveOracle, DenoiserParams, NoisyOracle,
                              PerfectOracle, TrainBatch, eps_to_y0, grad_loss,
                              init_params, y0_to_eps)
from posediff.metrics import compute_metrics, mpjpe, pck, pmpjpe
from posediff.rng import RngStream, stream_id
from posediff.sampler import FlipMode, run_sampler, SamplerConfig, SigmaMode
from posediff.schedule import diffuse_array, make_cosine_schedule
from posediff.synth import gen_poses, ScenarioConfig

from clouds import Bimodal, gen_scenarios

IMAGE_WIDTH = 1000.0


def _per_hypothesis_mpjpe(hs, gt) -> np.ndarray:
    """(H,) mean joint error of each hypothesis against gt, in mm."""
    return np.linalg.norm(hs.poses - gt.joints, axis=-1).mean(axis=(1, 2))


def test_a01_perfect_oracle_recovers_ground_truth():
    """Max deviation <= 1e-9 mm over (H, K) in {1,5,20} x {1,5,10}; < 10 s."""
    start = time.perf_counter()
    sched = make_cosine_schedule(1000)
    gt, x = gen_poses(ScenarioConfig(pose_count=1, frames_per_pose=2,
                                     seed=3))[0]
    den = PerfectOracle(gt)
    worst = 0.0
    for h in (1, 5, 20):
        for k in (1, 5, 10):
            cfg = SamplerConfig(hypotheses=h, iterations=k, seed=5)
            hs = run_sampler(x, den, cfg, sched)
            worst = max(worst, float(np.abs(hs.poses - gt.joints).max()))
    elapsed = time.perf_counter() - start
    assert worst <= 1e-9
    assert elapsed < 10.0
    print(f"A1 PASS max deviation {worst:.3e} mm in {elapsed:.2f} s")


def test_a02_selection_error_ordering():
    """jbest <= pbest <= worst hypothesis and jbest <= jpma, exactly,
    on every one of 1000 scenarios with H=20 iid hypotheses."""
    cfg = ScenarioConfig(pose_count=1000, frames_per_pose=1, seed=11)
    for gt, x, hs in gen_scenarios(cfg, 20):
        errs = _per_hypothesis_mpjpe(hs, gt)
        e_jbest = mpjpe(agg_jbest(hs, gt).pose, gt)
        e_pbest = mpjpe(agg_pbest(hs, gt).pose, gt)
        e_jpma = mpjpe(agg_jpma(hs, x, cfg.camera).pose, gt)
        assert e_jbest <= e_pbest <= float(errs.max())
        assert e_jbest <= e_jpma
    print("A2 PASS ordering held on all 1000 scenarios")


def test_a03_single_hypothesis_collapse():
    """With H=1 all five aggregators are bitwise identical, metrics too."""
    cfg = ScenarioConfig(pose_count=3, frames_per_pose=2, seed=2)
    for gt, x, hs in gen_scenarios(cfg, 1):
        reports = [run_aggregator(m, hs, x=x, cam=cfg.camera, gt=gt)
                   for m in METHOD_NAMES]
        metrics = [compute_metrics(r.pose, gt) for r in reports]
        for r, m in zip(reports[1:], metrics[1:]):
            assert np.array_equal(r.pose.joints, reports[0].pose.joints)
            assert m == metrics[0]
    print(f"A3 PASS {len(METHOD_NAMES)} aggregators collapse at H=1")


def test_a04_forward_diffusion_moments():
    """Monte-Carlo mean/variance of the forward step inside 4-sigma
    bands at t in {1, 500, 999}; cosine alpha_bar(500) pinned."""
    sched = make_cosine_schedule(1000)
    ab500 = float(sched.alpha_bar[500])
    assert abs(ab500 - 0.4938435904406377) < 1e-12
    assert abs(ab500 - 0.494) <= 1e-3
    n = 10_000
    y0 = np.full(n, 0.8)
    for t in (1, 500, 999):
        ab = float(sched.alpha_bar[t])
        eps = RngStream(71, stream_id("accept_moments", t)).standard_normal((n,))
        y_t = diffuse_array(y0, t, sched, eps)
        mean_err = abs(float(y_t.mean()) - np.sqrt(ab) * 0.8)
        mean_band = 4.0 * np.sqrt((1.0 - ab) / n)
        var_err = abs(float(y_t.var(ddof=1)) - (1.0 - ab))
        var_band = 4.0 * (1.0 - ab) * np.sqrt(2.0 / (n - 1))
        assert mean_err <= mean_band, f"t={t}: {mean_err} > {mean_band}"
        assert var_err <= var_band, f"t={t}: {var_err} > {var_band}"
    print(f"A4 PASS moments in 4-sigma bands; alpha_bar(500)={ab500:.6f}")


def test_a05_joint_selection_beats_averaging_on_bimodal_clouds():
    """Mean MPJPE(jpma) < mean MPJPE(avg) on the bimodal benchmark,
    one-sided 95% bootstrap interval excluding zero; < 60 s."""
    start = time.perf_counter()
    cfg = ScenarioConfig(pose_count=500, frames_per_pose=1, noise_2d_px=1.0,
                         seed=17)
    diffs = np.empty(cfg.pose_count)
    model = Bimodal(offset_mm=150.0, p_wrong=0.3)
    for i, (gt, x, hs) in enumerate(gen_scenarios(cfg, 20, model)):
        e_avg = mpjpe(agg_average(hs), gt)
        e_jpma = mpjpe(agg_jpma(hs, x, cfg.camera).pose, gt)
        diffs[i] = e_avg - e_jpma
    rng = np.random.default_rng(0)
    idx = rng.integers(0, len(diffs), size=(10_000, len(diffs)))
    lower = float(np.percentile(diffs[idx].mean(axis=1), 5.0))
    elapsed = time.perf_counter() - start
    assert diffs.mean() > 0
    assert lower > 0
    assert elapsed < 60.0
    print(f"A5 PASS mean gain {diffs.mean():.2f} mm, bootstrap 5th pct "
          f"{lower:.2f} mm, {elapsed:.1f} s")


def test_a06_hypothesis_count_sweep():
    """Over H = 1..20 prefixes of iid hypothesis sets: best error
    non-increasing, worst non-decreasing, mean within 2% of its H=1
    value."""
    cfg = ScenarioConfig(pose_count=600, frames_per_pose=1, seed=23)
    errs = np.stack([_per_hypothesis_mpjpe(hs, gt)
                     for gt, _, hs in gen_scenarios(cfg, 20)])  # (poses, 20)
    best = [errs[:, :h].min(axis=1).mean() for h in range(1, 21)]
    worst = [errs[:, :h].max(axis=1).mean() for h in range(1, 21)]
    avg = [errs[:, :h].mean() for h in range(1, 21)]
    assert all(b2 <= b1 for b1, b2 in zip(best, best[1:]))
    assert all(w2 >= w1 for w1, w2 in zip(worst, worst[1:]))
    spread = max(abs(a - avg[0]) for a in avg) / avg[0]
    assert spread <= 0.02
    print(f"A6 PASS best {best[0]:.1f}->{best[-1]:.1f} mm, worst "
          f"{worst[0]:.1f}->{worst[-1]:.1f} mm, mean drift {spread:.2%}")


def _loss_with_param(params, batch, layer, which, idx, value) -> float:
    ws = [w.copy() for w in params.weights]
    bs = [b.copy() for b in params.biases]
    (ws if which == "w" else bs)[layer][idx] = value
    tweaked = DenoiserParams(weights=tuple(ws), biases=tuple(bs))
    return grad_loss(tweaked, batch)[0]


def test_a07_gradient_finite_difference_fidelity():
    """Every parameter gradient of a 3-joint model matches central
    differences to 1e-4 relative (1e-8 absolute floor)."""
    params = init_params(3, hidden_width=8, hidden_layers=2,
                         rng=RngStream(5, stream_id("accept_grad")))
    rng = RngStream(6, stream_id("accept_grad_data"))
    batch = TrainBatch(inputs=rng.standard_normal((4, 15)),
                       timesteps=np.array([0.0, 3.0, 500.0, 999.0]),
                       targets=rng.standard_normal((4, 9)))
    _, wg, bg = grad_loss(params, batch)
    h = 1e-6
    checked, worst = 0, 0.0
    for layer in range(params.num_layers):
        for which, grads, base in (("w", wg[layer], params.weights[layer]),
                                   ("b", bg[layer], params.biases[layer])):
            for idx in np.ndindex(base.shape):
                up = _loss_with_param(params, batch, layer, which, idx,
                                      base[idx] + h)
                dn = _loss_with_param(params, batch, layer, which, idx,
                                      base[idx] - h)
                fd = (up - dn) / (2.0 * h)
                an = grads[idx]
                rel = abs(fd - an) / max(abs(fd), abs(an), 1e-8)
                worst = max(worst, rel)
                checked += 1
                assert rel <= 1e-4, f"layer {layer} {which}{idx}: rel {rel}"
    print(f"A7 PASS {checked} parameters, worst relative error {worst:.2e}")


def _rotation(axis: np.ndarray, angle: float) -> np.ndarray:
    k = axis / np.linalg.norm(axis)
    kx = np.array([[0, -k[2], k[1]], [k[2], 0, -k[0]], [-k[1], k[0], 0]])
    return np.eye(3) * np.cos(angle) + np.sin(angle) * kx \
        + (1.0 - np.cos(angle)) * np.outer(k, k)


def test_a08_alignment_metric_sanity():
    """Aligned error of a similarity-transformed copy < 1e-9 mm;
    aligned <= unaligned on 1000 random pairs; PCK monotone."""
    gt, _ = gen_poses(ScenarioConfig(pose_count=1, frames_per_pose=3,
                                     seed=31))[0]
    r = _rotation(np.array([1.0, 2.0, 3.0]), 0.7)
    moved = PoseSeq3D(1.7 * (gt.joints @ r.T) + np.array([10.0, -20.0, 30.0]))
    residual = pmpjpe(moved, gt)
    assert residual < 1e-9

    rng = RngStream(33, stream_id("accept_metrics"))
    for _ in range(1000):
        a = PoseSeq3D(100.0 * rng.standard_normal((1, 17, 3)))
        b = PoseSeq3D(a.joints + 30.0 * rng.standard_normal((1, 17, 3)))
        assert pmpjpe(b, a) <= mpjpe(b, a) + 1e-9

    noisy = PoseSeq3D(gt.joints + 80.0 * rng.standard_normal(gt.joints.shape))
    curve = [pck(noisy, gt, threshold_mm=th) for th in range(10, 151, 10)]
    assert all(c2 >= c1 for c1, c2 in zip(curve, curve[1:]))
    print(f"A8 PASS aligned residual {residual:.2e} mm, PCK curve "
          f"{curve[0]:.2f}->{curve[-1]:.2f}")


def test_a09_camera_model_conformance():
    """Zero-coefficient distortion equals pinhole bitwise; projection is
    invariant to depth scaling within 1e-12 relative; the hand-worked
    distortion example reproduces exactly."""
    rng = RngStream(41, stream_id("accept_camera"))
    pts = PoseSeq3D(np.stack([rng.uniform(-300.0, 300.0, (4, 17)),
                              rng.uniform(-300.0, 300.0, (4, 17)),
                              rng.uniform(800.0, 1200.0, (4, 17))], axis=-1))
    plain = CameraIntrinsics.pinhole(fx=1000.0, fy=1000.0, cx=500.0, cy=500.0)
    zeroed = CameraIntrinsics.distorted(fx=1000.0, fy=1000.0, cx=500.0,
                                        cy=500.0)
    assert np.array_equal(project(pts, plain).joints,
                          project(pts, zeroed).joints)

    cam = CameraIntrinsics.distorted(fx=1100.0, fy=1150.0, cx=480.0, cy=510.0,
                                     k1=0.08, k2=0.003, k3=0.0002,
                                     p1=0.0005, p2=-0.0003)
    base = project(pts, cam).joints
    worst = 0.0
    for lam in (0.5, 2.0, 10.0):
        scaled = project(PoseSeq3D(lam * pts.joints), cam).joints
        worst = max(worst, float(np.abs(scaled - base).max()
                                 / np.abs(base).max()))
    assert worst <= 1e-12

    # x' = y' = 0.1, r^2 = 0.02, radial term 1 + 0.1 * 0.02 = 1.002,
    # so u = v = 1000 * 0.1 * 1.002 + 500 = 600.2
    worked = CameraIntrinsics.distorted(fx=1000.0, fy=1000.0, cx=500.0,
                                        cy=500.0, k1=0.1)
    uv = project(PoseSeq3D(np.array([[[100.0, 100.0, 1000.0]]])), worked)
    assert uv.joints[0, 0, 0] == 600.2
    assert uv.joints[0, 0, 1] == 600.2
    print(f"A9 PASS depth-scaling residual {worst:.2e}, worked example "
          f"u=v={uv.joints[0, 0, 0]}")


def test_a10_regression_target_duality():
    """Noise-prediction and signal-prediction parameterizations convert
    into each other to 1e-9 relative; with a contractive oracle the
    per-iteration error strictly decreases."""
    sched = make_cosine_schedule(1000)
    rng = RngStream(51, stream_id("accept_duality"))
    y_t = rng.standard_normal((4, 6, 3))
    y0 = rng.standard_normal((4, 6, 3))
    eps = rng.standard_normal((4, 6, 3))
    for t in (1, 250, 999):
        y0_rt = eps_to_y0(y_t, y0_to_eps(y_t, y0, t, sched), t, sched)
        eps_rt = y0_to_eps(y_t, eps_to_y0(y_t, eps, t, sched), t, sched)
        assert np.allclose(y0_rt, y0, rtol=1e-9, atol=1e-12)
        assert np.allclose(eps_rt, eps, rtol=1e-9, atol=1e-12)

    gt, x = gen_poses(ScenarioConfig(pose_count=1, frames_per_pose=1,
                                     seed=7))[0]
    cfg = SamplerConfig(hypotheses=4, iterations=10,
                        sigma_mode=SigmaMode.DETERMINISTIC, seed=13)
    trace = []
    run_sampler(x, ContractiveOracle(gt, 0.5), cfg, sched, trace=trace)
    errs = [float(_per_hypothesis_mpjpe(hs, gt).mean()) for hs in trace]
    assert all(e2 < e1 for e1, e2 in zip(errs, errs[1:]))
    print(f"A10 PASS conversions round-trip; error {errs[0]:.1f} mm -> "
          f"{errs[-1]:.1f} mm over {len(errs)} iterations")


def test_a11_flip_mode_error_ordering():
    """With a noisy oracle (sigma 20 mm), per-step flipping <= one-shot
    flipping <= no flipping in mean MPJPE over 500 scenarios, the
    strict gap confirmed by a one-sided 95% bootstrap interval."""
    sched = make_cosine_schedule(200)
    poses = gen_poses(ScenarioConfig(pose_count=500, frames_per_pose=1,
                                     seed=47))
    errs = {mode: np.empty(len(poses)) for mode in FlipMode}
    for i, (gt, x) in enumerate(poses):
        den = NoisyOracle(gt, 20.0, seed=stream_id("accept_flip", i))
        for mode in FlipMode:
            cfg = SamplerConfig(hypotheses=4, iterations=3,
                                flip_mode=mode,
                                seed=stream_id("accept_flip_s", i))
            hs = run_sampler(x, den, cfg, sched, DEFAULT_SKELETON,
                             IMAGE_WIDTH)
            errs[mode][i] = mpjpe(agg_average(hs), gt)
    m_none = errs[FlipMode.NONE].mean()
    m_once = errs[FlipMode.ONCE].mean()
    m_diff = errs[FlipMode.DIFFUSION].mean()
    assert m_diff <= m_once <= m_none
    gains = errs[FlipMode.NONE] - errs[FlipMode.ONCE]
    rng = np.random.default_rng(1)
    idx = rng.integers(0, len(gains), size=(10_000, len(gains)))
    lower = float(np.percentile(gains[idx].mean(axis=1), 5.0))
    assert lower > 0
    print(f"A11 PASS mean MPJPE none {m_none:.2f} >= once {m_once:.2f} >= "
          f"per-step {m_diff:.2f} mm; bootstrap 5th pct {lower:.2f} mm")
