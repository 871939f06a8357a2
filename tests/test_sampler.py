import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from posediff import denoise, sampler
from posediff.core import DEFAULT_SKELETON, PoseSeq2D, flip_array3d
from posediff.denoise import (ROWS_PER_BLOCK, ContractiveOracle, Denoiser,
                              MlpDenoiser, NoisyOracle, PerfectOracle,
                              init_params)
from posediff.errors import NumericError
from posediff.metrics import mpjpe
from posediff.rng import RngStream, serve_repeats, stream_id
from posediff.sampler import (FlipMode, SamplerConfig, SigmaMode, _ddim_core,
                              run_sampler, timestep_ladder)
from posediff.schedule import diffuse_array, make_cosine_schedule
from posediff.synth import ScenarioConfig, gen_poses

from conftest import random_keypoints, random_pose


# --- timestep ladder ---------------------------------------------------------

def test_ladder_examples():
    assert timestep_ladder(1000, 10) == [1000, 900, 800, 700, 600, 500, 400,
                                         300, 200, 100]
    assert timestep_ladder(1000, 1) == [1000]
    assert timestep_ladder(1000, 3) == [1000, 667, 333]
    assert timestep_ladder(7, 7) == [7, 6, 5, 4, 3, 2, 1]


def test_ladder_strictly_decreasing_property():
    for t_max in (5, 17, 100, 999):
        for k in (1, 2, 3, t_max // 2 + 1, t_max):
            ladder = timestep_ladder(t_max, k)
            assert ladder[0] == t_max
            assert all(a > b for a, b in zip(ladder, ladder[1:]))
            assert all(t >= 1 for t in ladder)


def test_ladder_rejects_bad_counts():
    with pytest.raises(ValueError):
        timestep_ladder(10, 11)
    with pytest.raises(ValueError):
        timestep_ladder(10, 0)


# --- single reverse update ---------------------------------------------------

def test_ddim_step_zero_signal():
    # y0_hat = 0 makes the update pure noise handling: eps_t = y/sqrt(1-ab_t)
    sched = make_cosine_schedule(100)
    rng = np.random.default_rng(0)
    y = rng.normal(size=(2, 1, 3, 3))
    zero = np.zeros((2, 1, 3, 3))
    t, t_next = 80, 60
    ab_t, ab_n = sched.alpha_bar[t], sched.alpha_bar[t_next]
    eps_t = y / np.sqrt(1 - ab_t)

    # deterministic mode keeps the full eps coefficient sqrt(1-ab')
    out_d = _ddim_core(y, zero, t, t_next, sched, SigmaMode.DETERMINISTIC,
                       None)
    np.testing.assert_allclose(out_d, np.sqrt(1 - ab_n) * eps_t, rtol=1e-12)

    # stochastic mode shrinks that coefficient and adds sigma * eps
    sigma = np.sqrt((1 - ab_n) / (1 - ab_t)) * np.sqrt(1 - ab_t / ab_n)
    eps = RngStream(3, stream_id("zsig")).standard_normal((2, 1, 3, 3))
    out_p = _ddim_core(y, zero, t, t_next, sched, SigmaMode.STOCHASTIC,
                       eps)
    np.testing.assert_allclose(
        out_p, np.sqrt(1 - ab_n - sigma ** 2) * eps_t + sigma * eps,
        rtol=1e-12)


def test_ddim_step_deterministic_consistency():
    # a perfect y0_hat moves the state onto the exact forward trajectory:
    # update(diffuse_array(y0, t, eps), y0) == diffuse_array(y0, t_next, eps)
    sched = make_cosine_schedule(200)
    rng = np.random.default_rng(1)
    y0 = rng.normal(size=(1, 2, 4, 3))
    eps = rng.normal(size=(1, 2, 4, 3))
    for t, t_next in ((200, 150), (150, 60), (60, 1)):
        y_t = diffuse_array(y0, t, sched, eps)
        stepped = _ddim_core(y_t, y0, t, t_next, sched,
                             SigmaMode.DETERMINISTIC, None)
        np.testing.assert_allclose(stepped,
                                   diffuse_array(y0, t_next, sched, eps),
                                   rtol=1e-12, atol=1e-12)


def test_ddim_step_stochastic_sigma_formula():
    # with given noise the stochastic term must be exactly sigma_t * eps
    sched = make_cosine_schedule(100)
    gen = np.random.default_rng(2)
    y = gen.normal(size=(1, 1, 2, 3))
    y0 = gen.normal(size=(1, 1, 2, 3))
    t, t_next = 70, 30
    ab_t, ab_n = sched.alpha_bar[t], sched.alpha_bar[t_next]
    sigma = np.sqrt((1 - ab_n) / (1 - ab_t)) * np.sqrt(1 - ab_t / ab_n)

    eps = RngStream(9, stream_id("sigma_test")).standard_normal((1, 1, 2, 3))
    out_p = _ddim_core(y, y0, t, t_next, sched, SigmaMode.STOCHASTIC, eps)
    out_d = _ddim_core(y, y0, t, t_next, sched, SigmaMode.DETERMINISTIC, None)
    eps_t = (y - np.sqrt(ab_t) * y0) / np.sqrt(1 - ab_t)
    base = (np.sqrt(ab_n) * y0
            + np.sqrt(1 - ab_n - sigma ** 2) * eps_t)
    np.testing.assert_allclose(out_p, base + sigma * eps, rtol=1e-12)
    # the deterministic update differs: full sqrt(1-ab') on eps_t, no noise
    np.testing.assert_allclose(out_d,
                               np.sqrt(ab_n) * y0 + np.sqrt(1 - ab_n) * eps_t,
                               rtol=1e-12)


# --- full sampling runs ------------------------------------------------------

def _setup(seed=0, frames=2, joints=3):
    rng = np.random.default_rng(seed)
    gt = random_pose(rng, frames=frames, joints=joints)
    x = random_keypoints(rng, frames=frames, joints=joints)
    return gt, x


def test_sample_repeatable_and_batch_invariant():
    sched = make_cosine_schedule(100)
    gt, x = _setup(3)
    den = NoisyOracle(gt, 15.0, seed=4)
    cfg = SamplerConfig(hypotheses=6, iterations=5, seed=7)
    full = run_sampler(x, den, cfg, sched)
    again = run_sampler(x, den, cfg, sched)
    assert np.array_equal(full.poses, again.poses)

    # hypothesis h must not depend on the batch it was computed in
    parts = []
    for off in (0, 2, 4):
        part_cfg = SamplerConfig(hypotheses=2, iterations=5, seed=7)
        parts.append(run_sampler(x, den, part_cfg, sched,
                                 hyp_offset=off).poses)
    assert np.array_equal(np.concatenate(parts), full.poses)


def test_sample_prefix_stability():
    # growing H leaves earlier hypotheses bitwise unchanged
    sched = make_cosine_schedule(60)
    gt, x = _setup(4)
    den = NoisyOracle(gt, 25.0, seed=1)
    small = run_sampler(x, den, SamplerConfig(hypotheses=3, iterations=4,
                                              seed=5), sched)
    large = run_sampler(x, den, SamplerConfig(hypotheses=8, iterations=4,
                                              seed=5), sched)
    assert np.array_equal(large.poses[:3], small.poses)


def test_mlp_prefix_stability_every_flip_mode():
    # the prefix promise must hold with a network too, whose matmuls
    # round differently for different row counts
    sched = make_cosine_schedule(200)
    den = MlpDenoiser(init_params(DEFAULT_SKELETON.num_joints), 200)
    # BLAS blocks 256 rows differently from 4
    for frames in (4, 256):
        _, x = gen_poses(ScenarioConfig(pose_count=1, frames_per_pose=frames,
                                        seed=2))[0]
        for mode in FlipMode:
            out = {h: run_sampler(x, den, SamplerConfig(
                       hypotheses=h, iterations=10, seed=3,
                       flip_mode=mode), sched, DEFAULT_SKELETON, 1000.0).poses
                   for h in (5, 20)}
            assert np.array_equal(out[20][:5], out[5]), (frames, mode)


def test_sample_trace_last_equals_sample():
    sched = make_cosine_schedule(80)
    gt, x = _setup(5)
    den = ContractiveOracle(gt, 0.4)
    cfg = SamplerConfig(hypotheses=3, iterations=6, seed=2)
    trace = []
    final = run_sampler(x, den, cfg, sched, trace=trace)
    assert len(trace) == 6
    assert np.array_equal(trace[-1].poses, final.poses)
    assert np.array_equal(run_sampler(x, den, cfg, sched).poses, final.poses)


@pytest.mark.parametrize("flip_mode", [FlipMode.NONE, FlipMode.DIFFUSION])
def test_mlp_trace_entries_own_their_memory(flip_mode):
    # every trace entry, and the result, must be an array of its own: a
    # view of a buffer the chain or the denoiser reuses would change
    # under the caller
    sched = make_cosine_schedule(60)
    den = MlpDenoiser(init_params(DEFAULT_SKELETON.num_joints,
                                  hidden_width=16), 60)
    _, x = gen_poses(ScenarioConfig(pose_count=1, frames_per_pose=5,
                                    seed=4))[0]
    cfg = SamplerConfig(hypotheses=3, iterations=4, seed=8,
                        flip_mode=flip_mode)
    trace = []
    out = run_sampler(x, den, cfg, sched, DEFAULT_SKELETON, 1000.0,
                      trace=trace)
    arrays = [step.poses for step in trace] + [out.poses]
    assert len(trace) == 4
    for i, a in enumerate(arrays):
        for b in arrays[i + 1:]:
            assert not np.shares_memory(a, b)
    assert np.array_equal(trace[-1].poses, out.poses)
    assert not all(np.array_equal(trace[0].poses, step.poses)
                   for step in trace[1:])


@pytest.mark.bitwise
def test_mlp_denoiser_reused_across_shapes_matches_fresh():
    # one denoiser queried at a small, a large, a middle and the small
    # shape again gives what a fresh denoiser gives for each; then six
    # threads, more than the cores, query it at once, two at each shape.
    # 20 hypotheses of 80 frames run in blocks of 6 and a last one of 2
    sched = make_cosine_schedule(60)
    params = init_params(DEFAULT_SKELETON.num_joints, hidden_width=32)
    shared = MlpDenoiser(params, 60)
    shapes = ((3, 5), (20, 256), (20, 80), (3, 5))
    runs = {}
    for hypotheses, frames in shapes:
        _, x = gen_poses(ScenarioConfig(pose_count=1, frames_per_pose=frames,
                                        seed=6))[0]
        for mode in FlipMode:
            cfg = SamplerConfig(hypotheses=hypotheses, iterations=3, seed=9,
                                flip_mode=mode)
            got = run_sampler(x, shared, cfg, sched, DEFAULT_SKELETON, 1000.0)
            want = run_sampler(x, MlpDenoiser(params, 60), cfg, sched,
                               DEFAULT_SKELETON, 1000.0)
            key = hypotheses, frames, mode
            assert np.array_equal(got.poses, want.poses), key
            runs[key] = x, cfg, want.poses

    barrier = threading.Barrier(6)
    got = {}

    def query(i, key):
        x, cfg, _ = runs[key]
        barrier.wait(timeout=60)
        got[i, key] = run_sampler(x, shared, cfg, sched, DEFAULT_SKELETON,
                                  1000.0).poses

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for mode in FlipMode:
            threads = [threading.Thread(target=query, args=(i, (*shape, mode)))
                       for i in range(2) for shape in shapes[:3]]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
            assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(interval)
    for (i, key), poses in got.items():
        assert np.array_equal(poses, runs[key][2]), (i, key)
    assert len(got) == 6 * len(FlipMode)


def _query_bytes(params, n, rows):
    """Bytes of the float32 arrays one MLP query over N frames holds
    while it runs a block of ``rows`` rows: the block's state and each
    layer's output, the scaled keypoints and their term of the first
    layer."""
    j, width = params.num_joints, params.hidden_width
    block = rows * (j * 3 + sum(w.shape[0] for w in params.weights)) * 4
    return block + n * (j * 2 + width) * 4


def _traced_query(params, h, n):
    """(peak, held): the bytes one H x N query on a fresh MlpDenoiser
    traces beyond what it started with, at its peak and on return,
    after a warm-up query on another instance makes the float32
    weights. The keypoints are read-only, as the sampler passes them,
    so the query takes them uncopied."""
    j = params.num_joints
    rng = np.random.default_rng(12)
    y = rng.normal(scale=300.0, size=(h, n, j, 3))
    x = rng.uniform(0.0, 1000.0, size=(n, j, 2))
    x.setflags(write=False)
    out = np.empty_like(y)
    MlpDenoiser(params, 50).predict_clean(y, x, 20, out)
    den = MlpDenoiser(params, 50)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        den.predict_clean(y, x, 20, out)
        now, peak = tracemalloc.get_traced_memory()
        return peak - before, now - before
    finally:
        tracemalloc.stop()


def test_mlp_query_holds_one_block():
    # an H=20, N=256 query holds the state and layer outputs of one
    # block of about ROWS_PER_BLOCK rows, not of all 5120, beside its
    # keypoint arrays. The allowance, far below one block, is for
    # numpy's float64 buffer casting the scaled keypoints to float32,
    # the timestep embedding and Python's own small objects.
    h, n = 20, 256
    params = init_params(DEFAULT_SKELETON.num_joints)
    rows = max(1, min(h, ROWS_PER_BLOCK // n)) * n
    assert rows < h * n
    query = _query_bytes(params, n, rows)
    peak, _ = _traced_query(params, h, n)
    assert query <= peak < query + np.getbufsize() * 8 + 16 * 1024


def test_mlp_query_keeps_nothing():
    # each query drops the arrays it made: the denoiser holds no state
    # between queries
    params = init_params(DEFAULT_SKELETON.num_joints)
    _, held = _traced_query(params, 20, 256)
    assert held < 1024


def _sampling_peak(x, params, cfg, out=None):
    """Bytes ``run_sampler`` traces beyond what it started with, on a
    fresh MlpDenoiser after a warm-up call."""
    sched = make_cosine_schedule(50)
    # the float32 weights and the row ids are made once, not per call
    run_sampler(x, MlpDenoiser(params, 50), cfg, sched, DEFAULT_SKELETON,
                1000.0)
    den = MlpDenoiser(params, 50)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        run_sampler(x, den, cfg, sched, DEFAULT_SKELETON, 1000.0, out=out)
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def test_sampling_allocates_nothing_state_sized_but_its_buffers(monkeypatch):
    # numpy's buffers are traced: one call peaks below its result, the
    # chain's state and millimeter state, the arrays of one MLP query and
    # half a state array for everything else, so no step may make a
    # state-sized temporary
    monkeypatch.setattr(sampler, "_usable_cpus", lambda: 1)
    h, n, j = 8, 128, DEFAULT_SKELETON.num_joints
    assert len(sampler._chunks(h, n)) == 1
    _, x = gen_poses(ScenarioConfig(pose_count=1, frames_per_pose=n,
                                    seed=2))[0]
    cfg = SamplerConfig(hypotheses=h, iterations=4, seed=3,
                        flip_mode=FlipMode.DIFFUSION)
    params = init_params(j)
    peak = _sampling_peak(x, params, cfg)
    state = h * n * j * 3 * 8
    query = _query_bytes(params, n, max(1, min(h, ROWS_PER_BLOCK // n)) * n)
    assert peak < 3 * state + query + state // 2


def test_flip_peaks_hold_one_array_per_flip_mode(monkeypatch):
    # numpy's buffers are traced. Flip diffusion runs its queries in
    # place, so beyond what flip none holds it adds one hypothesis, the
    # temporary of its flips, and the flipped keypoints; flip once adds
    # a third state array, its second chain's estimate, and little else.
    # A frame slice of a larger stack as out holds the diffusion bound:
    # np.take into a non-contiguous out would buffer a whole copy of it.
    # The allowance is for Python's own small objects, far below one
    # hypothesis.
    monkeypatch.setattr(sampler, "_usable_cpus", lambda: 1)
    h, n, j = 8, 128, DEFAULT_SKELETON.num_joints
    _, x = gen_poses(ScenarioConfig(pose_count=1, frames_per_pose=n,
                                    seed=2))[0]
    params = init_params(j)
    state = h * n * j * 3 * 8
    hypothesis = n * j * 3 * 8
    keypoints = x.joints.nbytes
    small = state // 64
    stack = np.empty((h, n + 5, j, 3))
    for out in (None, stack[:, 3:3 + n]):
        peaks = {mode: _sampling_peak(x, params, SamplerConfig(
                     hypotheses=h, iterations=4, seed=3, flip_mode=mode),
                     out)
                 for mode in FlipMode}
        assert (peaks[FlipMode.DIFFUSION]
                <= peaks[FlipMode.NONE] + hypothesis + keypoints + small)
        assert peaks[FlipMode.ONCE] <= peaks[FlipMode.DIFFUSION] + state


@pytest.mark.parametrize("mode", [FlipMode.ONCE, FlipMode.DIFFUSION])
def test_flipped_queries_share_one_keypoint_buffer(monkeypatch, mode):
    # run_sampler flips the keypoints once and freezes them, so every
    # flipped query of the call reads that one buffer, uncopied, as the
    # plain queries read the input's; the hypotheses equal those of
    # queries that each read a fresh copy of their keypoints. The spy
    # holds every buffer it sees, so no two copies can share an address
    real = denoise.denoise
    seen = []

    def spy(y_t, x, *args, **kwargs):
        seen.append(x.joints)
        return real(y_t, x, *args, **kwargs)

    def copying(y_t, x, *args, **kwargs):
        return real(y_t, PoseSeq2D(x.joints.copy()), *args, **kwargs)

    _, x = gen_poses(ScenarioConfig(pose_count=1, frames_per_pose=16,
                                    seed=4))[0]
    den = MlpDenoiser(init_params(DEFAULT_SKELETON.num_joints,
                                  hidden_width=16), 50)
    cfg = SamplerConfig(hypotheses=6, iterations=5, seed=8, flip_mode=mode)
    sched = make_cosine_schedule(50)
    runs = []
    for query in (spy, copying):
        monkeypatch.setattr(denoise, "denoise", query)
        runs.append(run_sampler(x, den, cfg, sched, DEFAULT_SKELETON,
                                1000.0).poses)
    flipped = [kp for kp in seen if kp is not x.joints]
    assert len(flipped) == len(seen) // 2 >= cfg.iterations
    assert all(kp is flipped[0] for kp in flipped)
    assert not flipped[0].flags.writeable
    assert np.array_equal(runs[0], runs[1])


def test_perfect_oracle_collapses_immediately():
    sched = make_cosine_schedule(100)
    gt, x = _setup(6)
    den = PerfectOracle(gt)
    for mode in (SigmaMode.STOCHASTIC, SigmaMode.DETERMINISTIC):
        cfg = SamplerConfig(hypotheses=4, iterations=3, seed=3,
                            sigma_mode=mode)
        hs = run_sampler(x, den, cfg, sched)
        for h in range(4):
            assert np.array_equal(hs.poses[h], gt.joints)


def test_contractive_error_decreases_over_iterations():
    sched = make_cosine_schedule(1000)
    gt, x = _setup(7)
    den = ContractiveOracle(gt, 0.5)
    for mode in (SigmaMode.STOCHASTIC, SigmaMode.DETERMINISTIC):
        cfg = SamplerConfig(hypotheses=4, iterations=10, seed=11,
                            sigma_mode=mode)
        trace = []
        run_sampler(x, den, cfg, sched, trace=trace)
        errs = [np.mean([mpjpe(step[h], gt)
                         for h in range(cfg.hypotheses)]) for step in trace]
        assert all(a > b for a, b in zip(errs, errs[1:]))


def test_sampler_config_validation():
    with pytest.raises(ValueError):
        SamplerConfig(hypotheses=0)
    with pytest.raises(ValueError):
        SamplerConfig(iterations=0)


def test_schedule_mismatch_rejected(monkeypatch):
    # a schedule shorter than the iterations is refused before any draw
    gt, x = _setup(8)
    den = PerfectOracle(gt)
    cfg = SamplerConfig(hypotheses=1, iterations=60)

    def no_draw(*args, **kwargs):
        raise AssertionError("drew before the check")
    monkeypatch.setattr("posediff.sampler.hypothesis_normals", no_draw)
    with pytest.raises(ValueError, match="iterations 60 exceeds t_max 50"):
        run_sampler(x, den, cfg, make_cosine_schedule(50))


# --- flip augmentation -------------------------------------------------------

def test_flip_dispatch_and_validation(tri_skeleton):
    sched = make_cosine_schedule(50)
    gt, x = _setup(11)
    den = PerfectOracle(gt)
    none_cfg = SamplerConfig(hypotheses=2, iterations=3)
    once_cfg = SamplerConfig(hypotheses=2, iterations=3,
                             flip_mode=FlipMode.ONCE)
    with pytest.raises(ValueError, match="skeleton and image width"):
        run_sampler(x, den, once_cfg, sched)
    with pytest.raises(ValueError, match="image_width"):
        run_sampler(x, den, once_cfg, sched, tri_skeleton, 0.0)
    # two chains have no single trace; one chain with flipping has one
    with pytest.raises(ValueError, match="trace"):
        run_sampler(x, den, once_cfg, sched, tri_skeleton, 1000.0, trace=[])
    diffusion_cfg = SamplerConfig(hypotheses=2, iterations=3,
                                  flip_mode=FlipMode.DIFFUSION)
    trace = []
    out = run_sampler(x, den, diffusion_cfg, sched, tri_skeleton, 1000.0,
                      trace=trace)
    assert len(trace) == 3 and np.array_equal(trace[-1].poses, out.poses)
    # flip mode none ignores the flip arguments
    noisy = NoisyOracle(gt, 10.0, seed=2)
    assert np.array_equal(
        run_sampler(x, noisy, none_cfg, sched, tri_skeleton, 1000.0).poses,
        run_sampler(x, noisy, none_cfg, sched).poses)


def test_flip_requires_mirror_pairs(chain_skeleton):
    sched = make_cosine_schedule(50)
    rng = np.random.default_rng(12)
    gt = random_pose(rng, frames=1, joints=5)
    x = random_keypoints(rng, frames=1, joints=5)
    cfg = SamplerConfig(hypotheses=1, iterations=2,
                        flip_mode=FlipMode.ONCE)
    with pytest.raises(ValueError):
        run_sampler(x, PerfectOracle(gt), cfg, sched, chain_skeleton, 1000.0)


def test_flip_modes_with_perfect_oracle(tri_skeleton):
    # flip(flip(gt)) == gt bitwise, so every flip mode returns gt exactly
    sched = make_cosine_schedule(50)
    gt, x = _setup(14)
    den = PerfectOracle(gt)
    for mode in (FlipMode.ONCE, FlipMode.DIFFUSION):
        cfg = SamplerConfig(hypotheses=2, iterations=3, seed=4,
                            flip_mode=mode)
        hs = run_sampler(x, den, cfg, sched, tri_skeleton, 1000.0)
        for h in range(2):
            assert np.array_equal(hs.poses[h], gt.joints)


def test_input_blind_noisy_oracle_makes_flip_modes_coincide(tri_skeleton):
    # the noisy oracle keys draws only on (t, hypothesis, branch), so the
    # per-step flip average and the end average perform the identical
    # float operations and must agree bitwise; both differ from no-flip
    sched = make_cosine_schedule(60)
    gt, x = _setup(15)
    den = NoisyOracle(gt, 20.0, seed=8)

    def run(mode):
        cfg = SamplerConfig(hypotheses=4, iterations=5, seed=10,
                            flip_mode=mode)
        return run_sampler(x, den, cfg, sched, tri_skeleton, 1000.0).poses

    once = run(FlipMode.ONCE)
    diffusion = run(FlipMode.DIFFUSION)
    plain = run(FlipMode.NONE)
    assert np.array_equal(once, diffusion)
    assert not np.array_equal(once, plain)


def test_flip_average_formula(tri_skeleton):
    # H=1, K=1: once-mode output must be exactly the average of the two
    # oracle branches, the mirrored one flipped back
    sched = make_cosine_schedule(50)
    gt, x = _setup(16, frames=1)
    den = NoisyOracle(gt, 20.0, seed=3)
    cfg = SamplerConfig(hypotheses=1, iterations=1, seed=1,
                        flip_mode=FlipMode.ONCE)
    out = run_sampler(x, den, cfg, sched, tri_skeleton, 1000.0).poses

    shape = (1, 1, 3, 3)
    plain = den.predict_clean(np.zeros(shape), x.joints, 50,
                              np.empty(shape), hyp_offset=0)
    other = den.predict_clean(np.zeros(shape), x.joints, 50,
                              np.empty(shape), hyp_offset=0,
                              mirrored=tri_skeleton)
    expect = (plain + flip_array3d(other, tri_skeleton)) / 2.0
    assert np.array_equal(out, expect)


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 2 ** 16))
def test_sample_shape_and_finiteness(seed):
    sched = make_cosine_schedule(30)
    rng = np.random.default_rng(seed)
    gt = random_pose(rng, frames=1, joints=3)
    x = random_keypoints(rng, frames=1, joints=3)
    cfg = SamplerConfig(hypotheses=2, iterations=3, seed=seed)
    hs = run_sampler(x, ContractiveOracle(gt, 0.5), cfg, sched)
    assert hs.poses.shape == (2, 1, 3, 3)
    assert np.all(np.isfinite(hs.poses))


# --- non-finite denoiser output ----------------------------------------------

class _NanAt(Denoiser):
    """Zeros, except one NaN at step ``t`` for global hypothesis
    ``plain`` of the plain query and ``mirrored`` of the mirrored one;
    None fails no hypothesis."""

    def __init__(self, t: int, plain: int | None, mirrored: int | None):
        self.t, self.plain, self.mirrored = t, plain, mirrored

    def predict_clean(self, y_t, x, t, out, *, hyp_offset=0, mirrored=None):
        out.fill(0.0)
        h = self.plain if mirrored is None else self.mirrored
        if (t == self.t and h is not None
                and hyp_offset <= h < hyp_offset + len(out)):
            out[h - hyp_offset, -1, 1, 2] = np.nan
        return out


@pytest.mark.parametrize("flip_mode", list(FlipMode))
def test_non_finite_estimate_names_step_and_hypothesis(tri_skeleton,
                                                       flip_mode):
    sched = make_cosine_schedule(50)
    _, x = _setup(5)
    cfg = SamplerConfig(hypotheses=3, iterations=4,
                        flip_mode=flip_mode)
    t = timestep_ladder(50, 4)[2]
    with pytest.raises(NumericError,
                       match=f"^step t={t}: hypothesis 6: ") as info:
        run_sampler(x, _NanAt(t, 6, 6), cfg, sched, tri_skeleton, 1000.0,
                    hyp_offset=5)
    assert info.value.hypothesis == 6


@pytest.mark.parametrize("plain, mirrored, named", [
    (None, 6, 6),  # the mirrored query alone fails
    (7, 5, 5),     # both fail: the lower hypothesis of the average
])
def test_diffusion_flip_screens_the_averaged_estimate(tri_skeleton, plain,
                                                      mirrored, named):
    sched = make_cosine_schedule(50)
    _, x = _setup(5)
    cfg = SamplerConfig(hypotheses=10, iterations=4,
                        flip_mode=FlipMode.DIFFUSION)
    t = timestep_ladder(50, 4)[1]
    with pytest.raises(NumericError,
                       match=f"^step t={t}: hypothesis {named}: ") as info:
        run_sampler(x, _NanAt(t, plain, mirrored), cfg, sched,
                    tri_skeleton, 1000.0)
    assert info.value.hypothesis == named


@pytest.mark.parametrize("flip_mode", list(FlipMode))
def test_non_finite_mlp_output_names_step_and_hypothesis(tri_skeleton,
                                                         flip_mode):
    # a last layer that overflows: every output is non-finite, so the
    # first bad hypothesis is the batch's first
    sched = make_cosine_schedule(50)
    _, x = _setup(6)
    params = init_params(x.num_joints, hidden_width=8, hidden_layers=1)
    params = type(params)(
        weights=(params.weights[0], np.full_like(params.weights[1], 1e308)),
        biases=params.biases)
    cfg = SamplerConfig(hypotheses=2, iterations=3, flip_mode=flip_mode)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
            NumericError, match="^step t=50: hypothesis 4: ") as info:
        run_sampler(x, MlpDenoiser(params, 50), cfg, sched, tri_skeleton,
                    1000.0, hyp_offset=4)
    assert info.value.hypothesis == 4


def test_overflowing_first_layer_names_step_and_hypothesis(tri_skeleton):
    # every weight, the first layer's too, is infinite in float32: the
    # split of the first layer is cut from the float32 weights on the
    # first query, inside the sampler's errstate, and every output is
    # non-finite
    sched = make_cosine_schedule(50)
    _, x = _setup(6)
    params = init_params(x.num_joints, hidden_width=8, hidden_layers=1)
    params = type(params)(
        weights=tuple(np.full_like(w, 1e308) for w in params.weights),
        biases=params.biases)
    cfg = SamplerConfig(hypotheses=2, iterations=3)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
            NumericError, match="^step t=50: hypothesis 4: ") as info:
        run_sampler(x, MlpDenoiser(params, 50), cfg, sched, tri_skeleton,
                    1000.0, hyp_offset=4)
    assert info.value.hypothesis == 4


# --- chains of one sequence sharing their draws ------------------------------

def _noise_keys(cfg: SamplerConfig, t_max: int) -> set[tuple]:
    """The (label, branch) keys a chain at ``cfg`` draws under: ``once``
    runs a second chain on branch 1, and the denoiser of a flipped
    chain draws on branch 1 for the mirrored query."""
    ladder = timestep_ladder(t_max, cfg.iterations)
    chains = (0, 1) if cfg.flip_mode is FlipMode.ONCE else (0,)
    queries = (0,) if cfg.flip_mode is FlipMode.NONE else (0, 1)
    return ({("init", b) for b in chains}
            | {("ddim", t, b) for t in ladder[:-1] for b in chains}
            | {("oracle", t, b) for t in ladder for b in queries})


@pytest.mark.parametrize("ks, kept_none", [((5, 10), [10, 10]),
                                           ((10, 5), [20, 20]),
                                           ((3, 2), [6, 6]),
                                           ((10,), [0])])
@pytest.mark.parametrize("flip", [FlipMode.NONE, FlipMode.ONCE,
                                  FlipMode.DIFFUSION])
def test_chains_in_one_scope_equal_chains_apart(monkeypatch, tri_skeleton,
                                                ks, kept_none, flip):
    # every chain but the last holds what it draws: with t_max 50, K=5's
    # initial state, 4 DDIM and 5 oracle draws lie on K=10's ladder, and
    # K=3 and K=2 share their initial state and t=50; each chain's draws
    # are the same, served or new
    sched = make_cosine_schedule(50)
    gt, x = _setup(6, frames=3)
    den = NoisyOracle(gt, 20.0, seed=3)
    cfgs = [SamplerConfig(hypotheses=4, iterations=k, seed=2, flip_mode=flip)
            for k in ks]
    apart = [run_sampler(x, den, cfg, sched, tri_skeleton, 1000.0).poses
             for cfg in cfgs]
    calls = [0]
    real = RngStream.standard_normal

    def counted(self, shape=(), out=None):
        calls[0] += 1
        return real(self, shape, out=out)
    monkeypatch.setattr(RngStream, "standard_normal", counted)
    together, held = [], []
    with serve_repeats() as served:
        for j, cfg in enumerate(cfgs):
            served.keep = j + 1 < len(cfgs)
            together.append(run_sampler(x, den, cfg, sched, tri_skeleton,
                                        1000.0).poses)
            held.append(len(served._held))
    for a, b in zip(apart, together):
        assert np.array_equal(a, b)
    keys = [_noise_keys(cfg, 50) for cfg in cfgs]
    # every chain but the last holds its keys; the last adds none
    holding = [len(set().union(*keys[:j + 1])) for j in range(len(cfgs) - 1)]
    assert held == holding + (holding[-1:] or [0])
    if flip is FlipMode.NONE:
        assert held == kept_none
    # every distinct key is drawn once, one call per hypothesis row
    assert calls[0] == 4 * len(set().union(*keys))
