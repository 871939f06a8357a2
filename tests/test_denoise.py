import json
import re
import tracemalloc

import numpy as np
import pytest

from posediff.core import DEFAULT_SKELETON, HypothesisSet, PoseSeq2D
from posediff.denoise import (ContractiveOracle, DenoiserParams, MlpDenoiser,
                              NoisyOracle, PerfectOracle, TrainConfig, denoise, eps_to_y0, grad_loss,
                              init_params, load_checkpoint, save_checkpoint,
                              timestep_embedding, train, TrainBatch, y0_to_eps)
from posediff.errors import ShapeError, TrainingDivergedError
from posediff.rng import (RngStream, hypothesis_normals, serve_repeats,
                          stream_id)
from posediff.schedule import diffuse_array, make_cosine_schedule

from conftest import random_keypoints, random_pose


# --- timestep embedding ------------------------------------------------------

def test_embedding_at_zero_alternates():
    emb = timestep_embedding(0.0, 8)
    assert np.array_equal(emb, [0.0, 1.0] * 4)


def test_embedding_small_case_frozen():
    emb = timestep_embedding(1.0, 2)
    assert emb[0] == 0.8414709848078965
    assert emb[1] == 0.5403023058681398


def test_embedding_bounded():
    for t in (0.0, 1.0, 57.0, 999.0):
        emb = timestep_embedding(t, 64)
        assert np.all(np.abs(emb) <= 1.0)


def test_embedding_of_array_stacks_scalar_embeddings():
    ts = np.array([0.0, 1.0, 57.0, 999.0])
    emb = timestep_embedding(ts, 64)
    assert emb.shape == (4, 64)
    for row, t in zip(emb, ts):
        assert np.array_equal(row, timestep_embedding(float(t), 64))


def test_embedding_rejects_odd_or_tiny_dim():
    with pytest.raises(ValueError):
        timestep_embedding(1.0, 7)
    with pytest.raises(ValueError):
        timestep_embedding(1.0, 0)


# --- parameter container -----------------------------------------------------

def _tiny_params(j=2, w=4, out_bias=None):
    weights = (np.zeros((w, j * 5)), np.zeros((j * 3, w)))
    biases = (np.zeros(w),
              np.zeros(j * 3) if out_bias is None else np.asarray(out_bias, float))
    return DenoiserParams(weights=weights, biases=biases)


def test_params_validation():
    with pytest.raises(ShapeError):
        DenoiserParams(weights=(np.zeros((4, 10)),), biases=(np.zeros(4),))
    with pytest.raises(ShapeError):  # fan-in chain broken
        DenoiserParams(weights=(np.zeros((4, 10)), np.zeros((6, 5))),
                       biases=(np.zeros(4), np.zeros(6)))
    with pytest.raises(ShapeError):  # first fan-in not a multiple of 5
        DenoiserParams(weights=(np.zeros((4, 9)), np.zeros((6, 4))),
                       biases=(np.zeros(4), np.zeros(6)))
    with pytest.raises(ShapeError):  # wrong output width
        DenoiserParams(weights=(np.zeros((4, 10)), np.zeros((5, 4))),
                       biases=(np.zeros(4), np.zeros(5)))
    with pytest.raises(ValueError):
        DenoiserParams(weights=(np.full((4, 10), np.nan), np.zeros((6, 4))),
                       biases=(np.zeros(4), np.zeros(6)))
    for width in (5, 0):  # the timestep embedding needs an even width >= 2
        with pytest.raises(ShapeError, match=f"first hidden width .* {width}$"):
            DenoiserParams(weights=(np.zeros((width, 10)), np.zeros((6, width))),
                           biases=(np.zeros(width), np.zeros(6)))


def test_params_are_frozen_copies():
    w0 = np.zeros((4, 10))
    p = DenoiserParams(weights=(w0, np.zeros((6, 4))),
                       biases=(np.zeros(4), np.zeros(6)))
    w0[0, 0] = 99.0  # caller's array, not the stored one
    assert p.weights[0][0, 0] == 0.0
    with pytest.raises(ValueError):
        p.weights[0][0, 0] = 1.0
    assert p.num_joints == 2
    assert p.hidden_width == 4
    assert p.num_layers == 2


def test_init_params_deterministic():
    a = init_params(3, hidden_width=8, rng=RngStream(5, stream_id("x")))
    b = init_params(3, hidden_width=8, rng=RngStream(5, stream_id("x")))
    for wa, wb in zip(a.weights, b.weights):
        assert np.array_equal(wa, wb)
    assert all(np.all(b == 0.0) for b in a.biases)
    with pytest.raises(ValueError):
        init_params(3, hidden_width=7)
    with pytest.raises(ValueError):
        init_params(3, hidden_layers=0)


# --- forward pass ------------------------------------------------------------

def test_zero_weights_emit_output_bias():
    bias = np.arange(6.0)
    params = _tiny_params(out_bias=bias)
    y_t = HypothesisSet(np.random.default_rng(0).normal(size=(3, 2, 2, 3)))
    x = random_keypoints(np.random.default_rng(1), frames=2, joints=2)
    out = denoise(y_t, x, 4, params, 10, np.empty((3, 2, 2, 3)))
    expect = np.broadcast_to(bias.reshape(2, 3), (3, 2, 2, 3))
    np.testing.assert_array_equal(out, expect)


def test_denoise_validates_shapes():
    params = _tiny_params()
    y = HypothesisSet(np.zeros((1, 2, 2, 3)))
    x = PoseSeq2D(np.zeros((2, 2, 2)))
    with pytest.raises(ValueError):
        denoise(y, x, 11, params, 10, np.empty((1, 2, 2, 3)))
    with pytest.raises(ShapeError):
        denoise(y, PoseSeq2D(np.zeros((3, 2, 2))), 1, params, 10,
                np.empty((1, 2, 2, 3)))
    with pytest.raises(ShapeError):
        denoise(HypothesisSet(np.zeros((1, 2, 3, 3))),
                PoseSeq2D(np.zeros((2, 3, 2))), 1, params, 10,
                np.empty((1, 2, 3, 3)))


def test_network_reads_its_conditioning():
    params = init_params(2, hidden_width=8,
                         rng=RngStream(1, stream_id("cond")))
    y = HypothesisSet(np.zeros((1, 1, 2, 3)))
    xa = PoseSeq2D(np.full((1, 2, 2), 100.0))
    xb = PoseSeq2D(np.full((1, 2, 2), 900.0))
    oa = denoise(y, xa, 3, params, 10, np.empty((1, 1, 2, 3)))
    ob = denoise(y, xb, 3, params, 10, np.empty((1, 1, 2, 3)))
    assert not np.allclose(oa, ob)


# --- conversions -------------------------------------------------------------

def test_eps_y0_round_trip():
    sched = make_cosine_schedule(100)
    rng = np.random.default_rng(6)
    y0 = rng.normal(size=(2, 3, 3))
    eps = rng.normal(size=(2, 3, 3))
    for t in (1, 37, 100):
        y_t = diffuse_array(y0, t, sched, eps)
        np.testing.assert_allclose(eps_to_y0(y_t, eps, t, sched), y0,
                                   rtol=1e-9, atol=1e-12)
        np.testing.assert_allclose(y0_to_eps(y_t, y0, t, sched), eps,
                                   rtol=1e-9, atol=1e-12)


def test_y0_to_eps_undefined_at_zero():
    sched = make_cosine_schedule(10)
    with pytest.raises(ValueError):
        y0_to_eps(np.zeros((1, 1, 3)), np.zeros((1, 1, 3)), 0, sched)


# --- loss and gradients ------------------------------------------------------

def _random_batch(rng, j, b):
    return TrainBatch(inputs=rng.normal(size=(b, j * 5)),
                      timesteps=rng.uniform(0, 50, size=b),
                      targets=rng.normal(size=(b, j * 3)))


def test_grad_matches_finite_differences():
    rng = np.random.default_rng(7)
    params = init_params(2, hidden_width=4, hidden_layers=2,
                         rng=RngStream(3, stream_id("fd")))
    batch = _random_batch(rng, 2, 3)
    loss, g_w, g_b = grad_loss(params, batch)
    h = 1e-6

    def loss_at(layer, idx, delta, kind):
        ws = [w.copy() for w in params.weights]
        bs = [b.copy() for b in params.biases]
        (ws if kind == "w" else bs)[layer][idx] += delta
        p = DenoiserParams(weights=tuple(ws), biases=tuple(bs))
        return grad_loss(p, batch)[0]

    for layer in range(params.num_layers):
        w = params.weights[layer]
        for idx in [(0, 0), (w.shape[0] - 1, w.shape[1] - 1), (0, w.shape[1] // 2)]:
            fd = (loss_at(layer, idx, h, "w") - loss_at(layer, idx, -h, "w")) / (2 * h)
            assert g_w[layer][idx] == pytest.approx(fd, rel=1e-4, abs=1e-8)
        for idx in (0, params.biases[layer].shape[0] - 1):
            fd = (loss_at(layer, idx, h, "b") - loss_at(layer, idx, -h, "b")) / (2 * h)
            assert g_b[layer][idx] == pytest.approx(fd, rel=1e-4, abs=1e-8)


def test_grad_invariant_under_sample_duplication():
    rng = np.random.default_rng(8)
    params = init_params(2, hidden_width=4,
                         rng=RngStream(4, stream_id("dup")))
    batch = _random_batch(rng, 2, 3)
    doubled = TrainBatch(inputs=np.concatenate([batch.inputs] * 2),
                         timesteps=np.concatenate([batch.timesteps] * 2),
                         targets=np.concatenate([batch.targets] * 2))
    loss1, gw1, gb1 = grad_loss(params, batch)
    loss2, gw2, gb2 = grad_loss(params, doubled)
    assert loss1 == pytest.approx(loss2, rel=1e-12)
    for a, b in zip(gw1 + gb1, gw2 + gb2):
        np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-15)


# --- training ----------------------------------------------------------------

def _one_frame_dataset(seed=0):
    rng = np.random.default_rng(seed)
    gt = random_pose(rng, frames=1, joints=3)
    kp = random_keypoints(rng, frames=1, joints=3)
    return [(kp, gt)]


def test_train_zero_lr_keeps_init():
    sched = make_cosine_schedule(20)
    cfg = TrainConfig(steps=5, batch_size=2, learning_rate=0.0,
                      hidden_width=4, hidden_layers=1, seed=9)
    res = train(_one_frame_dataset(), cfg, sched)
    ref = init_params(3, hidden_width=4, hidden_layers=1,
                      rng=RngStream(9, stream_id("train", "init")))
    # training runs in float32: the initial weights, rounded to it
    for a, b in zip(res.params.weights, ref.weights):
        assert np.array_equal(a, b.astype(np.float32))


def test_train_deterministic():
    sched = make_cosine_schedule(20)
    cfg = TrainConfig(steps=30, batch_size=4, hidden_width=8,
                      hidden_layers=1, seed=11)
    r1 = train(_one_frame_dataset(1), cfg, sched)
    r2 = train(_one_frame_dataset(1), cfg, sched)
    assert np.array_equal(r1.loss_history, r2.loss_history)
    for a, b in zip(r1.params.weights, r2.params.weights):
        assert np.array_equal(a, b)
    assert r1.final_loss == r1.loss_history[-1]
    assert len(r1.loss_history) == 30


def test_train_overfits_single_sample():
    sched = make_cosine_schedule(50)
    cfg = TrainConfig(steps=5000, batch_size=8, learning_rate=3e-3,
                      hidden_width=32, hidden_layers=2, seed=2)
    res = train(_one_frame_dataset(2), cfg, sched)
    assert res.final_loss < 1e-3


@pytest.mark.parametrize("learning_rate, step",
                         [(30.0, 58), (1e2, 18), (1e3, 8), (1e6, 3),
                          (1e18, 1), (1e200, 1), (1e300, 1)])
def test_train_divergence_reports_step(learning_rate, step):
    # the step at which the float32 loss or a gradient first turns
    # non-finite; 1e200 and 1e300 round to an infinite float32 rate
    sched = make_cosine_schedule(20)
    cfg = TrainConfig(steps=200, batch_size=4, learning_rate=learning_rate,
                      hidden_width=4, hidden_layers=1, seed=3)
    with pytest.raises(TrainingDivergedError) as info:
        train(_one_frame_dataset(3), cfg, sched)
    assert info.value.step == step
    assert str(info.value) == (f"training diverged at step {step}: loss or "
                               f"gradient became non-finite")


def test_train_validates_inputs():
    sched = make_cosine_schedule(20)
    with pytest.raises(ValueError):
        train([], TrainConfig(), sched)
    with pytest.raises(ValueError):
        TrainConfig(steps=0)
    with pytest.raises(ValueError):
        TrainConfig(learning_rate=-1.0)


# --- checkpoints -------------------------------------------------------------

def test_checkpoint_round_trip(tmp_path):
    params = init_params(3, hidden_width=8,
                         rng=RngStream(7, stream_id("ckpt")))
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, params, t_max=123)
    loaded, header = load_checkpoint(path)
    assert "target" not in header
    assert header["t_max"] == 123
    assert header["signal_scale"] == 2.0
    for a, b in zip(loaded.weights, params.weights):
        assert np.array_equal(a, b)
    for a, b in zip(loaded.biases, params.biases):
        assert np.array_equal(a, b)
    assert header["pixel_scale"] == 0.001
    # the signal and pixel scales are fixed: a model trained at another
    # is refused
    for key, value in (("signal_scale", 1.5), ("pixel_scale", 0.002)):
        save_checkpoint(path, params, t_max=123)
        _edit_header(path, **{key: value})
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: "
                           f".*{key.replace('_', ' ')} {value}"):
            load_checkpoint(path)


def _edit_header(path, **fields):
    """Rewrite the checkpoint's header with ``fields`` set."""
    header, payload = path.read_bytes().split(b"\n", 1)
    doc = {**json.loads(header), **fields}
    path.write_bytes(json.dumps(doc).encode() + b"\n" + payload)


def test_checkpoint_rejects_garbage(tmp_path):
    p = tmp_path / "bad.ckpt"
    p.write_bytes(b"not json\n\x00\x01")
    with pytest.raises(ValueError):
        load_checkpoint(p)
    p.write_bytes(b'{"format": "something-else"}\n')
    with pytest.raises(ValueError):
        load_checkpoint(p)
    p.write_bytes(b"no newline at all")
    with pytest.raises(ValueError):
        load_checkpoint(p)
    # a real checkpoint whose header misstates its version, joints,
    # embedding width or a tensor shape, or says the network predicts
    # the noise
    save_checkpoint(p, init_params(3, hidden_width=4), t_max=10)
    raw = p.read_bytes()
    tensors = json.loads(raw.split(b"\n", 1)[0])["tensors"]
    negative = [{**tensors[0], "shape": [-4, -15]}] + tensors[1:]
    swapped = [{**tensors[0], "shape": [15, 4]}] + tensors[1:]
    for fields, words in (({"version": 99}, "version 99"),
                          ({"num_joints": 5}, "5 joints"),
                          ({"embed_dim": 6}, "embed_dim 6"),
                          ({"tensors": negative}, "'w0' has shape"),
                          ({"tensors": swapped}, r"layer 0: weight \(15, 4\)"),
                          ({"target": "predict_eps"}, "predicts noise")):
        p.write_bytes(raw)
        _edit_header(p, **fields)
        with pytest.raises(ValueError, match=f"^{re.escape(str(p))}: .*{words}"):
            load_checkpoint(p)
    # tensors go w0, b0, w1, b1, ... as save_checkpoint writes them: an
    # extra tensor, a repeated one or an unpaired weight is refused by
    # name, each with a payload that matches its header
    save_checkpoint(p, init_params(3, hidden_width=4, hidden_layers=1),
                    t_max=10)
    header, payload = p.read_bytes().split(b"\n", 1)
    tensors = json.loads(header)["tensors"]
    w0 = payload[:8 * int(np.prod(tensors[0]["shape"]))]
    extra = np.zeros(5).astype("<f8").tobytes()
    for listed, data, words in (
            (tensors + [{"name": "junk", "shape": [5]}], payload + extra,
             "tensor 4 is 'junk', expected 'w2'"),
            ([tensors[0]] + tensors, w0 + payload,
             "tensor 1 is 'w0', expected 'b0'"),
            (tensors + [{"name": "w2", "shape": [5]}], payload + extra,
             "tensor 'b2' is missing")):
        p.write_bytes(header + b"\n" + data)
        _edit_header(p, tensors=listed)
        with pytest.raises(ValueError, match=f"^{re.escape(str(p))}: "
                                             f"checkpoint header: {words}$"):
            load_checkpoint(p)


def test_checkpoint_rejects_values_beyond_float32(tmp_path):
    # inference casts the weights to float32; the largest float32 loads,
    # anything larger in a weight or a bias is refused by name
    params = init_params(3, hidden_width=4,
                         rng=RngStream(13, stream_id("float32_range")))
    top = float(np.finfo(np.float32).max)
    path = tmp_path / "model.ckpt"
    for layer, kind, value, refused in ((0, "w", top, False),
                                        (1, "w", -np.nextafter(top, np.inf), True),
                                        (2, "b", 1e300, True)):
        weights, biases = list(params.weights), list(params.biases)
        group = weights if kind == "w" else biases
        group[layer] = group[layer].copy()
        group[layer].flat[-1] = value
        save_checkpoint(path, DenoiserParams(weights=tuple(weights),
                                             biases=tuple(biases)), t_max=10)
        if refused:
            with pytest.raises(ValueError, match=(
                    f"^{re.escape(str(path))}: tensor '{kind}{layer}' holds "
                    f".*beyond the float32 range")):
                load_checkpoint(path)
        else:
            assert load_checkpoint(path)[0].weights[layer].flat[-1] == value


def test_checkpoint_old_y0_target_field_loads(tmp_path):
    # headers written before the field was dropped say "predict_y0"
    params = init_params(3, hidden_width=8,
                         rng=RngStream(12, stream_id("old_header")))
    new, old = tmp_path / "new.ckpt", tmp_path / "old.ckpt"
    save_checkpoint(new, params, t_max=10)
    save_checkpoint(old, params, t_max=10)
    _edit_header(old, target="predict_y0")
    (a, header), (b, old_header) = load_checkpoint(new), load_checkpoint(old)
    assert old_header.pop("target") == "predict_y0"
    assert header == old_header
    for wa, wb in zip(a.weights + a.biases, b.weights + b.biases):
        assert np.array_equal(wa, wb)
    assert a.embed_dim == b.embed_dim


def test_checkpoint_rejects_truncated_payload(tmp_path):
    params = init_params(2, hidden_width=4,
                         rng=RngStream(8, stream_id("trunc")))
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, params, t_max=10)
    raw = path.read_bytes()
    path.write_bytes(raw[:-16])
    with pytest.raises(ValueError):
        load_checkpoint(path)


def test_mlp_denoiser_from_checkpoint(tmp_path):
    params = init_params(2, hidden_width=4,
                         rng=RngStream(9, stream_id("facade")))
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, params, t_max=40)
    den = MlpDenoiser.from_checkpoint(path)
    assert den.t_max == 40
    y_t = np.random.default_rng(10).normal(scale=500.0, size=(2, 1, 2, 3))
    x = np.random.default_rng(11).uniform(0, 1000, size=(1, 2, 2))
    out = den.predict_clean(y_t, x, 5, np.empty_like(y_t))
    assert out.shape == (2, 1, 2, 3)
    assert np.all(np.isfinite(out))


# --- the predict_clean contract ----------------------------------------------

def _every_denoiser(j, n):
    """One denoiser of each kind for n frames of j joints; the MLP has
    non-zero biases, so every layer's add is seen."""
    rng = np.random.default_rng(22)
    params = init_params(j, rng=RngStream(23, stream_id("in_place")))
    params = DenoiserParams(
        weights=params.weights,
        biases=tuple(rng.normal(scale=0.5, size=b.shape)
                     for b in params.biases))
    gt = random_pose(rng, frames=n, joints=j)
    return [MlpDenoiser(params, 50), PerfectOracle(gt),
            ContractiveOracle(gt, 0.25), NoisyOracle(gt, 20.0, seed=24)]


@pytest.mark.bitwise
@pytest.mark.parametrize("mirrored", [None, DEFAULT_SKELETON])
def test_predict_clean_in_place_matches_separate_out(mirrored):
    # out may be y_t itself: each denoiser reads a hypothesis of y_t
    # before it writes its estimate, so in place gives the same bits
    h, n, j = 3, 7, DEFAULT_SKELETON.num_joints
    rng = np.random.default_rng(25)
    y_t = rng.normal(scale=300.0, size=(h, n, j, 3))
    x = rng.uniform(0.0, 1000.0, size=(n, j, 2))
    for den in _every_denoiser(j, n):
        want = den.predict_clean(y_t, x, 20, np.empty_like(y_t),
                                 hyp_offset=2, mirrored=mirrored)
        y = y_t.copy()
        got = den.predict_clean(y, x, 20, y, hyp_offset=2,
                                mirrored=mirrored)
        assert got is y
        assert np.array_equal(got, want), type(den).__name__


# --- oracles -----------------------------------------------------------------

def test_perfect_oracle_returns_gt(tri_skeleton):
    gt = random_pose(np.random.default_rng(12), frames=2, joints=3)
    den = PerfectOracle(gt)
    y_t = np.random.default_rng(13).normal(size=(4, 2, 3, 3))
    out = den.predict_clean(y_t, None, 5, np.empty_like(y_t))
    assert out.shape == (4, 2, 3, 3)
    for h in range(4):
        assert np.array_equal(out[h], gt.joints)


def test_perfect_oracle_mirrored_branch(tri_skeleton):
    from posediff.core import flip_array3d
    gt = random_pose(np.random.default_rng(14), frames=1, joints=3)
    den = PerfectOracle(gt)
    y_t = np.zeros((1, 1, 3, 3))
    out = den.predict_clean(y_t, None, 5, np.empty_like(y_t),
                          mirrored=tri_skeleton)
    assert np.array_equal(out[0], flip_array3d(gt.joints, tri_skeleton))


def test_oracle_shape_check():
    gt = random_pose(np.random.default_rng(15), frames=2, joints=3)
    with pytest.raises(ShapeError):
        PerfectOracle(gt).predict_clean(np.zeros((1, 2, 4, 3)), None, 5,
                                        np.empty((1, 2, 4, 3)))


def test_contractive_oracle_blend():
    gt = random_pose(np.random.default_rng(16), frames=1, joints=3)
    den = ContractiveOracle(gt, 0.25)
    y_t = np.random.default_rng(17).normal(size=(2, 1, 3, 3))
    out = den.predict_clean(y_t, None, 3, np.empty_like(y_t))
    np.testing.assert_allclose(out, 0.25 * gt.joints + 0.75 * y_t, rtol=1e-15)
    with pytest.raises(ValueError):
        ContractiveOracle(gt, 1.0)
    with pytest.raises(ValueError):
        ContractiveOracle(gt, -0.1)


def test_noisy_oracle_keyed_reproducibility():
    gt = random_pose(np.random.default_rng(18), frames=2, joints=3)
    den = NoisyOracle(gt, 20.0, seed=5)
    y_t = np.zeros((4, 2, 3, 3))
    full = den.predict_clean(y_t, None, 9, np.empty_like(y_t))
    again = den.predict_clean(y_t, None, 9, np.empty_like(y_t))
    assert np.array_equal(full, again)
    # batch split: hypotheses keep their draws under any batching
    lo = den.predict_clean(y_t[:2], None, 9, np.empty_like(y_t[:2]),
                           hyp_offset=0)
    hi = den.predict_clean(y_t[2:], None, 9, np.empty_like(y_t[2:]),
                           hyp_offset=2)
    assert np.array_equal(np.concatenate([lo, hi]), full)
    # other timestep, other draw
    other = den.predict_clean(y_t, None, 8, np.empty_like(y_t))
    assert not np.array_equal(other, full)


def test_noisy_oracle_draws_into_out():
    # one query draws its noise into out and scales it there, making no
    # state-sized temporary (numpy's broadcasts buffer at most 8192
    # values); a draw held by serve_repeats and an out whose rows are
    # not contiguous give the same bits
    h, n = 8, 1024
    gt = random_pose(np.random.default_rng(21), frames=n, joints=3)
    den = NoisyOracle(gt, 20.0, seed=7)
    y_t = np.zeros((h, n, 3, 3))
    want = (hypothesis_normals(7, range(h), (n, 3, 3), "oracle_noisy", 6,
                               branch=0) * 20.0 + gt.joints)
    out = np.empty_like(y_t)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        den.predict_clean(y_t, None, 6, out)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak < out.nbytes // 4
    assert np.array_equal(out, want)
    with serve_repeats():
        held = den.predict_clean(y_t, None, 6, np.empty_like(y_t))
        served = den.predict_clean(y_t, None, 6, np.empty_like(y_t))
    strided = np.empty((h, 2 * n, 3, 3))[:, ::2]
    den.predict_clean(y_t, None, 6, strided)
    for got in (held, served, strided):
        assert np.array_equal(got, want)


def test_noisy_oracle_mirror_branch_distinct(tri_skeleton):
    gt = random_pose(np.random.default_rng(19), frames=1, joints=3)
    den = NoisyOracle(gt, 10.0, seed=6)
    y_t = np.zeros((1, 1, 3, 3))
    plain = den.predict_clean(y_t, None, 4, np.empty_like(y_t))
    mirrored = den.predict_clean(y_t, None, 4, np.empty_like(y_t),
                                 mirrored=tri_skeleton)
    assert not np.array_equal(plain, mirrored)


def test_noisy_oracle_sigma_validation():
    gt = random_pose(np.random.default_rng(20), frames=1, joints=3)
    assert np.array_equal(
        NoisyOracle(gt, 0.0).predict_clean(np.zeros((1, 1, 3, 3)), None,
                                           2, np.empty((1, 1, 3, 3)))[0],
        gt.joints)
    with pytest.raises(ValueError):
        NoisyOracle(gt, -1.0)
