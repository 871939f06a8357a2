"""The MLP forward pass and the training loop against textbook code,
bitwise.

The forward reference runs one hypothesis at a time, in float32, and
builds a fresh array for every step: ``h @ w.T + b``, then ``+ emb`` on
the first layer, then ``tanh``. A float64 run of the same loop bounds
how far the float32 pass strays. The training reference, in float64,
is a per-tensor loop:
forward, exact backward pass, and adaptive-moment updates (Kingma & Ba,
2015) with decoupled weight decay (Loshchilov & Hutter, 2019) on the
weight matrices only, each tensor with its own moment arrays. Both run
on the same machine as the library, so any reordering of a
floating-point operation in the library shows as a changed bit.
"""
import numpy as np
import pytest

from posediff.core import HypothesisSet, PoseSeq2D, PoseSeq3D
from posediff.denoise import (ADAM_EPS, PIXEL_SCALE, DenoiserParams,
                              TrainConfig, denoise, init_params,
                              timestep_embedding, train)
from posediff.rng import RngStream, stream_id
from posediff.schedule import diffuse_array, make_cosine_schedule, to_signal_units

J = 5


def _model(width: int = 16, joints: int = J) -> DenoiserParams:
    rng = np.random.default_rng(11)
    dims = [joints * 5, width, width, joints * 3]
    weights = [rng.normal(size=(o, i)) / np.sqrt(i)
               for i, o in zip(dims[:-1], dims[1:])]
    biases = [rng.normal(scale=0.3, size=o) for o in dims[1:]]
    return DenoiserParams(weights=tuple(weights), biases=tuple(biases))


def _reference_forward(model, inputs, emb, dtype=np.float32):
    """Fresh arrays for every step, every value cast to ``dtype`` first;
    ``inputs`` is (rows, J*5)."""
    h = inputs.astype(dtype)
    last = model.num_layers - 1
    for i, (w, b) in enumerate(zip(model.weights, model.biases)):
        z = h @ w.astype(dtype).T + b.astype(dtype)
        if i == 0:
            z = z + emb.astype(dtype)
        h = z if i == last else np.tanh(z)
    return h


def _inputs(hypotheses, frames, joints, seed=3):
    rng = np.random.default_rng(seed)
    y = rng.normal(scale=2.0, size=(hypotheses, frames, joints, 3))
    x = rng.uniform(0.0, 1000.0, size=(frames, joints, 2))
    return y, x


def _features(y, x):
    """(rows, J*5) inputs of one hypothesis ``y``, in float64."""
    feats = np.concatenate([y, x * PIXEL_SCALE], axis=-1)
    return feats.reshape(-1, feats.shape[-2] * 5)


@pytest.mark.parametrize("hypotheses", [1, 3, 20])
@pytest.mark.parametrize("t", [0, 7, 40])
def test_denoise_matches_textbook_forward(hypotheses, t):
    model = _model()
    emb = timestep_embedding(float(t), model.embed_dim)
    # 7 is odd, so no product splits into equal halves; BLAS blocks 256
    # rows differently from a few
    for frames in (4, 7, 256):
        y, x = _inputs(hypotheses, frames, J)
        got = denoise(HypothesisSet(y), PoseSeq2D(x), t, model, 40).poses
        assert got.dtype == np.float64
        for h in range(hypotheses):
            want = _reference_forward(model, _features(y[h], x), emb)
            assert np.array_equal(got[h], want.reshape(frames, J, 3)), frames


def test_float32_denoise_stays_close_to_float64():
    # a trained-size model: 17 joints, width 128, H=20, N=256
    joints, t = 17, 7
    model = _model(width=128, joints=joints)
    y, x = _inputs(20, 256, joints)
    got = denoise(HypothesisSet(y), PoseSeq2D(x), t, model, 40).poses
    emb = timestep_embedding(float(t), model.embed_dim)
    worst = max(np.max(np.abs(got[h].reshape(256, -1) - _reference_forward(
        model, _features(y[h], x), emb, np.float64))) for h in range(20))
    assert worst <= 1e-5


def _reference_train(dataset, cfg, sched):
    """(weights, biases, loss history) of a per-tensor training loop."""
    xs = np.concatenate([x.joints for x, _ in dataset])
    ys = to_signal_units(np.concatenate([y.joints for _, y in dataset]))
    m = xs.shape[0]
    params = init_params(J, hidden_width=cfg.hidden_width,
                         hidden_layers=cfg.hidden_layers,
                         rng=RngStream(cfg.seed, stream_id("train", "init")))
    weights = [w.copy() for w in params.weights]
    biases = [b.copy() for b in params.biases]
    m_w = [np.zeros_like(w) for w in weights]
    v_w = [np.zeros_like(w) for w in weights]
    m_b = [np.zeros_like(b) for b in biases]
    v_b = [np.zeros_like(b) for b in biases]
    rng_perm = RngStream(cfg.seed, stream_id("train", "shuffle"))
    rng_t = RngStream(cfg.seed, stream_id("train", "timesteps"))
    rng_eps = RngStream(cfg.seed, stream_id("train", "noise"))
    lr, b1, b2 = cfg.learning_rate, cfg.beta1, cfg.beta2
    history, order, epoch = [], np.empty(0, dtype=np.int64), 0
    layers = len(weights)
    for step in range(cfg.steps):
        while order.size < cfg.batch_size:
            order = np.concatenate([order, rng_perm.spawn(epoch).permutation(m)])
            epoch += 1
        idx, order = order[:cfg.batch_size], order[cfg.batch_size:]
        b = len(idx)
        ts = rng_t.integers(0, sched.t_max + 1, b)
        eps = rng_eps.standard_normal((b, J, 3))
        targets = ys[idx].reshape(b, J * 3)
        noisy = diffuse_array(ys[idx], ts, sched, eps)
        inputs = np.concatenate([noisy, xs[idx] * PIXEL_SCALE],
                                axis=-1).reshape(b, J * 5)
        emb = timestep_embedding(ts.astype(np.float64), cfg.hidden_width)

        acts = [inputs]
        h = inputs
        for i in range(layers):
            z = h @ weights[i].T + biases[i]
            if i == 0:
                z = z + emb
            h = z if i == layers - 1 else np.tanh(z)
            if i != layers - 1:
                acts.append(h)
        diff = h - targets
        history.append(float(np.mean(diff * diff)))

        g = 2.0 * diff / diff.size
        grad_w, grad_b = [None] * layers, [None] * layers
        for i in range(layers - 1, -1, -1):
            grad_w[i] = g.T @ acts[i]
            grad_b[i] = g.sum(axis=0)
            if i > 0:
                g = (g @ weights[i]) * (1.0 - acts[i] * acts[i])

        corr1 = 1.0 - b1 ** (step + 1)
        corr2 = 1.0 - b2 ** (step + 1)
        for i in range(layers):
            for p, g_, mom, var, decay in (
                    (weights[i], grad_w[i], m_w, v_w, True),
                    (biases[i], grad_b[i], m_b, v_b, False)):
                mom[i] = b1 * mom[i] + (1 - b1) * g_
                var[i] = b2 * var[i] + (1 - b2) * g_ ** 2
                step_size = (mom[i] / corr1) / (np.sqrt(var[i] / corr2)
                                                + ADAM_EPS)
                p -= lr * step_size
                if decay:
                    p -= lr * cfg.weight_decay * p
    return weights, biases, np.array(history)


def test_train_matches_per_tensor_adam():
    rng = np.random.default_rng(4)
    dataset = []
    for _ in range(3):
        gt = rng.normal(scale=300.0, size=(5, J, 3))
        gt[..., 2] += 3000.0
        kp = rng.uniform(0.0, 1000.0, size=(5, J, 2))
        dataset.append((PoseSeq2D(kp), PoseSeq3D(gt)))
    sched = make_cosine_schedule(20)
    cfg = TrainConfig(steps=30, batch_size=7, learning_rate=1e-2,
                      weight_decay=0.3, hidden_width=16,
                      hidden_layers=2, seed=5)
    got = train(dataset, cfg, sched)
    weights, biases, history = _reference_train(dataset, cfg, sched)
    assert np.array_equal(got.loss_history, history)
    for a, b in zip(got.params.weights + got.params.biases, weights + biases):
        assert np.array_equal(a, b)
