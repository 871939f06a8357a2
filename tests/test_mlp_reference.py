"""The MLP forward pass and the training loop against textbook code,
bitwise.

The forward reference runs one hypothesis at a time, in float32, and
builds a fresh array for every step. Its first layer is split as the
library splits it, by the columns of W0: the state columns Wy and the
keypoint columns Wk. It computes ``y @ Wy.T + c``, where ``c = kp @
Wk.T + b0 + emb``; every later layer is ``h @ w.T + b``; each hidden
layer ends in ``tanh``. A float64 run of the textbook loop over the
concatenated (y, kp) features bounds how far the float32 pass strays.
The training reference, in float32, is a per-tensor loop: forward,
exact backward pass, and adaptive-moment updates (Kingma & Ba, 2015)
with decoupled weight decay (Loshchilov & Hutter, 2019) on the weight
matrices only, each tensor with its own moment arrays. It draws its
samples in float64 and casts them to float32, and rounds each
coefficient, a float64 expression, to float32, where the library does;
a float64 run of it bounds how far float32 training strays. Both run on the same machine as the library, so any
reordering of a floating-point operation in the library shows as a
changed bit.
"""
import numpy as np
import pytest

from posediff.core import HypothesisSet, PoseSeq2D, PoseSeq3D
from posediff.denoise import (ADAM_EPS, PIXEL_SCALE, DenoiserParams,
                              TrainConfig, denoise, init_params,
                              load_checkpoint, save_checkpoint,
                              timestep_embedding, train)
from posediff.rng import RngStream, stream_id
from posediff.schedule import diffuse_array, make_cosine_schedule, to_signal_units

pytestmark = pytest.mark.bitwise

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


def _split_reference_forward(model, y, x, emb):
    """The float32 forward pass of one hypothesis ``y``, (rows, J, 3),
    on keypoints ``x``, (rows, J, 2), with the first layer split into
    its state and keypoint columns; fresh arrays for every step."""
    f = np.float32
    rows, joints = x.shape[:2]
    w0 = model.weights[0].astype(f).reshape(-1, joints, 5)
    w_y = w0[..., :3].reshape(-1, joints * 3)
    w_k = w0[..., 3:].reshape(-1, joints * 2)
    kp = (x * PIXEL_SCALE).astype(f).reshape(rows, joints * 2)
    c = kp @ w_k.T + model.biases[0].astype(f) + emb.astype(f)
    h = np.tanh(y.astype(f).reshape(rows, joints * 3) @ w_y.T + c)
    last = model.num_layers - 1
    for i in range(1, model.num_layers):
        z = h @ model.weights[i].astype(f).T + model.biases[i].astype(f)
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
        got = denoise(HypothesisSet(y), PoseSeq2D(x), t, model, 40,
                      np.empty_like(y))
        assert got.dtype == np.float64
        for h in range(hypotheses):
            want = _split_reference_forward(model, y[h], x, emb)
            assert np.array_equal(got[h], want.reshape(frames, J, 3)), frames


def test_float32_denoise_stays_close_to_float64():
    # a trained-size model: 17 joints, width 128, H=20, N=256
    joints, t = 17, 7
    model = _model(width=128, joints=joints)
    y, x = _inputs(20, 256, joints)
    got = denoise(HypothesisSet(y), PoseSeq2D(x), t, model, 40,
                  np.empty_like(y))
    emb = timestep_embedding(float(t), model.embed_dim)
    worst = max(np.max(np.abs(got[h].reshape(256, -1) - _reference_forward(
        model, _features(y[h], x), emb, np.float64))) for h in range(20))
    assert worst <= 1e-5


def test_first_layer_split_is_made_once_and_exact():
    model = _model(width=16)
    w_y, w_k = model.first_layer_split
    again = model.first_layer_split
    assert again[0] is w_y and again[1] is w_k
    for a, cols in ((w_y, 3), (w_k, 2)):
        assert a.dtype == np.float32 and a.shape == (16, J * cols)
        assert not a.flags.writeable
    # the columns back in the J x 5 order are float32's W0, bit for bit
    joined = np.empty((16, J, 5), np.float32)
    joined[..., :3] = w_y.reshape(16, J, 3)
    joined[..., 3:] = w_k.reshape(16, J, 2)
    w0 = model.float32[0][0]
    assert np.array_equal(joined.reshape(16, J * 5).view(np.uint32),
                          w0.view(np.uint32))


@pytest.mark.parametrize("frames", [4, 7, 80, 256])
def test_hypotheses_do_not_reach_each_other(frames):
    # every hypothesis of a query shares the keypoint term; each must
    # get what it gets alone, and equal states equal estimates. At 80
    # frames the 20 hypotheses run in blocks of 6, the last block of 2
    joints, t = 17, 7
    model = _model(width=128, joints=joints)
    y, x = _inputs(20, frames, joints)
    y[11] = y[4]
    got = denoise(HypothesisSet(y), PoseSeq2D(x), t, model, 40,
                  np.empty_like(y))
    for h in range(20):
        alone = denoise(HypothesisSet(y[h:h + 1]), PoseSeq2D(x), t, model,
                        40, np.empty_like(y[:1]))
        assert np.array_equal(got[h], alone[0]), h
    assert np.array_equal(got[11], got[4])


def _dataset(sequences, frames, joints):
    """(keypoints, pose) pairs of random poses about 3 m away."""
    rng = np.random.default_rng(4)
    dataset = []
    for _ in range(sequences):
        gt = rng.normal(scale=300.0, size=(frames, joints, 3))
        gt[..., 2] += 3000.0
        kp = rng.uniform(0.0, 1000.0, size=(frames, joints, 2))
        dataset.append((PoseSeq2D(kp), PoseSeq3D(gt)))
    return dataset


def _reference_train(dataset, cfg, sched, dtype=np.float32):
    """(weights, biases, loss history) of a per-tensor training loop in
    ``dtype``, which draws each step's batch on its own."""
    c = np.dtype(dtype).type
    xs = np.concatenate([x.joints for x, _ in dataset])
    ys = to_signal_units(np.concatenate([y.joints for _, y in dataset]))
    m, j = xs.shape[:2]
    params = init_params(j, hidden_width=cfg.hidden_width,
                         hidden_layers=cfg.hidden_layers,
                         rng=RngStream(cfg.seed, stream_id("train", "init")))
    weights = [w.astype(dtype) for w in params.weights]
    biases = [b.astype(dtype) for b in params.biases]
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
        eps = rng_eps.standard_normal((b, j, 3))
        targets = ys[idx].reshape(b, j * 3).astype(dtype)
        noisy = diffuse_array(ys[idx], ts, sched, eps)
        inputs = np.concatenate([noisy, xs[idx] * PIXEL_SCALE],
                                axis=-1).reshape(b, j * 5).astype(dtype)
        emb = timestep_embedding(ts.astype(np.float64),
                                 cfg.hidden_width).astype(dtype)

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

        corr1 = c(1.0 - b1 ** (step + 1))
        corr2 = c(1.0 - b2 ** (step + 1))
        for i in range(layers):
            for p, g_, mom, var, decay in (
                    (weights[i], grad_w[i], m_w, v_w, True),
                    (biases[i], grad_b[i], m_b, v_b, False)):
                mom[i] = c(b1) * mom[i] + c(1 - b1) * g_
                var[i] = c(b2) * var[i] + c(1 - b2) * g_ ** 2
                step_size = (mom[i] / corr1) / (np.sqrt(var[i] / corr2)
                                                + c(ADAM_EPS))
                p -= c(lr) * step_size
                if decay:
                    p -= c(lr * cfg.weight_decay) * p
    return weights, biases, np.array(history)


# At batch 7 a draw of 256 samples is 36 steps: 30 steps fall short of
# one draw, 36 fill it exactly, and 77 span three, the last one short.
@pytest.mark.parametrize("steps", [30, 36, 77])
def test_train_matches_per_tensor_adam(steps):
    dataset = _dataset(sequences=3, frames=5, joints=J)
    sched = make_cosine_schedule(20)
    cfg = TrainConfig(steps=steps, batch_size=7, learning_rate=1e-2,
                      weight_decay=0.3, hidden_width=16,
                      hidden_layers=2, seed=5)
    got = train(dataset, cfg, sched)
    weights, biases, history = _reference_train(dataset, cfg, sched)
    assert np.array_equal(got.loss_history, history)
    trained = got.params.float32
    for a, b in zip(trained[0] + trained[1], weights + biases):
        assert a.dtype == b.dtype == np.float32
        assert np.array_equal(a, b)


def test_float32_training_stays_close_to_float64():
    # the trained size: 17 joints, width 128, batch 32, 1000 steps
    dataset = _dataset(sequences=10, frames=4, joints=17)
    sched = make_cosine_schedule(200)
    cfg = TrainConfig(steps=1000, batch_size=32, hidden_width=128, seed=21)
    got = train(dataset, cfg, sched)
    weights, biases, history = _reference_train(dataset, cfg, sched,
                                                np.float64)
    # measured: every loss within 2.1e-6 of float64's, relative, and
    # every weight and bias within 8.5e-6
    assert np.max(np.abs(got.loss_history / history - 1.0)) <= 2e-5
    worst = max(np.max(np.abs(a - b)) for a, b in zip(
        got.params.weights + got.params.biases, weights + biases))
    assert worst <= 1e-4


def test_checkpoint_holds_the_trained_float32_weights(tmp_path):
    # inference runs exactly the network that training ended with
    dataset = _dataset(sequences=3, frames=5, joints=J)
    sched = make_cosine_schedule(20)
    cfg = TrainConfig(steps=40, batch_size=7, learning_rate=1e-2,
                      hidden_width=16, seed=6)
    got = train(dataset, cfg, sched)
    weights, biases, _ = _reference_train(dataset, cfg, sched)
    save_checkpoint(tmp_path / "model.ckpt", got.params, t_max=sched.t_max)
    loaded, _ = load_checkpoint(tmp_path / "model.ckpt")
    for a, b in zip(loaded.float32[0] + loaded.float32[1], weights + biases):
        assert np.array_equal(a, b)
    raw = (tmp_path / "model.ckpt").read_bytes()
    payload = np.frombuffer(raw[raw.index(b"\n") + 1:], dtype="<f8")
    assert payload.size == sum(a.size for a in weights + biases)
    assert np.array_equal(payload.astype(np.float32).astype(np.float64),
                          payload)
