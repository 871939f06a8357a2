"""Denoisers: the contract, oracle test instruments, and a toy MLP.

A denoiser maps a noisy 3D pose, the conditioning 2D keypoints, and a
timestep to an estimate of the clean 3D pose. The sampler talks to
denoisers through :class:`Denoiser`, whose ``predict_clean`` works in
plain millimeters; unit handling is each implementation's business.

The trainable implementation is a per-frame MLP over the concatenated
per-joint (noisy 3D, 2D keypoint) vector with a sinusoidal timestep
embedding added to the first hidden pre-activation. It is deliberately
small: the point is an end-to-end differentiable reference with exact
gradients, not capacity.

The network runs in float32: training runs its forward and backward
passes and the optimizer in float32, and inference runs it on float32
copies of the weights made once per ``DenoiserParams``, with the first
layer split into its state and keypoint columns so that the keypoint
half is computed once per query, not once per hypothesis. Widening
float32 to float64 is exact, so the float64 checkpoint on disk holds
the trained weights, and inference runs exactly the network that was
trained. ``grad_loss`` and everything the sampler does with an
estimate stay float64.
"""
from __future__ import annotations

import abc
import json
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .core import HypothesisSet, PoseSeq2D, PoseSeq3D, Skeleton, flip_array3d
from .errors import (ShapeError, TrainingDivergedError, json_object,
                     require_field)
from .rng import RngStream, hypothesis_normals, stream_id
from .schedule import (MM_PER_UNIT, SIGNAL_SCALE, NoiseSchedule,
                       diffuse_array, to_signal_units)

# 2D keypoints are multiplied by this before entering the network.
PIXEL_SCALE = 1e-3
# The adaptive-moment update's guard against division by zero.
ADAM_EPS = 1e-8
# Training draws the batches of this many samples at once: each draw
# covers SAMPLES_PER_DRAW // batch_size steps, at least one. Its arrays
# set the loop's peak memory.
SAMPLES_PER_DRAW = 256
# Inference runs the network over blocks of about this many rows:
# max(1, min(H, ROWS_PER_BLOCK // N)) hypotheses of N frames at a time,
# so a query's arrays hold one block whatever H. Smaller blocks make
# more, shorter numpy calls, which two sampling threads overlap worse.
ROWS_PER_BLOCK = 512


def timestep_embedding(ts: float | np.ndarray, dim: int) -> np.ndarray:
    """Sinusoidal embedding of one timestep (dim,) or an array (B, dim).

    Entry 2i is sin(t / 10000^(2i/dim)), entry 2i+1 the matching cos.
    """
    if dim < 2 or dim % 2 != 0:
        raise ValueError(f"embedding dim must be even and >= 2, got {dim}")
    i = np.arange(dim // 2, dtype=np.float64)
    angles = (np.asarray(ts, dtype=np.float64)[..., None]
              / np.power(10000.0, 2.0 * i / dim))
    emb = np.empty(angles.shape[:-1] + (dim,), dtype=np.float64)
    emb[..., 0::2] = np.sin(angles)
    emb[..., 1::2] = np.cos(angles)
    return emb


@dataclass(frozen=True)
class DenoiserParams:
    """Weights of the toy MLP.

    ``weights[i]`` has shape (fan_out, fan_in); layer 0 consumes the
    J*5 per-frame feature vector, the final layer emits J*3. The
    timestep embedding is added to the first pre-activation, so
    ``embed_dim`` is the first hidden width, which must be even and >= 2.
    """

    weights: tuple[np.ndarray, ...]
    biases: tuple[np.ndarray, ...]

    def __post_init__(self):
        if len(self.weights) != len(self.biases) or len(self.weights) < 2:
            raise ShapeError("need matching weights/biases for >= 2 layers")
        frozen_w, frozen_b = [], []
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            w = np.asarray(w, dtype=np.float64)
            b = np.asarray(b, dtype=np.float64)
            if w.ndim != 2 or b.shape != (w.shape[0],):
                raise ShapeError(f"layer {i}: weight {w.shape} / bias {b.shape}")
            if not (np.all(np.isfinite(w)) and np.all(np.isfinite(b))):
                raise ValueError(f"layer {i}: parameters must be finite")
            if i > 0 and w.shape[1] != self.weights[i - 1].shape[0]:
                raise ShapeError(f"layer {i}: fan-in {w.shape[1]} != previous "
                                 f"fan-out {self.weights[i - 1].shape[0]}")
            w = w.copy(); w.setflags(write=False)
            b = b.copy(); b.setflags(write=False)
            frozen_w.append(w)
            frozen_b.append(b)
        object.__setattr__(self, "weights", tuple(frozen_w))
        object.__setattr__(self, "biases", tuple(frozen_b))
        if self.weights[0].shape[1] % 5 != 0:
            raise ShapeError("first layer fan-in must be J*5")
        j = self.weights[0].shape[1] // 5
        if self.weights[-1].shape[0] != j * 3:
            raise ShapeError(f"last layer must emit {j * 3} values for {j} joints")
        if self.embed_dim < 2 or self.embed_dim % 2 != 0:
            raise ShapeError(f"first hidden width must be even and >= 2 for "
                             f"the timestep embedding, got {self.embed_dim}")

    @property
    def num_joints(self) -> int:
        return self.weights[0].shape[1] // 5

    @property
    def hidden_width(self) -> int:
        return self.weights[0].shape[0]

    @property
    def embed_dim(self) -> int:
        """Width of the timestep embedding: the first hidden width."""
        return self.hidden_width

    @property
    def num_layers(self) -> int:
        return len(self.weights)

    @cached_property
    def float32(self) -> tuple[tuple[np.ndarray, ...], tuple[np.ndarray, ...]]:
        """Read-only float32 copies of (weights, biases), made on first
        use: the inference forward pass runs on these."""
        def cast(a):
            a = a.astype(np.float32)
            a.setflags(write=False)
            return a
        return (tuple(map(cast, self.weights)), tuple(map(cast, self.biases)))

    @cached_property
    def first_layer_split(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only float32 (Wy, Wk), cut on first use from the first
        layer of ``float32``: Wy holds its J*3 state columns and Wk its
        J*2 keypoint columns, each in joint order, so that
        ``[y, kp] @ W0.T == y @ Wy.T + kp @ Wk.T`` up to rounding."""
        w0 = self.float32[0][0]
        per_joint = w0.reshape(w0.shape[0], self.num_joints, 5)

        def cut(cols):
            a = np.ascontiguousarray(per_joint[..., cols]).reshape(
                w0.shape[0], -1)
            a.setflags(write=False)
            return a
        return cut(slice(0, 3)), cut(slice(3, 5))


def init_params(num_joints: int, *, hidden_width: int = 128,
                hidden_layers: int = 2,
                rng: RngStream | None = None) -> DenoiserParams:
    """Random initialization, one stream per layer."""
    rng = rng or RngStream(0, stream_id("denoiser_init"))
    dims = [num_joints * 5] + [hidden_width] * hidden_layers + [num_joints * 3]
    weights, biases = [], []
    for i, (fan_in, fan_out) in enumerate(zip(dims[:-1], dims[1:])):
        w = rng.spawn("w", i).standard_normal((fan_out, fan_in)) / np.sqrt(fan_in)
        weights.append(w)
        biases.append(np.zeros(fan_out))
    return DenoiserParams(weights=tuple(weights), biases=tuple(biases))


def _forward(weights: Sequence[np.ndarray], biases: Sequence[np.ndarray],
             inputs: np.ndarray, first: Sequence[np.ndarray],
             outs: Sequence[np.ndarray]) -> np.ndarray:
    """Run the MLP with ``weights`` on (..., fan-in) inputs; returns the
    output, ``outs[-1]``.

    The first layer adds the terms ``first`` after its product, in that
    order, and layer i > 0 adds ``biases[i - 1]``: training gives the
    first layer its bias and then the timestep embedding, and inference
    gives it the per-query term of ``denoise``. Layer i writes its
    output into ``outs[i]``, which must not overlap that layer's input;
    a hidden layer's output is its activation. Nothing is screened: a
    NaN in any layer reaches the output, and tanh maps +-inf to +-1.
    Each layer works in place in the order ``h @ w.T``, each added term,
    ``tanh``, which fixes every rounding.
    """
    h = inputs
    last = len(weights) - 1
    for i, (w, z) in enumerate(zip(weights, outs)):
        np.matmul(h, w.T, out=z)
        for term in first if i == 0 else (biases[i - 1],):
            z += term
        if i != last:
            np.tanh(z, out=z)
        h = z
    return h


def eps_to_y0(y_t: np.ndarray, eps_hat: np.ndarray, t: int,
              sched: NoiseSchedule) -> np.ndarray:
    """Invert the forward process: recover y0 from a noise estimate."""
    ab = sched.alpha_bar[t]
    return (y_t - np.sqrt(1.0 - ab) * eps_hat) / np.sqrt(ab)


def y0_to_eps(y_t: np.ndarray, y0_hat: np.ndarray, t: int,
              sched: NoiseSchedule) -> np.ndarray:
    """The noise that would explain y_t given a clean estimate y0."""
    ab = sched.alpha_bar[t]
    if t == 0:
        raise ValueError("eps is undefined at t=0 (no noise was added)")
    return (y_t - np.sqrt(ab) * y0_hat) / np.sqrt(1.0 - ab)


def denoise(y_t: HypothesisSet, x: PoseSeq2D, t: int, model: DenoiserParams,
            t_max: int, out: np.ndarray) -> np.ndarray:
    """Apply the MLP to every hypothesis; writes the clean-pose
    estimates into ``out``, an (H, N, J, 3) float64 array, unscreened,
    and returns ``out``.

    ``y_t`` is in diffusion signal units, and so is the output: the
    network regresses the clean pose directly, for t in [0, t_max]. The
    network runs in float32 on ``model.float32``; the estimates are
    float64. The first layer's pre-activation ``[y, kp] @ W0.T + b0 +
    emb(t)`` is computed as ``y @ Wy.T + c``, where the keypoint term
    ``c = kp @ Wk.T + b0 + emb(t)`` is made once per query and shared
    by every hypothesis. The layers run over blocks of
    ``max(1, min(H, ROWS_PER_BLOCK // N))`` hypotheses in turn, the last
    block holding the rest; each hypothesis is its own N-row product
    whatever its block, so the blocks change no bit. Each call makes
    its own float32 arrays and drops them on return: the keypoints,
    ``c``, one block's state and one output per layer. ``y_t`` may be a
    view of ``out``: each block's hypotheses are read into the float32
    state before their estimates are written.
    """
    if not 0 <= t <= t_max:
        raise ValueError(f"t={t} outside [0, {t_max}]")
    if (y_t.num_frames, y_t.num_joints) != (x.num_frames, x.num_joints):
        raise ShapeError(
            f"hypotheses are ({y_t.num_frames}, {y_t.num_joints}) but keypoints "
            f"are ({x.num_frames}, {x.num_joints})")
    if y_t.num_joints != model.num_joints:
        raise ShapeError(f"model expects {model.num_joints} joints, "
                         f"got {y_t.num_joints}")
    h, n, j = y_t.count, y_t.num_frames, y_t.num_joints
    weights, biases = model.float32
    w_y, w_k = model.first_layer_split
    # The scaled keypoints, cast to float32 as they are written, and the
    # query's share of the first pre-activation.
    kp = np.empty((n, j * 2), np.float32)
    np.multiply(x.joints.reshape(n, j * 2), PIXEL_SCALE, out=kp)
    c = kp @ w_k.T
    c += biases[0]
    c += timestep_embedding(float(t), model.embed_dim).astype(np.float32)
    step = max(1, min(h, ROWS_PER_BLOCK // n))
    state = np.empty((step, n, j * 3), np.float32)
    outs = [np.empty((step, n, w.shape[0]), np.float32) for w in weights]
    poses = y_t.poses.reshape(h, n, j * 3)
    for lo in range(0, h, step):
        rows = min(step, h - lo)
        np.copyto(state[:rows], poses[lo:lo + rows])
        # One N-row product per hypothesis, so that BLAS rounding cannot
        # depend on H: H=5 gives the first five hypotheses of H=20 bitwise.
        est = _forward((w_y, *weights[1:]), biases[1:], state[:rows], (c,),
                       [z[:rows] for z in outs])
        np.copyto(out[lo:lo + rows], est.reshape(rows, n, j, 3))
    return out


@dataclass(frozen=True)
class TrainBatch:
    """One optimizer step's worth of flattened per-frame samples."""

    inputs: np.ndarray    # (B, J*5)
    timesteps: np.ndarray  # (B,)
    targets: np.ndarray   # (B, J*3)


def _flat_views(flat: np.ndarray, params: DenoiserParams
                ) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Views of ``flat`` shaped as ``params``' weights, then its biases,
    laid end to end in that order: the weights are a prefix."""
    views, off = [], 0
    for a in params.weights + params.biases:
        views.append(flat[off:off + a.size].reshape(a.shape))
        off += a.size
    return views[:params.num_layers], views[params.num_layers:]


def _backward(weights: Sequence[np.ndarray], biases: Sequence[np.ndarray],
              inputs: np.ndarray, emb: np.ndarray, targets: np.ndarray,
              weight_grads: list[np.ndarray],
              bias_grads: list[np.ndarray]) -> float:
    """Mean squared error of the raw network output against ``targets``;
    its exact gradients are written into the given arrays.

    It runs in the dtype of ``weights``: the inputs, embedding, targets,
    biases and gradient arrays must share it.
    """
    # Overflow here is an expected divergence signal, screened by the
    # caller; keep numpy from warning about it.
    outs = [np.empty(inputs.shape[:-1] + (w.shape[0],), w.dtype)
            for w in weights]
    acts = [inputs, *outs[:-1]]
    with np.errstate(over="ignore", invalid="ignore"):
        out = _forward(weights, biases[1:], inputs, (biases[0], emb), outs)
        diff = out - targets
        loss = float(np.mean(diff * diff))
        g = 2.0 * diff / diff.size
        for i in range(len(weights) - 1, -1, -1):
            np.matmul(g.T, acts[i], out=weight_grads[i])
            np.sum(g, axis=0, out=bias_grads[i])
            if i > 0:
                g = g @ weights[i]
                g *= 1.0 - acts[i] * acts[i]  # tanh'
    return loss


def grad_loss(model: DenoiserParams, batch: TrainBatch
              ) -> tuple[float, list[np.ndarray], list[np.ndarray]]:
    """Loss and exact gradients for one batch.

    Returns (loss, weight_grads, bias_grads), unscreened, where loss is the
    mean squared error of the raw network output against the batch targets.
    """
    weight_grads, bias_grads = _flat_views(
        np.empty(sum(a.size for a in model.weights + model.biases)), model)
    loss = _backward(model.weights, model.biases, batch.inputs,
                     timestep_embedding(batch.timesteps, model.embed_dim),
                     batch.targets, weight_grads, bias_grads)
    return loss, weight_grads, bias_grads


def _adam_step(p: np.ndarray, g: np.ndarray, m: np.ndarray, v: np.ndarray,
               step: int, config: "TrainConfig",
               temps: tuple[np.ndarray, np.ndarray]) -> None:
    """One adaptive-moment update of ``p`` in place, from gradient ``g``
    and the moments ``m`` and ``v``, which it updates too. ``temps``
    holds two arrays shaped like ``p``; no other array is allocated.

    Each coefficient is a float64 expression rounded once to ``p``'s
    dtype, so no scalar widens the arithmetic, whatever numpy's casting
    rules; a coefficient beyond that dtype's range becomes infinite.
    """
    lr, b1, b2 = config.learning_rate, config.beta1, config.beta2
    f = p.dtype.type
    corr1 = f(1.0 - b1 ** (step + 1))
    corr2 = f(1.0 - b2 ** (step + 1))
    t1, t2 = temps
    # m = b1 * m + (1 - b1) * g
    np.multiply(m, f(b1), out=m)
    np.multiply(g, f(1 - b1), out=t1)
    m += t1
    # v = b2 * v + (1 - b2) * g ** 2
    np.square(g, out=t1)
    np.multiply(t1, f(1 - b2), out=t1)
    np.multiply(v, f(b2), out=v)
    v += t1
    # p -= lr * ((m / corr1) / (sqrt(v / corr2) + eps))
    np.divide(v, corr2, out=t1)
    np.sqrt(t1, out=t1)
    np.add(t1, f(ADAM_EPS), out=t1)
    np.divide(m, corr1, out=t2)
    t2 /= t1
    np.multiply(t2, f(lr), out=t2)
    p -= t2


@dataclass(frozen=True)
class TrainConfig:
    """Training hyperparameters for the toy denoiser."""

    steps: int = 2000
    batch_size: int = 32
    learning_rate: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    weight_decay: float = 0.1
    seed: int = 0
    hidden_width: int = 128
    hidden_layers: int = 2

    def __post_init__(self):
        for name, ok, rule in (
                ("steps", self.steps >= 1, ">= 1"),
                ("batch_size", self.batch_size >= 1, ">= 1"),
                ("learning_rate", self.learning_rate >= 0, ">= 0"),
                ("beta1", 0.0 <= self.beta1 < 1.0, "in [0, 1)"),
                ("beta2", 0.0 <= self.beta2 < 1.0, "in [0, 1)"),
                ("weight_decay", self.weight_decay >= 0, ">= 0"),
                ("hidden_layers", self.hidden_layers >= 1, ">= 1"),
                ("hidden_width", self.hidden_width >= 2
                 and self.hidden_width % 2 == 0, "even and >= 2")):
            if not ok:
                raise ValueError(f"{name} must be {rule}, got "
                                 f"{getattr(self, name)}")


@dataclass(frozen=True)
class TrainResult:
    params: DenoiserParams
    loss_history: np.ndarray
    final_loss: float


def train(dataset: list[tuple[PoseSeq2D, PoseSeq3D]],
          config: TrainConfig, sched: NoiseSchedule) -> TrainResult:
    """Train the MLP on (keypoints, pose) pairs.

    Frames are flattened into independent samples and visited in
    seeded epoch permutations without replacement. Each sample gets its
    own uniform timestep in [0, sched.t_max] and fresh unit noise; the
    regression target is the scaled clean pose. The optimizer is
    adaptive-moment with decoupled weight decay applied to weight
    matrices only.

    The samples are drawn in float64, ``SAMPLES_PER_DRAW`` at a time,
    and cast to float32; the network, its gradients, the moments and the
    weight decay run in float32. The returned weights are the float32
    ones, widened, and the loss history holds each step's float32 loss.
    """
    if not dataset:
        raise ValueError("dataset must be nonempty")
    xs = np.concatenate([x.joints for x, _ in dataset], axis=0)
    ys = np.concatenate([y.joints for _, y in dataset], axis=0)
    if xs.shape[:2] != ys.shape[:2]:
        raise ShapeError("2D and 3D sequences must pair frame-for-frame")
    m, j = xs.shape[0], xs.shape[1]
    y_units = to_signal_units(ys)

    params = init_params(j, hidden_width=config.hidden_width,
                         hidden_layers=config.hidden_layers,
                         rng=RngStream(config.seed, stream_id("train", "init")))
    rng_perm = RngStream(config.seed, stream_id("train", "shuffle"))
    rng_t = RngStream(config.seed, stream_id("train", "timesteps"))
    rng_eps = RngStream(config.seed, stream_id("train", "noise"))

    # Weights and biases are views into one flat float32 buffer, weights
    # first, and so are the gradients: one finite check, one optimizer
    # pass, and weight decay on the prefix. The step reads the views
    # without the copy and validation of a new DenoiserParams per step;
    # the per-step guard below screens the loss and gradients instead.
    flat = np.concatenate([a.ravel() for a in params.weights + params.biases],
                          dtype=np.float32)
    weights, biases = _flat_views(flat, params)
    grad = np.empty_like(flat)
    grad_w, grad_b = _flat_views(grad, params)
    m_p, v_p = np.zeros_like(flat), np.zeros_like(flat)
    temps = (np.empty_like(flat), np.empty_like(flat))
    n_w = sum(w.size for w in weights)
    decay = config.learning_rate * config.weight_decay
    emb_table = timestep_embedding(np.arange(sched.t_max + 1, dtype=np.float64),
                                   config.hidden_width).astype(np.float32)
    xs_scaled = xs * PIXEL_SCALE

    history = np.empty(config.steps)
    order = np.empty(0, dtype=np.int64)
    epoch = 0
    b = config.batch_size
    per_draw = max(1, SAMPLES_PER_DRAW // b)
    # Overflow anywhere in a step, its update and the rounding of its
    # coefficients to float32 too, is an expected divergence signal,
    # which the guard reports at the step whose loss or gradient it
    # reaches.
    with np.errstate(over="ignore", invalid="ignore"):
        for first in range(0, config.steps, per_draw):
            # The batches of the next steps in one draw: the streams give
            # the same numbers in one call as in one call per step.
            steps = range(first, min(first + per_draw, config.steps))
            n = len(steps) * b
            while order.size < n:
                order = np.concatenate(
                    [order, rng_perm.spawn(epoch).permutation(m)])
                epoch += 1
            idx, order = order[:n], order[n:]

            ts = rng_t.integers(0, sched.t_max + 1, n)
            eps = rng_eps.standard_normal((n, j, 3))
            targets = y_units[idx]
            y_noisy = diffuse_array(targets, ts, sched, eps)
            # each joint's signal coordinates, then its scaled keypoint
            inputs = np.concatenate([y_noisy, xs_scaled[idx]], axis=-1,
                                    dtype=np.float32).reshape(n, j * 5)
            targets = targets.astype(np.float32).reshape(n, j * 3)
            embs = emb_table[ts]
            for step in steps:
                rows = slice((step - first) * b, (step - first + 1) * b)
                loss = _backward(weights, biases, inputs[rows], embs[rows],
                                 targets[rows], grad_w, grad_b)
                if not (np.isfinite(loss) and np.all(np.isfinite(grad))):
                    raise TrainingDivergedError(step)
                history[step] = loss

                _adam_step(flat, grad, m_p, v_p, step, config, temps)
                # decoupled weight decay: p -= lr * weight_decay * p,
                # weights only
                t1 = temps[0][:n_w]
                np.multiply(flat[:n_w], np.float32(decay), out=t1)
                flat[:n_w] -= t1

    final = DenoiserParams(weights=tuple(weights), biases=tuple(biases))
    return TrainResult(params=final, loss_history=history,
                       final_loss=float(history[-1]))


# --- checkpoint I/O ---------------------------------------------------------

_CHECKPOINT_MAGIC = "posediff-denoiser"
# Header fields the loaders read, with the JSON types they must have.
_HEADER_FIELDS = {"version": int, "num_joints": int, "tensors": list,
                  "embed_dim": int, "pixel_scale": float, "t_max": int,
                  "signal_scale": float}
_CHECKPOINT_VERSION = 1


def save_checkpoint(path: str | Path, params: DenoiserParams, *,
                    t_max: int) -> None:
    """JSON header line plus flat little-endian float64 payload."""
    tensors = []
    for i, (w, b) in enumerate(zip(params.weights, params.biases)):
        tensors.append({"name": f"w{i}", "shape": list(w.shape)})
        tensors.append({"name": f"b{i}", "shape": list(b.shape)})
    header = {
        "format": _CHECKPOINT_MAGIC,
        "version": _CHECKPOINT_VERSION,
        "num_joints": params.num_joints,
        "embed_dim": params.embed_dim,
        "pixel_scale": PIXEL_SCALE,
        "t_max": t_max,
        "signal_scale": SIGNAL_SCALE,
        "loss_units": "signal",
        "tensors": tensors,
    }
    payload = np.concatenate(
        [a.ravel() for pair in zip(params.weights, params.biases) for a in pair])
    with open(path, "wb") as f:
        f.write((json.dumps(header) + "\n").encode("utf-8"))
        f.write(payload.astype("<f8").tobytes())


def load_checkpoint(path: str | Path) -> tuple[DenoiserParams, dict]:
    """Returns (params, header). Raises ValueError on bad files.

    A model trained at a signal scale other than ``SIGNAL_SCALE``, or
    at a pixel scale other than ``PIXEL_SCALE``, is refused: its inputs
    or outputs would be read in the wrong units. Older
    headers carry ``"target": "predict_y0"``, which loads as if absent;
    a model trained to predict the noise is refused. So is a weight or
    bias beyond the float32 range, in which inference runs.
    """
    raw = Path(path).read_bytes()
    nl = raw.find(b"\n")
    if nl < 0:
        raise ValueError(f"{path}: missing checkpoint header")
    header = json_object(raw[:nl], f"{path}: checkpoint header")
    if header.get("format") != _CHECKPOINT_MAGIC:
        raise ValueError(f"{path}: not a denoiser checkpoint")
    for key, kind in _HEADER_FIELDS.items():
        require_field(header, key, kind, f"{path}: checkpoint header")
    if header["version"] != _CHECKPOINT_VERSION:
        raise ValueError(f"{path}: checkpoint version {header['version']} is "
                         f"not supported (expected {_CHECKPOINT_VERSION})")
    for key, scale in (("signal_scale", SIGNAL_SCALE),
                       ("pixel_scale", PIXEL_SCALE)):
        if header[key] != scale:
            raise ValueError(f"{path}: the model was trained at "
                             f"{key.replace('_', ' ')} {header[key]}; only "
                             f"{scale} is supported")
    if header.get("target", "predict_y0") != "predict_y0":
        raise ValueError(f"{path}: the model predicts noise (target "
                         f"{header['target']!r}); only clean-pose "
                         f"(predict_y0) models are supported")
    if (len(raw) - nl - 1) % 8:
        raise ValueError(f"{path}: payload of {len(raw) - nl - 1} bytes is "
                         f"not a whole number of float64 values")
    flat = np.frombuffer(raw[nl + 1:], dtype="<f8")
    try:
        shapes = [(t["name"], t["shape"]) for t in header["tensors"]]
        order = [f"{kind}{i}" for i in range(len(shapes) // 2 + 1)
                 for kind in "wb"]
        for k, (name, shape) in enumerate(shapes):
            if name != order[k]:
                raise ValueError(f"{path}: checkpoint header: tensor {k} "
                                 f"is {name!r}, expected {order[k]!r}")
            if not (isinstance(shape, list) and all(
                    type(n) is int and n >= 0 for n in shape)):
                raise ValueError(f"{path}: checkpoint header: tensor "
                                 f"{name!r} has shape {shape!r}, not a list "
                                 f"of non-negative integers")
        if len(shapes) % 2:
            raise ValueError(f"{path}: checkpoint header: tensor "
                             f"{order[len(shapes)]!r} is missing")
        need = sum(int(np.prod(s)) for _, s in shapes)
        if flat.size != need:
            raise ValueError(f"{path}: payload holds {flat.size} floats, "
                             f"header promises {need}")
        arrays, off = {}, 0
        for name, shape in shapes:
            n = int(np.prod(shape))
            arrays[name] = flat[off:off + n].reshape(shape).copy()
            off += n
        layers = len(shapes) // 2
        weights = tuple(arrays[f"w{i}"] for i in range(layers))
        biases = tuple(arrays[f"b{i}"] for i in range(layers))
    except (KeyError, TypeError) as exc:
        raise ValueError(f"{path}: checkpoint header: 'tensors' is malformed "
                         f"({type(exc).__name__}: {exc})") from exc
    try:
        params = DenoiserParams(weights=weights, biases=biases)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    if header["num_joints"] != params.num_joints:
        raise ValueError(f"{path}: header says {header['num_joints']} joints, "
                         f"tensors hold {params.num_joints}")
    if header["embed_dim"] != params.embed_dim:
        raise ValueError(f"{path}: header says embed_dim {header['embed_dim']}, "
                         f"tensors hold {params.embed_dim}")
    # The forward pass runs on float32 copies; a larger value would
    # become infinite there.
    limit = float(np.finfo(np.float32).max)
    for name, a in arrays.items():
        if np.any(np.abs(a) > limit):
            raise ValueError(f"{path}: tensor {name!r} holds "
                             f"{np.max(np.abs(a)):g}, beyond the float32 "
                             f"range ({limit:g})")
    return params, header


# --- the sampler-facing contract -------------------------------------------

class Denoiser(abc.ABC):
    """Millimeter-domain denoiser interface used by the sampler.

    ``hyp_offset`` is the global index of the first hypothesis in the
    batch, so that implementations drawing per-hypothesis noise give
    hypothesis h the same draw whether it is sampled alone or as part
    of a larger batch. ``mirrored`` tells input-blind oracles that the
    query is for the left/right-flipped problem; implementations that
    actually read their inputs can ignore it because the sampler flips
    the inputs themselves. The sampler screens every estimate it reads,
    so an implementation need not.

    The sampler may query one denoiser from several threads at once,
    each on its own range of hypotheses, disjoint from the others; an
    implementation keeps any state a query writes per thread.
    """

    @abc.abstractmethod
    def predict_clean(self, y_t: np.ndarray, x: np.ndarray, t: int,
                      out: np.ndarray, *, hyp_offset: int = 0,
                      mirrored: Skeleton | None = None) -> np.ndarray:
        """(H, N, J, 3) mm noisy poses plus (N, J, 2) px -> (H, N, J, 3)
        mm, written into ``out``, a float64 array that is ``y_t`` itself
        or does not overlap it; returns ``out``. In place, the result is
        bitwise the one a separate ``out`` gets: an implementation is
        done with each value of ``y_t`` before it writes over it."""


class MlpDenoiser(Denoiser):
    """Trained-MLP denoiser; converts millimeters to signal units
    internally.

    ``t_max`` bounds the timesteps it accepts: the one it was trained to.
    It holds nothing a query writes, so several threads may query one
    instance at once. The state in signal units waits in ``out``.
    """

    def __init__(self, params: DenoiserParams, t_max: int):
        self.params = params
        self.t_max = t_max

    @classmethod
    def from_checkpoint(cls, path: str | Path) -> "MlpDenoiser":
        params, header = load_checkpoint(path)
        return cls(params, header["t_max"])

    def predict_clean(self, y_t, x, t, out, *, hyp_offset=0, mirrored=None):
        np.multiply(y_t, SIGNAL_SCALE / MM_PER_UNIT, out=out)
        # A read-only view, so that HypothesisSet takes it uncopied; it
        # lives for this query only, and denoise() reads it before it
        # writes the estimate over it.
        units = out.view()
        units.setflags(write=False)
        denoise(HypothesisSet(units), PoseSeq2D(x), t, self.params,
                self.t_max, out)
        out /= SIGNAL_SCALE / MM_PER_UNIT
        return out


class _OracleBase(Denoiser):
    """Shared plumbing: check the chain's shape, honor the mirrored flag."""

    def __init__(self, gt: PoseSeq3D):
        self.gt = gt

    def _gt_for(self, y_t, mirrored: Skeleton | None) -> np.ndarray:
        if y_t.shape[1:3] != self.gt.joints.shape[:2]:
            raise ShapeError(f"oracle ground truth is {self.gt.joints.shape[:2]}, "
                             f"chain state is {y_t.shape[1:3]}")
        if mirrored is None:
            return self.gt.joints
        return flip_array3d(self.gt.joints, mirrored)


class PerfectOracle(_OracleBase):
    """Returns the ground truth regardless of input."""

    def predict_clean(self, y_t, x, t, out, *, hyp_offset=0, mirrored=None):
        np.copyto(out, self._gt_for(y_t, mirrored))
        return out


class ContractiveOracle(_OracleBase):
    """Blends the chain state toward the ground truth.

    Returns lam*gt + (1-lam)*y_t, treating the millimeter image of the
    chain state as a pose estimate. Iterating contracts the error.
    """

    def __init__(self, gt: PoseSeq3D, lam: float):
        super().__init__(gt)
        if not 0.0 <= lam < 1.0:
            raise ValueError(f"lam must be in [0, 1), got {lam}")
        self.lam = lam

    def predict_clean(self, y_t, x, t, out, *, hyp_offset=0, mirrored=None):
        np.multiply(y_t, 1.0 - self.lam, out=out)
        out += self.lam * self._gt_for(y_t, mirrored)
        return out


class NoisyOracle(_OracleBase):
    """Ground truth plus fresh Gaussian error.

    The draw is keyed by (timestep, global hypothesis index, mirror
    branch), so repeated runs and batch splits reproduce exactly.
    ``sigma_mm`` is the error's standard deviation, one for every
    joint and axis.
    """

    def __init__(self, gt: PoseSeq3D, sigma_mm: float, seed: int = 0):
        super().__init__(gt)
        self.sigma = float(sigma_mm)
        if self.sigma < 0:
            raise ValueError("sigma_mm must be >= 0")
        self.seed = seed

    def predict_clean(self, y_t, x, t, out, *, hyp_offset=0, mirrored=None):
        gt = self._gt_for(y_t, mirrored)
        hyps = range(hyp_offset, hyp_offset + y_t.shape[0])
        # The rows are drawn into ``out`` where they can be; a draw held
        # by ``serve_repeats`` comes back instead, read-only.
        noise = hypothesis_normals(
            self.seed, hyps, y_t.shape[1:], "oracle_noisy", int(t),
            branch=0 if mirrored is None else 1,
            out=out if out[0].flags.c_contiguous else None)
        np.multiply(noise, self.sigma, out=out)
        out += gt
        return out

