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
"""
from __future__ import annotations

import abc
import copy
import json
from dataclasses import dataclass, replace
from enum import Enum
from pathlib import Path

import numpy as np

from .core import HypothesisSet, PoseSeq2D, PoseSeq3D, Skeleton, flip_array3d
from .errors import (NumericError, ShapeError, TrainingDivergedError,
                     reject_non_finite, require_field)
from .rng import RngStream, hypothesis_normals, stream_id
from .schedule import (DEFAULT_SIGNAL_SCALE, NoiseSchedule,
                       make_cosine_schedule, to_millimeters, to_signal_units)

DEFAULT_PIXEL_SCALE = 1e-3


class RegressionTarget(Enum):
    """What the network regresses: the clean pose or the noise."""

    PREDICT_Y0 = "predict_y0"
    PREDICT_EPS = "predict_eps"


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
    ``embed_dim`` must equal the first hidden width. 2D keypoints are
    multiplied by ``pixel_scale`` before entering the network.
    """

    weights: tuple[np.ndarray, ...]
    biases: tuple[np.ndarray, ...]
    embed_dim: int
    pixel_scale: float = DEFAULT_PIXEL_SCALE

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
        if self.embed_dim != self.weights[0].shape[0]:
            raise ShapeError("embed_dim must equal the first hidden width "
                             "(the embedding is added to that pre-activation)")
        if not self.pixel_scale > 0:
            raise ValueError(f"pixel_scale must be positive, got {self.pixel_scale}")

    @property
    def num_joints(self) -> int:
        return self.weights[0].shape[1] // 5

    @property
    def hidden_width(self) -> int:
        return self.weights[0].shape[0]

    @property
    def num_layers(self) -> int:
        return len(self.weights)


def init_params(num_joints: int, *, hidden_width: int = 128,
                hidden_layers: int = 2, pixel_scale: float = DEFAULT_PIXEL_SCALE,
                rng: RngStream | None = None) -> DenoiserParams:
    """Random initialization, one stream per layer."""
    if hidden_layers < 1:
        raise ValueError(f"need at least one hidden layer, got {hidden_layers}")
    if hidden_width < 2 or hidden_width % 2 != 0:
        raise ValueError(f"hidden width must be even and >= 2, got {hidden_width}")
    rng = rng or RngStream(0, stream_id("denoiser_init"))
    dims = [num_joints * 5] + [hidden_width] * hidden_layers + [num_joints * 3]
    weights, biases = [], []
    for i, (fan_in, fan_out) in enumerate(zip(dims[:-1], dims[1:])):
        w = rng.spawn("w", i).standard_normal((fan_out, fan_in)) / np.sqrt(fan_in)
        weights.append(w)
        biases.append(np.zeros(fan_out))
    return DenoiserParams(weights=tuple(weights), biases=tuple(biases),
                          embed_dim=hidden_width, pixel_scale=pixel_scale)


def _forward(params: DenoiserParams, inputs: np.ndarray, ts: np.ndarray,
             *, check: bool = False):
    """Run the MLP on (..., J*5) inputs; returns (output, activations).

    ``ts`` holds one timestep per input row, or a single one for all.

    ``activations[0]`` is the input, ``activations[i]`` the output of
    hidden layer i. With ``check`` the layers are screened for
    non-finite values (used by the training path).
    """
    emb = timestep_embedding(ts, params.embed_dim)
    acts = [inputs]
    h = inputs
    last = params.num_layers - 1
    for i, (w, b) in enumerate(zip(params.weights, params.biases)):
        z = h @ w.T + b
        if i == 0:
            z = z + emb
        h = z if i == last else np.tanh(z)
        if check and not np.all(np.isfinite(h)):
            raise NumericError("non-finite activation", layer=i)
        if i != last:
            acts.append(h)
    return h, acts


def _assemble_inputs(y_t: np.ndarray, x: np.ndarray, pixel_scale: float) -> np.ndarray:
    """Interleave (..., J, 3) signal and (..., J, 2) pixels into (B, J*5)."""
    j = y_t.shape[-2]
    feats = np.concatenate([y_t, x * pixel_scale], axis=-1)
    return feats.reshape(-1, j * 5)


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
            target: RegressionTarget, sched: NoiseSchedule) -> HypothesisSet:
    """Apply the MLP to every hypothesis; returns clean-pose estimates.

    ``y_t`` is in diffusion signal units. With the eps target the raw
    network output is converted back to a clean-pose estimate through
    the schedule.
    """
    if not 0 <= t <= sched.t_max:
        raise ValueError(f"t={t} outside [0, {sched.t_max}]")
    if (y_t.num_frames, y_t.num_joints) != (x.num_frames, x.num_joints):
        raise ShapeError(
            f"hypotheses are ({y_t.num_frames}, {y_t.num_joints}) but keypoints "
            f"are ({x.num_frames}, {x.num_joints})")
    if y_t.num_joints != model.num_joints:
        raise ShapeError(f"model expects {model.num_joints} joints, "
                         f"got {y_t.num_joints}")
    h, n, j = y_t.count, y_t.num_frames, y_t.num_joints
    x_tiled = np.broadcast_to(x.joints, (h, n, j, 2))
    # One N-row product per hypothesis, so that BLAS rounding cannot
    # depend on H: H=5 gives the first five hypotheses of H=20 bitwise.
    inputs = _assemble_inputs(y_t.poses, x_tiled,
                              model.pixel_scale).reshape(h, n, j * 5)
    out, _ = _forward(model, inputs, np.array([float(t)]))
    out = out.reshape(h, n, j, 3)
    if target is RegressionTarget.PREDICT_EPS:
        # At t=0 this reduces to y_t exactly: sqrt(1-alpha_bar) is 0.
        out = eps_to_y0(y_t.poses, out, t, sched)
    return HypothesisSet(out)


@dataclass(frozen=True)
class TrainBatch:
    """One optimizer step's worth of flattened per-frame samples."""

    inputs: np.ndarray    # (B, J*5)
    timesteps: np.ndarray  # (B,)
    targets: np.ndarray   # (B, J*3)


def grad_loss(model: DenoiserParams, batch: TrainBatch
              ) -> tuple[float, list[np.ndarray], list[np.ndarray]]:
    """Loss and exact gradients for one batch.

    Returns (loss, weight_grads, bias_grads) where loss is the mean
    squared error of the raw network output against the batch targets.
    """
    # Overflow here is an expected divergence signal, screened by the
    # caller; keep numpy from warning about it.
    with np.errstate(over="ignore", invalid="ignore"):
        out, acts = _forward(model, batch.inputs, batch.timesteps, check=True)
        diff = out - batch.targets
        loss = float(np.mean(diff * diff))
        g = 2.0 * diff / diff.size
        weight_grads: list[np.ndarray] = [None] * model.num_layers  # type: ignore
        bias_grads: list[np.ndarray] = [None] * model.num_layers  # type: ignore
        for i in range(model.num_layers - 1, -1, -1):
            weight_grads[i] = g.T @ acts[i]
            bias_grads[i] = g.sum(axis=0)
            if i > 0:
                gh = g @ model.weights[i]
                g = gh * (1.0 - acts[i] * acts[i])  # tanh'
    return loss, weight_grads, bias_grads


@dataclass(frozen=True)
class TrainConfig:
    """Training hyperparameters for the toy denoiser."""

    steps: int = 2000
    batch_size: int = 32
    learning_rate: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    weight_decay: float = 0.1
    seed: int = 0
    t_max: int = 1000
    signal_scale: float = DEFAULT_SIGNAL_SCALE
    target: RegressionTarget = RegressionTarget.PREDICT_Y0
    hidden_width: int = 128
    hidden_layers: int = 2
    pixel_scale: float = DEFAULT_PIXEL_SCALE

    def __post_init__(self):
        if self.steps < 1 or self.batch_size < 1:
            raise ValueError("steps and batch_size must be >= 1")
        if not self.learning_rate >= 0:
            raise ValueError("learning rate must be >= 0")


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
    own uniform timestep in [0, t_max] and fresh unit noise; the
    regression target is the scaled clean pose or that noise. The
    optimizer is adaptive-moment with decoupled weight decay applied to
    weight matrices only.
    """
    if not dataset:
        raise ValueError("dataset must be nonempty")
    if sched.t_max != config.t_max:
        raise ValueError(f"schedule t_max {sched.t_max} != config t_max {config.t_max}")
    xs = np.concatenate([x.joints for x, _ in dataset], axis=0)
    ys = np.concatenate([y.joints for _, y in dataset], axis=0)
    if xs.shape[:2] != ys.shape[:2]:
        raise ShapeError("2D and 3D sequences must pair frame-for-frame")
    m, j = xs.shape[0], xs.shape[1]
    y_units = to_signal_units(ys, config.signal_scale)

    params = init_params(j, hidden_width=config.hidden_width,
                         hidden_layers=config.hidden_layers,
                         pixel_scale=config.pixel_scale,
                         rng=RngStream(config.seed, stream_id("train", "init")))
    rng_perm = RngStream(config.seed, stream_id("train", "shuffle"))
    rng_t = RngStream(config.seed, stream_id("train", "timesteps"))
    rng_eps = RngStream(config.seed, stream_id("train", "noise"))

    weights = [w.copy() for w in params.weights]
    biases = [b.copy() for b in params.biases]
    # The optimizer updates these arrays in place; ``live`` sees them
    # without the copy and validation of a new DenoiserParams per step.
    # The per-step guard below screens the loss and gradients instead.
    live = copy.copy(params)
    object.__setattr__(live, "weights", tuple(weights))
    object.__setattr__(live, "biases", tuple(biases))
    m_w = [np.zeros_like(w) for w in weights]
    v_w = [np.zeros_like(w) for w in weights]
    m_b = [np.zeros_like(b) for b in biases]
    v_b = [np.zeros_like(b) for b in biases]

    history = np.empty(config.steps)
    order = np.empty(0, dtype=np.int64)
    epoch = 0
    for step in range(config.steps):
        while order.size < config.batch_size:
            order = np.concatenate([order, rng_perm.spawn(epoch).permutation(m)])
            epoch += 1
        idx, order = order[:config.batch_size], order[config.batch_size:]
        b = len(idx)

        ts = rng_t.integers(0, config.t_max + 1, b)
        eps = rng_eps.standard_normal((b, j, 3))
        ab = sched.alpha_bar[ts][:, None, None]
        y_noisy = np.sqrt(ab) * y_units[idx] + np.sqrt(1.0 - ab) * eps
        if config.target is RegressionTarget.PREDICT_Y0:
            targets = y_units[idx]
        else:
            targets = eps
        batch = TrainBatch(
            inputs=_assemble_inputs(y_noisy, xs[idx], config.pixel_scale),
            timesteps=ts.astype(np.float64),
            targets=targets.reshape(b, j * 3),
        )
        try:
            loss, g_w, g_b = grad_loss(live, batch)
        except NumericError as exc:
            raise TrainingDivergedError(step, str(exc)) from exc
        if not np.isfinite(loss) or any(not np.all(np.isfinite(g)) for g in g_w + g_b):
            raise TrainingDivergedError(step)
        history[step] = loss

        lr, b1, b2 = config.learning_rate, config.beta1, config.beta2
        corr1 = 1.0 - b1 ** (step + 1)
        corr2 = 1.0 - b2 ** (step + 1)
        for i in range(len(weights)):
            m_w[i] = b1 * m_w[i] + (1 - b1) * g_w[i]
            v_w[i] = b2 * v_w[i] + (1 - b2) * g_w[i] ** 2
            weights[i] -= lr * ((m_w[i] / corr1) / (np.sqrt(v_w[i] / corr2)
                                                    + config.adam_eps))
            weights[i] -= lr * config.weight_decay * weights[i]
            m_b[i] = b1 * m_b[i] + (1 - b1) * g_b[i]
            v_b[i] = b2 * v_b[i] + (1 - b2) * g_b[i] ** 2
            biases[i] -= lr * ((m_b[i] / corr1) / (np.sqrt(v_b[i] / corr2)
                                                   + config.adam_eps))

    final = replace(params, weights=tuple(weights), biases=tuple(biases))
    return TrainResult(params=final, loss_history=history,
                       final_loss=float(history[-1]))


# --- checkpoint I/O ---------------------------------------------------------

_CHECKPOINT_MAGIC = "posediff-denoiser"
# Header fields the loaders read, with the JSON types they must have.
_HEADER_FIELDS = {"tensors": list, "embed_dim": int, "pixel_scale": float,
                  "target": str, "t_max": int, "signal_scale": float}


def save_checkpoint(path: str | Path, params: DenoiserParams,
                    target: RegressionTarget, *, t_max: int,
                    signal_scale: float = DEFAULT_SIGNAL_SCALE) -> None:
    """JSON header line plus flat little-endian float64 payload."""
    tensors = []
    for i, (w, b) in enumerate(zip(params.weights, params.biases)):
        tensors.append({"name": f"w{i}", "shape": list(w.shape)})
        tensors.append({"name": f"b{i}", "shape": list(b.shape)})
    header = {
        "format": _CHECKPOINT_MAGIC,
        "version": 1,
        "num_joints": params.num_joints,
        "embed_dim": params.embed_dim,
        "pixel_scale": params.pixel_scale,
        "target": target.value,
        "t_max": t_max,
        "signal_scale": signal_scale,
        "loss_units": "signal",
        "tensors": tensors,
    }
    payload = np.concatenate(
        [a.ravel() for pair in zip(params.weights, params.biases) for a in pair])
    with open(path, "wb") as f:
        f.write((json.dumps(header) + "\n").encode("utf-8"))
        f.write(payload.astype("<f8").tobytes())


def load_checkpoint(path: str | Path
                    ) -> tuple[DenoiserParams, RegressionTarget, dict]:
    """Returns (params, target, header). Raises ValueError on bad files."""
    raw = Path(path).read_bytes()
    nl = raw.find(b"\n")
    if nl < 0:
        raise ValueError(f"{path}: missing checkpoint header")
    try:
        header = json.loads(raw[:nl].decode("utf-8"),
                            parse_constant=reject_non_finite)
    except ValueError as exc:  # also a bad UTF-8 byte
        raise ValueError(f"{path}: bad checkpoint header: {exc}") from exc
    if not isinstance(header, dict) or header.get("format") != _CHECKPOINT_MAGIC:
        raise ValueError(f"{path}: not a denoiser checkpoint")
    for key, kind in _HEADER_FIELDS.items():
        require_field(header, key, kind, f"{path}: checkpoint header")
    if (len(raw) - nl - 1) % 8:
        raise ValueError(f"{path}: payload of {len(raw) - nl - 1} bytes is "
                         f"not a whole number of float64 values")
    flat = np.frombuffer(raw[nl + 1:], dtype="<f8")
    try:
        shapes = [(t["name"], tuple(t["shape"])) for t in header["tensors"]]
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
    params = DenoiserParams(weights=weights, biases=biases,
                            embed_dim=int(header["embed_dim"]),
                            pixel_scale=float(header["pixel_scale"]))
    return params, RegressionTarget(header["target"]), header


# --- the sampler-facing contract -------------------------------------------

class Denoiser(abc.ABC):
    """Millimeter-domain denoiser interface used by the sampler.

    ``hyp_offset`` is the global index of the first hypothesis in the
    batch, so that implementations drawing per-hypothesis noise give
    hypothesis h the same draw whether it is sampled alone or as part
    of a larger batch. ``mirrored`` tells input-blind oracles that the
    query is for the left/right-flipped problem; implementations that
    actually read their inputs can ignore it because the sampler flips
    the inputs themselves.
    """

    @abc.abstractmethod
    def predict_clean(self, y_t: np.ndarray, x: np.ndarray, t: int, *,
                      hyp_offset: int = 0,
                      mirrored: Skeleton | None = None) -> np.ndarray:
        """(H, N, J, 3) mm noisy poses plus (N, J, 2) px -> (H, N, J, 3) mm."""


class MlpDenoiser(Denoiser):
    """Trained-MLP denoiser; converts to its own signal units internally."""

    def __init__(self, params: DenoiserParams, target: RegressionTarget,
                 sched: NoiseSchedule,
                 signal_scale: float = DEFAULT_SIGNAL_SCALE):
        self.params = params
        self.target = target
        self.sched = sched
        self.signal_scale = signal_scale

    @classmethod
    def from_checkpoint(cls, path: str | Path,
                        sched: NoiseSchedule | None = None) -> "MlpDenoiser":
        params, target, header = load_checkpoint(path)
        if sched is None:
            sched = make_cosine_schedule(int(header["t_max"]))
        return cls(params, target, sched,
                   signal_scale=float(header["signal_scale"]))

    def predict_clean(self, y_t: np.ndarray, x: np.ndarray, t: int, *,
                      hyp_offset: int = 0,
                      mirrored: Skeleton | None = None) -> np.ndarray:
        units = to_signal_units(y_t, self.signal_scale)
        out = denoise(HypothesisSet(units), PoseSeq2D(x), t, self.params,
                      self.target, self.sched)
        return to_millimeters(out.poses, self.signal_scale)


class _OracleBase(Denoiser):
    """Shared plumbing: broadcast gt, honor the mirrored flag."""

    def __init__(self, gt: PoseSeq3D):
        self.gt = gt

    def _gt_for(self, mirrored: Skeleton | None) -> np.ndarray:
        if mirrored is None:
            return self.gt.joints
        return flip_array3d(self.gt.joints, mirrored)

    def _check(self, y_t: np.ndarray) -> None:
        if y_t.shape[1:3] != self.gt.joints.shape[:2]:
            raise ShapeError(f"oracle ground truth is {self.gt.joints.shape[:2]}, "
                             f"chain state is {y_t.shape[1:3]}")


class PerfectOracle(_OracleBase):
    """Returns the ground truth regardless of input."""

    def predict_clean(self, y_t, x, t, *, hyp_offset=0, mirrored=None):
        self._check(y_t)
        gt = self._gt_for(mirrored)
        return np.broadcast_to(gt, y_t.shape).copy()


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

    def predict_clean(self, y_t, x, t, *, hyp_offset=0, mirrored=None):
        self._check(y_t)
        gt = self._gt_for(mirrored)
        return self.lam * gt[None] + (1.0 - self.lam) * y_t


class NoisyOracle(_OracleBase):
    """Ground truth plus fresh Gaussian error.

    The draw is keyed by (timestep, global hypothesis index, mirror
    branch), so repeated runs and batch splits reproduce exactly.
    ``sigma_mm`` may be a scalar or a per-joint vector.
    """

    def __init__(self, gt: PoseSeq3D, sigma_mm: float | np.ndarray,
                 seed: int = 0):
        super().__init__(gt)
        sigma = np.asarray(sigma_mm, dtype=np.float64)
        if np.any(sigma < 0):
            raise ValueError("sigma_mm must be >= 0")
        if sigma.ndim not in (0, 1):
            raise ShapeError("sigma_mm must be scalar or per-joint")
        if sigma.ndim == 1 and sigma.shape[0] != gt.num_joints:
            raise ShapeError(f"sigma_mm has {sigma.shape[0]} entries for "
                             f"{gt.num_joints} joints")
        self.sigma = sigma
        self.seed = seed

    def predict_clean(self, y_t, x, t, *, hyp_offset=0, mirrored=None):
        self._check(y_t)
        gt = self._gt_for(mirrored)
        hyps = range(hyp_offset, hyp_offset + y_t.shape[0])
        noise = hypothesis_normals(self.seed, hyps, y_t.shape[1:],
                                   "oracle_noisy", int(t),
                                   branch=0 if mirrored is None else 1)
        scale = self.sigma if self.sigma.ndim == 0 else self.sigma[:, None]
        return gt + scale * noise

