"""Reverse-process sampling: K denoising iterations over H hypotheses.

The chain state lives in diffusion signal units; denoisers are queried
through the millimeter facade (:class:`posediff.denoise.Denoiser`). All
stochasticity is drawn from streams keyed by purpose, timestep, global
hypothesis index, and mirror branch, which gives three guarantees:

* repeated runs with one seed are bitwise identical,
* hypothesis h is identical whether sampled alone or inside a batch,
* enlarging H leaves existing hypotheses unchanged.

The returned estimate is always the final denoiser output; the chain is
never re-noised after the last denoiser call.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .core import (HypothesisSet, PoseSeq2D, Skeleton, flip_array2d,
                   flip_array3d)
from .denoise import Denoiser
from .rng import hypothesis_normals
from .schedule import DEFAULT_SIGNAL_SCALE, MM_PER_UNIT, NoiseSchedule


class SigmaMode(Enum):
    """Noise level of the reverse update: stochastic or none."""

    STOCHASTIC = "stochastic"
    DETERMINISTIC = "deterministic"


class FlipMode(Enum):
    """Left/right flip augmentation applied during sampling."""

    NONE = "none"
    ONCE = "once"
    DIFFUSION = "diffusion"


@dataclass(frozen=True)
class SamplerConfig:
    hypotheses: int = 20
    iterations: int = 10
    t_max: int = 1000
    sigma_mode: SigmaMode = SigmaMode.STOCHASTIC
    flip_mode: FlipMode = FlipMode.NONE
    seed: int = 0
    signal_scale: float = DEFAULT_SIGNAL_SCALE

    def __post_init__(self):
        if self.hypotheses < 1:
            raise ValueError(f"hypotheses must be >= 1, got {self.hypotheses}")
        if self.iterations < 1:
            raise ValueError(f"iterations must be >= 1, got {self.iterations}")
        if self.t_max < self.iterations:
            raise ValueError(f"t_max {self.t_max} < iterations {self.iterations}")
        if not self.signal_scale > 0:
            raise ValueError("signal_scale must be positive")


@dataclass
class DdimDiagnostics:
    """Counters for numerical guards taken during sampling."""

    clamp_events: int = 0


def timestep_ladder(t_max: int, iterations: int) -> list[int]:
    """Timesteps t_k = t_max*(1 - k/K), k = 0..K-1, rounded to nearest.

    Ties round toward the larger timestep. The first entry is exactly
    t_max and entries decrease strictly (consecutive real-valued steps
    are at least 1 apart because K <= t_max).
    """
    if iterations < 1:
        raise ValueError(f"iterations must be >= 1, got {iterations}")
    if iterations > t_max:
        raise ValueError(f"iterations {iterations} exceeds t_max {t_max}")
    ladder = [int(np.floor(t_max * (1.0 - k / iterations) + 0.5))
              for k in range(iterations)]
    return ladder


def _sigma_stochastic(ab_t: float, ab_next: float) -> float:
    return float(np.sqrt((1.0 - ab_next) / (1.0 - ab_t))
                 * np.sqrt(1.0 - ab_t / ab_next))


def _ddim_core(y: np.ndarray, y0_hat: np.ndarray, t: int, t_next: int,
               sched: NoiseSchedule, sigma_mode: SigmaMode,
               eps: np.ndarray | None,
               diagnostics: DdimDiagnostics | None) -> np.ndarray:
    ab_t = sched.alpha_bar[t]
    ab_next = sched.alpha_bar[t_next]
    eps_t = (y - np.sqrt(ab_t) * y0_hat) / np.sqrt(1.0 - ab_t)
    if sigma_mode is SigmaMode.STOCHASTIC:
        sigma = _sigma_stochastic(ab_t, ab_next)
    else:
        sigma = 0.0
    coef = 1.0 - ab_next - sigma * sigma
    if coef < 0.0:
        # Analytically coef = ab_t*(1-ab_next)^2 / ((1-ab_t)*ab_next) >= 0,
        # so a negative value here is floating-point rounding.
        coef = 0.0
        if diagnostics is not None:
            diagnostics.clamp_events += 1
    out = np.sqrt(ab_next) * y0_hat + np.sqrt(coef) * eps_t
    if sigma > 0.0:
        out = out + sigma * eps
    return out


def _run_chain(x: np.ndarray, denoiser: Denoiser, cfg: SamplerConfig,
               sched: NoiseSchedule, *, hyp_offset: int, branch: int = 0,
               mirrored: Skeleton | None = None,
               flip_each_step: Skeleton | None = None,
               image_width: float | None = None,
               trace: list[HypothesisSet] | None = None,
               diagnostics: DdimDiagnostics | None = None) -> np.ndarray:
    """Run one reverse chain; returns the final clean estimate in mm.

    ``mirrored`` marks a chain that works on pre-flipped inputs (the
    flipping-once side branch). ``flip_each_step`` enables the
    flip-denoise-flip average inside every iteration.
    """
    n, j = x.shape[0], x.shape[1]
    to_mm = MM_PER_UNIT / cfg.signal_scale
    ladder = timestep_ladder(cfg.t_max, cfg.iterations)
    hyps = range(hyp_offset, hyp_offset + cfg.hypotheses)
    y = hypothesis_normals(cfg.seed, hyps, (n, j, 3), "sampler_init",
                           branch=branch)
    if flip_each_step is not None:
        x_flipped = flip_array2d(x, flip_each_step, image_width)

    y0_mm = None
    for k, t in enumerate(ladder):
        y_mm = y * to_mm
        if flip_each_step is None:
            y0_mm = denoiser.predict_clean(y_mm, x, t, hyp_offset=hyp_offset,
                                           mirrored=mirrored)
        else:
            plain = denoiser.predict_clean(y_mm, x, t, hyp_offset=hyp_offset,
                                           mirrored=None)
            other = denoiser.predict_clean(
                flip_array3d(y_mm, flip_each_step), x_flipped, t,
                hyp_offset=hyp_offset, mirrored=flip_each_step)
            y0_mm = (plain + flip_array3d(other, flip_each_step)) / 2.0
        if trace is not None:
            trace.append(HypothesisSet(y0_mm))
        if k + 1 < len(ladder):
            eps = None
            if cfg.sigma_mode is SigmaMode.STOCHASTIC:
                eps = hypothesis_normals(cfg.seed, hyps, (n, j, 3),
                                         "sampler_ddim", t, branch=branch)
            y = _ddim_core(y, y0_mm / to_mm, t, ladder[k + 1], sched,
                           cfg.sigma_mode, eps, diagnostics)
    return y0_mm


def run_sampler(x: PoseSeq2D, denoiser: Denoiser, cfg: SamplerConfig,
                sched: NoiseSchedule, skeleton: Skeleton | None = None,
                image_width: float | None = None, *, hyp_offset: int = 0,
                trace: list[HypothesisSet] | None = None,
                diagnostics: DdimDiagnostics | None = None) -> HypothesisSet:
    """Generate H hypotheses for a 2D sequence.

    ``cfg.flip_mode`` selects the flip augmentation, which needs a
    ``skeleton`` with mirror pairs and the ``image_width``. ``none``
    runs one chain. ``once`` runs a second, independent chain on the
    flipped inputs and averages the two at the end. ``diffusion`` runs
    one chain that denoises both orientations every iteration and
    averages before the reverse update.

    Given a list, ``trace`` receives every iteration's clean estimate;
    the last one equals the result bitwise. ``once`` has two chains and
    so no single trace; it rejects one.
    """
    if sched.t_max != cfg.t_max:
        raise ValueError(f"schedule t_max {sched.t_max} != sampler t_max "
                         f"{cfg.t_max}")
    scale = getattr(denoiser, "signal_scale", None)
    if scale is not None and scale != cfg.signal_scale:
        raise ValueError(
            f"denoiser was trained at signal scale {scale}, sampler is "
            f"configured for {cfg.signal_scale}")
    mode = cfg.flip_mode
    if mode is not FlipMode.NONE:
        if skeleton is None or image_width is None:
            raise ValueError("flip augmentation needs a skeleton and image width")
        if not skeleton.mirror_pairs:
            raise ValueError("skeleton defines no mirror pairs, cannot flip")
        if not image_width > 0:
            raise ValueError(f"image_width must be positive, got {image_width}")
    if mode is FlipMode.ONCE and trace is not None:
        raise ValueError("flip mode 'once' runs two chains, it has no "
                         "single trace")

    common = dict(hyp_offset=hyp_offset, diagnostics=diagnostics)
    if mode is FlipMode.NONE:
        out = _run_chain(x.joints, denoiser, cfg, sched, trace=trace, **common)
    elif mode is FlipMode.DIFFUSION:
        out = _run_chain(x.joints, denoiser, cfg, sched, trace=trace,
                         flip_each_step=skeleton, image_width=image_width,
                         **common)
    else:
        plain = _run_chain(x.joints, denoiser, cfg, sched, **common)
        x_flipped = flip_array2d(x.joints, skeleton, image_width)
        other = _run_chain(x_flipped, denoiser, cfg, sched, branch=1,
                           mirrored=skeleton, **common)
        out = (plain + flip_array3d(other, skeleton)) / 2.0
    return HypothesisSet(out)
