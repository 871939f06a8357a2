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

import functools
from collections.abc import Callable
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .core import (HypothesisSet, PoseSeq2D, Skeleton, flip_array2d,
                   flip_array3d)
from .denoise import Denoiser
from .errors import NumericError
from .rng import hypothesis_normals
from .schedule import MM_PER_UNIT, SIGNAL_SCALE, NoiseSchedule


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
    sigma_mode: SigmaMode = SigmaMode.STOCHASTIC
    flip_mode: FlipMode = FlipMode.NONE
    seed: int = 0

    def __post_init__(self):
        if self.hypotheses < 1:
            raise ValueError(f"hypotheses must be >= 1, got {self.hypotheses}")
        if self.iterations < 1:
            raise ValueError(f"iterations must be >= 1, got {self.iterations}")


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
               eps: np.ndarray | None, *, out: np.ndarray | None = None,
               work: np.ndarray | None = None) -> np.ndarray:
    """One DDIM update (Song et al., 2021, eq. 12) of the state ``y``
    from the clean estimate ``y0_hat``, both in signal units, in the
    textbook order: ``eps_t = (y - sqrt(ab_t) y0) / sqrt(1 - ab_t)``,
    then ``sqrt(ab_next) y0 + sqrt(coef) eps_t``, then ``+ sigma eps``.

    The result goes into ``out``, which may be ``y``; ``work`` is a
    temporary shaped like ``y`` that overlaps none of the others. Either
    is made when None.
    """
    ab_t, ab_next = sched.alpha_bar[t], sched.alpha_bar[t_next]
    if sigma_mode is SigmaMode.STOCHASTIC:
        sigma = _sigma_stochastic(ab_t, ab_next)
    else:
        sigma = 0.0
    # Analytically coef = ab_t*(1-ab_next)^2 / ((1-ab_t)*ab_next) >= 0,
    # so a negative value here is floating-point rounding.
    coef = max(1.0 - ab_next - sigma * sigma, 0.0)
    out = np.empty_like(y) if out is None else out
    work = np.empty_like(y) if work is None else work
    np.multiply(y0_hat, np.sqrt(ab_t), out=work)
    np.subtract(y, work, out=out)
    out /= np.sqrt(1.0 - ab_t)
    out *= np.sqrt(coef)
    np.multiply(y0_hat, np.sqrt(ab_next), out=work)
    out += work
    if sigma > 0.0:
        np.multiply(eps, sigma, out=work)
        out += work
    return out


def _run_chain(predict: Callable[..., object],
               shape: tuple[int, ...], cfg: SamplerConfig,
               sched: NoiseSchedule, ladder: list[int], hyps: range, *,
               branch: int = 0,
               trace: list[HypothesisSet] | None = None) -> np.ndarray:
    """Run one reverse chain over the K steps of ``ladder``; returns the
    final clean estimate in mm, read-only.

    ``predict(y_mm, t, out, spare)`` is the denoiser query of every
    step: it writes the estimate into ``out`` and may overwrite
    ``y_mm`` and ``spare``. The chain owns these buffers and the state,
    and every step works in them.
    """
    to_mm = MM_PER_UNIT / SIGNAL_SCALE
    y = hypothesis_normals(cfg.seed, hyps, shape, "sampler_init",
                           branch=branch)
    y_mm, spare, y0_mm = np.empty_like(y), np.empty_like(y), np.empty_like(y)
    for k, t in enumerate(ladder):
        np.multiply(y, to_mm, out=y_mm)
        try:
            predict(y_mm, t, y0_mm, spare)
        except NumericError as exc:
            if exc.hypothesis is None:
                raise
            h = hyps[exc.hypothesis]
            raise NumericError(f"step t={t}: hypothesis {h}: clean estimate "
                               f"is not finite", hypothesis=h) from exc
        if trace is not None:
            trace.append(HypothesisSet(y0_mm))  # a copy: y0_mm is writable
        if k + 1 < len(ladder):
            eps = None
            if cfg.sigma_mode is SigmaMode.STOCHASTIC:
                eps = hypothesis_normals(cfg.seed, hyps, shape,
                                         "sampler_ddim", t, branch=branch)
            np.divide(y0_mm, to_mm, out=spare)
            _ddim_core(y, spare, t, ladder[k + 1], sched, cfg.sigma_mode,
                       eps, out=y, work=y_mm)
    # nothing else holds y0_mm, so HypothesisSet may take it uncopied
    y0_mm.setflags(write=False)
    return y0_mm


def run_sampler(x: PoseSeq2D, denoiser: Denoiser, cfg: SamplerConfig,
                sched: NoiseSchedule, skeleton: Skeleton | None = None,
                image_width: float | None = None, *, hyp_offset: int = 0,
                trace: list[HypothesisSet] | None = None) -> HypothesisSet:
    """Generate H hypotheses for a 2D sequence.

    ``cfg.flip_mode`` selects the flip augmentation, which needs a
    ``skeleton`` with mirror pairs and the ``image_width``: keypoints
    are mirrored as u -> image_width - u. For keypoints projected by a
    pinhole camera, pass ``2.0 * cx``; then the flipped keypoints are
    the projection of the mirrored pose (x -> -x in camera space), as
    the CLI does with the dataset's camera. ``none`` runs one chain.
    ``once`` runs a second, independent chain on the flipped inputs and
    averages the two at the end. ``diffusion`` runs one chain that
    denoises both orientations every iteration and averages before the
    reverse update.

    Given a list, ``trace`` receives every iteration's clean estimate;
    the last one equals the result bitwise. ``once`` has two chains and
    so no single trace; it rejects one.

    The timesteps run down from ``sched.t_max``, which must be at least
    ``cfg.iterations``. A non-finite clean estimate raises
    ``NumericError`` naming the step and the global index of the first
    hypothesis holding one.
    """
    ladder = timestep_ladder(sched.t_max, cfg.iterations)
    mode = cfg.flip_mode
    if mode is not FlipMode.NONE:
        if skeleton is None or image_width is None:
            raise ValueError("flip augmentation needs a skeleton and image width")
        if not skeleton.mirror_pairs:
            raise ValueError("skeleton defines no mirror pairs, cannot flip")
    if mode is FlipMode.ONCE and trace is not None:
        raise ValueError("flip mode 'once' runs two chains, it has no "
                         "single trace")

    def query(x2d, mirrored=None):
        return lambda y_mm, t, out, spare=None: denoiser.predict_screened(
            y_mm, x2d, t, hyp_offset=hyp_offset, mirrored=mirrored, out=out)

    chain = functools.partial(
        _run_chain, shape=x.joints.shape[:2] + (3,), cfg=cfg, sched=sched,
        ladder=ladder, hyps=range(hyp_offset, hyp_offset + cfg.hypotheses))
    plain = query(x.joints)
    if mode is FlipMode.NONE:
        return HypothesisSet(chain(plain, trace=trace))
    flipped = query(flip_array2d(x.joints, skeleton, image_width), skeleton)
    if mode is FlipMode.DIFFUSION:
        def both(y_mm, t, out, spare):
            # the plain estimate waits in out; the flipped query reads
            # spare and writes y_mm, which the chain no longer needs
            plain(y_mm, t, out)
            flipped(flip_array3d(y_mm, skeleton, out=spare), t, y_mm)
            out += flip_array3d(y_mm, skeleton, out=spare)
            out /= 2.0
        return HypothesisSet(chain(both, trace=trace))
    out = chain(plain) + flip_array3d(chain(flipped, branch=1), skeleton)
    return HypothesisSet(out / 2.0)
