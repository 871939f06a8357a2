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
import os
import threading
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

# Hypothesis-frames (H * N) per chunk: run_sampler splits H hypotheses
# of N frames into H * N // FRAMES_PER_CHUNK contiguous chunks, at least
# 1 and at most H, and samples them on parallel threads. The size
# follows from the input alone, never from the machine.
FRAMES_PER_CHUNK = 2048


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
    is made when None. ``eps`` is the noise, or a function that returns
    it given ``out=``, an array to draw it into: it is called with
    ``work`` once the update has no more use for it.
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
        if callable(eps):
            eps = eps(out=work)
        np.multiply(eps, sigma, out=work)
        out += work
    return out


def _first_non_finite(a: np.ndarray) -> int | None:
    """Index along the first axis of the first entry of ``a`` that holds
    a non-finite value; None when every value is finite."""
    finite = np.isfinite(a)
    if finite.all():
        return None
    return int(np.argmin(finite.reshape(len(a), -1).all(axis=1)))


def _run_chain(predict: Callable[..., object], cfg: SamplerConfig,
               sched: NoiseSchedule, ladder: list[int], hyps: range,
               y: np.ndarray, y_mm: np.ndarray, out: np.ndarray, *,
               branch: int = 0,
               trace: list[np.ndarray] | None = None) -> np.ndarray:
    """Run one reverse chain over the K steps of ``ladder`` in the
    caller's (len(hyps), N, J, 3) arrays ``y``, ``y_mm`` and ``out``,
    which do not overlap; returns ``out``, the final clean estimate in
    mm.

    ``predict(y_mm, t, out)`` is the denoiser query of every step: it
    writes the estimate into ``out`` and may overwrite ``y_mm``, as flip
    ``diffusion``'s does with its plain query's estimate. Every step
    works in the three arrays: the initial state is drawn into the
    state ``y``, which ``y_mm`` holds in mm for each query, each
    estimate becomes signal units in place once it is screened and
    traced, and each step's DDIM noise is drawn into ``y_mm`` once the
    update has no more use for it. Given ``trace``, one array per step,
    each step's estimate is copied into its array.
    """
    to_mm = MM_PER_UNIT / SIGNAL_SCALE
    shape = y.shape[1:]
    init = hypothesis_normals(cfg.seed, hyps, shape, "sampler_init",
                              branch=branch, out=y)
    if init is not y:  # served inside ``serve_repeats``, read-only
        np.copyto(y, init)
    for k, t in enumerate(ladder):
        np.multiply(y, to_mm, out=y_mm)
        predict(y_mm, t, out)
        bad = _first_non_finite(out)
        if bad is not None:
            h = hyps[bad]
            raise NumericError(f"step t={t}: hypothesis {h}: clean estimate "
                               f"is not finite", hypothesis=h)
        if trace is not None:
            np.copyto(trace[k], out)
        if k + 1 < len(ladder):
            eps = None
            if cfg.sigma_mode is SigmaMode.STOCHASTIC:
                eps = functools.partial(hypothesis_normals, cfg.seed, hyps,
                                        shape, "sampler_ddim", t,
                                        branch=branch)
            np.divide(out, to_mm, out=out)
            _ddim_core(y, out, t, ladder[k + 1], sched, cfg.sigma_mode,
                       eps, out=y, work=y_mm)
    return out


def _chunks(hypotheses: int, frames: int) -> list[range]:
    """The contiguous hypothesis ranges sampled apart: C = H * N //
    FRAMES_PER_CHUNK of them, at least 1 and at most H, the first
    H mod C one hypothesis longer than the rest."""
    count = min(max(hypotheses * frames // FRAMES_PER_CHUNK, 1), hypotheses)
    size, extra = divmod(hypotheses, count)
    ends = [i * size + min(i, extra) for i in range(count + 1)]
    return [range(a, b) for a, b in zip(ends, ends[1:])]


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _run_parallel(task: Callable[[int], None],
                  count: int) -> list[Exception | None]:
    """Call ``task(i)`` for each i in ``range(count)``; returns what each
    call raised, or None.

    W = min(count, usable CPUs) workers share the calls, call i going to
    worker i mod W: the calling thread is worker 0, and W - 1 helper
    threads, under the caller's numpy error settings, are the rest.
    """
    workers = min(count, _usable_cpus())
    errors: list[Exception | None] = [None] * count

    def share(w):
        for i in range(w, count, workers):
            try:
                task(i)
            except Exception as exc:
                errors[i] = exc

    err = np.geterr()

    def helper(w):
        with np.errstate(**err):
            share(w)

    helpers = [threading.Thread(target=helper, args=(w,))
               for w in range(1, workers)]
    for thread in helpers:
        thread.start()
    try:
        share(0)
    finally:
        for thread in helpers:
            thread.join()
    return errors


def run_sampler(x: PoseSeq2D, denoiser: Denoiser, cfg: SamplerConfig,
                sched: NoiseSchedule, skeleton: Skeleton | None = None,
                image_width: float | None = None, *, hyp_offset: int = 0,
                trace: list[HypothesisSet] | None = None,
                out: np.ndarray | None = None) -> HypothesisSet:
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
    reverse update. ``none`` and ``diffusion`` hold two arrays a chunk
    besides ``out``: ``diffusion`` runs each of its two queries in place,
    the flipped one in ``out`` and the plain one in the millimeter
    state, and adds them a hypothesis at a time through a
    one-hypothesis temporary. ``once`` holds a third array, its second
    chain's estimate.

    The hypotheses are sampled in contiguous chunks (see
    ``FRAMES_PER_CHUNK``), each the batch split of its range, on up to
    one thread per usable CPU. Every output is the same whatever the
    chunks and the CPUs.

    Given a list, ``trace`` receives every iteration's clean estimate;
    the last one equals the result bitwise. ``once`` has two chains and
    so no single trace; it rejects one.

    The timesteps run down from ``sched.t_max``, which must be at least
    ``cfg.iterations``. A non-finite clean estimate raises
    ``NumericError`` naming the step and the global index of the first
    hypothesis holding one.

    Given ``out``, a writable float64 (H, N, J, 3) array, such as a
    frame slice of a larger stack, the hypotheses are written there,
    and the result is a read-only view of it. Any other ``out`` is
    refused with ``ValueError`` before anything is drawn.
    """
    ladder = timestep_ladder(sched.t_max, cfg.iterations)
    mode = cfg.flip_mode
    if mode is not FlipMode.NONE:
        if skeleton is None or image_width is None:
            raise ValueError("flip augmentation needs a skeleton and image width")
        if not skeleton.mirror_pairs:
            raise ValueError("skeleton defines no mirror pairs, cannot flip")
        x_flipped = flip_array2d(x.joints, skeleton, image_width)
        # read-only, so that every flipped query's PoseSeq2D takes it
        # uncopied
        x_flipped.setflags(write=False)
    if mode is FlipMode.ONCE and trace is not None:
        raise ValueError("flip mode 'once' runs two chains, it has no "
                         "single trace")
    shape = x.joints.shape[:2] + (3,)
    full = (cfg.hypotheses,) + shape
    if out is None:
        out = np.empty(full)
    elif (out.shape != full or out.dtype != np.float64
          or not out.flags.writeable):
        raise ValueError(f"out must be a writable float64 array of shape "
                         f"{full}, got {out.dtype} {out.shape}, writable "
                         f"{out.flags.writeable}")
    steps = None if trace is None else [np.empty(full) for _ in ladder]

    def sample(part: range) -> None:
        """Sample hypotheses ``part`` of this call into their rows of
        ``out`` and of the trace's steps."""
        first = hyp_offset + part.start
        rows = slice(part.start, part.stop)

        def query(x2d, mirrored=None):
            return lambda y_mm, t, out: denoiser.predict_clean(
                y_mm, x2d, t, out, hyp_offset=first, mirrored=mirrored)

        # the chains' state and state in mm, and with flip once a third
        # array: the second chain's estimate
        bufs = [np.empty((len(part),) + shape)
                for _ in range(3 if mode is FlipMode.ONCE else 2)]
        chain = functools.partial(
            _run_chain, cfg=cfg, sched=sched, ladder=ladder,
            hyps=range(first, first + len(part)), y=bufs[0], y_mm=bufs[1])
        traced = None if steps is None else [s[rows] for s in steps]
        plain = query(x.joints)
        if mode is FlipMode.NONE:
            chain(plain, out=out[rows], trace=traced)
            return
        flipped = query(x_flipped, skeleton)
        if mode is FlipMode.DIFFUSION:
            tmp = np.empty(shape)

            def both(y_mm, t, out):
                # The flipped query runs in place in out and the plain one
                # in y_mm, which the chain no longer needs; the sum is the
                # plain estimate plus the flipped one's flip, as ever. Both
                # flips go a hypothesis at a time: out may be a frame slice
                # of a larger stack, and np.take buffers a whole copy of a
                # non-contiguous array.
                for y_h, out_h in zip(y_mm, out):
                    flip_array3d(y_h, skeleton, out=out_h)
                flipped(out, t, out)
                plain(y_mm, t, y_mm)
                for y_h, out_h in zip(y_mm, out):
                    np.add(y_h, flip_array3d(out_h, skeleton, out=tmp),
                           out=out_h)
                out /= 2.0
            chain(both, out=out[rows], trace=traced)
            return
        # the second chain's estimate goes into the third array, and its
        # flip into the state, which neither chain reads again
        est = chain(plain, out=out[rows])
        est += flip_array3d(chain(flipped, branch=1, out=bufs[2]), skeleton,
                            out=bufs[0])
        est /= 2.0

    chunks = _chunks(cfg.hypotheses, x.num_frames)
    failed = [exc for exc in _run_parallel(lambda i: sample(chunks[i]),
                                           len(chunks))
              if exc is not None]
    if len(failed) > 1:
        # The chunks may fail at different steps. The error raised is
        # the one that sampling every hypothesis as one chunk meets.
        sample(range(cfg.hypotheses))
    if failed:
        raise failed[0]
    if steps is not None:
        for step in steps:
            step.setflags(write=False)  # so HypothesisSet takes it uncopied
            trace.append(HypothesisSet(step))
    poses = out.view()
    poses.setflags(write=False)
    return HypothesisSet(poses)
