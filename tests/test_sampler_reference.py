"""The trained-model sampler against a textbook DDIM loop, bitwise.

The reference runs one hypothesis at a time: K steps of DDIM (Song et
al., 2021, eq. 12) with the noise of hypothesis h drawn from a fresh
``RngStream(seed, stream_id(purpose, ..., h, branch))``, the denoiser
queried with that hypothesis alone, and the mirror written as a loop
over the skeleton's pairs. A stacked (H, N, ...) matmul equals its
per-slice products bitwise, so one hypothesis at a time is a valid
bitwise reference for the library's batched chain; concatenating the
rows of all hypotheses into one product would not be. A contractive
oracle, whose estimate carries the state's float64 bits, stands in for
the network where the update's own rounding is pinned.
"""
import numpy as np
import pytest

from posediff.core import PoseSeq2D, PoseSeq3D, Skeleton
from posediff.denoise import ContractiveOracle, DenoiserParams, MlpDenoiser
from posediff.rng import RngStream, stream_id
from posediff.sampler import FlipMode, SamplerConfig, SigmaMode, run_sampler
from posediff.schedule import MM_PER_UNIT, SIGNAL_SCALE, make_cosine_schedule

pytestmark = pytest.mark.bitwise

SKELETON = Skeleton(parents=(0, 0, 1, 0, 3), mirror_pairs=((1, 3), (2, 4)),
                    bone_lengths=(0.0, 100.0, 90.0, 100.0, 90.0))
IMAGE_WIDTH = 1000.0
T_MAX, ITERATIONS, SEED = 50, 4, 17


def _model(num_joints: int, width: int = 16) -> DenoiserParams:
    rng = np.random.default_rng(5)
    dims = [num_joints * 5, width, width, num_joints * 3]
    weights = [rng.normal(size=(o, i)) / np.sqrt(i)
               for i, o in zip(dims[:-1], dims[1:])]
    biases = [rng.normal(scale=0.1, size=o) for o in dims[1:]]
    return DenoiserParams(weights=tuple(weights), biases=tuple(biases))


def _mirror(a, image_width=None):
    """Swap each mirror pair and reflect x: ``-x`` for 3D, ``W - x``
    for 2D keypoints."""
    out = a.copy()
    for left, right in SKELETON.mirror_pairs:
        out[..., left, :] = a[..., right, :]
        out[..., right, :] = a[..., left, :]
    if image_width is None:
        out[..., 0] = -out[..., 0]
    else:
        out[..., 0] = image_width - out[..., 0]
    return out


def _reference_chain(predict, shape, cfg, sched, h, branch):
    """One hypothesis through K DDIM steps; the last clean estimate, mm."""
    to_mm = MM_PER_UNIT / SIGNAL_SCALE
    ladder = [int(np.floor(sched.t_max * (1.0 - k / cfg.iterations) + 0.5))
              for k in range(cfg.iterations)]
    y = RngStream(cfg.seed, stream_id("sampler_init", h, branch)
                  ).standard_normal(shape)
    for k, t in enumerate(ladder):
        y0_mm = predict(y * to_mm, t)
        if k + 1 == len(ladder):
            return y0_mm
        t_next = ladder[k + 1]
        ab_t, ab_next = sched.alpha_bar[t], sched.alpha_bar[t_next]
        y0 = y0_mm / to_mm
        eps_t = (y - np.sqrt(ab_t) * y0) / np.sqrt(1.0 - ab_t)
        sigma = float(np.sqrt((1.0 - ab_next) / (1.0 - ab_t))
                      * np.sqrt(1.0 - ab_t / ab_next))
        if cfg.sigma_mode is SigmaMode.DETERMINISTIC:
            y = np.sqrt(ab_next) * y0 + np.sqrt(1.0 - ab_next) * eps_t
            continue
        z = RngStream(cfg.seed, stream_id("sampler_ddim", t, h, branch)
                      ).standard_normal(shape)
        y = (np.sqrt(ab_next) * y0
             + np.sqrt(1.0 - ab_next - sigma * sigma) * eps_t + sigma * z)


def _reference(x, den, cfg, sched, hyp_offset):
    shape = x.shape[:2] + (3,)
    x_flip = _mirror(x, IMAGE_WIDTH)

    def plain(y_mm, t):
        return den.predict_clean(y_mm[None], x, t,
                                 np.empty((1,) + y_mm.shape))[0]

    def flipped(y_mm, t):
        return den.predict_clean(y_mm[None], x_flip, t,
                                 np.empty((1,) + y_mm.shape),
                                 mirrored=SKELETON)[0]

    def both(y_mm, t):
        return (plain(y_mm, t) + _mirror(flipped(_mirror(y_mm), t))) / 2.0

    rows = []
    for h in range(hyp_offset, hyp_offset + cfg.hypotheses):
        def chain(predict, branch=0):
            return _reference_chain(predict, shape, cfg, sched, h, branch)
        if cfg.flip_mode is FlipMode.NONE:
            rows.append(chain(plain))
        elif cfg.flip_mode is FlipMode.DIFFUSION:
            rows.append(chain(both))
        else:
            rows.append((chain(plain) + _mirror(chain(flipped, 1))) / 2.0)
    return np.stack(rows)


def _check_against_reference(flip_mode, sigma_mode, hypotheses, hyp_offset,
                             frames, oracle=False):
    sched = make_cosine_schedule(T_MAX)
    x = np.random.default_rng(8).uniform(
        100.0, 900.0, size=(frames, SKELETON.num_joints, 2))
    if oracle:
        gt = np.random.default_rng(9).normal(
            scale=300.0, size=(frames, SKELETON.num_joints, 3))
        den = ContractiveOracle(PoseSeq3D(gt), 0.3)
    else:
        den = MlpDenoiser(_model(SKELETON.num_joints), T_MAX)
    cfg = SamplerConfig(hypotheses=hypotheses, iterations=ITERATIONS,
                        sigma_mode=sigma_mode, flip_mode=flip_mode, seed=SEED)
    got = run_sampler(PoseSeq2D(x), den, cfg, sched, SKELETON, IMAGE_WIDTH,
                      hyp_offset=hyp_offset)
    want = _reference(x, den, cfg, sched, hyp_offset)
    assert got.poses.shape == want.shape
    assert np.array_equal(got.poses, want)


@pytest.mark.parametrize("flip_mode", list(FlipMode))
@pytest.mark.parametrize("hypotheses, hyp_offset", [(1, 0), (3, 0), (3, 2)])
def test_run_sampler_matches_textbook_ddim(flip_mode, hypotheses, hyp_offset):
    # 5 frames: odd, so no product splits into equal halves
    _check_against_reference(flip_mode, SigmaMode.STOCHASTIC, hypotheses,
                             hyp_offset, 5)


@pytest.mark.parametrize("flip_mode", list(FlipMode))
@pytest.mark.parametrize("sigma_mode, frames", [
    (SigmaMode.DETERMINISTIC, 5), (SigmaMode.DETERMINISTIC, 256),
    (SigmaMode.STOCHASTIC, 256)])
def test_run_sampler_matches_textbook_ddim_every_sigma_and_length(
        flip_mode, sigma_mode, frames):
    # BLAS blocks 256 rows differently from a few
    _check_against_reference(flip_mode, sigma_mode, 3, 2, frames)


@pytest.mark.parametrize("flip_mode", list(FlipMode))
@pytest.mark.parametrize("sigma_mode", list(SigmaMode))
def test_run_sampler_matches_textbook_ddim_through_the_state(flip_mode,
                                                              sigma_mode):
    # The MLP reads the state in float32, which rounds away a float64
    # difference in the update; the contractive oracle returns the
    # state's every bit, so this pins the update's own rounding.
    _check_against_reference(flip_mode, sigma_mode, 3, 2, 5, oracle=True)
