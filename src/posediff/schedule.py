"""Noise schedule for the forward diffusion process.

The schedule tabulates beta_t, alpha_t = 1 - beta_t and the running
product alpha_bar_t for t = 0 .. t_max. Index 0 is the identity step
(beta=0, alpha_bar=1) so that diffusing to t=0 returns the input
unchanged; real steps start at t=1.

Poses enter the diffusion process in dimensionless signal units: divide
millimeter coordinates by ``MM_PER_UNIT`` and multiply by
``SIGNAL_SCALE``, so a 2000 mm coordinate maps to 4.0. The inverse
restores millimeters exactly (it is the same two factors).
"""
from __future__ import annotations

import csv
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ShapeError

MM_PER_UNIT = 1000.0
SIGNAL_SCALE = 2.0
COSINE_OFFSET = 0.008
MAX_BETA = 0.999


@dataclass(frozen=True)
class NoiseSchedule:
    """Forward-process coefficients tabulated for t = 0 .. t_max, built
    from ``beta`` alone: ``alpha`` is 1 - beta and ``alpha_bar`` the
    running product of alpha."""

    beta: np.ndarray
    alpha_bar: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        beta = np.array(self.beta, dtype=np.float64)
        if beta.ndim != 1:
            raise ShapeError(f"beta: expected one dimension, got {beta.shape}")
        beta.setflags(write=False)
        object.__setattr__(self, "beta", beta)
        if self.t_max < 2:
            raise ValueError(f"t_max must be >= 2, got {self.t_max}")
        if beta[0] != 0.0:
            raise ValueError("index 0 must be the identity step")
        if np.any(beta[1:] <= 0.0) or np.any(beta[1:] >= 1.0):
            raise ValueError("beta_t must lie in (0, 1) for t >= 1")
        alpha_bar = np.cumprod(self.alpha)
        alpha_bar.setflags(write=False)
        object.__setattr__(self, "alpha_bar", alpha_bar)
        if np.any(np.diff(alpha_bar) >= 0.0):
            raise ValueError("alpha_bar must be strictly decreasing")
        if not alpha_bar[-1] < 1e-3:
            raise ValueError(
                f"alpha_bar at t_max must be < 1e-3, got {alpha_bar[-1]:g}")

    @property
    def t_max(self) -> int:
        return len(self.beta) - 1

    @property
    def alpha(self) -> np.ndarray:
        return 1.0 - self.beta


def make_cosine_schedule(t_max: int) -> NoiseSchedule:
    """Squared-cosine schedule with the standard small-t offset
    ``COSINE_OFFSET``.

    Betas are derived from the cosine alpha_bar curve and clipped from
    above at ``MAX_BETA``; alpha_bar is then rebuilt as the running
    product of (1 - beta) so the product identity holds exactly even
    where the clip was active.
    """
    if t_max < 2:
        raise ValueError(f"t_max must be >= 2, got {t_max}")
    ts = np.arange(t_max + 1, dtype=np.float64)
    f = np.cos(((ts / t_max + COSINE_OFFSET) / (1.0 + COSINE_OFFSET))
               * np.pi / 2.0) ** 2
    ab_curve = f / f[0]
    beta = 1.0 - ab_curve[1:] / ab_curve[:-1]
    beta = np.minimum(beta, MAX_BETA)
    return NoiseSchedule(beta=np.concatenate(([0.0], beta)))


def diffuse_array(y0: np.ndarray, t: int | np.ndarray, sched: NoiseSchedule,
                  eps: np.ndarray) -> np.ndarray:
    """Forward-diffuse a signal-unit array to step t with given noise; ``t``
    is one step, or an integer array of one step per leading row of ``y0``."""
    t = np.asarray(t)
    bad = (t < 0) | (t > sched.t_max)
    if np.any(bad):
        raise ValueError(f"t={t[bad][0]} outside [0, {sched.t_max}]")
    eps = np.asarray(eps, dtype=np.float64)
    if eps.shape != y0.shape or t.shape not in ((), y0.shape[:1]):
        raise ShapeError(f"noise shape {eps.shape} and steps shape {t.shape} "
                         f"do not fit signal shape {y0.shape}")
    ab = sched.alpha_bar[t].reshape(t.shape + (1,) * (y0.ndim - t.ndim))
    return np.sqrt(ab) * y0 + np.sqrt(1.0 - ab) * eps


def to_signal_units(mm: np.ndarray) -> np.ndarray:
    return np.asarray(mm, dtype=np.float64) * (SIGNAL_SCALE / MM_PER_UNIT)


def to_millimeters(units: np.ndarray) -> np.ndarray:
    return np.asarray(units, dtype=np.float64) / (SIGNAL_SCALE / MM_PER_UNIT)


def save_schedule_csv(sched: NoiseSchedule, path: str | Path) -> None:
    """Dump the schedule as CSV with columns t, beta, alpha, alpha_bar."""
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["t", "beta", "alpha", "alpha_bar"])
        alpha = sched.alpha
        for t in range(sched.t_max + 1):
            w.writerow([t, repr(float(sched.beta[t])), repr(float(alpha[t])),
                        repr(float(sched.alpha_bar[t]))])
