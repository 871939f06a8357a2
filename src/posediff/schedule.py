"""Noise schedule for the forward diffusion process.

The schedule tabulates beta_t, alpha_t = 1 - beta_t and the running
product alpha_bar_t for t = 0 .. t_max. Index 0 is the identity step
(beta=0, alpha_bar=1) so that diffusing to t=0 returns the input
unchanged; real steps start at t=1.

Poses enter the diffusion process in dimensionless signal units: divide
millimeter coordinates by ``MM_PER_UNIT`` and multiply by the signal
scale, so a 2000 mm coordinate at the default scale maps to 4.0. The
inverse restores millimeters exactly (it is the same two factors).
"""
from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ShapeError

MM_PER_UNIT = 1000.0
DEFAULT_SIGNAL_SCALE = 2.0
COSINE_OFFSET = 0.008
MAX_BETA = 0.999


@dataclass(frozen=True)
class NoiseSchedule:
    """Tabulated forward-process coefficients, arrays of length t_max+1."""

    t_max: int
    beta: np.ndarray
    alpha: np.ndarray
    alpha_bar: np.ndarray

    def __post_init__(self):
        for name in ("beta", "alpha", "alpha_bar"):
            arr = np.asarray(getattr(self, name), dtype=np.float64)
            if arr.shape != (self.t_max + 1,):
                raise ShapeError(f"{name}: expected ({self.t_max + 1},), got {arr.shape}")
            arr = arr.copy()
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if self.t_max < 2:
            raise ValueError(f"t_max must be >= 2, got {self.t_max}")
        if self.beta[0] != 0.0 or self.alpha_bar[0] != 1.0:
            raise ValueError("index 0 must be the identity step")
        if np.any(self.beta[1:] <= 0.0) or np.any(self.beta[1:] >= 1.0):
            raise ValueError("beta_t must lie in (0, 1) for t >= 1")
        if np.any(self.alpha != 1.0 - self.beta):
            raise ValueError("alpha must equal 1 - beta")
        if np.any(np.diff(self.alpha_bar) >= 0.0):
            raise ValueError("alpha_bar must be strictly decreasing")
        if not self.alpha_bar[self.t_max] < 1e-3:
            raise ValueError(
                f"alpha_bar at t_max must be < 1e-3, got {self.alpha_bar[self.t_max]:g}")
        prod = self.alpha_bar[:-1] * self.alpha[1:]
        if not np.allclose(self.alpha_bar[1:], prod, rtol=1e-9, atol=0.0):
            raise ValueError("alpha_bar must be the running product of alpha")


def make_cosine_schedule(t_max: int, *, offset: float = COSINE_OFFSET,
                         max_beta: float = MAX_BETA) -> NoiseSchedule:
    """Squared-cosine schedule with the standard small-t offset.

    Betas are derived from the cosine alpha_bar curve and clipped from
    above at ``max_beta``; alpha_bar is then rebuilt as the running
    product of (1 - beta) so the product identity holds exactly even
    where the clip was active.
    """
    if t_max < 2:
        raise ValueError(f"t_max must be >= 2, got {t_max}")
    ts = np.arange(t_max + 1, dtype=np.float64)
    f = np.cos(((ts / t_max + offset) / (1.0 + offset)) * np.pi / 2.0) ** 2
    ab_curve = f / f[0]
    beta = 1.0 - ab_curve[1:] / ab_curve[:-1]
    beta = np.minimum(beta, max_beta)
    alpha = 1.0 - beta
    alpha_bar = np.concatenate(([1.0], np.cumprod(alpha)))
    return NoiseSchedule(
        t_max=t_max,
        beta=np.concatenate(([0.0], beta)),
        alpha=np.concatenate(([1.0], alpha)),
        alpha_bar=alpha_bar,
    )


def diffuse_array(y0: np.ndarray, t: int, sched: NoiseSchedule,
                  eps: np.ndarray) -> np.ndarray:
    """Forward-diffuse a signal-unit array to step t with given noise."""
    if not 0 <= t <= sched.t_max:
        raise ValueError(f"t={t} outside [0, {sched.t_max}]")
    eps = np.asarray(eps, dtype=np.float64)
    if eps.shape != y0.shape:
        raise ShapeError(f"noise shape {eps.shape} != signal shape {y0.shape}")
    ab = sched.alpha_bar[t]
    return np.sqrt(ab) * y0 + np.sqrt(1.0 - ab) * eps


def to_signal_units(mm: np.ndarray, signal_scale: float = DEFAULT_SIGNAL_SCALE) -> np.ndarray:
    if not signal_scale > 0:
        raise ValueError(f"signal_scale must be positive, got {signal_scale}")
    return np.asarray(mm, dtype=np.float64) * (signal_scale / MM_PER_UNIT)


def to_millimeters(units: np.ndarray, signal_scale: float = DEFAULT_SIGNAL_SCALE) -> np.ndarray:
    if not signal_scale > 0:
        raise ValueError(f"signal_scale must be positive, got {signal_scale}")
    return np.asarray(units, dtype=np.float64) / (signal_scale / MM_PER_UNIT)


def save_schedule_csv(sched: NoiseSchedule, path: str | Path) -> None:
    """Dump the schedule as CSV with columns t, beta, alpha, alpha_bar."""
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["t", "beta", "alpha", "alpha_bar"])
        for t in range(sched.t_max + 1):
            w.writerow([t, repr(float(sched.beta[t])),
                        repr(float(sched.alpha[t])),
                        repr(float(sched.alpha_bar[t]))])
