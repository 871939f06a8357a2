"""Controlled hypothesis clouds for the tests: the ground truth of a
synthetic scenario perturbed under one of two error models.

* ``IidGaussian`` — isotropic per-joint error,
* ``Bimodal`` — mostly-correct joints with occasional large
  displacements, the misdetection shape that selection-style
  aggregation is designed to reject.

Hypothesis h of scenario i draws from
``RngStream(cfg.seed, stream_id("synth_hyp", i, h))``, so a larger
count extends a cloud without disturbing its members.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from posediff.core import HypothesisSet, PoseSeq2D, PoseSeq3D
from posediff.rng import RngStream, stream_id
from posediff.synth import ScenarioConfig, gen_poses


@dataclass(frozen=True)
class IidGaussian:
    """Isotropic Gaussian joint error."""

    sigma_mm: float = 30.0

    def __post_init__(self):
        if self.sigma_mm < 0:
            raise ValueError("sigma_mm must be >= 0")


@dataclass(frozen=True)
class Bimodal:
    """Each joint is correct up to small noise, or displaced outright."""

    offset_mm: float = 150.0
    p_wrong: float = 0.3
    sigma_correct_mm: float = 5.0

    def __post_init__(self):
        if not 0.0 <= self.p_wrong <= 1.0:
            raise ValueError(f"p_wrong must be in [0, 1], got {self.p_wrong}")
        if self.offset_mm < 0 or self.sigma_correct_mm < 0:
            raise ValueError("offset and sigma must be >= 0")


def gen_hypotheses(gt: PoseSeq3D, cfg: ScenarioConfig, count: int,
                   model: IidGaussian | Bimodal = IidGaussian(), *,
                   scenario: int = 0) -> HypothesisSet:
    """Perturb the ground truth into ``count`` hypotheses under ``model``.

    Pass a distinct ``scenario`` per pose, otherwise clouds repeat
    across poses.
    """
    n, j = gt.num_frames, gt.num_joints
    hyps = np.empty((count, n, j, 3))
    for h in range(count):
        rng = RngStream(cfg.seed, stream_id("synth_hyp", scenario, h))
        if isinstance(model, IidGaussian):
            hyps[h] = gt.joints + model.sigma_mm * rng.standard_normal((n, j, 3))
        else:
            wrong = rng.uniform(0.0, 1.0, (n, j)) < model.p_wrong
            dirs = rng.unit_vectors((n, j))
            small = model.sigma_correct_mm * rng.standard_normal((n, j, 3))
            displaced = gt.joints + model.offset_mm * dirs
            hyps[h] = np.where(wrong[..., None], displaced, gt.joints + small)
    return HypothesisSet(hyps)


def gen_scenarios(cfg: ScenarioConfig, count: int,
                  model: IidGaussian | Bimodal = IidGaussian()
                  ) -> list[tuple[PoseSeq3D, PoseSeq2D, HypothesisSet]]:
    """Pose, 2D input and hypothesis cloud of every scenario of ``cfg``."""
    return [(gt, x, gen_hypotheses(gt, cfg, count, model, scenario=i))
            for i, (gt, x) in enumerate(gen_poses(cfg))]
