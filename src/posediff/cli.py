"""Command line interface.

Five commands cover the pipeline: ``gen`` writes a synthetic dataset,
``train`` fits the MLP denoiser, ``infer`` samples hypotheses and
aggregates them, ``bench`` sweeps hypothesis and iteration counts, and
``render`` draws poses to SVG. Every command is a thin binding over the
library; given the same config, calling the library directly produces
byte-identical outputs.

Exit codes: 0 success, 2 config problem, 3 training failure, 4 a
request that needs ground truth ran against data without it, 1 any
other pipeline error.
"""
from __future__ import annotations

import csv
import functools
import itertools
import json
from dataclasses import asdict, fields, replace
from pathlib import Path

import click
import numpy as np

from .aggregate import (METHOD_INPUTS, METHOD_NAMES, AggregationReport,
                        SharedCostSet, run_aggregator)
from .camera import load_camera
from .config import (RunConfig, apply_overrides, config_sha256,
                     config_to_dict, load_config, require_file)
from .core import (DEFAULT_SKELETON, HypothesisSet, PoseSeq2D, PoseSeq3D,
                   load_skeleton)
from .dataset import MANIFEST_NAME, Dataset, load_dataset, save_dataset
from .denoise import (ContractiveOracle, Denoiser, MlpDenoiser, NoisyOracle,
                      PerfectOracle, save_checkpoint, train)
from .errors import (AggregationError, ConfigError, DegenerateAlignmentError,
                     MissingGroundTruthError, NumericError, PoseDiffError,
                     TrainingDivergedError)
from .metrics import GroundTruth, MetricReport, compute_metrics
from .poseio import load_poses, save_poses
from .render import render_sequence
from .rng import serve_repeats, stream_id
from .sampler import FlipMode, run_sampler
from .schedule import make_cosine_schedule, save_schedule_csv
from .synth import DEFAULT_CAMERA, gen_poses

DEFAULT_AGGREGATORS = "avg,jpma,ppma"
CSV_COLUMNS = ("method", "H", "K", *(f.name for f in fields(MetricReport)))


def _guard(fn):
    """Map library exceptions onto the documented exit codes."""
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except ConfigError as exc:
            _fail(2, str(exc))
        except TrainingDivergedError as exc:
            _fail(3, str(exc))
        except MissingGroundTruthError as exc:
            _fail(4, str(exc))
        except (PoseDiffError, ValueError, OSError) as exc:
            _fail(1, str(exc))
    return wrapper


def _fail(code: int, message: str):
    click.echo(f"error: {message}", err=True)
    raise SystemExit(code)


def _common(fn):
    fn = click.option("--out", "out_dir", type=click.Path(), default=None,
                      help="Output directory (overrides config).")(fn)
    fn = click.option("--seed", type=int, default=None,
                      help="Top-level seed (overrides config).")(fn)
    fn = click.option("--config", "config_path", type=click.Path(),
                      default=None, help="JSON run config.")(fn)
    return fn


def _sampling(fn):
    """Options of the commands that sample and aggregate."""
    fn = click.option("--sigma-mode", default=None,
                      type=click.Choice(["stochastic", "deterministic"]),
                      help="DDIM noise injection mode.")(fn)
    fn = click.option("--flip", "flip_mode", default=None,
                      type=click.Choice(["none", "once", "diffusion"]),
                      help="Flip augmentation mode.")(fn)
    fn = click.option("--aggregator", "aggregators",
                      default=DEFAULT_AGGREGATORS, show_default=True,
                      help="Comma-separated aggregator list.")(fn)
    fn = click.option("--oracle", default=None,
                      type=click.Choice(["perfect", "contractive", "noisy"]),
                      help="Use a ground-truth oracle instead of a "
                           "checkpoint.")(fn)
    fn = click.option("--checkpoint", type=click.Path(), default=None,
                      help="Denoiser checkpoint from 'train'.")(fn)
    fn = click.option("--data", "data_dir", required=True, type=click.Path(),
                      help="Dataset directory from 'gen'.")(fn)
    return fn


def _load_cfg(config_path: str | None, **overrides) -> RunConfig:
    cfg = load_config(config_path) if config_path else RunConfig()
    return apply_overrides(cfg, **overrides)


def _write_manifest(root: Path, command: str, cfg: RunConfig,
                    **extra) -> None:
    doc = {"command": command, "seed": cfg.seed,
           "config_sha256": config_sha256(cfg), **extra}
    (root / "run_manifest.json").write_text(
        json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _write_config_copy(root: Path, cfg: RunConfig) -> None:
    (root / "config.json").write_text(
        json.dumps(config_to_dict(cfg), indent=2, sort_keys=True) + "\n")


def _parse_aggregators(text: str, has_gt: bool) -> list[str]:
    methods = [m.strip() for m in text.split(",") if m.strip()]
    if not methods:
        raise ConfigError("empty aggregator list")
    for i, m in enumerate(methods):
        if m not in METHOD_NAMES:
            raise ConfigError(f"unknown aggregator {m!r}, expected one of "
                              f"{', '.join(METHOD_NAMES)}")
        if m in methods[:i]:
            raise ConfigError(f"aggregator {m!r} is given twice")
    if not has_gt:
        needy = [m for m in methods if "ground truth" in METHOD_INPUTS[m]]
        if needy:
            raise MissingGroundTruthError(
                f"aggregator(s) {', '.join(needy)} need ground truth, "
                f"dataset has none")
    return methods


def _load_data(data_dir: str) -> Dataset:
    """The dataset under ``data_dir``. A missing manifest is a usage
    error, as a missing config or checkpoint is."""
    path = Path(data_dir) / MANIFEST_NAME
    if not path.exists():
        raise ConfigError(f"dataset manifest not found: {path}")
    return load_dataset(data_dir)


def _check_flip_camera(cfg: RunConfig, data_dir: str, ds: Dataset) -> None:
    """Flips mirror keypoints about the camera's principal point,
    ``u -> 2*cx - u``, so they need a camera with a positive ``cx``.
    The flipped keypoints are the projection of the mirrored pose only
    when ``p1`` is 0: mirroring negates x', but not the ``p1 r^2``
    shift of the distorted x."""
    if cfg.sampler.flip_mode is FlipMode.NONE:
        return
    for name, ok, rule in (("cx", ds.camera.cx > 0, "positive"),
                           ("p1", ds.camera.p1 == 0.0, "0")):
        if not ok:
            raise ValueError(
                f"{Path(data_dir) / MANIFEST_NAME}: camera {name} must be "
                f"{rule} to flip keypoints about 2*cx (flip mode "
                f"'{cfg.sampler.flip_mode.value}'), got "
                f"{getattr(ds.camera, name)}")


def _denoisers(cfg: RunConfig, ds: Dataset, checkpoint: str | None,
               oracle: str | None) -> list[Denoiser]:
    """One denoiser per sequence of ``ds``: the checkpoint's model for
    every sequence, or an oracle on each sequence's ground truth."""
    if (checkpoint is None) == (oracle is None):
        raise ConfigError("give exactly one of --checkpoint or --oracle")
    if checkpoint is not None:
        path = Path(checkpoint)
        require_file(path, "checkpoint")
        try:
            den = MlpDenoiser.from_checkpoint(path)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        if den.t_max != cfg.t_max:
            raise ConfigError(f"{path}: checkpoint was trained with t_max "
                              f"{den.t_max}, config says {cfg.t_max}")
        if den.params.num_joints != ds.skeleton.num_joints:
            raise ConfigError(f"{path}: the model is for "
                              f"{den.params.num_joints} joints, the dataset "
                              f"has {ds.skeleton.num_joints}")
        return [den] * len(ds.sequences)
    dens = []
    for i, seq in enumerate(ds.sequences):
        if seq.gt is None:
            raise MissingGroundTruthError(
                f"oracle denoiser '{oracle}' needs ground truth, sequence "
                f"{seq.name} has none")
        if oracle == "perfect":
            dens.append(PerfectOracle(seq.gt))
        elif oracle == "contractive":
            dens.append(ContractiveOracle(seq.gt,
                                          cfg.denoiser.oracle_lambda))
        else:
            dens.append(NoisyOracle(seq.gt, cfg.denoiser.oracle_sigma_mm,
                                    seed=stream_id("oracle", cfg.seed, i)))
    return dens


def _frame_slices(ds: Dataset) -> list[slice]:
    """Where each sequence's frames sit among the dataset's frames,
    stacked in sequence order."""
    ends = itertools.accumulate(seq.num_frames for seq in ds.sequences)
    return [slice(end - seq.num_frames, end)
            for seq, end in zip(ds.sequences, ends)]


def _sample_all(cfgs: list[RunConfig], ds: Dataset,
                denoisers: list[Denoiser]) -> list[SharedCostSet]:
    """Sample every sequence at each of ``cfgs``, which differ at most in
    H and K, each sequence with its own seed: one read-only (H, frames,
    J, 3) set per config over the dataset's frames, stacked in sequence
    order (see ``_frame_slices``). Flips mirror with the dataset's
    skeleton and about its camera's principal point, which made the
    keypoints.

    A sequence's chains run one after another in one ``serve_repeats``
    scope, and every chain but the last holds its draws: a noise key
    that two ladders share, as K=5's and K=10's share K=5's, is drawn
    once per sequence, in any order of ``cfgs``."""
    sched = make_cosine_schedule(cfgs[0].t_max)
    slices = _frame_slices(ds)
    poses = [np.empty((cfg.sampler.hypotheses, slices[-1].stop,
                       ds.skeleton.num_joints, 3)) for cfg in cfgs]
    for i, (seq, den) in enumerate(zip(ds.sequences, denoisers)):
        with serve_repeats() as served:
            for j, cfg in enumerate(cfgs):
                served.keep = j + 1 < len(cfgs)
                scfg = replace(cfg.sampler,
                               seed=stream_id("sequence", cfg.seed, i))
                try:
                    # copied without a name, so no sequence's result
                    # stays alive while the next one samples
                    poses[j][:, slices[i]] = run_sampler(
                        seq.keypoints, den, scfg, sched, ds.skeleton,
                        2.0 * ds.camera.cx).poses
                except NumericError as exc:
                    raise NumericError(
                        f"sampling sequence {i} ({seq.name}): {exc}",
                        hypothesis=exc.hypothesis) from exc
    for stack in poses:
        stack.setflags(write=False)
    return [SharedCostSet(stack) for stack in poses]


def _stacked_inputs(ds: Dataset) -> tuple[PoseSeq2D, GroundTruth | None]:
    """The dataset's keypoints and ground truth (None without) over its
    stacked frames. The ground truth computes its half of P-MPJPE's
    alignment once, for every scoring against it."""
    x = PoseSeq2D(np.concatenate([s.keypoints.joints for s in ds.sequences]))
    gt = (GroundTruth(np.concatenate([s.gt.joints for s in ds.sequences]))
          if ds.has_gt else None)
    return x, gt


def _score(cfg: RunConfig, ds: Dataset, hs: HypothesisSet,
           methods: list[str], x: PoseSeq2D,
           gt: GroundTruth | None) -> tuple[dict[str, AggregationReport],
                                           list[dict]]:
    """Aggregate ``hs``, the dataset's stacked frames, once with each
    method, against ``_stacked_inputs(ds)``. Every method works frame by
    frame, so this equals one call per sequence, bitwise. Returns method
    -> its AggregationReport over the stacked frames, and one metric row
    per method over all frames (no rows without ground truth). An error
    in one frame names its sequence and the frame within it."""
    try:
        reports = {m: run_aggregator(m, hs, x=x, cam=ds.camera, gt=gt)
                   for m in methods}
        pooled = {} if gt is None else {
            m: compute_metrics(reports[m].pose, gt,
                               with_scale=cfg.metrics.pmpjpe_scale)
            for m in methods}
    except (AggregationError, DegenerateAlignmentError) as exc:
        if exc.frame is None:
            raise
        i, frames = next((i, frames)
                         for i, frames in enumerate(_frame_slices(ds))
                         if exc.frame < frames.stop)
        raise type(exc)(exc.reason, frame=exc.frame - frames.start,
                        context=f"scoring sequence {i} "
                                f"({ds.sequences[i].name})") from exc
    rows = [{"method": m, "H": hs.count, "K": cfg.sampler.iterations,
             **{name: repr(value) for name, value in asdict(report).items()}}
            for m, report in pooled.items()]
    return reports, rows


def _write_metric_rows(path: Path, rows: list[dict]) -> None:
    with open(path, "w", newline="") as f:
        writer = csv.DictWriter(f, fieldnames=CSV_COLUMNS)
        writer.writeheader()
        writer.writerows(rows)


@click.group()
@click.version_option(package_name="posediff")
def main():
    """Multi-hypothesis 3D pose lifting via diffusion sampling."""


@main.command()
@_common
@click.option("--dump-schedule", is_flag=True,
              help="Also write the noise schedule as CSV.")
@_guard
def gen(config_path, seed, out_dir, dump_schedule):
    """Generate a synthetic dataset (3D ground truth + 2D keypoints)."""
    cfg = _load_cfg(config_path, seed=seed, out_dir=out_dir)
    root = Path(cfg.out_dir)
    root.mkdir(parents=True, exist_ok=True)
    pairs = gen_poses(cfg.scenario)
    save_dataset(root, cfg.scenario.skeleton, cfg.scenario.camera,
                 [(kp, gt) for gt, kp in pairs],
                 config_sha256=config_sha256(cfg))
    if dump_schedule:
        save_schedule_csv(make_cosine_schedule(cfg.t_max),
                          root / "schedule.csv")
    _write_config_copy(root, cfg)
    _write_manifest(root, "gen", cfg, sequences=len(pairs))
    click.echo(f"wrote {len(pairs)} sequences to {root}")


@main.command(name="train")
@_common
@click.option("--data", "data_dir", required=True, type=click.Path(),
              help="Dataset directory from 'gen'.")
@_guard
def train_cmd(config_path, seed, out_dir, data_dir):
    """Train the MLP denoiser on a dataset with ground truth."""
    cfg = _load_cfg(config_path, seed=seed, out_dir=out_dir)
    ds = _load_data(data_dir)
    if not ds.has_gt:
        raise MissingGroundTruthError("training needs ground truth poses")
    root = Path(cfg.out_dir)
    root.mkdir(parents=True, exist_ok=True)
    sched = make_cosine_schedule(cfg.t_max)
    result = train([(s.keypoints, s.gt) for s in ds.sequences],
                   cfg.train, sched)
    ckpt = root / "model.ckpt"
    save_checkpoint(ckpt, result.params, t_max=cfg.t_max)
    with open(root / "loss.csv", "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["step", "loss"])
        for step, loss in enumerate(result.loss_history):
            writer.writerow([step, repr(float(loss))])
    _write_config_copy(root, cfg)
    _write_manifest(root, "train", cfg, data=str(data_dir),
                    checkpoint=ckpt.name, steps=len(result.loss_history),
                    final_loss=result.final_loss)
    click.echo(f"final loss {result.final_loss:.6g}, checkpoint at {ckpt}")


@main.command()
@_common
@_sampling
@click.option("--hypotheses", type=int, default=None, help="Hypotheses H.")
@click.option("--iterations", type=int, default=None, help="DDIM steps K.")
@click.option("--save-hypotheses/--no-save-hypotheses", default=True,
              help="Write each hypothesis as a pose file.")
@click.option("--dump-schedule", is_flag=True,
              help="Also write the noise schedule as CSV.")
@_guard
def infer(config_path, seed, out_dir, data_dir, checkpoint, oracle,
          hypotheses, iterations, aggregators, flip_mode, sigma_mode,
          save_hypotheses, dump_schedule):
    """Sample pose hypotheses and aggregate them into final poses."""
    cfg = _load_cfg(config_path, seed=seed, out_dir=out_dir,
                    hypotheses=hypotheses, iterations=iterations,
                    flip_mode=flip_mode, sigma_mode=sigma_mode)
    ds = _load_data(data_dir)
    methods = _parse_aggregators(aggregators, ds.has_gt)
    denoisers = _denoisers(cfg, ds, checkpoint, oracle)
    _check_flip_camera(cfg, data_dir, ds)
    root = Path(cfg.out_dir)
    root.mkdir(parents=True, exist_ok=True)

    (hs,) = _sample_all([cfg], ds, denoisers)
    reports, rows = _score(cfg, ds, hs, methods, *_stacked_inputs(ds))

    # The files are per sequence: each takes its frames of the stack.
    slices = _frame_slices(ds)
    if save_hypotheses:
        for seq, frames in zip(ds.sequences, slices):
            hyp_dir = root / "hyp" / seq.name
            hyp_dir.mkdir(parents=True, exist_ok=True)
            for h in range(hs.count):
                save_poses(PoseSeq3D(hs.poses[h, frames]),
                           hyp_dir / f"h_{h:03d}.jsonl")
    for m in methods:
        agg_dir = root / "agg" / m
        agg_dir.mkdir(parents=True, exist_ok=True)
        for seq, frames in zip(ds.sequences, slices):
            save_poses(PoseSeq3D(reports[m].pose.joints[frames]),
                       agg_dir / f"{seq.name}.jsonl")
        (agg_dir / "meta.json").write_text(json.dumps(
            {"method": m, "feasible_in_production": reports[m].feasible},
            indent=2, sort_keys=True) + "\n")

    if ds.has_gt:
        _write_metric_rows(root / "metrics.csv", rows)
        for row in rows:
            click.echo(f"{row['method']}: mpjpe "
                       f"{float(row['mpjpe_mm']):.2f} mm")
    else:
        click.echo("dataset has no ground truth, metrics skipped", err=True)

    if dump_schedule:
        save_schedule_csv(make_cosine_schedule(cfg.t_max),
                          root / "schedule.csv")
    _write_config_copy(root, cfg)
    _write_manifest(root, "infer", cfg, data=str(data_dir),
                    checkpoint=checkpoint, oracle=oracle,
                    hypotheses=cfg.sampler.hypotheses,
                    iterations=cfg.sampler.iterations, aggregators=methods,
                    sigma_mode=cfg.sampler.sigma_mode.value,
                    flip_mode=cfg.sampler.flip_mode.value)


@main.command()
@_common
@_sampling
@click.option("--hypotheses", "hypotheses_set", default="1,5,10,20",
              show_default=True, help="Comma-separated H values.")
@click.option("--iterations", "iterations_set", default="10",
              show_default=True, help="Comma-separated K values.")
@_guard
def bench(config_path, seed, out_dir, data_dir, checkpoint, oracle,
          hypotheses_set, iterations_set, aggregators, flip_mode, sigma_mode):
    """Sweep hypothesis and iteration counts; one CSV row per cell."""
    def parse_ints(text, what):
        try:
            values = [int(v) for v in text.split(",") if v.strip()]
        except ValueError as exc:
            raise ConfigError(f"bad {what} list {text!r}") from exc
        if not values:
            raise ConfigError(f"empty {what} grid")
        for i, v in enumerate(values):
            if v in values[:i]:
                raise ConfigError(f"{what} {v} is given twice")
        return values

    hs_values = parse_ints(hypotheses_set, "hypotheses")
    ks_values = parse_ints(iterations_set, "iterations")
    cfg = _load_cfg(config_path, seed=seed, out_dir=out_dir,
                    flip_mode=flip_mode, sigma_mode=sigma_mode)
    # Every cell is checked before the first one is sampled.
    for h in hs_values:
        for k in ks_values:
            apply_overrides(cfg, hypotheses=h, iterations=k)
    ds = _load_data(data_dir)
    if not ds.has_gt:
        raise MissingGroundTruthError("bench needs ground truth for metrics")
    methods = _parse_aggregators(aggregators, ds.has_gt)
    denoisers = _denoisers(cfg, ds, checkpoint, oracle)
    _check_flip_camera(cfg, data_dir, ds)
    root = Path(cfg.out_dir)
    root.mkdir(parents=True, exist_ok=True)

    # One sample per K at the largest H serves every H: the sampler
    # gives H=h as the first h hypotheses of any larger H, bitwise, and
    # each H's aggregators read the first h rows of that sample's
    # costs. Every K is sampled before the first is scored, so that a
    # sequence draws the noise its K share once: every K's hypotheses
    # are alive at once.
    h_max = max(hs_values)
    kcfgs = [apply_overrides(cfg, hypotheses=h_max, iterations=k)
             for k in ks_values]
    sampled = _sample_all(kcfgs, ds, denoisers)
    x, gt = _stacked_inputs(ds)
    rows = [row for h in hs_values for kcfg, hs in zip(kcfgs, sampled)
            for row in _score(kcfg, ds, hs.first(h), methods, x, gt)[1]]
    _write_metric_rows(root / "bench.csv", rows)
    _write_config_copy(root, cfg)
    _write_manifest(root, "bench", cfg, data=str(data_dir),
                    checkpoint=checkpoint, oracle=oracle,
                    hypotheses=hs_values, iterations=ks_values,
                    aggregators=methods)
    click.echo(f"wrote {len(rows)} rows to {root / 'bench.csv'}")


@main.command()
@click.option("--gt", "gt_path", type=click.Path(), default=None,
              help="3D ground-truth pose file.")
@click.option("--hyp", "hyp_paths", type=click.Path(), multiple=True,
              help="3D hypothesis pose file (repeatable).")
@click.option("--camera", "camera_path", type=click.Path(), default=None,
              help="Camera JSON (default: built-in camera).")
@click.option("--skeleton", "skeleton_path", type=click.Path(), default=None,
              help="Skeleton JSON (default: built-in 17-joint skeleton).")
@click.option("--out", "out_dir", type=click.Path(), required=True)
@click.option("--width", type=click.IntRange(min=1), default=1000,
              show_default=True)
@click.option("--height", type=click.IntRange(min=1), default=1000,
              show_default=True)
@_guard
def render(gt_path, hyp_paths, camera_path, skeleton_path, out_dir, width,
           height):
    """Render poses to one SVG per frame; gt solid, hypotheses dashed."""
    if gt_path is None and not hyp_paths:
        raise ConfigError("nothing to render: give --gt and/or --hyp")
    try:
        cam = load_camera(camera_path) if camera_path else DEFAULT_CAMERA
        skel = (load_skeleton(skeleton_path) if skeleton_path
                else DEFAULT_SKELETON)
    except (OSError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc

    def load3d(path):
        pose = load_poses(path)
        if not isinstance(pose, PoseSeq3D):
            raise ConfigError(f"{path} holds 2D data, need 3D poses")
        if pose.num_joints != skel.num_joints:
            raise ConfigError(f"{path} holds {pose.num_joints} joints, the "
                              f"skeleton has {skel.num_joints}")
        return pose

    gt = load3d(gt_path) if gt_path else None
    hyps = None
    if hyp_paths:
        seqs = [load3d(p) for p in hyp_paths]
        try:
            hyps = HypothesisSet.from_sequences(seqs)
        except PoseDiffError as exc:
            raise ConfigError(str(exc)) from exc
    try:
        svgs, warnings = render_sequence(gt, hyps, cam, skel, width=width,
                                         height=height)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    root = Path(out_dir)
    root.mkdir(parents=True, exist_ok=True)
    for k, svg in enumerate(svgs):
        (root / f"frame_{k:04d}.svg").write_text(svg)
    for warning in warnings:
        click.echo(f"warning: {warning}", err=True)
    click.echo(f"wrote {len(svgs)} SVG file(s) to {root}")


if __name__ == "__main__":
    main()
