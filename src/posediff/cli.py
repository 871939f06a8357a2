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
import json
from dataclasses import asdict, fields, replace
from pathlib import Path

import click
import numpy as np

from .aggregate import (METHOD_INPUTS, METHOD_NAMES, AggregationReport,
                        run_aggregator)
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
from .metrics import (ALIGN_MIN_JOINTS, MetricReport, frame_errors,
                      pool_metrics)
from .poseio import load_poses, save_poses
from .render import render_sequence
from .rng import serve_repeats, stream_id
from .sampler import FlipMode, run_sampler
from .schedule import make_cosine_schedule, save_schedule_csv
from .synth import DEFAULT_CAMERA, gen_poses

DEFAULT_AGGREGATORS = "avg,jpma,ppma"
CSV_COLUMNS = ("method", "H", "K", *(f.name for f in fields(MetricReport)))
# ``infer`` and ``bench`` sample and score the dataset's sequences a
# group at a time: consecutive sequences, the group closing once it
# holds at least this many frames, so no sequence is split. The
# hypotheses held stay near this many frames whatever the dataset's
# length.
FRAMES_PER_GROUP = 256


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
        except (PoseDiffError, ValueError, OSError, MemoryError) as exc:
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


def _out_dir(path: str | Path) -> Path:
    """The output directory ``path``, or a directory under it, made with
    its parents. A file in its way is a usage error that names
    ``--out``."""
    root = Path(path)
    try:
        root.mkdir(parents=True, exist_ok=True)
    except (FileExistsError, NotADirectoryError) as exc:
        raise ConfigError(f"--out {root}: {exc.strerror}") from exc
    return root


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
    """Flips swap the skeleton's mirror pairs, so it needs some, and
    mirror keypoints about the camera's principal point,
    ``u -> 2*cx - u``, so they need a camera with a positive ``cx``.
    The flipped keypoints are the projection of the mirrored pose only
    when ``p1`` is 0: mirroring negates x', but not the ``p1 r^2``
    shift of the distorted x."""
    mode = cfg.sampler.flip_mode
    if mode is FlipMode.NONE:
        return
    manifest = Path(data_dir) / MANIFEST_NAME
    if not ds.skeleton.mirror_pairs:
        raise ValueError(f"{manifest}: skeleton defines no mirror pairs, "
                         f"cannot flip (flip mode '{mode.value}')")
    for name, ok, rule in (("cx", ds.camera.cx > 0, "positive"),
                           ("p1", ds.camera.p1 == 0.0, "0")):
        if not ok:
            raise ValueError(
                f"{manifest}: camera {name} must be {rule} to flip "
                f"keypoints about 2*cx (flip mode '{mode.value}'), got "
                f"{getattr(ds.camera, name)}")


def _check_scorable(data_dir: str, ds: Dataset) -> None:
    """Metrics align each frame of a dataset with ground truth, which
    needs ``ALIGN_MIN_JOINTS`` joints or more."""
    if ds.has_gt and ds.skeleton.num_joints < ALIGN_MIN_JOINTS:
        raise ValueError(f"{Path(data_dir) / MANIFEST_NAME}: metrics need "
                         f"{ALIGN_MIN_JOINTS} or more joints to align, the "
                         f"skeleton has {ds.skeleton.num_joints}")


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


def _groups(ds: Dataset) -> list[list[tuple[int, slice]]]:
    """The dataset's sequences in groups of consecutive ones, in order:
    a group closes once it holds at least ``FRAMES_PER_GROUP`` frames,
    and the last one holds the rest. A group is the (index in the
    dataset, frames) pair of each of its sequences, the frames being
    where the sequence sits among the group's frames, stacked in
    sequence order."""
    groups, group, frames = [], [], 0
    for i, seq in enumerate(ds.sequences):
        group.append((i, slice(frames, frames + seq.num_frames)))
        frames += seq.num_frames
        if frames >= FRAMES_PER_GROUP:
            groups.append(group)
            group, frames = [], 0
    if group:
        groups.append(group)
    return groups


def _sample_all(cfg: RunConfig, hs_values: list[int], ks_values: list[int],
                ds: Dataset, denoisers: list[Denoiser],
                group: list[tuple[int, slice]]) -> list[HypothesisSet]:
    """Sample every sequence of ``group`` at the largest of
    ``hs_values`` once per K of ``ks_values``, each sequence with its
    own seed: one read-only (H, frames, J, 3) set per K over the group's
    frames, each sequence sampled straight into its frames of the stack.
    A sequence's seed, its denoiser and the errors that name it follow
    its index in the dataset. Flips mirror with the dataset's skeleton
    and about its camera's principal point, which made the keypoints.

    A sequence's chains run one after another in one ``serve_repeats``
    scope, and every chain but the last holds its draws: a noise key
    that two ladders share, as K=5's and K=10's share K=5's, is drawn
    once per sequence, in any order of ``ks_values``."""
    sched = make_cosine_schedule(cfg.t_max)
    h = max(hs_values)
    poses = [np.empty((h, group[-1][1].stop, ds.skeleton.num_joints, 3))
             for _ in ks_values]
    for i, frames in group:
        seq = ds.sequences[i]
        with serve_repeats() as served:
            for j, k in enumerate(ks_values):
                served.keep = j + 1 < len(ks_values)
                scfg = replace(cfg.sampler, hypotheses=h, iterations=k,
                               seed=stream_id("sequence", cfg.seed, i))
                try:
                    run_sampler(seq.keypoints, denoisers[i], scfg, sched,
                                ds.skeleton, 2.0 * ds.camera.cx,
                                out=poses[j][:, frames])
                except NumericError as exc:
                    raise NumericError(
                        f"sampling sequence {i} ({seq.name}): {exc}",
                        hypothesis=exc.hypothesis) from exc
    for stack in poses:
        stack.setflags(write=False)
    return [HypothesisSet(stack) for stack in poses]


def _write_group(ds: Dataset, root: Path, save_hypotheses: bool,
                 group: list[tuple[int, slice]], hs: HypothesisSet,
                 reports: dict[str, AggregationReport]) -> None:
    """Write ``infer``'s files of the sequences of ``group``: each
    hypothesis of ``hs`` with ``save_hypotheses``, and each method's
    poses, with its meta.json at the first group, into the
    ``agg/<method>`` directories ``infer`` made before sampling. The
    files are per sequence: each takes its frames of the stack."""
    if save_hypotheses:
        for i, frames in group:
            hyp_dir = _out_dir(root / "hyp" / ds.sequences[i].name)
            for h in range(hs.count):
                save_poses(PoseSeq3D(hs.poses[h, frames]),
                           hyp_dir / f"h_{h:03d}.jsonl")
    for m, report in reports.items():
        agg_dir = root / "agg" / m
        for i, frames in group:
            save_poses(PoseSeq3D(report.pose.joints[frames]),
                       agg_dir / f"{ds.sequences[i].name}.jsonl")
        if group[0][0] == 0:
            (agg_dir / "meta.json").write_text(json.dumps(
                {"method": m, "feasible_in_production": report.feasible},
                indent=2, sort_keys=True) + "\n")


def _score_group(cfg: RunConfig, hs_values: list[int], ks_values: list[int],
                 ds: Dataset, denoisers: list[Denoiser],
                 group: list[tuple[int, slice]], methods: list[str],
                 write) -> dict[tuple, tuple[np.ndarray, np.ndarray]]:
    """Sample the sequences of ``group`` once per K of ``ks_values`` at
    the largest of ``hs_values``, and aggregate each (H, K) cell's first
    H hypotheses once with each method over the group's stacked frames,
    against the stacked keypoints and ground truth; ``write``, if given,
    takes each cell's set and reports. Each cell's set computes its
    costs, and the ground truth its half of P-MPJPE's alignment, once, on
    first use. The cells go K by K, each K's for every H, and each K's
    set is dropped before the next K's first aggregation. Returns (H, K,
    method) -> its ``frame_errors`` over those frames, nothing without
    ground truth. An error in one frame names its sequence, by its index
    in the dataset, and the frame within it."""
    sampled = _sample_all(cfg, hs_values, ks_values, ds, denoisers, group)

    def stacked(arrays):
        a = np.concatenate(arrays)
        a.setflags(write=False)  # fresh, so the wrapper takes it uncopied
        return a
    seqs = [ds.sequences[i] for i, _ in group]
    x = PoseSeq2D(stacked([s.keypoints.joints for s in seqs]))
    gt = (PoseSeq3D(stacked([s.gt.joints for s in seqs]))
          if ds.has_gt else None)
    parts = {}
    try:
        for k in ks_values:
            # K's set leaves the list, so rebinding ``hs`` to the next
            # K's drops it
            hs = sampled.pop(0)
            for h in hs_values:
                cell = hs.first(h)
                reports = {m: run_aggregator(m, cell, x=x, cam=ds.camera,
                                             gt=gt) for m in methods}
                if write is not None:
                    write(group, cell, reports)
                if gt is None:
                    continue
                for m, report in reports.items():
                    parts[h, k, m] = frame_errors(
                        report.pose, gt, with_scale=cfg.metrics.pmpjpe_scale)
    except (AggregationError, DegenerateAlignmentError) as exc:
        if exc.frame is None:
            raise
        i, frames = next((i, frames) for i, frames in group
                         if exc.frame < frames.stop)
        raise type(exc)(exc.reason, frame=exc.frame - frames.start,
                        context=f"scoring sequence {i} "
                                f"({ds.sequences[i].name})") from exc
    return parts


def _scored_rows(cfg: RunConfig, hs_values: list[int], ks_values: list[int],
                 ds: Dataset, denoisers: list[Denoiser], methods: list[str],
                 write=None) -> list[dict]:
    """``_score_group`` over each group of ``ds`` in turn, so that one
    group's hypotheses are held at a time, and one metric row per (H, K,
    method), pooling its frame errors over every frame of the dataset:
    in the order of the grids as given, H outer, then K, then method
    (whatever order the groups score them in); no rows without ground
    truth."""
    parts = {}
    for group in _groups(ds):
        for key, part in _score_group(cfg, hs_values, ks_values, ds,
                                      denoisers, group, methods,
                                      write).items():
            parts.setdefault(key, []).append(part)
    return [{"method": m, "H": h, "K": k,
             **{name: repr(value) for name, value
                in asdict(pool_metrics(parts[h, k, m])).items()}}
            for h in hs_values for k in ks_values for m in methods
            if (h, k, m) in parts]


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
    root = _out_dir(cfg.out_dir)
    for sub in ("kp", "gt"):
        _out_dir(root / sub)
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
    root = _out_dir(cfg.out_dir)
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
@_guard
def infer(config_path, seed, out_dir, data_dir, checkpoint, oracle,
          hypotheses, iterations, aggregators, flip_mode, sigma_mode,
          save_hypotheses):
    """Sample pose hypotheses and aggregate them into final poses."""
    cfg = _load_cfg(config_path, seed=seed, out_dir=out_dir,
                    hypotheses=hypotheses, iterations=iterations,
                    flip_mode=flip_mode, sigma_mode=sigma_mode)
    ds = _load_data(data_dir)
    methods = _parse_aggregators(aggregators, ds.has_gt)
    denoisers = _denoisers(cfg, ds, checkpoint, oracle)
    _check_flip_camera(cfg, data_dir, ds)
    _check_scorable(data_dir, ds)
    root = _out_dir(cfg.out_dir)
    # before sampling, so that a file in the way stops the run before
    # any pose file is written
    for m in methods:
        _out_dir(root / "agg" / m)

    # One group of sequences at a time is sampled, aggregated and
    # written, so the hypotheses held stay near FRAMES_PER_GROUP frames.
    rows = _scored_rows(cfg, [cfg.sampler.hypotheses],
                        [cfg.sampler.iterations], ds, denoisers, methods,
                        functools.partial(_write_group, ds, root,
                                          save_hypotheses))
    if ds.has_gt:
        _write_metric_rows(root / "metrics.csv", rows)
        for row in rows:
            click.echo(f"{row['method']}: mpjpe "
                       f"{float(row['mpjpe_mm']):.2f} mm")
    else:
        click.echo("dataset has no ground truth, metrics skipped", err=True)

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
    _check_scorable(data_dir, ds)
    root = _out_dir(cfg.out_dir)

    # One sample per K at the largest H serves every H: the sampler
    # gives H=h as the first h hypotheses of any larger H, bitwise, and
    # each H's aggregators read that sample's first h rows. A group
    # samples every K before the first is scored, so that a sequence
    # draws the noise its K share once, and then scores K by K,
    # dropping each K's set before the next K's.
    rows = _scored_rows(cfg, hs_values, ks_values, ds, denoisers, methods)
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
    root = _out_dir(out_dir)
    for k, svg in enumerate(svgs):
        (root / f"frame_{k:04d}.svg").write_text(svg)
    for warning in warnings:
        click.echo(f"warning: {warning}", err=True)
    click.echo(f"wrote {len(svgs)} SVG file(s) to {root}")


if __name__ == "__main__":
    main()
