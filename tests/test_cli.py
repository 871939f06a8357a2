import csv
import gc
import importlib
import json
import shutil
import weakref
import xml.etree.ElementTree as ET
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

from posediff.camera import camera_to_dict
from posediff.cli import main
from posediff.config import config_from_dict, config_sha256
from posediff.core import (DEFAULT_SKELETON, PoseSeq2D, PoseSeq3D,
                           skeleton_to_dict)
from posediff.dataset import (Dataset, Sequence, load_dataset,
                              save_dataset)
from posediff.poseio import load_poses, save_poses
from posediff.rng import RngStream, stream_id
from posediff.sampler import FlipMode, run_sampler, timestep_ladder
from posediff.schedule import make_cosine_schedule
from posediff import cli, sampler
from posediff.denoise import (Denoiser, MlpDenoiser, NoisyOracle,
                              PerfectOracle, init_params, load_checkpoint,
                              save_checkpoint)
from posediff.synth import DEFAULT_CAMERA, gen_poses


# Tiny scenario: fast end to end, still multi-pose and multi-frame.
SMALL_CFG = {
    "seed": 7,
    "t_max": 50,
    "scenario": {"pose_count": 3, "frames_per_pose": 2},
    "sampler": {"hypotheses": 4, "iterations": 5},
    "train": {"steps": 40, "batch_size": 4},
}


@pytest.fixture
def runner():
    return CliRunner()


def _write_cfg(root: Path, doc=None) -> Path:
    path = root / "cfg.json"
    path.write_text(json.dumps(doc if doc is not None else SMALL_CFG))
    return path


def _gen(runner, root, extra=()):
    cfg = _write_cfg(root)
    data = root / "data"
    res = runner.invoke(main, ["gen", "--config", str(cfg), "--out",
                               str(data), *extra])
    assert res.exit_code == 0, res.output
    return cfg, data


def _read_rows(path: Path) -> list[dict]:
    with open(path) as f:
        return list(csv.DictReader(f))


def test_gen_writes_complete_dataset(runner, tmp_path):
    cfg, data = _gen(runner, tmp_path, extra=["--dump-schedule"])
    ds = load_dataset(data)
    assert len(ds) == 3
    assert ds.has_gt
    assert ds.sequences[0].num_frames == 2
    assert (data / "schedule.csv").exists()
    assert (data / "config.json").exists()
    manifest = json.loads((data / "run_manifest.json").read_text())
    assert manifest["command"] == "gen"
    assert manifest["sequences"] == 3
    assert manifest["seed"] == 7
    loaded = config_from_dict(json.loads((data / "config.json").read_text()))
    assert manifest["config_sha256"] == config_sha256(loaded)


def test_gen_deterministic_across_out_dirs(runner, tmp_path):
    _, data1 = _gen(runner, tmp_path)
    cfg = _write_cfg(tmp_path)
    data2 = tmp_path / "data2"
    res = runner.invoke(main, ["gen", "--config", str(cfg), "--out",
                               str(data2)])
    assert res.exit_code == 0
    for rel in ("kp/seq_0000.jsonl", "gt/seq_0002.jsonl", "manifest.json"):
        assert (data1 / rel).read_bytes() == (data2 / rel).read_bytes()


def test_missing_config_file_exit_2(runner, tmp_path):
    # a missing config, a directory in its place and a config whose
    # camera is a directory each exit 2 naming the role, making no --out
    (tmp_path / "dir.json").mkdir()
    camera_dir = _write_cfg(tmp_path, {"camera": "dir.json"})
    for cfg, words in ((tmp_path / "absent.json", "config file not found"),
                       (tmp_path / "dir.json", "config path is not a file"),
                       (camera_dir, "camera path is not a file")):
        res = runner.invoke(main, ["gen", "--config", str(cfg), "--out",
                                   str(tmp_path / "out")])
        _assert_clean_exit(res, 2, f"error: {words}: ")
        assert not (tmp_path / "out").exists()


def test_bad_config_key_exit_2(runner, tmp_path):
    cfg = _write_cfg(tmp_path, {"seeed": 1})
    res = runner.invoke(main, ["gen", "--config", str(cfg)])
    assert res.exit_code == 2
    assert "seeed" in res.output


def test_bad_config_type_exit_2(runner, tmp_path):
    cfg = _write_cfg(tmp_path, {"metrics": {"pmpjpe_scale": "false"}})
    res = runner.invoke(main, ["gen", "--config", str(cfg)])
    assert res.exit_code == 2
    assert "pmpjpe_scale" in res.output


def test_train_then_infer_checkpoint(runner, tmp_path):
    cfg, data = _gen(runner, tmp_path)
    run = tmp_path / "run"
    res = runner.invoke(main, ["train", "--config", str(cfg), "--data",
                               str(data), "--out", str(run)])
    assert res.exit_code == 0, res.output
    assert "final loss" in res.output
    assert (run / "model.ckpt").exists()
    rows = _read_rows(run / "loss.csv")
    assert len(rows) == 40
    assert float(rows[-1]["loss"]) > 0

    out = tmp_path / "inf"
    res = runner.invoke(main, [
        "infer", "--config", str(cfg), "--data", str(data), "--checkpoint",
        str(run / "model.ckpt"), "--out", str(out),
        "--aggregator", "avg,jpma,ppma,pbest,jbest"])
    assert res.exit_code == 0, res.output
    rows = _read_rows(out / "metrics.csv")
    assert [r["method"] for r in rows] == ["avg", "jpma", "ppma", "pbest",
                                           "jbest"]
    assert all(r["H"] == "4" and r["K"] == "5" for r in rows)
    for rel in ("hyp/seq_0000/h_000.jsonl", "hyp/seq_0002/h_003.jsonl",
                "agg/jpma/seq_0001.jsonl", "agg/avg/meta.json"):
        assert (out / rel).exists(), rel
    meta = json.loads((out / "agg" / "pbest" / "meta.json").read_text())
    assert meta["feasible_in_production"] is False
    meta = json.loads((out / "agg" / "jpma" / "meta.json").read_text())
    assert meta["feasible_in_production"] is True


def test_infer_perfect_oracle_zero_error(runner, tmp_path):
    cfg, data = _gen(runner, tmp_path)
    out = tmp_path / "inf"
    res = runner.invoke(main, [
        "infer", "--config", str(cfg), "--data", str(data),
        "--oracle", "perfect", "--out", str(out),
        "--aggregator", "avg,jpma,pbest"])
    assert res.exit_code == 0, res.output
    for row in _read_rows(out / "metrics.csv"):
        assert float(row["mpjpe_mm"]) == 0.0
        assert float(row["pmpjpe_mm"]) < 1e-9
        assert float(row["pck150"]) == 1.0
        assert float(row["auc"]) == 1.0


def test_infer_single_hypothesis_methods_agree(runner, tmp_path):
    cfg, data = _gen(runner, tmp_path)
    out = tmp_path / "inf"
    res = runner.invoke(main, [
        "infer", "--config", str(cfg), "--data", str(data), "--oracle",
        "noisy", "--hypotheses", "1", "--out", str(out),
        "--aggregator", "avg,jpma,ppma,pbest,jbest"])
    assert res.exit_code == 0, res.output
    rows = _read_rows(out / "metrics.csv")
    assert len({r["mpjpe_mm"] for r in rows}) == 1  # identical, repr-exact
    files = [(out / "agg" / r["method"] / "seq_0000.jsonl").read_bytes()
             for r in rows]
    assert all(f == files[0] for f in files)


def test_infer_matches_library_exactly(runner, tmp_path, small_run):
    # the CLI is a binding, not a reimplementation: hypothesis files must
    # equal a direct library run using the documented per-sequence seeds.
    # The config names no skeleton or camera: flips use the ones that
    # made the keypoints. The second dataset's skeleton keeps three of
    # the six mirror pairs; the third dataset's camera has its principal
    # point off the image centre, and the trained model reads the
    # flipped keypoints, so a mirror about another axis changes them.
    cfg_path, data = _gen(runner, tmp_path)
    pairs = DEFAULT_SKELETON.mirror_pairs[:3]
    skel = skeleton_to_dict(replace(DEFAULT_SKELETON, mirror_pairs=pairs))
    cam = camera_to_dict(replace(DEFAULT_CAMERA, cx=400.0))
    made = {}
    for name, extra in (("custom", {"skeleton": skel}),
                        ("shifted", {"camera": cam})):
        (tmp_path / name).mkdir()
        doc_path = _write_cfg(tmp_path / name, {**SMALL_CFG, **extra})
        made[name] = tmp_path / name / "data"
        res = runner.invoke(main, ["gen", "--config", str(doc_path),
                                   "--out", str(made[name])])
        assert res.exit_code == 0, res.output

    cfg = config_from_dict(SMALL_CFG)
    sched = make_cosine_schedule(cfg.t_max)
    ckpt = small_run[2]
    for data_dir, flip, source in ((data, "none", "oracle"),
                                   (made["custom"], "diffusion", "oracle"),
                                   (made["shifted"], "diffusion", "ckpt")):
        out = tmp_path / f"inf_{data_dir.parent.name}_{flip}"
        den_args = (["--oracle", "noisy"] if source == "oracle"
                    else ["--checkpoint", str(ckpt)])
        res = runner.invoke(main, [
            "infer", "--config", str(cfg_path), "--data", str(data_dir),
            *den_args, "--flip", flip, "--out", str(out)])
        assert res.exit_code == 0, res.output
        ds = load_dataset(data_dir)
        for i, seq in enumerate(ds.sequences):
            den = (MlpDenoiser.from_checkpoint(ckpt) if source == "ckpt"
                   else NoisyOracle(seq.gt, cfg.denoiser.oracle_sigma_mm,
                                    seed=stream_id("oracle", cfg.seed, i)))
            scfg = replace(cfg.sampler, flip_mode=FlipMode(flip),
                           seed=stream_id("sequence", cfg.seed, i))
            hs = run_sampler(seq.keypoints, den, scfg, sched, ds.skeleton,
                             2.0 * ds.camera.cx)
            for h in range(hs.count):
                on_disk = load_poses(out / "hyp" / seq.name
                                     / f"h_{h:03d}.jsonl")
                assert np.array_equal(on_disk.joints, hs[h].joints)
    assert load_dataset(made["custom"]).skeleton.mirror_pairs == pairs
    assert load_dataset(made["shifted"]).camera.cx == 400.0


def test_infer_requires_exactly_one_denoiser_source(runner, tmp_path):
    cfg, data = _gen(runner, tmp_path)
    res = runner.invoke(main, ["infer", "--config", str(cfg), "--data",
                               str(data), "--out", str(tmp_path / "x")])
    assert res.exit_code == 2
    res = runner.invoke(main, [
        "infer", "--config", str(cfg), "--data", str(data), "--oracle",
        "perfect", "--checkpoint", "whatever.ckpt",
        "--out", str(tmp_path / "y")])
    assert res.exit_code == 2


def test_checkpoint_config_mismatch_exit_2(runner, tmp_path):
    cfg, data = _gen(runner, tmp_path)
    run = tmp_path / "run"
    res = runner.invoke(main, ["train", "--config", str(cfg), "--data",
                               str(data), "--out", str(run)])
    assert res.exit_code == 0
    other = dict(SMALL_CFG)
    other["t_max"] = 60
    other["sampler"] = {"hypotheses": 2, "iterations": 3}
    cfg2 = tmp_path / "cfg2.json"
    cfg2.write_text(json.dumps(other))
    res = runner.invoke(main, [
        "infer", "--config", str(cfg2), "--data", str(data), "--checkpoint",
        str(run / "model.ckpt"), "--out", str(tmp_path / "z")])
    assert res.exit_code == 2
    assert (f"{run / 'model.ckpt'}: checkpoint was trained with t_max 50, "
            f"config says 60") in res.output


def _strip_gt(data: Path) -> None:
    manifest = json.loads((data / "manifest.json").read_text())
    for entry in manifest["sequences"]:
        entry.pop("gt", None)
    (data / "manifest.json").write_text(json.dumps(manifest))


def test_gt_needing_requests_exit_4(runner, tmp_path):
    cfg, data = _gen(runner, tmp_path)
    _strip_gt(data)
    res = runner.invoke(main, [
        "infer", "--config", str(cfg), "--data", str(data), "--oracle",
        "perfect", "--out", str(tmp_path / "a")])
    assert res.exit_code == 4
    res = runner.invoke(main, [
        "train", "--config", str(cfg), "--data", str(data), "--out",
        str(tmp_path / "b")])
    assert res.exit_code == 4
    res = runner.invoke(main, [
        "bench", "--config", str(cfg), "--data", str(data), "--oracle",
        "noisy", "--out", str(tmp_path / "c")])
    assert res.exit_code == 4
    # refused before the output directory is made
    assert not any((tmp_path / d).exists() for d in "abc")


def test_infer_without_gt_still_writes_poses(runner, tmp_path):
    cfg, data = _gen(runner, tmp_path)
    run = tmp_path / "run"
    res = runner.invoke(main, ["train", "--config", str(cfg), "--data",
                               str(data), "--out", str(run)])
    assert res.exit_code == 0
    _strip_gt(data)
    out = tmp_path / "inf"
    res = runner.invoke(main, [
        "infer", "--config", str(cfg), "--data", str(data), "--checkpoint",
        str(run / "model.ckpt"), "--out", str(out)])
    assert res.exit_code == 0, res.output
    assert "metrics skipped" in res.output
    assert not (out / "metrics.csv").exists()
    assert (out / "agg" / "avg" / "seq_0000.jsonl").exists()
    # asking for a gt-oracle aggregator on the same data is exit 4
    res = runner.invoke(main, [
        "infer", "--config", str(cfg), "--data", str(data), "--checkpoint",
        str(run / "model.ckpt"), "--out", str(out), "--aggregator", "jbest"])
    assert res.exit_code == 4


def test_unknown_aggregator_exit_2(runner, tmp_path):
    cfg, data = _gen(runner, tmp_path)
    res = runner.invoke(main, [
        "infer", "--config", str(cfg), "--data", str(data), "--oracle",
        "perfect", "--out", str(tmp_path / "x"), "--aggregator", "median"])
    assert res.exit_code == 2


def test_repeated_aggregator_exit_2(runner, tmp_path):
    # a repeated name or grid value would write its rows twice
    cfg, data = _gen(runner, tmp_path)
    for command, extra, words in (
            ("infer", ["--aggregator", "avg,jpma,avg"], "'avg'"),
            ("bench", ["--aggregator", "avg,jpma,avg"], "'avg'"),
            ("bench", ["--hypotheses", "5,5"], "hypotheses 5"),
            ("bench", ["--iterations", "3,2,3"], "iterations 3")):
        out = tmp_path / command
        res = runner.invoke(main, [
            command, "--config", str(cfg), "--data", str(data), "--oracle",
            "noisy", "--out", str(out), *extra])
        _assert_clean_exit(res, 2, words)
        assert not out.exists()


def test_train_divergence_exit_3(runner, tmp_path):
    doc = dict(SMALL_CFG)
    doc["train"] = {"steps": 100, "batch_size": 4, "learning_rate": 1e18}
    cfg = _write_cfg(tmp_path, doc)
    data = tmp_path / "data"
    res = runner.invoke(main, ["gen", "--config", str(cfg), "--out",
                               str(data)])
    assert res.exit_code == 0
    res = runner.invoke(main, ["train", "--config", str(cfg), "--data",
                               str(data), "--out", str(tmp_path / "run")])
    assert res.exit_code == 3
    assert "diverged" in res.output


def test_bench_grid_and_jbest_monotone(runner, tmp_path):
    cfg, data = _gen(runner, tmp_path)
    out = tmp_path / "bench"
    res = runner.invoke(main, [
        "bench", "--config", str(cfg), "--data", str(data), "--oracle",
        "noisy", "--out", str(out), "--hypotheses", "1,2,4",
        "--iterations", "3", "--aggregator", "avg,jbest"])
    assert res.exit_code == 0, res.output
    rows = _read_rows(out / "bench.csv")
    assert len(rows) == 6  # 3 H values x 1 K value x 2 methods
    jbest = {int(r["H"]): float(r["mpjpe_mm"]) for r in rows
             if r["method"] == "jbest"}
    assert jbest[1] >= jbest[2] >= jbest[4]
    # H=1: selection cannot help, methods coincide
    h1 = {r["method"]: r["mpjpe_mm"] for r in rows if r["H"] == "1"}
    assert h1["avg"] == h1["jbest"]


def test_bench_draws_each_noise_key_once_per_sequence(runner, tmp_path,
                                                     monkeypatch):
    # every chain of a sequence but the last holds its draws, so in any
    # order of the grid a key is drawn once: the initial state, a DDIM
    # update at each step of a ladder but its last, and the noisy
    # oracle's error at each step, one call per hypothesis row
    cfg, data = _gen(runner, tmp_path)
    sequences = len(load_dataset(data).sequences)
    calls = [0]
    real = RngStream.standard_normal

    def counted(self, shape=(), out=None):
        calls[0] += 1
        return real(self, shape, out=out)
    monkeypatch.setattr(RngStream, "standard_normal", counted)
    for ks in (("5", "10"), ("10", "5"), ("3", "2")):
        calls[0] = 0
        res = runner.invoke(main, [
            "bench", "--config", str(cfg), "--data", str(data), "--oracle",
            "noisy", "--hypotheses", "1,4", "--iterations", ",".join(ks),
            "--aggregator", "avg", "--out", str(tmp_path / "_".join(ks))])
        assert res.exit_code == 0, res.output
        keys = {("init",)}
        for k in ks:
            ladder = timestep_ladder(SMALL_CFG["t_max"], int(k))
            keys |= ({("ddim", t) for t in ladder[:-1]}
                     | {("oracle", t) for t in ladder})
        assert calls[0] == sequences * 4 * len(keys), ks


def _assert_clean_exit(res, code: int, key: str) -> None:
    """Exit ``code`` through the error handler, naming ``key``."""
    assert res.exit_code == code, res.output
    assert isinstance(res.exception, SystemExit)
    assert key in res.stderr and "Traceback" not in res.stderr


@pytest.mark.parametrize("key", ["tensors", "embed_dim"])
def test_checkpoint_missing_header_key_exit_2(runner, tmp_path, key):
    cfg, data = _gen(runner, tmp_path)
    run = tmp_path / "run"
    res = runner.invoke(main, ["train", "--config", str(cfg), "--data",
                               str(data), "--out", str(run)])
    assert res.exit_code == 0, res.output
    ckpt = run / "model.ckpt"
    header, payload = ckpt.read_bytes().split(b"\n", 1)
    doc = json.loads(header)
    del doc[key]
    ckpt.write_bytes(json.dumps(doc).encode() + b"\n" + payload)
    res = runner.invoke(main, [
        "infer", "--config", str(cfg), "--data", str(data), "--checkpoint",
        str(ckpt), "--out", str(tmp_path / "out")])
    _assert_clean_exit(res, 2, key)


@pytest.mark.parametrize("key", ["camera", "frames"])
def test_manifest_missing_key_exit_1(runner, tmp_path, key):
    cfg, data = _gen(runner, tmp_path)
    manifest = json.loads((data / "manifest.json").read_text())
    del (manifest if key == "camera" else manifest["sequences"][1])[key]
    (data / "manifest.json").write_text(json.dumps(manifest))
    res = runner.invoke(main, [
        "infer", "--config", str(cfg), "--data", str(data), "--oracle",
        "noisy", "--out", str(tmp_path / "out")])
    _assert_clean_exit(res, 1, key)


@pytest.mark.parametrize("command, source", [
    ("infer", ["--oracle", "noisy"]), ("bench", ["--oracle", "noisy"]),
    ("train", [])])
def test_missing_dataset_exit_2(runner, tmp_path, command, source):
    # a missing dataset is a usage error, as a missing config is
    cfg = _write_cfg(tmp_path)
    absent = tmp_path / "nonexistent_dir"
    res = runner.invoke(main, [command, "--config", str(cfg), "--data",
                               str(absent), *source, "--out",
                               str(tmp_path / "out")])
    _assert_clean_exit(res, 2, str(absent / "manifest.json"))
    assert "line " not in res.stderr


@pytest.mark.parametrize("command, source", [
    ("infer", ["--oracle", "noisy"]), ("bench", ["--oracle", "noisy"]),
    ("train", [])])
def test_empty_dataset_exit_1(runner, tmp_path, command, source):
    # a manifest listing no sequences is refused as it loads, before
    # any output is made
    cfg, data = _gen(runner, tmp_path)
    manifest = json.loads((data / "manifest.json").read_text())
    (data / "manifest.json").write_text(
        json.dumps({**manifest, "sequences": []}))
    out = tmp_path / "out"
    res = runner.invoke(main, [command, "--config", str(cfg), "--data",
                               str(data), *source, "--out", str(out)])
    _assert_clean_exit(res, 1, f"error: {data / 'manifest.json'}: lists no "
                               f"sequences")
    assert not out.exists()


def test_manifest_errors_name_the_manifest_exit_1(runner, tmp_path):
    cfg, data = _gen(runner, tmp_path)
    manifest = json.loads((data / "manifest.json").read_text())
    (data / "manifest.json").write_text(
        json.dumps({**manifest, "num_joints": 5}, indent=2))
    res = runner.invoke(main, [
        "infer", "--config", str(cfg), "--data", str(data), "--oracle",
        "noisy", "--out", str(tmp_path / "out")])
    _assert_clean_exit(res, 1, f"error: {data / 'manifest.json'}: num_joints")
    assert "line " not in res.stderr


def test_camera_wrong_type_exit_codes(runner, tmp_path):
    # a config camera is a config problem (2), a manifest one a data
    # problem (1); both name the key
    cfg, data = _gen(runner, tmp_path)
    cam = {"model": "pinhole", "fx": "900", "fy": 900.0, "cx": 1.0,
           "cy": 2.0}
    bad_cfg = _write_cfg(tmp_path / "data", {**SMALL_CFG, "camera": cam})
    res = runner.invoke(main, ["gen", "--config", str(bad_cfg), "--out",
                               str(tmp_path / "other")])
    _assert_clean_exit(res, 2, "'fx'")
    manifest = json.loads((data / "manifest.json").read_text())
    manifest["camera"]["cy"] = True
    (data / "manifest.json").write_text(json.dumps(manifest))
    res = runner.invoke(main, [
        "infer", "--config", str(cfg), "--data", str(data), "--oracle",
        "noisy", "--out", str(tmp_path / "out")])
    _assert_clean_exit(res, 1, "camera: 'cy'")


def test_unknown_camera_and_skeleton_keys_exit_codes(runner, tmp_path):
    # refused and named: in a config (2), a manifest (1), and a render
    # --camera or --skeleton file (2); the files and the manifest are
    # named too. The last case is a bad value rather than an unknown key.
    cfg, data = _gen(runner, tmp_path)
    manifest = json.loads((data / "manifest.json").read_text())
    for part, key, value in (("camera", "k_1", 0.3),
                             ("skeleton", "bone_length", 0.3),
                             ("skeleton", "parents", ["x"] * 17)):
        doc, case = {**manifest[part], key: value}, f"{part}_{key}"
        bad_cfg = _write_cfg(tmp_path / "data", {**SMALL_CFG, part: doc})
        res = runner.invoke(main, ["gen", "--config", str(bad_cfg), "--out",
                                   str(tmp_path / f"gen_{case}")])
        _assert_clean_exit(res, 2, f"'{key}'")
        path = tmp_path / f"{case}.json"
        path.write_text(json.dumps(doc))
        res = runner.invoke(main, [
            "render", "--gt", str(data / "gt" / "seq_0000.jsonl"),
            f"--{part}", str(path), "--out", str(tmp_path / f"svg_{case}")])
        _assert_clean_exit(res, 2, f"'{key}'")
        assert f"error: {path}: " in res.stderr
        bad_data = tmp_path / f"data_{case}"
        shutil.copytree(data, bad_data)
        (bad_data / "manifest.json").write_text(
            json.dumps({**manifest, part: doc}))
        res = runner.invoke(main, [
            "infer", "--config", str(cfg), "--data", str(bad_data),
            "--oracle", "noisy", "--out", str(tmp_path / f"inf_{case}")])
        _assert_clean_exit(res, 1, f"'{key}'")
        assert f"error: {bad_data / 'manifest.json'}: {part}: " in res.stderr


def test_sampling_options_documented_alike(runner):
    texts = ("Dataset directory from 'gen'.",
             "Denoiser checkpoint from 'train'.",
             "Use a ground-truth oracle", "Comma-separated aggregator list.",
             "Flip augmentation mode.", "DDIM noise injection mode.")
    for command in ("infer", "bench"):
        res = runner.invoke(main, [command, "--help"], terminal_width=200)
        assert res.exit_code == 0
        for text in texts:
            assert text in res.output, (command, text)


def test_bench_empty_grid_exit_2(runner, tmp_path):
    cfg, data = _gen(runner, tmp_path)
    res = runner.invoke(main, [
        "bench", "--config", str(cfg), "--data", str(data), "--oracle",
        "noisy", "--out", str(tmp_path / "x"), "--hypotheses", ","])
    assert res.exit_code == 2
    res = runner.invoke(main, [
        "bench", "--config", str(cfg), "--data", str(data), "--oracle",
        "noisy", "--out", str(tmp_path / "y"), "--hypotheses", "2;3"])
    assert res.exit_code == 2


def test_invalid_counts_exit_2(runner, tmp_path):
    cfg, data = _gen(runner, tmp_path)
    common = ["--config", str(cfg), "--data", str(data)]
    for flag in ("--hypotheses", "--iterations"):
        out = tmp_path / f"infer{flag}"
        res = runner.invoke(main, ["infer", *common, "--oracle", "noisy",
                                   flag, "0", "--out", str(out)])
        assert res.exit_code == 2, res.output
        assert "must be >= 1" in res.output
        assert not out.exists()
    # the noise schedule is gen's to write: infer takes no --dump-schedule
    out = tmp_path / "schedule"
    res = runner.invoke(main, ["infer", *common, "--oracle", "noisy",
                               "--dump-schedule", "--out", str(out)])
    assert res.exit_code == 2, res.output
    assert "--dump-schedule" in res.output
    assert not out.exists()
    # the bad cell is last; no cell may be sampled before it is refused
    out = tmp_path / "bench"
    res = runner.invoke(main, ["bench", *common, "--oracle", "noisy",
                               "--hypotheses", "5,0", "--out", str(out)])
    assert res.exit_code == 2, res.output
    assert not out.exists()
    doc = dict(SMALL_CFG, train={"steps": 0})
    res = runner.invoke(main, ["train", "--config",
                               str(_write_cfg(tmp_path, doc)), "--data",
                               str(data), "--out", str(tmp_path / "run")])
    assert res.exit_code == 2, res.output


def test_t_max_below_two_exit_2_before_output(runner, tmp_path):
    # refused when the config loads, before any command makes --out
    _, data = _gen(runner, tmp_path)
    bad = _write_cfg(tmp_path, dict(SMALL_CFG, t_max=1,
                                    sampler={"iterations": 1}))
    for command, extra in (("gen", ["--dump-schedule"]),
                           ("train", ["--data", str(data)])):
        out = tmp_path / command
        res = runner.invoke(main, [command, "--config", str(bad),
                                   "--out", str(out), *extra])
        _assert_clean_exit(res, 2, "t_max must be >= 2, got 1")
        assert not out.exists()


@pytest.mark.parametrize("under", [False, True], ids=["file", "under_file"])
@pytest.mark.parametrize("command",
                         ["gen", "train", "infer", "bench", "render"])
def test_out_blocked_by_a_file_exit_2(small_run, runner, tmp_path, command,
                                      under):
    # an --out that names a file, or a path under one, is a usage error
    cfg, data, _ = small_run
    afile = tmp_path / "afile"
    afile.write_text("kept\n")
    out = afile / "sub" if under else afile
    args = {"gen": [],
            "train": ["--data", str(data)],
            "infer": ["--data", str(data), "--oracle", "noisy"],
            "bench": ["--data", str(data), "--oracle", "noisy",
                      "--hypotheses", "1", "--iterations", "2"]}
    if command == "render":
        cmd = ["render", "--gt", str(data / "gt" / "seq_0000.jsonl")]
    else:
        cmd = [command, "--config", str(cfg), *args[command]]
    res = runner.invoke(main, [*cmd, "--out", str(out)])
    _assert_clean_exit(res, 2, f"--out {out}: ")
    assert afile.read_text() == "kept\n"


@pytest.mark.parametrize("command, blocked, made", [
    ("infer", "agg", "agg/avg"),
    ("infer", "hyp/seq_0000", "hyp/seq_0000"),
    ("gen", "kp", "kp"),
], ids=["infer-agg", "infer-hyp", "gen-kp"])
def test_out_subdirectory_blocked_by_a_file_exit_2(small_run, runner,
                                                   tmp_path, command,
                                                   blocked, made):
    # a file where a command makes a directory under --out is a usage
    # error that names --out and that directory; infer makes each
    # agg/<method> before sampling, and gen kp/ and gt/ before writing
    cfg, data, _ = small_run
    out = tmp_path / "out"
    (out / blocked).parent.mkdir(parents=True, exist_ok=True)
    (out / blocked).write_text("kept\n")
    args = {"gen": [],
            "infer": ["--data", str(data), "--oracle", "noisy",
                      "--aggregator", "avg,jpma"]}[command]
    res = runner.invoke(main, [command, "--config", str(cfg), *args,
                               "--out", str(out)])
    _assert_clean_exit(res, 2, f"--out {out / made}: ")
    assert (out / blocked).read_text() == "kept\n"
    if blocked != "hyp/seq_0000":
        assert sorted(out.rglob("*")) == [out / blocked]


def test_bench_deterministic(runner, tmp_path):
    cfg, data = _gen(runner, tmp_path)
    args = ["bench", "--config", str(cfg), "--data", str(data), "--oracle",
            "noisy", "--hypotheses", "1,2", "--iterations", "2,3",
            "--aggregator", "jpma"]
    out1, out2 = tmp_path / "b1", tmp_path / "b2"
    assert runner.invoke(main, args + ["--out", str(out1)]).exit_code == 0
    assert runner.invoke(main, args + ["--out", str(out2)]).exit_code == 0
    assert (out1 / "bench.csv").read_bytes() == (out2 / "bench.csv").read_bytes()


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    """A small dataset and a checkpoint trained on it, shared by tests."""
    root = tmp_path_factory.mktemp("small_run")
    runner = CliRunner()
    cfg, data = _gen(runner, root)
    run = root / "run"
    res = runner.invoke(main, ["train", "--config", str(cfg), "--data",
                               str(data), "--out", str(run)])
    assert res.exit_code == 0, res.output
    return cfg, data, run / "model.ckpt"


def _bench_rows(runner, root, common, hs, ks) -> list[dict]:
    """The rows of bench over the grid ``hs`` x ``ks``; they keep the
    grid order: H outer, K inner, as given."""
    out = root / "bench"
    res = runner.invoke(main, ["bench", *common, "--hypotheses", ",".join(hs),
                               "--iterations", ",".join(ks),
                               "--out", str(out)])
    assert res.exit_code == 0, res.output
    rows = _read_rows(out / "bench.csv")
    grid = [(h, k) for h in hs for k in ks]
    methods = len(rows) // len(grid)
    assert [(r["H"], r["K"]) for r in rows[::methods]] == grid
    return rows


def _infer_rows(runner, root, common, hs, ks) -> list[dict]:
    """The metric rows of one infer per cell of the grid, in bench's
    order."""
    expected = []
    for h in hs:
        for k in ks:
            inf = root / f"infer_{h}_{k}"
            res = runner.invoke(main, ["infer", *common, "--hypotheses", h,
                                       "--iterations", k, "--out", str(inf),
                                       "--no-save-hypotheses"])
            assert res.exit_code == 0, res.output
            expected += _read_rows(inf / "metrics.csv")
    return expected


@pytest.mark.parametrize("flip", ["none", "once", "diffusion"])
@pytest.mark.parametrize("source", ["oracle", "checkpoint"])
def test_bench_rows_equal_infer_metrics(runner, tmp_path, small_run, flip,
                                        source):
    # every bench cell must be exactly what infer reports at that (H, K).
    # With t_max 50, K=3 {50, 33, 17} and K=2 {50, 25} share only t=50;
    # K=5's ladder {50, 40, ..., 10} lies inside K=10's {50, 45, ..., 5},
    # so the two share most of their noise keys
    cfg, data, ckpt = small_run
    den = (["--oracle", "noisy"] if source == "oracle"
           else ["--checkpoint", str(ckpt)])
    common = ["--config", str(cfg), "--data", str(data), *den,
              "--flip", flip, "--aggregator", "avg,jpma,ppma,pbest,jbest"]
    for iterations in (("3", "2"), ("10", "5")):
        root = tmp_path / "_".join(iterations)
        grid = (("3", "1", "2"), iterations)
        assert (_bench_rows(runner, root, common, *grid)
                == _infer_rows(runner, root, common, *grid))


@pytest.mark.parametrize("flip", ["none", "once", "diffusion"])
def test_chunked_bench_rows_equal_infer_metrics(runner, tmp_path, small_run,
                                                monkeypatch, flip):
    # bench with one chunk per hypothesis, so that helper threads draw
    # their own rows, against infer with one chunk per sequence
    cfg, data, _ = small_run
    common = ["--config", str(cfg), "--data", str(data), "--oracle", "noisy",
              "--flip", flip, "--aggregator", "avg,jpma,ppma,pbest"]
    grid = (("3", "2"), ("10", "5"))
    with monkeypatch.context() as m:
        m.setattr(sampler, "FRAMES_PER_CHUNK", 1)
        assert len(sampler._chunks(3, 2)) == 3
        rows = _bench_rows(runner, tmp_path, common, *grid)
    assert len(sampler._chunks(3, 2)) == 1
    assert rows == _infer_rows(runner, tmp_path, common, *grid)


@pytest.mark.parametrize("command", ["infer", "bench"])
@pytest.mark.parametrize("field, value, words", [
    ("target", "predict_eps", "predicts noise"),
    ("version", 99, "version 99"),
    ("num_joints", 5, "5 joints"),
    ("signal_scale", 1.5, "signal scale 1.5"),
    ("pixel_scale", 0.002, "pixel scale 0.002")])
def test_checkpoint_refused_exit_2(runner, tmp_path, small_run, command,
                                   field, value, words):
    # a noise-target, wrong-version, joint-mismatched or other-scale
    # checkpoint must never load; the error names the file, and no
    # output directory is left behind
    cfg, data, ckpt = small_run
    bad = tmp_path / "bad.ckpt"
    header, payload = ckpt.read_bytes().split(b"\n", 1)
    doc = json.loads(header)
    doc[field] = value
    bad.write_bytes(json.dumps(doc).encode() + b"\n" + payload)
    res = runner.invoke(main, [
        command, "--config", str(cfg), "--data", str(data), "--checkpoint",
        str(bad), "--out", str(tmp_path / "out")])
    _assert_clean_exit(res, 2, words)
    assert str(bad) in res.stderr
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["infer", "bench"])
def test_checkpoint_not_a_file_exit_2(runner, tmp_path, small_run, command):
    # a missing checkpoint and a directory in its place are refused by
    # the option's role and path, and no output directory is made
    cfg, data, _ = small_run
    (tmp_path / "dir.ckpt").mkdir()
    for name, words in (("absent.ckpt", "checkpoint file not found"),
                        ("dir.ckpt", "checkpoint path is not a file")):
        res = runner.invoke(main, [
            command, "--config", str(cfg), "--data", str(data),
            "--checkpoint", str(tmp_path / name), "--out",
            str(tmp_path / "out")])
        _assert_clean_exit(res, 2, f"error: {words}: {tmp_path / name}\n")
        assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["infer", "bench"])
def test_checkpoint_beyond_float32_exit_2(runner, tmp_path, small_run,
                                          command):
    # inference runs in float32, where this weight would be infinite
    cfg, data, ckpt = small_run
    params, header = load_checkpoint(ckpt)
    w = params.weights[1].copy()
    w[0, 0] = 1e39
    bad = tmp_path / "big.ckpt"
    save_checkpoint(bad, replace(params, weights=(params.weights[0], w,
                                                  *params.weights[2:])),
                    t_max=header["t_max"])
    res = runner.invoke(main, [
        command, "--config", str(cfg), "--data", str(data), "--checkpoint",
        str(bad), "--out", str(tmp_path / "out")])
    _assert_clean_exit(res, 2, "tensor 'w1' holds 1e+39, beyond the float32")
    assert str(bad) in res.stderr
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["infer", "bench"])
def test_odd_width_checkpoint_exit_2(runner, tmp_path, small_run, command):
    # the timestep embedding needs an even first hidden width; weights of
    # any other width are refused as the checkpoint loads, by its path
    cfg, data, ckpt = small_run
    j = DEFAULT_SKELETON.num_joints
    shapes = {"w0": [5, j * 5], "b0": [5], "w1": [j * 3, 5], "b1": [j * 3]}
    header = json.loads(ckpt.read_bytes().split(b"\n", 1)[0])
    header.update(embed_dim=5, tensors=[{"name": name, "shape": shape}
                                        for name, shape in shapes.items()])
    payload = np.zeros(sum(int(np.prod(s)) for s in shapes.values()), "<f8")
    bad = tmp_path / "odd.ckpt"
    bad.write_bytes(json.dumps(header).encode() + b"\n" + payload.tobytes())
    res = runner.invoke(main, [
        command, "--config", str(cfg), "--data", str(data), "--checkpoint",
        str(bad), "--out", str(tmp_path / "out")])
    _assert_clean_exit(res, 2, f"error: {bad}: first hidden width must be "
                               f"even and >= 2 for the timestep embedding, "
                               f"got 5\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["infer", "bench"])
def test_checkpoint_for_other_skeleton_exit_2(runner, tmp_path, small_run,
                                              command):
    # a 16-joint model on the 17-joint dataset is refused before any
    # output is made, naming the file and both joint counts
    cfg, data, _ = small_run
    bad = tmp_path / "j16.ckpt"
    save_checkpoint(bad, init_params(16, hidden_width=8),
                    t_max=SMALL_CFG["t_max"])
    res = runner.invoke(main, [
        command, "--config", str(cfg), "--data", str(data), "--checkpoint",
        str(bad), "--out", str(tmp_path / "out")])
    _assert_clean_exit(res, 2, f"error: {bad}: the model is for 16 joints, "
                               f"the dataset has 17\n")
    assert not (tmp_path / "out").exists()


def _rename(i, name):
    def edit(data):
        manifest = json.loads((data / "manifest.json").read_text())
        manifest["sequences"][i]["name"] = name
        (data / "manifest.json").write_text(json.dumps(manifest))
    return edit


def _drop_gt_joint(data):
    path = data / "gt" / "seq_0001.jsonl"
    save_poses(PoseSeq3D(load_poses(path).joints[:, :16]), path)


@pytest.mark.parametrize("edit, message", [
    (_rename(2, "../../escaped"),
     "sequence 2: name '../../escaped' cannot name a file"),
    (_rename(1, "seq_0000"), "sequence 1: name 'seq_0000' is also sequence 0's"),
    (_drop_gt_joint,
     "sequence seq_0001: gt joint count 16 does not match manifest (17)"),
], ids=["escaping-name", "repeated-name", "gt-joints"])
def test_bad_sequence_exit_1_before_output(runner, tmp_path, edit, message):
    # sequence names become file names under --out: one that escapes
    # it, or that would overwrite another sequence's files, is refused
    # as the dataset loads, as is ground truth of another skeleton; no
    # file is written anywhere
    cfg, data = _gen(runner, tmp_path)
    edit(data)
    before = sorted(tmp_path.rglob("*"))
    out = tmp_path / "run" / "out"
    res = runner.invoke(main, ["infer", "--config", str(cfg), "--data",
                               str(data), "--oracle", "noisy", "--aggregator",
                               "avg,jbest", "--out", str(out)])
    _assert_clean_exit(res, 1, f"error: {data / 'manifest.json'}: {message}\n")
    assert sorted(tmp_path.rglob("*")) == before


def test_render_command(runner, tmp_path):
    cfg, data = _gen(runner, tmp_path)
    out = tmp_path / "svg"
    res = runner.invoke(main, [
        "render", "--gt", str(data / "gt" / "seq_0000.jsonl"),
        "--out", str(out), "--width", "640", "--height", "480"])
    assert res.exit_code == 0, res.output
    files = sorted(out.glob("frame_*.svg"))
    assert len(files) == 2
    root = ET.fromstring(files[0].read_text())
    assert root.get("width") == "640"


def test_render_with_hypotheses(runner, tmp_path):
    cfg, data = _gen(runner, tmp_path)
    inf = tmp_path / "inf"
    res = runner.invoke(main, [
        "infer", "--config", str(cfg), "--data", str(data), "--oracle",
        "noisy", "--out", str(inf)])
    assert res.exit_code == 0
    out = tmp_path / "svg"
    res = runner.invoke(main, [
        "render", "--gt", str(data / "gt" / "seq_0000.jsonl"),
        "--hyp", str(inf / "hyp" / "seq_0000" / "h_000.jsonl"),
        "--hyp", str(inf / "hyp" / "seq_0000" / "h_001.jsonl"),
        "--out", str(out)])
    assert res.exit_code == 0, res.output
    svg = (out / "frame_0000.svg").read_text()
    assert "stroke-dasharray" in svg


def test_render_rejects_2d_input(runner, tmp_path):
    cfg, data = _gen(runner, tmp_path)
    res = runner.invoke(main, [
        "render", "--gt", str(data / "kp" / "seq_0000.jsonl"),
        "--out", str(tmp_path / "x")])
    assert res.exit_code == 2
    assert "2D" in res.output


@pytest.mark.parametrize("option", ["--gt", "--hyp"])
def test_render_joint_count_mismatch_exit_2(runner, tmp_path, option):
    poses = tmp_path / "three_joints.jsonl"
    save_poses(PoseSeq3D(np.full((2, 3, 3), [0.0, 0.0, 3000.0])), poses)
    out = tmp_path / "svg"
    res = runner.invoke(main, ["render", option, str(poses), "--out",
                               str(out)])
    _assert_clean_exit(res, 2, f"{poses} holds 3 joints, the skeleton has 17")
    assert not out.exists()


def test_render_overflowing_coordinate_exit_1(runner, tmp_path):
    poses = tmp_path / "big3d.jsonl"
    save_poses(PoseSeq3D(np.full((2, 17, 3), [0.0, 0.0, 3000.0])), poses)
    lines = poses.read_text().splitlines()
    lines[2] = lines[2].replace("3000.0", "9" * 400, 1)
    poses.write_text("\n".join(lines) + "\n")
    out = tmp_path / "svg"
    res = runner.invoke(main, ["render", "--gt", str(poses), "--out",
                               str(out)])
    _assert_clean_exit(res, 1, f"error: line 3: {poses}: non-finite ")
    assert not out.exists()


@pytest.mark.parametrize("size", [["--width", "0"], ["--height", "-5"]])
def test_render_size_below_1_exit_2(runner, tmp_path, size):
    cfg, data = _gen(runner, tmp_path)
    out = tmp_path / "svg"
    res = runner.invoke(main, [
        "render", "--gt", str(data / "gt" / "seq_0000.jsonl"), *size,
        "--out", str(out)])
    assert res.exit_code == 2 and size[0] in res.output
    assert not out.exists()


def test_render_needs_something(runner, tmp_path):
    res = runner.invoke(main, ["render", "--out", str(tmp_path / "x")])
    assert res.exit_code == 2


def test_flip_modes_run_end_to_end(runner, tmp_path):
    cfg, data = _gen(runner, tmp_path)
    for mode in ("once", "diffusion"):
        out = tmp_path / f"inf_{mode}"
        res = runner.invoke(main, [
            "infer", "--config", str(cfg), "--data", str(data), "--oracle",
            "contractive", "--flip", mode, "--out", str(out)])
        assert res.exit_code == 0, res.output
        assert (out / "metrics.csv").exists()


@pytest.mark.parametrize("command", ["infer", "bench"])
def test_flip_refuses_camera_without_positive_cx(runner, tmp_path, command):
    # flips mirror about u = cx; a dataset camera with cx <= 0, or with a
    # tangential p1 that the mirror does not negate, is refused, naming
    # the manifest and the value, before any output is made
    for name, camera in (("cx", replace(DEFAULT_CAMERA, cx=-10.0)),
                         ("p1", replace(DEFAULT_CAMERA, model="distorted",
                                        p1=0.01))):
        cfg = _write_cfg(tmp_path, {**SMALL_CFG,
                                    "camera": camera_to_dict(camera)})
        data, out = tmp_path / f"data_{name}", tmp_path / f"out_{name}"
        res = runner.invoke(main, ["gen", "--config", str(cfg), "--out",
                                   str(data)])
        assert res.exit_code == 0, res.output
        args = [command, "--config", str(cfg), "--data", str(data),
                "--oracle", "noisy", "--out", str(out)]
        res = runner.invoke(main, [*args, "--flip", "diffusion"])
        _assert_clean_exit(res, 1,
                           f"error: {data / 'manifest.json'}: camera {name}")
        assert f"got {getattr(camera, name)}" in res.stderr
        assert not out.exists()
        res = runner.invoke(main, [*args, "--flip", "none"])
        assert res.exit_code == 0, res.output


class _NanStub(Denoiser):
    """Zeros, except NaN for hypothesis 2 at the second step."""

    def predict_clean(self, y_t, x, t, out, *, hyp_offset=0, mirrored=None):
        out.fill(0.0)
        if t == 40:
            out[2 - hyp_offset] = np.nan
        return out


def test_non_finite_estimate_exit_1_names_sequence(runner, tmp_path,
                                                   monkeypatch):
    cfg, data = _gen(runner, tmp_path)

    def denoisers(cfg, ds, checkpoint, oracle):
        # the second sequence's denoiser fails
        return [PerfectOracle(ds.sequences[0].gt), _NanStub(),
                PerfectOracle(ds.sequences[2].gt)]
    monkeypatch.setattr(cli, "_denoisers", denoisers)
    res = runner.invoke(main, ["infer", "--config", str(cfg), "--data",
                               str(data), "--oracle", "perfect", "--out",
                               str(tmp_path / "out")])
    _assert_clean_exit(res, 1, "error: sampling sequence 1 (seq_0001): "
                               "step t=40: hypothesis 2: clean estimate is "
                               "not finite")


def test_allocation_failure_exit_1(runner, tmp_path, monkeypatch):
    # memory the machine refuses is an error line, not a traceback
    cfg, data = _gen(runner, tmp_path)

    def run_sampler(*args, **kwargs):
        raise MemoryError("Unable to allocate 7.45 GiB for an array")
    monkeypatch.setattr(cli, "run_sampler", run_sampler)
    res = runner.invoke(main, ["infer", "--config", str(cfg), "--data",
                               str(data), "--oracle", "noisy", "--out",
                               str(tmp_path / "out")])
    _assert_clean_exit(res, 1, "error: Unable to allocate 7.45 GiB")


def _sequences(root: Path, edit, count: int = 3, edited: int = 1) -> Path:
    """A dataset of ``count`` 4-frame synthetic sequences; ``edit``
    changes the ground-truth joints of sequence ``edited`` in place."""
    scenario = replace(config_from_dict(SMALL_CFG).scenario,
                       pose_count=count, frames_per_pose=4)
    seqs = []
    for i, (gt, kp) in enumerate(gen_poses(scenario)):
        joints = gt.joints.copy()
        if i == edited:
            edit(joints)
        seqs.append((kp, PoseSeq3D(joints)))
    save_dataset(root / "data", scenario.skeleton, scenario.camera, seqs)
    return root / "data"


def _behind_camera(joints):
    joints[2, 5, 2] = -10.0


def _collinear(joints):
    joints[3] = np.outer(np.arange(17.0), [10.0, 20.0, 5.0]) + [0, 0, 3000.0]


@pytest.mark.parametrize("edit, message", [
    (_behind_camera,
     "frame 2: every hypothesis is behind the camera for joint 5"),
    (_collinear, "frame 3: prediction joints are collinear"),
])
def test_scoring_error_exit_1_names_sequence_and_frame(runner, tmp_path,
                                                       edit, message):
    # the frames of all sequences are scored as one stack; a frame that
    # cannot be aggregated, or aligned for P-MPJPE, is named by its
    # sequence and its index there, not by its index in the stack
    data = _sequences(tmp_path, edit)
    res = runner.invoke(main, ["infer", "--config", str(_write_cfg(tmp_path)),
                               "--data", str(data), "--oracle", "perfect",
                               "--out", str(tmp_path / "out")])
    _assert_clean_exit(res, 1, f"error: scoring sequence 1 (seq_0001): "
                               f"{message}\n")


@pytest.mark.parametrize("edit, message", [
    (_behind_camera,
     "frame 2: every hypothesis is behind the camera for joint 5"),
    (_collinear, "frame 3: prediction joints are collinear"),
])
def test_scoring_error_in_a_later_group_names_sequence_and_frame(
        runner, tmp_path, monkeypatch, edit, message):
    # four sequences of 4 frames in two groups of two: a frame of the
    # second group's second sequence that cannot be aggregated, or
    # aligned for P-MPJPE, is named by the sequence's index in the
    # dataset and the frame's there. The first group's files stay in
    # --out; a group's files are written before its frames are aligned,
    # so after a failed alignment the failing group's stay too
    monkeypatch.setattr(cli, "FRAMES_PER_GROUP", 5)
    data = _sequences(tmp_path, edit, count=4, edited=3)
    assert cli._groups(load_dataset(data)) == [
        [(0, slice(0, 4)), (1, slice(4, 8))],
        [(2, slice(0, 4)), (3, slice(4, 8))]]
    out = tmp_path / "out"
    res = runner.invoke(main, ["infer", "--config", str(_write_cfg(tmp_path)),
                               "--data", str(data), "--oracle", "perfect",
                               "--out", str(out)])
    _assert_clean_exit(res, 1, f"error: scoring sequence 3 (seq_0003): "
                               f"{message}\n")
    written = {i for i in range(4)
               if (out / "agg" / "avg" / f"seq_{i:04d}.jsonl").exists()}
    assert written == ({0, 1} if edit is _behind_camera else {0, 1, 2, 3})
    assert (out / "hyp" / "seq_0001" / "h_003.jsonl").exists()
    assert not (out / "metrics.csv").exists()


def test_alignment_error_in_the_first_group_stops_the_run(runner, tmp_path,
                                                         monkeypatch):
    # a frame of the first group that cannot be aligned for P-MPJPE
    # stops the run before the second group is sampled: the first
    # group's files stay, and no later group's, nor metrics.csv, are
    # written
    monkeypatch.setattr(cli, "FRAMES_PER_GROUP", 5)
    data = _sequences(tmp_path, _collinear, count=4, edited=1)
    out = tmp_path / "out"
    res = runner.invoke(main, ["infer", "--config", str(_write_cfg(tmp_path)),
                               "--data", str(data), "--oracle", "perfect",
                               "--out", str(out)])
    _assert_clean_exit(res, 1, "error: scoring sequence 1 (seq_0001): "
                               "frame 3: prediction joints are collinear\n")
    for m in ("avg", "jpma", "ppma"):
        written = {i for i in range(4)
                   if (out / "agg" / m / f"seq_{i:04d}.jsonl").exists()}
        assert written == {0, 1}, m
    assert not (out / "hyp" / "seq_0002").exists()
    assert not (out / "metrics.csv").exists()


@pytest.mark.parametrize("edit, message", [
    (_behind_camera,
     "frame 2: every hypothesis is behind the camera for joint 5"),
    (_collinear, "frame 3: prediction joints are collinear"),
])
def test_bench_scoring_error_in_a_later_group_names_sequence_and_frame(
        runner, tmp_path, monkeypatch, edit, message):
    # bench scores group by group as infer does: the error names the
    # sequence by its index in the dataset and the frame's there, and no
    # bench.csv is written
    monkeypatch.setattr(cli, "FRAMES_PER_GROUP", 5)
    data = _sequences(tmp_path, edit, count=4, edited=3)
    out = tmp_path / "out"
    res = runner.invoke(main, ["bench", "--config", str(_write_cfg(tmp_path)),
                               "--data", str(data), "--oracle", "perfect",
                               "--hypotheses", "1,2", "--iterations", "2,3",
                               "--out", str(out)])
    _assert_clean_exit(res, 1, f"error: scoring sequence 3 (seq_0003): "
                               f"{message}\n")
    assert not (out / "bench.csv").exists()


def test_sampling_error_in_a_later_group_names_sequence(runner, tmp_path,
                                                        monkeypatch):
    # three sequences of 2 frames in groups of two and one: the third
    # sequence's denoiser fails, and the error names it by its index in
    # the dataset; the first group's files stay in --out
    cfg, data = _gen(runner, tmp_path)
    monkeypatch.setattr(cli, "FRAMES_PER_GROUP", 3)
    assert cli._groups(load_dataset(data)) == [
        [(0, slice(0, 2)), (1, slice(2, 4))], [(2, slice(0, 2))]]

    def denoisers(cfg, ds, checkpoint, oracle):
        return [PerfectOracle(ds.sequences[0].gt),
                PerfectOracle(ds.sequences[1].gt), _NanStub()]
    monkeypatch.setattr(cli, "_denoisers", denoisers)
    out = tmp_path / "out"
    res = runner.invoke(main, ["infer", "--config", str(cfg), "--data",
                               str(data), "--oracle", "perfect", "--out",
                               str(out)])
    _assert_clean_exit(res, 1, "error: sampling sequence 2 (seq_0002): "
                               "step t=40: hypothesis 2: clean estimate is "
                               "not finite")
    assert (out / "agg" / "jpma" / "seq_0001.jsonl").exists()
    assert (out / "hyp" / "seq_0001" / "h_003.jsonl").exists()
    assert not (out / "hyp" / "seq_0002").exists()
    assert not (out / "agg" / "jpma" / "seq_0002.jsonl").exists()


@pytest.mark.parametrize("size, lengths, indices", [
    # a group closes at exactly FRAMES_PER_GROUP frames
    (4, [2, 2, 2, 2], [[0, 1], [2, 3]]),
    (4, [1, 3, 4], [[0, 1], [2]]),
    # a sequence longer than that is a group of its own
    (4, [9, 2, 2], [[0], [1, 2]]),
    (4, [2, 2, 9, 3, 1], [[0, 1], [2], [3, 4]]),
    # the last group holds the rest
    (5, [3, 3, 1], [[0, 1], [2]]),
    (100, [3, 3], [[0, 1]]),
    (1, [2, 1, 3], [[0], [1], [2]]),
])
def test_groups_close_at_frames_per_group(monkeypatch, size, lengths,
                                          indices):
    # each group is the (index in the dataset, frames) pair of each of its
    # sequences; the frames tile the group's stack in sequence order
    monkeypatch.setattr(cli, "FRAMES_PER_GROUP", size)
    seqs = tuple(Sequence(f"seq_{i:04d}", PoseSeq2D(np.zeros((n, 17, 2))),
                          None) for i, n in enumerate(lengths))
    groups = cli._groups(Dataset(DEFAULT_SKELETON, DEFAULT_CAMERA, seqs))
    assert [[i for i, _ in group] for group in groups] == indices
    for group in groups:
        ends = [0] + [frames.stop for _, frames in group]
        assert [frames.start for _, frames in group] == ends[:-1]
        assert [frames.stop - frames.start for _, frames in group] == [
            lengths[i] for i, _ in group]
        assert ends[-1] == sum(lengths[i] for i, _ in group)


def _tree(root: Path) -> dict[Path, bytes]:
    """Every file under ``root`` by its relative path, with ``root``
    itself written as OUT in the config copy and the run manifest."""
    tree = {}
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        data = path.read_bytes()
        if path.name in ("config.json", "run_manifest.json"):
            data = data.replace(str(root).encode(), b"OUT")
        tree[path.relative_to(root)] = data
    return tree


def _trees_at_group_sizes(runner, tmp_path, monkeypatch, data,
                          args) -> list[dict[Path, bytes]]:
    """The files of ``args`` run with one group per sequence, groups of
    two and one, and one group for the whole three-sequence dataset
    ``data``, each under its own --out."""
    trees = []
    for size, groups in ((1, 3), (3, 2), (10 ** 9, 1)):
        monkeypatch.setattr(cli, "FRAMES_PER_GROUP", size)
        assert len(cli._groups(load_dataset(data))) == groups
        out = tmp_path / f"groups_{size}"
        res = runner.invoke(main, [*args, "--out", str(out)])
        assert res.exit_code == 0, res.output
        trees.append(_tree(out))
    return trees


@pytest.mark.parametrize("save", ["--save-hypotheses", "--no-save-hypotheses"])
@pytest.mark.parametrize("flip", ["none", "diffusion"])
@pytest.mark.parametrize("source", ["oracle", "checkpoint"])
def test_infer_files_do_not_depend_on_groups(runner, tmp_path, small_run,
                                             monkeypatch, source, flip, save):
    # one group per sequence, groups of two and one, and one group for
    # the whole dataset write the same files, byte for byte, bar the
    # --out path inside config.json and run_manifest.json
    cfg, data, ckpt = small_run
    den = (["--oracle", "noisy"] if source == "oracle"
           else ["--checkpoint", str(ckpt)])
    trees = _trees_at_group_sizes(runner, tmp_path, monkeypatch, data, [
        "infer", "--config", str(cfg), "--data", str(data), *den,
        "--flip", flip, save, "--aggregator", "avg,jpma,ppma,pbest,jbest"])
    assert (Path("hyp") / "seq_0002" / "h_003.jsonl" in trees[0]) == (
        save == "--save-hypotheses")
    assert trees[0] == trees[1] == trees[2]


@pytest.mark.parametrize("flip", ["none", "diffusion"])
@pytest.mark.parametrize("source", ["oracle", "checkpoint"])
def test_bench_csv_does_not_depend_on_groups(runner, tmp_path, small_run,
                                             monkeypatch, source, flip):
    # bench pools each row's frame errors over the groups: its bench.csv
    # is the same, byte for byte, whatever the groups
    cfg, data, ckpt = small_run
    den = (["--oracle", "noisy"] if source == "oracle"
           else ["--checkpoint", str(ckpt)])
    trees = _trees_at_group_sizes(runner, tmp_path, monkeypatch, data, [
        "bench", "--config", str(cfg), "--data", str(data), *den,
        "--flip", flip, "--hypotheses", "3,1,4", "--iterations", "10,5",
        "--aggregator", "avg,jpma,ppma,pbest,jbest"])
    assert len(_read_rows(tmp_path / "groups_1" / "bench.csv")) == 30
    assert trees[0] == trees[1] == trees[2]


@pytest.mark.bitwise
@settings(max_examples=25, deadline=None, derandomize=True)
@given(lengths=st.lists(st.integers(1, 6), min_size=1, max_size=4),
       hypotheses=st.integers(1, 4), iterations=st.integers(1, 4),
       flip=st.sampled_from(["none", "once", "diffusion"]),
       source=st.sampled_from(["oracle", "checkpoint"]),
       frames_per_group=st.integers(1, 12),
       frames_per_chunk=st.integers(1, 40),
       rows_per_block=st.integers(1, 30), workers=st.integers(1, 3))
def test_outputs_do_not_depend_on_how_the_work_is_split(
        small_run, tmp_path_factory, lengths, hypotheses, iterations, flip,
        source, frames_per_group, frames_per_chunk, rows_per_block, workers):
    # the groups of sequences, the chunks of hypotheses sampled apart,
    # the workers that sample them and the MLP's blocks of rows change
    # no byte of infer's files or of bench.csv, bar the --out path in
    # config.json and run_manifest.json
    cfg, _, ckpt = small_run
    root = tmp_path_factory.mktemp("split")
    scenario = replace(config_from_dict(SMALL_CFG).scenario,
                       pose_count=len(lengths), frames_per_pose=max(lengths))
    save_dataset(root / "data", scenario.skeleton, scenario.camera,
                 [(PoseSeq2D(kp.joints[:n]), PoseSeq3D(gt.joints[:n]))
                  for (gt, kp), n in zip(gen_poses(scenario), lengths)])
    common = ["--config", str(cfg), "--data", str(root / "data"), "--flip",
              flip, "--aggregator", "avg,jpma,ppma,pbest,jbest",
              *(["--oracle", "noisy"] if source == "oracle"
                else ["--checkpoint", str(ckpt)])]
    commands = {
        "infer": ["infer", *common, "--hypotheses", str(hypotheses),
                  "--iterations", str(iterations)],
        "bench": ["bench", *common,
                  "--hypotheses", ",".join(map(str, sorted({1, hypotheses}))),
                  "--iterations", f"{iterations},{iterations + 1}"]}
    runner = CliRunner()

    def tree(name, args):
        out = root / name
        res = runner.invoke(main, [*args, "--out", str(out)])
        assert res.exit_code == 0, res.output
        return _tree(out)
    for command, args in commands.items():
        want = tree(f"{command}_defaults", args)
        with pytest.MonkeyPatch.context() as m:
            m.setattr(cli, "FRAMES_PER_GROUP", frames_per_group)
            m.setattr(sampler, "FRAMES_PER_CHUNK", frames_per_chunk)
            m.setattr(sampler, "_usable_cpus", lambda: workers)
            m.setattr(importlib.import_module("posediff.denoise"),
                      "ROWS_PER_BLOCK", rows_per_block)
            assert tree(f"{command}_split", args) == want, command


def _held_hypotheses(runner, tmp_path, monkeypatch,
                     args) -> tuple[list[int], list[int]]:
    """Run ``args`` on four sequences of 4 frames, each its own group,
    with the cyclic collector off; as each sampled set is made, the
    bytes of hypotheses held by every set still alive, and at each
    aggregation, how many sets made before the one it reads are still
    alive."""
    data = _sequences(tmp_path, lambda joints: None, count=4)
    monkeypatch.setattr(cli, "FRAMES_PER_GROUP", 4, raising=False)
    made, held, stale = [], [], []

    class Recorded(cli.HypothesisSet):
        def __init__(self, poses):
            super().__init__(poses)
            made.append(weakref.ref(self))
            held.append(sum(s.poses.nbytes for s in (r() for r in made)
                            if s is not None))

    def run_aggregator(method, hs, **inputs):
        whole = hs.whole_set()
        i = next(i for i, r in enumerate(made) if r() is whole)
        stale.append(sum(r() is not None for r in made[:i]))
        return real(method, hs, **inputs)
    real = cli.run_aggregator
    monkeypatch.setattr(cli, "HypothesisSet", Recorded)
    monkeypatch.setattr(cli, "run_aggregator", run_aggregator)
    gc.disable()
    try:
        res = runner.invoke(main, [
            *args, "--config", str(_write_cfg(tmp_path)), "--data",
            str(data), "--oracle", "noisy", "--out", str(tmp_path / "out")])
    finally:
        gc.enable()
    assert res.exit_code == 0, res.output
    return held, stale


def test_infer_holds_one_group_of_hypotheses_at_a_time(runner, tmp_path,
                                                      monkeypatch):
    # each group's hypotheses are gone before the next group's set is
    # made, so infer never holds more of them than one group's
    held, stale = _held_hypotheses(runner, tmp_path, monkeypatch, ["infer"])
    one_group = 4 * 4 * DEFAULT_SKELETON.num_joints * 3 * 8  # H=4, 4 frames
    assert held == [one_group] * 4
    assert stale == [0] * 4 * 3  # four groups, three methods


def test_bench_holds_one_group_of_hypotheses_at_a_time(runner, tmp_path,
                                                      monkeypatch):
    # bench samples each group once per K, at the largest H: each K's
    # set holds the group's frames, and is gone before the next group's
    # first set is made
    held, _ = _held_hypotheses(runner, tmp_path, monkeypatch, [
        "bench", "--hypotheses", "1,3", "--iterations", "2,3"])
    one_group = 3 * 4 * DEFAULT_SKELETON.num_joints * 3 * 8  # H=3, 4 frames
    assert held == [one_group, 2 * one_group] * 4


def test_bench_releases_each_k_before_the_next(runner, tmp_path,
                                               monkeypatch):
    # bench scores one K's cells for every H before the next K's, and
    # drops each K's set, with the costs it cached, before the next K's
    # first aggregation
    _, stale = _held_hypotheses(runner, tmp_path, monkeypatch, [
        "bench", "--hypotheses", "1,3", "--iterations", "2,3"])
    assert stale == [0] * 4 * 2 * 2 * 3  # groups x K x H x methods


def test_bench_rows_follow_the_grids_as_given(runner, tmp_path):
    # bench scores K by K, but writes its rows in the grids' given order,
    # H outer, then K, then method, unsorted grids too
    cfg, data = _gen(runner, tmp_path)
    out = tmp_path / "bench"
    res = runner.invoke(main, [
        "bench", "--config", str(cfg), "--data", str(data), "--oracle",
        "noisy", "--out", str(out), "--hypotheses", "3,1",
        "--iterations", "3,2", "--aggregator", "jbest,ppma,avg"])
    assert res.exit_code == 0, res.output
    assert [(r["H"], r["K"], r["method"])
            for r in _read_rows(out / "bench.csv")] == [
        (h, k, m) for h in ("3", "1") for k in ("3", "2")
        for m in ("jbest", "ppma", "avg")]
