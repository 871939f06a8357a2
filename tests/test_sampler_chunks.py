"""Sampling in chunks of hypotheses changes no output.

``run_sampler`` may split its H hypotheses into C contiguous chunks,
each exactly the ``hyp_offset`` batch split. C follows from the input's
shape and the module constant ``FRAMES_PER_CHUNK`` (hypothesis-frames
per chunk), so the tests force C = 1, 2 and 3 by setting that constant;
C = 3 splits H=20 unevenly. Every result and every trace entry must be
bitwise the same at each count.
"""
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import posediff
from posediff import cli, sampler
from posediff.core import DEFAULT_SKELETON
from posediff.denoise import (ContractiveOracle, Denoiser, MlpDenoiser,
                              NoisyOracle, PerfectOracle, init_params)
from posediff.errors import NumericError
from posediff.rng import RngStream
from posediff.sampler import (FlipMode, SamplerConfig, SigmaMode, run_sampler,
                              timestep_ladder)
from posediff.schedule import make_cosine_schedule
from posediff.synth import ScenarioConfig, gen_poses

pytestmark = pytest.mark.bitwise

H = 20
CHUNKS = (1, 2, 3)


def _force_chunks(monkeypatch, chunks: int, frames: int) -> None:
    """Make ``run_sampler`` split H hypotheses of ``frames`` frames into
    ``chunks`` chunks."""
    monkeypatch.setattr(sampler, "FRAMES_PER_CHUNK", H * frames // chunks)
    assert len(sampler._chunks(H, frames)) == chunks


def _at_every_count(monkeypatch, x, den, cfg, sched, hyp_offset):
    """(result, trace) of ``run_sampler`` at each forced chunk count; the
    trace is None in flip mode ``once``, which has none."""
    runs = []
    for chunks in CHUNKS:
        _force_chunks(monkeypatch, chunks, x.num_frames)
        trace = None if cfg.flip_mode is FlipMode.ONCE else []
        out = run_sampler(x, den, cfg, sched, DEFAULT_SKELETON, 1000.0,
                          hyp_offset=hyp_offset, trace=trace)
        runs.append((out.poses,
                     None if trace is None else [s.poses for s in trace]))
    return runs


def _assert_bitwise_equal(runs):
    first, first_trace = runs[0]
    for chunks, (poses, trace) in zip(CHUNKS[1:], runs[1:]):
        assert np.array_equal(poses, first), chunks
        if first_trace is not None:
            assert len(trace) == len(first_trace), chunks
            for k, (a, b) in enumerate(zip(trace, first_trace)):
                assert np.array_equal(a, b), (chunks, k)


def _keypoints(frames: int, seed: int = 2):
    return gen_poses(ScenarioConfig(pose_count=1, frames_per_pose=frames,
                                    seed=seed))[0]


@pytest.mark.parametrize("frames", [7, 256])
@pytest.mark.parametrize("sigma_mode", list(SigmaMode))
@pytest.mark.parametrize("flip_mode", list(FlipMode))
def test_mlp_outputs_do_not_depend_on_chunk_count(monkeypatch, frames,
                                                  sigma_mode, flip_mode):
    sched = make_cosine_schedule(200)
    den = MlpDenoiser(init_params(DEFAULT_SKELETON.num_joints), 200)
    _, x = _keypoints(frames)
    cfg = SamplerConfig(hypotheses=H, iterations=3, seed=3,
                        sigma_mode=sigma_mode, flip_mode=flip_mode)
    _assert_bitwise_equal(_at_every_count(monkeypatch, x, den, cfg, sched,
                                          hyp_offset=5))


@pytest.mark.parametrize("oracle", ["perfect", "contractive", "noisy"])
@pytest.mark.parametrize("sigma_mode", list(SigmaMode))
@pytest.mark.parametrize("flip_mode", list(FlipMode))
def test_oracle_outputs_do_not_depend_on_chunk_count(monkeypatch, oracle,
                                                     sigma_mode, flip_mode):
    sched = make_cosine_schedule(50)
    gt, x = _keypoints(7, seed=5)
    den = {"perfect": lambda: PerfectOracle(gt),
           "contractive": lambda: ContractiveOracle(gt, 0.3),
           "noisy": lambda: NoisyOracle(gt, 20.0, seed=8)}[oracle]()
    cfg = SamplerConfig(hypotheses=H, iterations=4, seed=6,
                        sigma_mode=sigma_mode, flip_mode=flip_mode)
    _assert_bitwise_equal(_at_every_count(monkeypatch, x, den, cfg, sched,
                                          hyp_offset=3))


@pytest.mark.parametrize("chunks", CHUNKS)
@pytest.mark.parametrize("sigma_mode", list(SigmaMode))
@pytest.mark.parametrize("flip_mode", list(FlipMode))
def test_sampling_into_a_slice_of_a_stack_equals_a_new_result(
        monkeypatch, chunks, sigma_mode, flip_mode):
    # the CLI samples each sequence into its frames of one stack; the
    # MLP also keeps the state in signal units there between queries
    frames = 7
    _force_chunks(monkeypatch, chunks, frames)
    sched = make_cosine_schedule(200)
    den = MlpDenoiser(init_params(DEFAULT_SKELETON.num_joints), 200)
    _, x = _keypoints(frames)
    cfg = SamplerConfig(hypotheses=H, iterations=3, seed=3,
                        sigma_mode=sigma_mode, flip_mode=flip_mode)
    traces = [None if flip_mode is FlipMode.ONCE else [] for _ in range(2)]
    want = run_sampler(x, den, cfg, sched, DEFAULT_SKELETON, 1000.0,
                       hyp_offset=2, trace=traces[0]).poses
    stack = np.full((H, frames + 5, DEFAULT_SKELETON.num_joints, 3), 7.0)
    out = stack[:, 3:3 + frames]
    got = run_sampler(x, den, cfg, sched, DEFAULT_SKELETON, 1000.0,
                      hyp_offset=2, trace=traces[1], out=out).poses
    assert np.array_equal(got, want)
    if traces[0] is not None:
        assert len(traces[1]) == len(traces[0]) == 3
        for a, b in zip(*traces):
            assert np.array_equal(a.poses, b.poses)
    assert np.shares_memory(got, out) and got.shape == out.shape
    assert not got.flags.writeable and out.flags.writeable
    # the frames around the slice are untouched
    assert np.all(stack[:, :3] == 7.0) and np.all(stack[:, 3 + frames:] == 7.0)


@pytest.mark.parametrize("bad", ["hypotheses", "frames", "dtype",
                                 "read-only"])
def test_sampler_refuses_a_bad_out_before_drawing(monkeypatch, bad):
    j = DEFAULT_SKELETON.num_joints
    out = {"hypotheses": lambda: np.empty((H - 1, 7, j, 3)),
           "frames": lambda: np.empty((H, 8, j, 3)),
           "dtype": lambda: np.empty((H, 7, j, 3), np.float32),
           "read-only": lambda: np.empty((H, 7, j, 3))}[bad]()
    out.setflags(write=bad != "read-only")
    drawn = []
    monkeypatch.setattr(RngStream, "standard_normal",
                        lambda *a, **k: drawn.append(a))
    den = _Recorder()
    _, x = _keypoints(7)
    with pytest.raises(ValueError, match="^out must be a writable float64 "
                                         rf"array of shape \({H}, 7, {j}, 3\)"):
        run_sampler(x, den, SamplerConfig(hypotheses=H, iterations=2),
                    make_cosine_schedule(20), out=out)
    assert drawn == [] and den.queries == set()


def _cli(cwd: Path, *args: str, cpu: str | None = None) -> None:
    src = str(Path(posediff.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    argv = [sys.executable, "-m", "posediff.cli", *args]
    if cpu is not None:
        argv = ["taskset", "-c", cpu] + argv
    done = subprocess.run(argv, cwd=cwd, capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, timeout=300)
    assert done.returncode == 0, done.stderr


@pytest.mark.skipif(shutil.which("taskset") is None,
                    reason="needs taskset to restrict the CPUs")
def test_cli_infer_on_one_cpu_writes_the_same_bytes(tmp_path):
    # 20 hypotheses of 256 frames, the size the benchmark's long
    # sequences sample in chunks; one run may use every CPU, the other
    # only the first
    (tmp_path / "cfg.json").write_text(
        '{"seed": 4, "t_max": 40, "scenario": {"pose_count": 1, '
        '"frames_per_pose": 256}, "sampler": {"hypotheses": 20, '
        '"iterations": 3}, "train": {"steps": 20, "batch_size": 8}}')
    _cli(tmp_path, "gen", "--config", "cfg.json", "--out", "data")
    _cli(tmp_path, "train", "--config", "cfg.json", "--data", "data",
         "--out", "run")
    outputs = {}
    for name, cpu in (("all", None), ("one", "0")):
        (tmp_path / name).mkdir()
        _cli(tmp_path / name, "infer", "--config", "../cfg.json", "--data",
             "../data", "--checkpoint", "../run/model.ckpt", "--flip",
             "diffusion", "--out", "out", cpu=cpu)
        root = tmp_path / name / "out"
        outputs[name] = {p.relative_to(root): p.read_bytes()
                         for p in sorted(root.rglob("*")) if p.is_file()}
    assert outputs["all"]
    assert outputs["one"] == outputs["all"]


def test_chunks_follow_the_shape():
    # the rule: H * N // FRAMES_PER_CHUNK chunks, at least 1 and at most
    # H, contiguous, the longer ones first
    per = sampler.FRAMES_PER_CHUNK
    assert sampler._chunks(20, 4) == [range(20)]
    assert sampler._chunks(20, 2 * per // 20 - 1) == [range(20)]
    assert sampler._chunks(20, 2 * per // 20 + 1) == [range(10), range(10, 20)]
    assert sampler._chunks(20, 3 * per // 20 + 1) == [
        range(7), range(7, 14), range(14, 20)]
    assert sampler._chunks(3, 10 * per) == [range(1), range(1, 2),
                                            range(2, 3)]
    # the benchmark's long sequences split in two
    assert len(sampler._chunks(20, 256)) == 2


class _Recorder(Denoiser):
    """Zeros; records the hypotheses of every query."""

    def __init__(self):
        self.queries = set()

    def predict_clean(self, y_t, x, t, out, *, hyp_offset=0, mirrored=None):
        self.queries.add(range(hyp_offset, hyp_offset + len(y_t)))
        out.fill(0.0)
        return out


@pytest.mark.parametrize("chunks", CHUNKS)
def test_each_chunk_is_queried_as_its_own_batch(monkeypatch, chunks):
    _force_chunks(monkeypatch, chunks, 7)
    _, x = _keypoints(7)
    den = _Recorder()
    run_sampler(x, den, SamplerConfig(hypotheses=H, iterations=2),
                make_cosine_schedule(20), hyp_offset=4)
    want = {range(4 + r.start, 4 + r.stop) for r in sampler._chunks(H, 7)}
    assert len(want) == chunks
    assert den.queries == want


class _NanFrom(Denoiser):
    """Zeros, except NaN for global hypothesis h from timestep
    ``start[h]`` down."""

    def __init__(self, start: dict[int, int]):
        self.start = start

    def predict_clean(self, y_t, x, t, out, *, hyp_offset=0, mirrored=None):
        out.fill(0.0)
        for h, t_first in self.start.items():
            if t <= t_first and 0 <= h - hyp_offset < len(out):
                out[h - hyp_offset, -1, 0, 2] = np.nan
        return out


# 20 hypotheses of 256 frames are sampled in two chunks; hypothesis 15
# of the second fails from step 2, hypothesis 3 of the first from step 5
T_MAX, K, FRAMES = 40, 8, 256
LADDER = timestep_ladder(T_MAX, K)
FAILING = {15: LADDER[2], 3: LADDER[5]}


@pytest.mark.parametrize("chunks", [None, 1, 3])
@pytest.mark.parametrize("flip_mode", list(FlipMode))
def test_failing_chunks_raise_what_one_chunk_raises(monkeypatch, chunks,
                                                    flip_mode):
    # one chunk stops at step 2 and names hypothesis 15, the lowest
    # failing one there; so must every split, whichever chunk fails
    # first in time
    if chunks is not None:
        _force_chunks(monkeypatch, chunks, FRAMES)
    _, x = _keypoints(FRAMES)
    cfg = SamplerConfig(hypotheses=H, iterations=K, flip_mode=flip_mode)
    with pytest.raises(NumericError, match=f"^step t={LADDER[2]}: "
                                           f"hypothesis 15: ") as info:
        run_sampler(x, _NanFrom(FAILING), cfg, make_cosine_schedule(T_MAX),
                    DEFAULT_SKELETON, 1000.0)
    assert info.value.hypothesis == 15


class _Refuses(Denoiser):
    """Refuses any batch holding hypothesis 12."""

    def predict_clean(self, y_t, x, t, out, *, hyp_offset=0, mirrored=None):
        if hyp_offset <= 12 < hyp_offset + len(y_t):
            raise KeyError("hypothesis 12 is refused")
        out.fill(0.0)
        return out


def test_other_errors_reach_the_caller_unchanged():
    _, x = _keypoints(FRAMES)
    with pytest.raises(KeyError) as info:
        run_sampler(x, _Refuses(), SamplerConfig(hypotheses=H, iterations=3),
                    make_cosine_schedule(T_MAX))
    assert info.type is KeyError
    assert info.value.args == ("hypothesis 12 is refused",)


def test_cli_failing_chunks_exit_1_naming_the_sequence(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    Path("cfg.json").write_text(
        '{"seed": 3, "t_max": %d, "scenario": {"pose_count": 1, '
        '"frames_per_pose": %d}, "sampler": {"hypotheses": %d, '
        '"iterations": %d}}' % (T_MAX, FRAMES, H, K))
    runner = CliRunner()
    res = runner.invoke(cli.main, ["gen", "--config", "cfg.json", "--out",
                                   "data"])
    assert res.exit_code == 0, res.output
    monkeypatch.setattr(cli, "_denoisers",
                        lambda cfg, ds, checkpoint, oracle: [_NanFrom(FAILING)])
    res = runner.invoke(cli.main, ["infer", "--config", "cfg.json", "--data",
                                   "data", "--oracle", "perfect", "--flip",
                                   "diffusion", "--out", "out"])
    assert res.exit_code == 1, res.output
    assert (f"error: sampling sequence 0 (seq_0000): step t={LADDER[2]}: "
            f"hypothesis 15: clean estimate is not finite") in res.stderr
    assert "Traceback" not in res.stderr
