"""Fuzzed inputs for the checkpoint, pose-file and manifest loaders.

Each example copies a small valid dataset and checkpoint, corrupts one
file (truncated bytes, a NaN or Infinity token, a count that disagrees
with the data) and runs ``infer`` on it. It must exit 1 or 2 through
the CLI's error handler with one ``error:`` line, never a traceback.
"""
import json
import math
import shutil
import tempfile
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

from posediff.cli import main

TINY_CFG = {
    "seed": 5,
    "t_max": 20,
    "scenario": {"pose_count": 2, "frames_per_pose": 2},
    "sampler": {"hypotheses": 2, "iterations": 2},
    "train": {"steps": 4, "batch_size": 2},
    "denoiser": {"hidden_width": 8, "hidden_layers": 1},
}

FUZZ = settings(max_examples=30, deadline=None)
NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])


@pytest.fixture(scope="module")
def clean(tmp_path_factory):
    """A valid config, dataset and checkpoint, never modified."""
    root = tmp_path_factory.mktemp("clean")
    (root / "cfg.json").write_text(json.dumps(TINY_CFG))
    runner = CliRunner()
    for args in (["gen", "--out", str(root / "data")],
                 ["train", "--data", str(root / "data"), "--out",
                  str(root / "run")]):
        res = runner.invoke(main, [*args, "--config", str(root / "cfg.json")])
        assert res.exit_code == 0, res.output
    return root


def _fails_cleanly(clean: Path, corrupt) -> None:
    """Copy ``clean``, let ``corrupt(root)`` damage it, run ``infer``."""
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp) / "case"
        shutil.copytree(clean, root)
        corrupt(root)
        res = CliRunner().invoke(main, [
            "infer", "--config", str(root / "cfg.json"), "--data",
            str(root / "data"), "--checkpoint", str(root / "run/model.ckpt"),
            "--out", str(root / "out")])
    assert res.exit_code in (1, 2), res.output
    assert isinstance(res.exception, SystemExit), res.exception
    lines = res.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), res.stderr


def _truncate(path: Path, frac: float, keep_last: int) -> None:
    """Cut ``path`` so at least ``keep_last`` bytes are gone."""
    raw = path.read_bytes()
    path.write_bytes(raw[:int(frac * (len(raw) - keep_last))])


def _numbers(obj, path=()):
    """Paths to every number in a parsed JSON document."""
    if isinstance(obj, dict):
        items = obj.items()
    elif isinstance(obj, list):
        items = enumerate(obj)
    else:
        if isinstance(obj, (int, float)) and not isinstance(obj, bool):
            yield path
        return
    for key, value in items:
        yield from _numbers(value, path + (key,))


def _update(doc, path, change) -> None:
    """Replace the value at ``path`` in ``doc`` with ``change(value)``."""
    for key in path[:-1]:
        doc = doc[key]
    doc[path[-1]] = change(doc[path[-1]])


def _replace_number(doc, pick: int, value) -> None:
    """Replace the ``pick``-th number of ``doc`` (modulo the count)."""
    paths = list(_numbers(doc))
    _update(doc, paths[pick % len(paths)], lambda _: value)


def _pose_files(root: Path) -> list[Path]:
    return sorted((root / "data").glob("*/seq_*.jsonl"))


@FUZZ
@given(kind=st.sampled_from(["truncate", "non_finite", "count"]),
       pick=st.integers(0, 10 ** 6), frac=st.floats(0.0, 1.0),
       bad=NON_FINITE, delta=st.integers(-3, 3).filter(bool))
def test_manifest_fuzz(clean, kind, pick, frac, bad, delta):
    def corrupt(root):
        path = root / "data" / "manifest.json"
        if kind == "truncate":
            # the last byte is a newline; dropping only it keeps valid JSON
            return _truncate(path, frac, keep_last=2)
        doc = json.loads(path.read_text())
        if kind == "non_finite":
            _replace_number(doc, pick, bad)
        else:
            counts = [("num_joints",)] + [
                ("sequences", i, "frames") for i in range(len(doc["sequences"]))]
            _update(doc, counts[pick % len(counts)], lambda n: n + delta)
        path.write_text(json.dumps(doc, indent=2))
    _fails_cleanly(clean, corrupt)


@FUZZ
@given(kind=st.sampled_from(["truncate", "non_finite", "header_count",
                             "drop_frame", "drop_joint"]),
       file=st.integers(0, 3), pick=st.integers(0, 10 ** 6),
       frac=st.floats(0.0, 1.0), bad=NON_FINITE,
       delta=st.integers(-3, 3).filter(bool))
def test_pose_file_fuzz(clean, kind, file, pick, frac, bad, delta):
    def corrupt(root):
        path = _pose_files(root)[file]
        if kind == "truncate":
            # cut into the last record at least, not only its newline
            return _truncate(path, frac, keep_last=2)
        header, *records = [json.loads(line) for line in
                            path.read_text().splitlines()]
        rec = records[pick % len(records)]
        if kind == "non_finite":
            _replace_number(rec if pick % 2 else header, pick // 2, bad)
        elif kind == "header_count":
            header["J" if pick % 2 else "dims"] += delta
        elif kind == "drop_frame":
            records.remove(rec)
        else:
            del rec["joints"][pick % len(rec["joints"])]
        path.write_text("".join(json.dumps(d) + "\n"
                                for d in [header, *records]))
    _fails_cleanly(clean, corrupt)


@FUZZ
@given(kind=st.sampled_from(["truncate", "non_finite", "count"]),
       pick=st.integers(0, 10 ** 6), frac=st.floats(0.0, 1.0),
       bad=NON_FINITE, delta=st.integers(-3, 3).filter(bool))
def test_checkpoint_fuzz(clean, kind, pick, frac, bad, delta):
    def corrupt(root):
        path = root / "run" / "model.ckpt"
        if kind == "truncate":
            # any lost byte shortens the payload or breaks the header
            return _truncate(path, frac, keep_last=1)
        line, payload = path.read_bytes().split(b"\n", 1)
        header = json.loads(line)
        if kind == "non_finite":
            _replace_number(header, pick, bad)
        else:
            shapes = [t["shape"] for t in header["tensors"]]
            shape = shapes[pick % len(shapes)]
            shape[pick % len(shape)] += delta
        path.write_bytes(json.dumps(header).encode() + b"\n" + payload)
    _fails_cleanly(clean, corrupt)
