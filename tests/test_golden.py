"""Golden reproducibility check: fixed inputs give fixed output bytes.

``gen`` and ``infer --oracle noisy`` run on a small config for each flip
mode. The hypothesis files and aggregated poses are hashed apart from
the config copy, so a change of config keys re-baselines only the
``config.json`` digest while the unchanged output digest shows that no
number moved. The oracle path uses only elementwise numpy and seeded
RNG draws, so its bytes do not depend on BLAS. Re-baseline only for a
deliberate change, and say so in CHANGES.md.
"""
import hashlib
import json
from pathlib import Path

import pytest
from click.testing import CliRunner

from posediff.cli import main

GOLDEN_CFG = {
    "seed": 11,
    "t_max": 40,
    "scenario": {"pose_count": 2, "frames_per_pose": 3},
    "sampler": {"hypotheses": 3, "iterations": 4},
}

GOLDEN = {
    # flip: (digest of hyp/ and agg/, digest of config.json)
    "none": ("2740b2792ac32576a2b60f3d9591430df7649a799a944ada4a7e2f594a85f5dc",
             "d26dc39de0632e7cb0511834284625bddd61c01ddf517e09aad3f2b0aff4a3bf"),
    "once": ("2f6285f55bf16cb183ec51f053cb475b28630d232a5bc217c607b33df411d9e8",
             "765266c370b6b551e8828aec9305936aa97bf2bcbab9951ddb2acc3c2cad9fd6"),
    "diffusion": ("2f6285f55bf16cb183ec51f053cb475b28630d232a5bc217c607b33df411d9e8",
                  "75fd0b28dce8f8e93e6c909c6b2d52d4fe7c167a66430d26415fef4b6a2f6977"),
}


def _digest(root: Path, files) -> str:
    """One sha256 over the relative path and bytes of each given file."""
    h = hashlib.sha256()
    for path in files:
        h.update(path.relative_to(root).as_posix().encode() + b"\0")
        h.update(path.read_bytes() + b"\0")
    return h.hexdigest()


@pytest.mark.parametrize("flip", sorted(GOLDEN))
def test_golden_infer_outputs(flip, tmp_path, monkeypatch):
    # Relative paths keep out_dir, which config.json records, fixed.
    monkeypatch.chdir(tmp_path)
    Path("cfg.json").write_text(json.dumps(GOLDEN_CFG))
    runner = CliRunner()
    res = runner.invoke(main, ["gen", "--config", "cfg.json", "--out", "data"])
    assert res.exit_code == 0, res.output
    res = runner.invoke(main, ["infer", "--config", "cfg.json", "--data",
                               "data", "--oracle", "noisy", "--flip", flip,
                               "--out", "out"])
    assert res.exit_code == 0, res.output
    out = Path("out")
    outputs = sorted(p for sub in ("hyp", "agg") for p in (out / sub).rglob("*")
                     if p.is_file())
    assert outputs
    assert (_digest(out, outputs), _digest(out, [out / "config.json"])) \
        == GOLDEN[flip]
