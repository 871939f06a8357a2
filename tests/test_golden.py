"""Golden reproducibility check: fixed inputs give fixed output bytes.

``gen`` and ``infer --oracle noisy`` run on a small config for each flip
mode, and the hypothesis files, aggregated poses and config copy are
hashed. The oracle path uses only elementwise numpy and seeded RNG
draws, so its bytes do not depend on BLAS. A refactor that moves any
number, or any key of ``config.json``, changes a hash here. Re-baseline
only for a deliberate change of the numbers, and say so in CHANGES.md.
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
    "none": "0a9eaf80a8a11f8be19b733f9bedfe0845860792b8781658dd1cf1a5d920ac41",
    "once": "36fa9465cc8156df9e81bae57ab156a8895fa6d3c030297076a956b87e2c41f7",
    "diffusion": "8e307157a146fce996206678081013cba820270e73ddb08b43412206996c3e7a",
}


def _digest(root: Path) -> str:
    """One sha256 over the relative path and bytes of every hashed file."""
    files = sorted(p for sub in ("hyp", "agg") for p in (root / sub).rglob("*")
                   if p.is_file())
    files.append(root / "config.json")
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
    assert _digest(Path("out")) == GOLDEN[flip]
