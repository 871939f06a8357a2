"""Start-up probe: the work a ``posediff`` command does before its first
sample or training step, and nothing after it.

    python3 perfbench/setup_probe.py CONFIG DATA [CHECKPOINT]

Imports the CLI module as the command does, then loads the config, the
dataset and, when given, the checkpoint through the same public calls.
The caller times the whole process, interpreter start and exit included.
"""
import sys

import posediff.cli  # noqa: F401  (the import the command pays for)
from posediff.config import apply_overrides, load_config
from posediff.dataset import load_dataset
from posediff.denoise import MlpDenoiser

if __name__ == "__main__":
    apply_overrides(load_config(sys.argv[1]))
    load_dataset(sys.argv[2])
    if len(sys.argv) > 3:
        MlpDenoiser.from_checkpoint(sys.argv[3])
