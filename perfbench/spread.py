"""Repeat the benchmark over several seeds and summarise each metric.

    python3 perfbench/spread.py --seeds 1-10 [--workloads infer-short,train]
                                [--seconds 10] [--trace 0|1]

Run from the root of a source checkout. For every workload it runs
``perfbench/run.py`` once per seed, then prints per metric the median
over the seeds and the spread: the distance between the first and third
quartile (``statistics.quantiles(values, n=4)``) as a share of the
median, beside the metric's bound from BENCHMARK.json. The accuracy
figures the checker recomputed are printed for the first seed. This is
how the reference figures in perfbench/README.md were made.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    spec = json.loads(Path("BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--workloads", default=",".join(
        w["name"] for w in spec["workloads"]))
    parser.add_argument("--seconds", default=str(spec["run_seconds"]))
    parser.add_argument("--trace", choices=("0", "1"), default="0")
    args = parser.parse_args()
    metrics = spec["per_layer" if args.trace == "1" else "end_to_end"]

    code = 0
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {m["name"]: [] for m in metrics}
        runs = []
        for i, seed in enumerate(args.seeds):
            done = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", args.seconds,
                 "--trace", args.trace], capture_output=True, text=True)
            if done.returncode != 0:
                print(f"{workload} seed {seed}: exit {done.returncode}\n"
                      f"{done.stderr[-2000:]}", file=sys.stderr)
                code = 1
                continue
            if i == 0:
                for line in done.stderr.splitlines():
                    if "MPJPE" in line or "difference" in line:
                        print(f"{workload} seed {seed}: {line.strip()}")
            result = json.loads(done.stdout.strip().splitlines()[-1])
            runs.append((result["correct"], result["attempted"], result["failed"]))
            for name in values:
                values[name].append(result["metrics"][name]["value"])
        print(f"{workload}: (correct, attempted, failed) per seed: {runs}")
        for m in metrics:
            v = values[m["name"]]
            if len(v) < 2:
                continue
            med = statistics.median(v)
            q = statistics.quantiles(v, n=4)
            spread = (q[2] - q[0]) / med if med else 0.0
            bound = f", bound {m['bound']}" if "bound" in m else ""
            print(f"{workload} {m['name']}: median {med:.6g} {m['unit']}, "
                  f"spread {spread:.3f}{bound}; per seed "
                  f"{' '.join(f'{x:.4g}' for x in v)}")
    return code


if __name__ == "__main__":
    sys.exit(main())
