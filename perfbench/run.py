"""Benchmark of the ``posediff`` command line: four workloads, end-to-end
metrics by default and per-layer metrics with ``--trace 1``.

    python3 perfbench/run.py --workload infer-long --seed 1 --seconds 15 --trace 0

BENCHMARK.json gates three of the workloads; ``infer-short`` runs the
same way but is left out of it, because on a shared machine its spread
comes too close to the bound (see README.md).

Run it from the root of a source checkout; it uses ``src/`` and writes
only under ``.perfbench_work/``, which it removes when it ends. Set-up
makes the inputs with the program's own ``gen`` and ``train`` from
``--seed``, then runs the determinism, prefix and self-test checks once.
The timed phase is a closed loop: one ``python3 -m posediff.cli``
process at a time, each one checked, until ``--seconds`` have passed.
The last line of standard output is the JSON result; progress and the
recomputed accuracy figures go to standard error. See README.md.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable

import checks

HERE = Path(__file__).resolve().parent
T_MAX = 200
H, K = 20, 10
BENCH_H, BENCH_K = (1, 5, 10, 20), (5, 10)
TRAIN_STEPS, BATCH = 1000, 32
INFER_METHODS = ["avg", "jpma", "ppma"]
ALL_METHODS = ["avg", "jpma", "ppma", "pbest", "jbest"]
# dataset name -> (sequences, frames per sequence)
DATASETS = {"short": (40, 4), "long": (4, 256), "probe": (8, 4)}
MIN_PROBES = 7       # set-up probes per run; setup_s is their median
CMD_TIMEOUT_S = 120  # one command; a run stays well inside 180 s
PREFIX_H = 5


class SetupError(Exception):
    """The benchmark could not make its inputs."""


@dataclass
class Timed:
    wall_s: float
    rss_mb: float
    code: int


class Bench:
    """One invocation: its work directory, child environment and inputs."""

    def __init__(self, root: Path, seed: int):
        self.root = root
        self.seed = seed
        self.work = root / ".perfbench_work" / f"run-{os.getpid()}"
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        # One BLAS thread: the commands run one at a time on one core, so
        # no BLAS thread spins on the core another one needs.
        self.env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
                        OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(root / "src")] + ([os.environ["PYTHONPATH"]]
                                   if os.environ.get("PYTHONPATH") else []))
        self.logs = 0

    def path(self, *parts: str) -> Path:
        return self.work.joinpath(*parts)

    def config(self, dataset: str) -> Path:
        path = self.path(f"config_{dataset}.json")
        if not path.exists():
            poses, frames = DATASETS[dataset]
            path.write_text(json.dumps({
                "seed": self.seed, "t_max": T_MAX,
                "scenario": {"pose_count": poses, "frames_per_pose": frames,
                             "noise_2d_px": 1.0},
                "sampler": {"hypotheses": H, "iterations": K},
                "train": {"steps": TRAIN_STEPS, "batch_size": BATCH},
            }, indent=1))
        return path

    def timed(self, argv: list[str]) -> Timed:
        """Run one process to its end; wall time and its own peak RSS."""
        self.logs += 1
        log = self.path(f"log_{self.logs % 2}.txt")
        done = subprocess.run(
            [sys.executable, str(HERE / "spawn.py"), str(CMD_TIMEOUT_S),
             str(log), "--", *argv], cwd=self.root, env=self.env,
            stdin=subprocess.DEVNULL, capture_output=True, check=True,
            timeout=CMD_TIMEOUT_S + 30)
        run = Timed(**json.loads(done.stdout))
        if run.code != 0:
            tail = log.read_text(errors="replace").strip().splitlines()[-3:]
            print(f"  exit {run.code}: {' '.join(argv[1:4])}: "
                  f"{' | '.join(tail)}", file=sys.stderr)
        return run

    def cli_argv(self, args: list[str]) -> list[str]:
        return [sys.executable, "-m", "posediff.cli"] + args

    def posediff(self, *args: str) -> None:
        """An untimed set-up or check command that must succeed."""
        if self.timed(self.cli_argv(list(args))).code != 0:
            raise SetupError(f"posediff {args[0]} failed")

    def gen(self, dataset: str) -> None:
        self.posediff("gen", "--config", str(self.config(dataset)),
                      "--out", str(self.path(f"data_{dataset}")))

    def infer_args(self, dataset: str, out: Path, *, checkpoint: Path | None,
                   hypotheses: int = H, methods=INFER_METHODS,
                   extra=()) -> list[str]:
        source = (["--checkpoint", str(checkpoint)] if checkpoint
                  else ["--oracle", "noisy"])
        return ["infer", "--config", str(self.config(dataset)),
                "--data", str(self.path(f"data_{dataset}")), *source,
                "--out", str(out), "--hypotheses", str(hypotheses),
                "--iterations", str(K), "--aggregator", ",".join(methods),
                *extra]


# --- set-up and the once-per-run checks --------------------------------------

@dataclass
class Inputs:
    checkpoint: Path
    train_ref: checks.TrainOutput
    data: dict[str, checks.Data]  # by dataset name
    reference_rows: list[dict[str, str]]  # infer rows that bench must repeat


def set_up(bench: Bench, need_long: bool, problems: list[str]) -> Inputs:
    """Make the inputs, then run the determinism, prefix and self-test
    checks; check failures are appended to ``problems``."""
    names = ["short", "probe"] + (["long"] if need_long else [])
    for name in names:
        bench.gen(name)
    ref = bench.path("train_ref")
    bench.posediff("train", "--config", str(bench.config("short")),
                   "--data", str(bench.path("data_short")), "--out", str(ref))
    ckpt = ref / "model.ckpt"
    train_ref = checks.load_train(ref)
    data = {name: checks.load_data(bench.path(f"data_{name}")) for name in names}
    short = data["short"]

    def attempt(label: str, fn: Callable[[], object]):
        try:
            return fn()
        except checks.CheckError as exc:
            problems.append(f"{label}: {exc}")
            return None

    attempt("train output", lambda: checks.check_train_loss(train_ref, TRAIN_STEPS))

    # A repeat infer writes the same bytes; with the checkpoint, H=5 is
    # the first five of H=20 up to BLAS rounding.
    runs = {}
    for label, h in (("ckpt_a", H), ("ckpt_b", H), ("ckpt_5", PREFIX_H)):
        runs[label] = bench.path(label)
        bench.posediff(*bench.infer_args("probe", runs[label], checkpoint=ckpt,
                                         hypotheses=h))
    attempt("repeat infer", lambda: checks.check_identical(
        checks.read_tree(runs["ckpt_a"]), checks.read_tree(runs["ckpt_b"])))
    drift = attempt("checkpoint H prefix", lambda: checks.check_prefix_close(
        checks.load_infer(runs["ckpt_5"], data["probe"], INFER_METHODS,
                          PREFIX_H).hyps,
        checks.load_infer(runs["ckpt_a"], data["probe"], INFER_METHODS, H).hyps))
    print(f"checkpoint H={PREFIX_H} vs first {PREFIX_H} of H={H}: largest "
          f"difference {drift} mm", file=sys.stderr)

    # With the noisy oracle the prefix is bitwise, and these two runs are
    # the cells that bench must reproduce.
    outs = {}
    for h in (H, PREFIX_H):
        path = bench.path(f"noisy_{h}")
        bench.posediff(*bench.infer_args("short", path, checkpoint=None,
                                         hypotheses=h, methods=ALL_METHODS))
        outs[h] = checks.load_infer(path, short, ALL_METHODS, h)
        attempt(f"noisy infer H={h}", lambda: checks.check_infer(short, outs[h], h, K))
    tree = checks.read_tree(bench.path(f"noisy_{H}"))
    attempt("noisy H prefix", lambda: checks.check_prefix_bitwise(
        checks.read_tree(bench.path(f"noisy_{PREFIX_H}"), ("hyp",)), tree, PREFIX_H))

    for label in checks.self_test(short, outs[H], H, K, train_ref, TRAIN_STEPS, tree):
        problems.append(f"self-test: check '{label}' accepted corrupted output")

    return Inputs(checkpoint=ckpt, train_ref=train_ref, data=data,
                  reference_rows=[o.rows[m] for o in outs.values()
                                  for m in ALL_METHODS])


# --- workloads ---------------------------------------------------------------

@dataclass
class Workload:
    dataset: str
    uses_checkpoint: bool
    args: Callable[[Bench, Inputs, Path], list[str]]
    # Frames of work per command: input frames lifted, frames times grid
    # cells, or training samples.
    work: Callable[[checks.Data], int]
    # check(inputs, data, out) raises CheckError; an infer check returns
    # the metrics it recomputed.
    check: Callable[[Inputs, checks.Data, Path], dict | None]
    # self_test(inputs, out) -> names of checks that accepted a corrupted
    # copy of the first command's output.
    self_test: Callable[[Inputs, Path], list[str]] = lambda inputs, out: []


def _check_infer(hypotheses: int | None):
    def check(inputs, data, out):
        got = checks.load_infer(out, data, INFER_METHODS, hypotheses)
        return checks.check_infer(data, got, H, K)
    return check


def _check_bench(inputs, data, out):
    rows = checks.read_csv(out / "bench.csv")
    checks.check_bench_complete(rows, BENCH_H, BENCH_K, ALL_METHODS)
    checks.check_bench_order(rows)
    checks.check_bench_single(rows)
    checks.check_bench_jbest_monotone(rows)
    checks.check_bench_matches(rows, inputs.reference_rows)


def _check_train(inputs, data, out):
    got = checks.load_train(out)
    checks.check_train_loss(got, TRAIN_STEPS)
    checks.check_same_checkpoint(got, inputs.train_ref)


def _data_args(command: str, b: Bench, out: Path, *extra: str) -> list[str]:
    return [command, "--config", str(b.config("short")),
            "--data", str(b.path("data_short")), "--out", str(out), *extra]


WORKLOADS = {
    "infer-short": Workload(
        "short", True,
        lambda b, i, out: b.infer_args("short", out, checkpoint=i.checkpoint),
        lambda d: d.frames, _check_infer(H)),
    "infer-long": Workload(
        "long", True,
        lambda b, i, out: b.infer_args("long", out, checkpoint=i.checkpoint,
                                       extra=("--flip", "diffusion",
                                              "--no-save-hypotheses")),
        lambda d: d.frames, _check_infer(None)),
    "bench-oracle": Workload(
        "short", False,
        lambda b, i, out: _data_args(
            "bench", b, out, "--oracle", "noisy",
            "--hypotheses", ",".join(map(str, BENCH_H)),
            "--iterations", ",".join(map(str, BENCH_K)),
            "--aggregator", ",".join(ALL_METHODS)),
        lambda d: d.frames * len(BENCH_H) * len(BENCH_K), _check_bench,
        lambda i, out: checks.bench_self_test(
            checks.read_csv(out / "bench.csv"), i.reference_rows)),
    "train": Workload(
        "short", False, lambda b, i, out: _data_args("train", b, out),
        lambda d: TRAIN_STEPS * BATCH, _check_train),
}


# --- the timed phase ---------------------------------------------------------

def measure(bench: Bench, wl: Workload, inputs: Inputs, seconds: float,
            trace: bool, problems: list[str]) -> tuple[int, int, dict]:
    """Closed loop for ``seconds``; returns (attempted, failed, metrics)."""
    probe_argv = [sys.executable, str(HERE / "setup_probe.py"),
                  str(bench.config(wl.dataset)),
                  str(bench.path(f"data_{wl.dataset}"))]
    if wl.uses_checkpoint:
        probe_argv.append(str(inputs.checkpoint))
    data = inputs.data[wl.dataset]
    walls, rss, probes, traces = [], [], [], []
    attempted = failed = 0
    start = perf_counter()
    while attempted == 0 or perf_counter() - start < seconds:
        out = bench.path(f"op_{attempted % 2}")
        shutil.rmtree(out, ignore_errors=True)
        args = wl.args(bench, inputs, out)
        trace_file = bench.path("trace.json")
        argv = ([sys.executable, str(HERE / "traced.py"), str(trace_file)] + args
                if trace else bench.cli_argv(args))
        run = bench.timed(argv)
        attempted += 1
        ok = run.code == 0
        if ok:
            try:
                ours = wl.check(inputs, data, out)
            except checks.CheckError as exc:
                problems.append(f"operation {attempted}: {exc}")
                ok = False
        if not ok:
            failed += 1
            continue
        if not walls:
            for m, v in (ours or {}).items():
                print(f"  {m}: MPJPE {v['mpjpe_mm']:.2f} mm, root-relative "
                      f"{v['root_rel_mpjpe_mm']:.2f} mm, P-MPJPE "
                      f"{v['pmpjpe_mm']:.2f} mm", file=sys.stderr)
            problems.extend(f"self-test: check '{label}' accepted corrupted "
                            f"output" for label in wl.self_test(inputs, out))
        walls.append(run.wall_s)
        rss.append(run.rss_mb)
        if trace:
            traces.append(json.loads(trace_file.read_text()))
        else:
            probes.append(bench.timed(probe_argv))
    while not trace and walls and len(probes) < MIN_PROBES:
        probes.append(bench.timed(probe_argv))
    if any(p.code != 0 for p in probes):
        raise SetupError("the set-up probe failed")
    if not walls:
        return attempted, failed, {}
    print(f"  {len(walls)} commands, wall {['%.3f' % w for w in walls]} s",
          file=sys.stderr)
    wall = statistics.median(walls)
    if trace:
        metrics = {k: statistics.median(t[k] for t in traces) for k in traces[0]}
        metrics["traced.wall_s"] = wall
        return attempted, failed, metrics
    setup = statistics.median(p.wall_s for p in probes)
    print(f"  set-up probes {['%.3f' % p.wall_s for p in probes]} s",
          file=sys.stderr)
    return attempted, failed, {
        "wall_s": wall,
        "setup_s": setup,
        "frames_per_s": wl.work(data) / (wall - setup),
        "peak_rss_mb": statistics.median(rss),
    }


def run_workload(root: Path, name: str, seed: int, seconds: float,
                 trace: bool, wanted: list[dict]) -> dict | None:
    """One benchmark run; the result object, or None when it could not
    measure."""
    wl = WORKLOADS[name]
    bench = Bench(root, seed)
    problems: list[str] = []
    try:
        inputs = set_up(bench, wl.dataset == "long", problems)
        attempted, failed, values = measure(bench, wl, inputs, seconds, trace,
                                            problems)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return None
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)
        try:
            bench.work.parent.rmdir()
        except OSError:
            pass  # another run's directory is still there
    for p in problems:
        print(f"CHECK FAILED {p}", file=sys.stderr)
    if not values:
        print("error: no command succeeded", file=sys.stderr)
        return None
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"],
                        help="one workload, or all of them in turn with one "
                             "result line each")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not 0 <= args.seed < 2 ** 63:
        parser.error("--seed must be in [0, 2**63)")

    root = Path.cwd()
    spec_path = root / "BENCHMARK.json"
    if not (root / "src" / "posediff" / "cli.py").is_file() or not spec_path.is_file():
        print("error: run from the root of a posediff source checkout "
              "(src/posediff and BENCHMARK.json)", file=sys.stderr)
        return 2
    wanted = json.loads(spec_path.read_text())[
        "per_layer" if args.trace else "end_to_end"]

    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    code = 0
    for name in names:
        print(f"workload {name}, seed {args.seed}", file=sys.stderr)
        result = run_workload(root, name, args.seed, args.seconds,
                              bool(args.trace), wanted)
        if result is None:
            code = 1
            continue
        if args.workload == "all":
            result = {"workload": name, **result}
        print(json.dumps(result), flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
