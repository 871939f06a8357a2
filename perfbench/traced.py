"""Run one ``posediff`` command with per-layer spans, from outside the program.

    python3 perfbench/traced.py TRACE.json <posediff arguments...>

The command runs in this interpreter exactly as ``python3 -m
posediff.cli`` would run it. Before it starts, the public functions at
each layer boundary are wrapped from here; no file of the program is
edited. Spans are summed in memory and written to TRACE.json as the
per-layer metrics when the command ends. The exit code is the
command's.

A span's self time is its duration minus that of its direct child
spans. A span nested in one of its own layer (an RNG draw inside an RNG
draw) counts toward calls but not again toward time.
"""
from __future__ import annotations

import functools
import json
import os
import sys
from collections import defaultdict
from time import perf_counter


class Tracer:
    def __init__(self):
        self.time = defaultdict(float)       # inclusive, outermost per layer
        self.self_time = defaultdict(float)  # minus direct child spans
        self.count = defaultdict(float)      # calls and work counters
        self._stack: list[list] = []         # [layer, child seconds]
        self._depth = defaultdict(int)

    def wrap(self, layer: str, fn, counter=None):
        """Wrap ``fn`` in a span of ``layer``; ``counter(counts, result,
        *args, **kwargs)`` adds work counts after the call."""
        stack, depth = self._stack, self._depth

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [layer, 0.0]
            stack.append(frame)
            depth[layer] += 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                depth[layer] -= 1
                if depth[layer] == 0:
                    self.time[layer] += dt
                    self.self_time[layer] += dt - frame[1]
                if stack:
                    stack[-1][1] += dt
                self.count[layer + ".calls"] += 1
            if counter is not None:
                counter(self.count, result, *args, **kwargs)
            return result
        return wrapper


def _patch_function(package: str, orig, wrapper) -> None:
    """Rebind every module-level name of ``orig`` in the package, so
    callers that imported it by name reach the wrapper too."""
    for mod_name, mod in list(sys.modules.items()):
        if mod_name == package or mod_name.startswith(package + "."):
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, attr, wrapper)


def _size(shape) -> int:
    n = 1
    for s in (shape if isinstance(shape, tuple) else (shape,)):
        n *= int(s)
    return n


def install(tracer: Tracer) -> None:
    """Wrap the layer boundaries of the already-imported package."""
    mods = {name: sys.modules[f"posediff.{name}"] for name in
            ("aggregate", "camera", "cli", "dataset", "denoise", "metrics",
             "poseio", "rng", "sampler")}
    rng, den, agg = mods["rng"], mods["denoise"], mods["aggregate"]

    def fn(layer, orig, counter=None):
        _patch_function("posediff", orig, tracer.wrap(layer, orig, counter))

    def method(cls, name, layer, counter=None):
        raw = cls.__dict__[name]
        if isinstance(raw, classmethod):
            setattr(cls, name, classmethod(tracer.wrap(layer, raw.__func__, counter)))
        else:
            setattr(cls, name, tracer.wrap(layer, raw, counter))

    # rng: stream builds, stream ids and draws.
    def built(c, *a, **k):
        c["rng.streams"] += 1

    def normals(c, result, self, shape=(), *a, **k):
        c["rng.normals"] += _size(shape)
    method(rng.RngStream, "__init__", "rng", built)
    fn("rng", rng.stream_id)
    method(rng.RngStream, "standard_normal", "rng", normals)
    for name in ("uniform", "integers", "permutation", "unit_vectors"):
        method(rng.RngStream, name, "rng")

    # sampler, and the denoisers it queries.
    fn("sampler", mods["sampler"].run_sampler)
    for cls in (den.MlpDenoiser, den.PerfectOracle, den.ContractiveOracle,
                den.NoisyOracle):
        method(cls, "predict_clean", "predict")

    def mlp_work(c, result, y_t, x, t, model, *a, **k):
        rows = y_t.count * y_t.num_frames
        c["denoise.rows"] += rows
        c["denoise.flop"] += 2.0 * rows * sum(w.size for w in model.weights)
    fn("denoise", den.denoise, mlp_work)
    method(den.MlpDenoiser, "from_checkpoint", "denoise.ckpt_load")

    # training: the loop, and its forward/backward pass.
    fn("train", den.train)
    fn("grad", den.grad_loss)

    # aggregation and reprojection.
    fn("aggregate", agg.run_aggregator)
    fn("aggregate.jpma", agg.agg_jpma)
    fn("aggregate.ppma", agg.agg_ppma)

    def points(c, result, pts, *a, **k):
        c["camera.points"] += pts.size // 3
    fn("camera.project", mods["camera"].project_with_mask, points)

    # metrics.
    fn("metrics", mods["metrics"].compute_metrics)
    fn("metrics.align", mods["metrics"].align_frame)

    # pose files and the dataset.
    def written(c, result, pose, path, *a, **k):
        c["poseio.bytes_written"] += os.path.getsize(path)
    fn("poseio.save", mods["poseio"].save_poses, written)
    fn("poseio.load", mods["poseio"].load_poses)
    fn("dataset.load", mods["dataset"].load_dataset)


def summary(tracer: Tracer, import_s: float) -> dict[str, float]:
    t, s, c = tracer.time, tracer.self_time, tracer.count
    return {
        "cli.import_s": import_s,
        "dataset.load_s": t["dataset.load"],
        "denoise.ckpt_load_s": t["denoise.ckpt_load"],
        "rng.streams": c["rng.streams"],
        "rng.normals": c["rng.normals"],
        "rng.s": t["rng"],
        "sampler.calls": c["sampler.calls"],
        "sampler.s": t["sampler"],
        "sampler.self_s": s["sampler"],
        "denoise.calls": c["denoise.calls"],
        "denoise.rows": c["denoise.rows"],
        "denoise.gflop": c["denoise.flop"] / 1e9,
        "denoise.s": t["denoise"],
        "denoise.train_steps": c["grad.calls"],
        "denoise.grad_s": t["grad"],
        "denoise.train_self_s": s["train"],
        "aggregate.calls": c["aggregate.calls"],
        "aggregate.s": t["aggregate"],
        "aggregate.jpma_s": t["aggregate.jpma"],
        "aggregate.ppma_s": t["aggregate.ppma"],
        "camera.project_s": t["camera.project"],
        "camera.points": c["camera.points"],
        "metrics.calls": c["metrics.calls"],
        "metrics.s": t["metrics"],
        "metrics.align_frames": c["metrics.align.calls"],
        "metrics.align_s": t["metrics.align"],
        "poseio.files_written": c["poseio.save.calls"],
        "poseio.bytes_written": c["poseio.bytes_written"],
        "poseio.save_s": t["poseio.save"],
        "poseio.files_read": c["poseio.load.calls"],
        "poseio.load_s": t["poseio.load"],
    }


def main(argv: list[str]) -> int:
    trace_path, args = argv[0], argv[1:]
    t0 = perf_counter()
    import posediff.cli as cli
    import_s = perf_counter() - t0
    tracer = Tracer()
    install(tracer)
    try:
        cli.main.main(args=args, prog_name="posediff")
        code = 0
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    with open(trace_path, "w") as f:
        json.dump(summary(tracer, import_s), f, indent=1, sort_keys=True)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
