"""Output checks for the benchmark, written apart from the program.

Nothing here imports ``posediff``. Pose files are parsed with ``json``,
reprojection is recomputed with the pinhole formula from the dataset
manifest, P-MPJPE uses SciPy's Kabsch solver, and the selection rules of
the aggregators are tested as properties of the saved outputs. Every
check raises :class:`CheckError` on a violation, and
:func:`self_test` proves that each check rejects a corrupted copy of
real output, so that no check can pass silently.
"""
from __future__ import annotations

import copy
import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.spatial.transform import Rotation

# Error tolerances: recomputed floats may differ from the program's in
# the last bits, never by more than these.
PX_TOL = 1e-9          # reprojection error, pixels, relative to max(1, err)
MM_TOL = 1e-8          # coordinates, millimetres, absolute
REL_TOL = 1e-9         # MPJPE, PCK, AUC against the CSV, relative
PMPJPE_REL_TOL = 1e-7  # P-MPJPE: a different SVD solver
PREFIX_MM_TOL = 1e-9   # H=5 against the first five of H=20, checkpoint
ORDER_REL_TOL = 1e-12  # MPJPE orderings pooled in different summation orders
AUC_STEP_MM, AUC_MAX_MM = 5.0, 150.0
Z_MIN_MM = 1.0         # near plane of the aggregators, per the README


class CheckError(Exception):
    """An output violates a property the method must have."""


# --- loading -----------------------------------------------------------------

def read_poses(path: Path) -> np.ndarray:
    """Parse a pose file into an (N, J, dims) array."""
    lines = [ln for ln in path.read_text().splitlines() if ln.strip()]
    if not lines:
        raise CheckError(f"{path}: empty pose file")
    header = json.loads(lines[0])
    frames = []
    for k, line in enumerate(lines[1:]):
        rec = json.loads(line)
        if rec.get("frame") != k:
            raise CheckError(f"{path}: frame {rec.get('frame')!r} at {k}")
        frames.append(rec["joints"])
    arr = np.array(frames, dtype=np.float64)
    if arr.ndim != 3 or arr.shape[1:] != (header["J"], header["dims"]):
        raise CheckError(f"{path}: shape {arr.shape} vs header {header}")
    if not np.all(np.isfinite(arr)):
        raise CheckError(f"{path}: non-finite coordinate")
    return arr


@dataclass
class Data:
    """A dataset as the checker sees it."""

    names: list[str]
    kp: dict[str, np.ndarray]   # (N, J, 2) pixels
    gt: dict[str, np.ndarray]   # (N, J, 3) millimetres
    camera: tuple[float, float, float, float]  # fx, fy, cx, cy
    root: int

    @property
    def frames(self) -> int:
        return sum(a.shape[0] for a in self.kp.values())


def load_data(root: Path) -> Data:
    manifest = json.loads((root / "manifest.json").read_text())
    cam = manifest["camera"]
    if cam.get("model") != "pinhole":
        raise CheckError(f"checker handles pinhole cameras, got {cam.get('model')}")
    parents = manifest["skeleton"]["parents"]
    names, kp, gt = [], {}, {}
    for entry in manifest["sequences"]:
        name = entry["name"]
        names.append(name)
        kp[name] = read_poses(root / entry["keypoints"])
        gt[name] = read_poses(root / entry["gt"])
    return Data(names=names, kp=kp, gt=gt,
                camera=(cam["fx"], cam["fy"], cam["cx"], cam["cy"]),
                root=next(i for i, p in enumerate(parents) if p == i))


@dataclass
class InferOutput:
    hyps: dict[str, np.ndarray] | None  # seq -> (H, N, J, 3)
    agg: dict[str, dict[str, np.ndarray]]  # method -> seq -> (N, J, 3)
    rows: dict[str, dict[str, str]]  # method -> metrics.csv row
    config: dict


def read_csv(path: Path) -> list[dict[str, str]]:
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


def load_infer(out: Path, data: Data, methods: list[str],
               hypotheses: int | None) -> InferOutput:
    """Read an ``infer`` output directory; ``hypotheses`` None when the
    run did not save hypothesis files."""
    hyps = None
    if hypotheses is not None:
        hyps = {}
        for name in data.names:
            files = sorted((out / "hyp" / name).glob("h_*.jsonl"))
            if len(files) != hypotheses:
                raise CheckError(f"{name}: {len(files)} hypothesis files, "
                                 f"expected {hypotheses}")
            hyps[name] = np.stack([read_poses(f) for f in files])
    agg = {m: {name: read_poses(out / "agg" / m / f"{name}.jsonl")
               for name in data.names} for m in methods}
    rows = {r["method"]: r for r in read_csv(out / "metrics.csv")}
    if sorted(rows) != sorted(methods):
        raise CheckError(f"metrics.csv methods {sorted(rows)} != {methods}")
    return InferOutput(hyps=hyps, agg=agg, rows=rows,
                       config=json.loads((out / "config.json").read_text()))


# --- independent recomputation ----------------------------------------------

def reprojection_error(points: np.ndarray, kp: np.ndarray,
                       camera: tuple[float, float, float, float]) -> np.ndarray:
    """Pinhole pixel distance of (..., N, J, 3) points to (N, J, 2) keypoints."""
    fx, fy, cx, cy = camera
    z = points[..., 2]
    u = fx * points[..., 0] / z + cx
    v = fy * points[..., 1] / z + cy
    # Joints at or behind the near plane cannot be selected by reprojection.
    return np.where(z > Z_MIN_MM, np.hypot(u - kp[..., 0], v - kp[..., 1]),
                    np.inf)


def procrustes(pred: np.ndarray, gt: np.ndarray, with_scale: bool) -> np.ndarray:
    """Similarity-align one (J, 3) frame onto its ground truth (no reflection)."""
    mp, mg = pred.mean(axis=0), gt.mean(axis=0)
    p0, g0 = pred - mp, gt - mg
    rot, _ = Rotation.align_vectors(g0, p0)
    rp = rot.apply(p0)
    scale = float((g0 * rp).sum() / (p0 * p0).sum()) if with_scale else 1.0
    return scale * rp + mg


def pose_metrics(pred: np.ndarray, gt: np.ndarray, root: int, *,
                 pck_mm: float, with_scale: bool) -> dict[str, float]:
    """Pooled metrics over (M, J, 3) frames; the root-relative MPJPE is
    the paper's Protocol #1, P-MPJPE its Protocol #2."""
    err = np.sqrt(((pred - gt) ** 2).sum(axis=-1))
    rel = (pred - pred[:, root:root + 1]) - (gt - gt[:, root:root + 1])
    aligned = np.stack([procrustes(p, g, with_scale) for p, g in zip(pred, gt)])
    thresholds = np.arange(AUC_STEP_MM, AUC_MAX_MM + AUC_STEP_MM / 2, AUC_STEP_MM)
    return {
        "mpjpe_mm": float(err.mean()),
        "pmpjpe_mm": float(np.sqrt(((aligned - gt) ** 2).sum(axis=-1))
                           .mean(axis=1).mean()),
        "pck150": float((err < pck_mm).mean()),
        "auc": float(np.mean([(err == 0.0).mean()]
                             + [(err < th).mean() for th in thresholds])),
        "root_rel_mpjpe_mm": float(np.sqrt((rel ** 2).sum(axis=-1)).mean()),
    }


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


# --- infer checks -------------------------------------------------------------

def _first_within(values: np.ndarray, best: np.ndarray) -> np.ndarray:
    """Lowest index along axis 0 whose value ties the best within PX_TOL."""
    return np.argmax(values <= best + PX_TOL * np.maximum(1.0, best), axis=0)


def check_jpma(data: Data, out: InferOutput) -> None:
    """Every jpma joint is the lowest-index hypothesis joint that
    reprojects closest to the keypoint."""
    for name in data.names:
        hyps, pose = out.hyps[name], out.agg["jpma"][name]
        same = np.all(hyps == pose[None], axis=-1)          # (H, N, J)
        if not np.all(same.any(axis=0)):
            n, j = np.argwhere(~same.any(axis=0))[0]
            raise CheckError(f"jpma {name} frame {n} joint {j}: "
                             f"not any hypothesis's joint")
        err = reprojection_error(hyps, data.kp[name], data.camera)
        want = _first_within(err, err.min(axis=0))
        bad = np.argwhere(same.argmax(axis=0) != want)
        if bad.size:
            n, j = bad[0]
            raise CheckError(f"jpma {name} frame {n} joint {j}: took hypothesis "
                             f"{same.argmax(axis=0)[n, j]}, best is {want[n, j]}")


def check_ppma(data: Data, out: InferOutput) -> None:
    """Every ppma frame is the lowest-index hypothesis with the lowest
    total reprojection error."""
    for name in data.names:
        hyps, pose = out.hyps[name], out.agg["ppma"][name]
        same = np.all(hyps == pose[None], axis=(-1, -2))    # (H, N)
        if not np.all(same.any(axis=0)):
            n = np.argwhere(~same.any(axis=0))[0][0]
            raise CheckError(f"ppma {name} frame {n}: not any hypothesis")
        totals = reprojection_error(hyps, data.kp[name], data.camera).sum(axis=-1)
        want = _first_within(totals, totals.min(axis=0))
        bad = np.argwhere(same.argmax(axis=0) != want)
        if bad.size:
            n = bad[0][0]
            raise CheckError(f"ppma {name} frame {n}: took hypothesis "
                             f"{same.argmax(axis=0)[n]}, best is {want[n]}")


def check_avg(data: Data, out: InferOutput) -> None:
    """avg is the mean of the hypotheses."""
    for name in data.names:
        diff = np.abs(out.agg["avg"][name] - out.hyps[name].mean(axis=0)).max()
        if not diff <= MM_TOL:
            raise CheckError(f"avg {name}: {diff} mm from the hypothesis mean")


def check_jpma_beats_ppma(data: Data, out: InferOutput) -> None:
    """Per-joint selection never reprojects worse than per-pose selection."""
    sums = {m: sum(float(reprojection_error(out.agg[m][n], data.kp[n],
                                            data.camera).sum())
                   for n in data.names) for m in ("jpma", "ppma")}
    if not sums["jpma"] <= sums["ppma"] * (1.0 + PX_TOL):
        raise CheckError(f"jpma reprojection sum {sums['jpma']} px exceeds "
                         f"ppma's {sums['ppma']} px")


def recompute_metrics(data: Data, out: InferOutput) -> dict[str, dict[str, float]]:
    gt = np.concatenate([data.gt[n] for n in data.names])
    cfg = out.config["metrics"]
    return {m: pose_metrics(np.concatenate([out.agg[m][n] for n in data.names]),
                            gt, data.root, pck_mm=cfg["pck_threshold_mm"],
                            with_scale=cfg["pmpjpe_scale"])
            for m in out.agg}


def check_metrics(data: Data, out: InferOutput, h: int, k: int
                  ) -> dict[str, dict[str, float]]:
    """metrics.csv agrees with MPJPE, P-MPJPE, PCK and AUC recomputed
    from the aggregated poses; returns the recomputation."""
    ours = recompute_metrics(data, out)
    for m, row in out.rows.items():
        if (int(row["H"]), int(row["K"])) != (h, k):
            raise CheckError(f"metrics.csv {m}: H,K = {row['H']},{row['K']}, "
                             f"ran {h},{k}")
        for col in ("mpjpe_mm", "pmpjpe_mm", "pck150", "auc"):
            tol = PMPJPE_REL_TOL if col == "pmpjpe_mm" else REL_TOL
            if not _close(float(row[col]), ours[m][col], tol):
                raise CheckError(f"metrics.csv {m} {col} = {row[col]}, "
                                 f"recomputed {ours[m][col]!r}")
    return ours


def check_infer(data: Data, out: InferOutput, h: int, k: int
                ) -> dict[str, dict[str, float]]:
    if out.hyps is not None:
        check_avg(data, out)
        check_jpma(data, out)
        check_ppma(data, out)
    check_jpma_beats_ppma(data, out)
    return check_metrics(data, out, h, k)


# --- bench checks -------------------------------------------------------------

def _bench_index(rows: list[dict[str, str]]) -> dict[tuple, dict[str, str]]:
    return {(int(r["H"]), int(r["K"]), r["method"]): r for r in rows}


def check_bench_complete(rows, hs, ks, methods) -> None:
    want = {(h, k, m) for h in hs for k in ks for m in methods}
    if set(_bench_index(rows)) != want or len(rows) != len(want):
        raise CheckError(f"bench.csv holds {len(rows)} rows, not the "
                         f"{len(want)} cells of the grid")
    for r in rows:
        for col in ("mpjpe_mm", "pmpjpe_mm", "pck150", "auc"):
            if not math.isfinite(float(r[col])):
                raise CheckError(f"bench.csv {r['method']} H={r['H']} K={r['K']} "
                                 f"{col} is not finite")


def check_bench_order(rows) -> None:
    """Selection orderings at each (H, K): jbest <= pbest <= ppma and
    jbest <= jpma, in MPJPE."""
    idx = _bench_index(rows)
    for h, k in {(h, k) for h, k, _ in idx}:
        e = {m: float(idx[h, k, m]["mpjpe_mm"]) for m in
             ("jbest", "pbest", "ppma", "jpma")}
        slack = 1.0 + ORDER_REL_TOL
        if not (e["jbest"] <= e["pbest"] * slack and e["pbest"] <= e["ppma"] * slack
                and e["jbest"] <= e["jpma"] * slack):
            raise CheckError(f"bench.csv H={h} K={k}: ordering broken {e}")


def check_bench_single(rows) -> None:
    """At H=1 every method returns the one hypothesis."""
    cols = ("mpjpe_mm", "pmpjpe_mm", "pck150", "auc")
    for k in {k for h, k, _ in _bench_index(rows) if h == 1}:
        seen = {tuple(r[c] for c in cols) for r in rows
                if int(r["H"]) == 1 and int(r["K"]) == k}
        if len(seen) != 1:
            raise CheckError(f"bench.csv H=1 K={k}: methods differ {seen}")


def check_bench_jbest_monotone(rows) -> None:
    """jbest over more hypotheses (a superset, by the prefix property)
    cannot be worse."""
    idx = _bench_index(rows)
    for k in {k for _, k, _ in idx}:
        hs = sorted(h for h, kk, m in idx if kk == k and m == "jbest")
        e = [float(idx[h, k, "jbest"]["mpjpe_mm"]) for h in hs]
        if any(b > a for a, b in zip(e, e[1:])):
            raise CheckError(f"bench.csv K={k}: jbest rises with H: "
                             f"{dict(zip(hs, e))}")


def check_bench_matches(rows, reference: list[dict[str, str]]) -> None:
    """A bench cell reports exactly what ``infer`` at that H and K
    reports (and ``check_metrics`` recomputed)."""
    idx = _bench_index(rows)
    for ref in reference:
        r = idx.get((int(ref["H"]), int(ref["K"]), ref["method"]))
        if r is None or r != ref:
            raise CheckError(f"bench.csv {ref['method']} H={ref['H']} "
                             f"K={ref['K']}: {r} != infer's {ref}")


# --- train checks -------------------------------------------------------------

@dataclass
class TrainOutput:
    loss: list[list[str]]  # rows of loss.csv, header included
    checkpoint: bytes


def load_train(out: Path) -> TrainOutput:
    with open(out / "loss.csv", newline="") as f:
        loss = list(csv.reader(f))
    return TrainOutput(loss=loss, checkpoint=(out / "model.ckpt").read_bytes())


def check_train_loss(out: TrainOutput, steps: int) -> None:
    """One finite loss per step, and the last 100 below the first 100."""
    if out.loss[0] != ["step", "loss"] or len(out.loss) != steps + 1:
        raise CheckError(f"loss.csv: {len(out.loss) - 1} rows, expected {steps}")
    if [int(r[0]) for r in out.loss[1:]] != list(range(steps)):
        raise CheckError("loss.csv: steps are not 0..steps-1")
    loss = np.array([float(r[1]) for r in out.loss[1:]])
    if not np.all(np.isfinite(loss)):
        raise CheckError("loss.csv: non-finite loss")
    if not loss[-100:].mean() < loss[:100].mean():
        raise CheckError(f"loss did not fall: first 100 {loss[:100].mean()}, "
                         f"last 100 {loss[-100:].mean()}")


def check_same_checkpoint(out: TrainOutput, ref: TrainOutput) -> None:
    if out.checkpoint != ref.checkpoint:
        raise CheckError("a repeat train wrote a different checkpoint")


# --- determinism and prefix checks -------------------------------------------

def read_tree(out: Path, parts=("hyp", "agg", "metrics.csv")) -> dict[str, bytes]:
    files = {}
    for part in parts:
        base = out / part
        paths = [base] if base.is_file() else sorted(base.rglob("*"))
        files.update({str(p.relative_to(out)): p.read_bytes()
                      for p in paths if p.is_file()})
    return files


def check_identical(a: dict[str, bytes], b: dict[str, bytes]) -> None:
    if a.keys() != b.keys():
        raise CheckError(f"repeat run wrote other files: "
                         f"{sorted(a.keys() ^ b.keys())[:3]}")
    for rel in a:
        if a[rel] != b[rel]:
            raise CheckError(f"repeat run differs in {rel}")


def check_prefix_bitwise(small: dict[str, bytes], big: dict[str, bytes],
                         h: int) -> None:
    """The H=h hypothesis files are byte for byte the first h of the
    larger run."""
    names = [r for r in small if r.startswith("hyp")]
    if len(names) == 0 or any(int(r[-9:-6]) >= h for r in names):
        raise CheckError(f"expected hypotheses h_000..h_{h - 1:03d}")
    for rel in names:
        if small[rel] != big.get(rel):
            raise CheckError(f"{rel} is not the prefix of the larger run")


def check_prefix_close(small: dict[str, np.ndarray], big: dict[str, np.ndarray]
                       ) -> float:
    """The smaller run's hypotheses match the first ones of the larger
    run within PREFIX_MM_TOL; returns the largest difference."""
    worst = 0.0
    for name, s in small.items():
        worst = max(worst, float(np.abs(s - big[name][:s.shape[0]]).max()))
    if not worst <= PREFIX_MM_TOL:
        raise CheckError(f"H prefix broken by {worst} mm")
    return worst


# --- self-test ----------------------------------------------------------------

def _worst_other(err: np.ndarray, n: int, j: int) -> int:
    return int(np.argmax(err[:, n, j]))


def self_test(data: Data, out: InferOutput, h: int, k: int,
              train: TrainOutput, steps: int, tree: dict[str, bytes],
              ) -> list[str]:
    """Run each check on a corrupted copy of real output; returns the
    names of checks that wrongly accepted it (empty when all is well)."""
    name = data.names[0]
    err = reprojection_error(out.hyps[name], data.kp[name], data.camera)
    cases = []

    bad = copy.deepcopy(out)
    w = _worst_other(err, 0, 0)
    bad.agg["jpma"][name][0, 0] = out.hyps[name][w, 0, 0]
    cases.append(("jpma selection", lambda: check_jpma(data, bad)))

    bad2 = copy.deepcopy(out)
    totals = err.sum(axis=-1)
    bad2.agg["ppma"][name][0] = out.hyps[name][int(np.argmax(totals[:, 0])), 0]
    cases.append(("ppma selection", lambda: check_ppma(data, bad2)))

    bad3 = copy.deepcopy(out)
    bad3.agg["avg"][name][0, 0, 0] += 1e-4
    cases.append(("avg mean", lambda: check_avg(data, bad3)))

    bad4 = copy.deepcopy(out)
    bad4.agg["jpma"] = {n: p + np.array([500.0, 0.0, 0.0])
                        for n, p in out.agg["ppma"].items()}
    cases.append(("jpma <= ppma reprojection",
                  lambda: check_jpma_beats_ppma(data, bad4)))

    for col, factor in (("mpjpe_mm", 1 + 1e-6), ("pmpjpe_mm", 1 + 1e-5),
                        ("pck150", None), ("auc", 1 + 1e-6)):
        bad5 = copy.deepcopy(out)
        row = bad5.rows["jpma"]
        if factor is None:
            joints = data.frames * data.kp[name].shape[1]
            row[col] = repr(float(row[col]) + 1.0 / joints)
        else:
            row[col] = repr(float(row[col]) * factor + 1e-9)
        cases.append((f"metrics.csv {col}",
                      lambda b=bad5: check_metrics(data, b, h, k)))

    rows = [list(r) for r in train.loss]
    rows[steps // 2][1] = "nan"
    cases.append(("loss finite", lambda: check_train_loss(
        TrainOutput(rows, train.checkpoint), steps)))
    cases.append(("loss row count", lambda: check_train_loss(
        TrainOutput(train.loss[:-1], train.checkpoint), steps)))
    flipped = [train.loss[0]] + [[r[0], s[1]] for r, s in
                                 zip(train.loss[1:], train.loss[:0:-1])]
    cases.append(("loss falls", lambda: check_train_loss(
        TrainOutput(flipped, train.checkpoint), steps)))
    ckpt = bytearray(train.checkpoint)
    ckpt[-1] ^= 1
    cases.append(("repeat checkpoint", lambda: check_same_checkpoint(
        TrainOutput(train.loss, bytes(ckpt)), train)))

    first = {r: b for r, b in tree.items()
             if r.startswith("hyp") and int(r[-9:-6]) < 5}
    rel = sorted(first)[0]
    changed = {**first, rel: first[rel].replace(b"]]", b"]] ", 1)}
    cases.append(("repeat files",
                  lambda: check_identical(tree, {**tree, **changed})))
    cases.append(("bitwise prefix",
                  lambda: check_prefix_bitwise(changed, tree, 5)))
    nudged = {name: out.hyps[name][:5].copy()}
    nudged[name][4, -1, -1, -1] += 1e-6
    cases.append(("prefix within tolerance",
                  lambda: check_prefix_close(nudged, out.hyps)))

    return [label for label, run in cases if not _rejects(run)]


def bench_self_test(rows: list[dict[str, str]], reference) -> list[str]:
    cases = []
    bad = [dict(r) for r in rows]
    idx = _bench_index(bad)
    hmax = max(h for h, _, _ in idx)
    kmax = max(k for _, k, _ in idx)
    jb = idx[hmax, kmax, "jbest"]
    jb["mpjpe_mm"] = repr(float(idx[hmax, kmax, "ppma"]["mpjpe_mm"]) * 1.01)
    cases.append(("bench ordering", lambda: check_bench_order(bad)))

    bad2 = [dict(r) for r in rows]
    _bench_index(bad2)[1, kmax, "jpma"]["pck150"] = "0.5"
    cases.append(("bench H=1", lambda: check_bench_single(bad2)))

    bad3 = [dict(r) for r in rows]
    idx3 = _bench_index(bad3)
    idx3[hmax, kmax, "jbest"]["mpjpe_mm"] = repr(
        float(idx3[1, kmax, "jbest"]["mpjpe_mm"]) * 1.01)
    cases.append(("bench jbest monotone",
                  lambda: check_bench_jbest_monotone(bad3)))

    bad4 = [dict(r) for r in rows]
    r = _bench_index(bad4)[int(reference[0]["H"]), int(reference[0]["K"]),
                           reference[0]["method"]]
    r["pmpjpe_mm"] = repr(float(r["pmpjpe_mm"]) * (1 + 1e-12) + 1e-12)
    cases.append(("bench matches infer",
                  lambda: check_bench_matches(bad4, reference)))
    return [label for label, run in cases if not _rejects(run)]


def _rejects(run) -> bool:
    try:
        run()
    except CheckError:
        return True
    return False
