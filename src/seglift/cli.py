"""Command-line pipeline driver.

Datasets follow the usual odometry layout: ``<root>/sequences/<NN>/``
holding ``velodyne/*.bin``, ``labels/*.label``, ``calib.txt``, and
teacher maps in a parallel ``probs_2d/*.ptns`` tree (``probs_2d/cam<id>/``
when several cameras are configured).  Every output is written atomically
(temp file + rename) and depends only on the inputs and the config, never
on the parallelism degree.

Exit codes: 0 success, 1 typed pipeline error (message names the file and
cause), 2 configuration or usage error.
"""

from __future__ import annotations

import argparse
import os
import sys
from contextlib import contextmanager
from dataclasses import dataclass, replace
from functools import partial
from pathlib import Path

# `--jobs` worker processes are seglift's only parallelism and no command
# makes a BLAS call, so an OpenBLAS thread pool could only spin.  OpenBLAS
# reads its thread count once, when numpy loads it (build_tree loads only
# scipy's kd-tree, not scipy's own OpenBLAS), so the pin precedes every
# numpy import; a caller's value wins.  `soup` runs its metric command
# without the pin.
_PINNED = "OPENBLAS_NUM_THREADS" not in os.environ
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np

# What only some commands use (soup, tta, synthetic, json, shlex, hashlib, the
# pool) is imported where they run; bench/spans.py patches the names below.
from . import io
from .config import REFINEMENT_SCHEMES, PipelineConfig, read_config
from .core import IGNORE_ID, ClassMap
from .errors import (ConfigError, DimMismatch, EmptyHistogram, EmptyMatrix, FormatError,
                     NonFiniteValue, NotADistribution, ToolkitError)
from .evaluation import ConfusionMatrix, report
from .projection import FovMask, check_rows, lift_probs, merge_lifted, slice_cloud
from .refinement import (build_tree, graph_distances, refine_confidence_avg,
                         refine_distance_weighted, refine_majority)
from .thresholding import apply_threshold, class_thresholds, histogram, static_thresholds

# Sub-directory names inside each sequence.
D_VELO = "velodyne"
D_LABELS = "labels"
D_PROBS2D = "probs_2d"
D_PROBS3D = "probs_3d"
D_MASK = "fov_mask"
D_REFINED = "refined_labels"
D_CONF = "confidences"
D_PSEUDO = "pseudo_labels"
D_SLICED = "velodyne_fov"
D_LABELS_FOV = "labels_fov"
D_INDEX = "index_map"
D_TTA = "tta"
D_AGG = "probs_agg"
D_KNN = "knn"

# Part of every graph key: change it when the stored graph's meaning changes.
KNN_FORMAT = b"seglift-knn-v1"


# ---------------------------------------------------------------------------
# Dataset walking


@dataclass(frozen=True, order=True)
class Scan:
    """One frame: its input sequence dir, its output sequence dir and its stem."""

    seq: Path
    out: Path
    stem: str

    @property
    def cloud(self) -> Path:
        return self.seq / D_VELO / f"{self.stem}.bin"

    @property
    def calib(self) -> Path:
        return self.seq / "calib.txt"

    def teacher_maps(self, cameras) -> dict[int, Path]:
        """Teacher map per camera; ``probs_2d/cam<id>/`` only when there are several."""
        if len(cameras) == 1:
            return {cameras[0]: self.seq / D_PROBS2D / f"{self.stem}.ptns"}
        return {cam: self.seq / D_PROBS2D / f"cam{cam}" / f"{self.stem}.ptns" for cam in cameras}

    def output(self, subdir: str, suffix: str = ".ptns") -> Path:
        return self.out / subdir / f"{self.stem}{suffix}"

    def fov_mask(self, masks: str | None) -> Path:
        """The FOV mask under `masks` (a lift output root), else under the output root."""
        out = Path(masks) / "sequences" / self.seq.name if masks else self.out
        return out / D_MASK / f"{self.stem}.ptns"

    def variants(self, subdir: str) -> list[Path]:
        from . import tta

        return [self.seq / subdir / f"{self.stem}_v{i:02d}.ptns"
                for i in range(len(tta.default_variants()))]


def _scans(root, out_root, subdir: str = D_VELO, suffix: str = ".bin") -> list[Scan]:
    """Every frame with a `suffix` file in `subdir` of each sequence under `root`."""
    base = Path(root) / "sequences"
    if not base.is_dir():
        raise ConfigError(f"{root}: no sequences/ directory")
    seqs = sorted(p for p in base.iterdir() if p.is_dir())
    if not seqs:
        raise ConfigError(f"{base}: no sequence directories")
    scans = []
    for seq in seqs:
        d = seq / subdir
        if not d.is_dir():
            raise ConfigError(f"{d}: missing input directory")
        out = Path(out_root) / "sequences" / seq.name
        scans += [Scan(seq, out, p.stem) for p in sorted(d.glob(f"*{suffix}"))]
    return scans


def _require(paths) -> None:
    """Fail before any work starts when input files are absent, naming all of them."""
    missing = sorted({str(p) for p in paths if not Path(p).is_file()})
    if missing:
        raise FileNotFoundError(f"{len(missing)} missing input file(s): {', '.join(missing)}")


@contextmanager
def _pool(jobs: int, scans: list[Scan], kd_tree: bool = False):
    """Forked workers for `scans`, at most `jobs`, or None where one process will do.

    With `kd_tree`, a scan without knn/<stem>/ will build a tree, so the
    kd-tree extension loads here, once, and every worker inherits it.
    """
    workers = min(jobs, len(scans))  # a pool forks all its workers, even idle ones
    if workers <= 1:
        yield None
        return
    if kd_tree and not all((s.out / D_KNN / s.stem).is_dir() for s in scans):
        from .refinement import _ckdtree

        _ckdtree()
    from concurrent.futures import ProcessPoolExecutor
    from multiprocessing import get_all_start_methods, get_context

    # Forked workers inherit numpy and the loaded modules; Python 3.14's forkserver would not.
    context = get_context("fork") if "fork" in get_all_start_methods() else None
    with ProcessPoolExecutor(max_workers=workers, mp_context=context) as pool:
        yield pool


def _run(fn, arg, scans: list[Scan], jobs: int, pool=None) -> list:
    """`fn(arg, scan)` for each scan, in scan order: on `pool`, else on `jobs` processes at most."""
    work = partial(fn, arg)
    if pool is not None:
        return list(pool.map(work, scans))
    with _pool(jobs, scans) as pool:
        return list(map(work, scans) if pool is None else pool.map(work, scans))


# ---------------------------------------------------------------------------
# Per-scan work (module level so it pickles into worker processes)


def _lift(cfg: PipelineConfig, scan: Scan):
    """Lift the teacher map(s) onto the cloud and write probs_3d and fov_mask.

    Returns (cloud, rows, mask): the (M, C) rows of the M points in view.
    The teacher maps are memory-mapped and stay local, so they are
    unmapped before refinement runs; later cameras' maps must have the
    first map's class count.
    """
    cloud = io.read_cloud_bin(scan.cloud)
    width, height = cfg.image_size or (None, None)
    classes = None
    lifted, masks = [], []
    for cam, path in scan.teacher_maps(cfg.cameras).items():
        prob_map = io.read_tensor(path, shape=(height, width, classes), mmap=True)
        classes = prob_map.shape[2]
        rig = io.read_calib(scan.calib, image_size=prob_map.shape[1::-1], camera=cam)
        try:
            r, m = lift_probs(prob_map, cloud, rig, sampling=cfg.lift_sampling)
        except (NotADistribution, DimMismatch) as exc:
            raise type(exc)(f"{path}: {exc}") from exc
        lifted.append(r)
        masks.append(m)
    if len(lifted) == 1:
        rows, mask = lifted[0], masks[0]
    else:
        rows, mask = merge_lifted(lifted, masks)
    io.write_tensor(rows, scan.output(D_PROBS3D))
    io.write_tensor(mask.mask.astype(np.uint8), scan.output(D_MASK))
    return cloud, rows, mask


def _prune_graphs(scan: Scan, keep: Path | None = None) -> None:
    """Delete the graphs in this scan's knn/<stem>/ other than `keep`; no `keep`, the directory."""
    knn = scan.out / D_KNN / scan.stem
    if knn.is_dir():
        for path in knn.iterdir():
            if path != keep:
                path.unlink(missing_ok=True)
        if keep is None:
            knn.rmdir()


def _read_mask(path: Path, n: int) -> FovMask:
    """The FOV mask of `n` points at `path`: uint8 entries that are 0 or 1."""
    mask = io.read_tensor(path, (n,), np.uint8)
    if mask.size and mask.max() > 1:
        raise DimMismatch(f"{path}: mask entry {mask.max()}, expected 0 or 1")
    return FovMask(mask.view(bool))


def _neighborhood(scan: Scan, points: np.ndarray, k: int, include_self: bool) -> np.ndarray:
    """The exact k-neighbor graph of the scan's (M, 3) in-view `points`, read from knn/.

    Graphs are kept in knn/<stem>/ under a digest of the points, k,
    include_self and KNN_FORMAT, so a lookup is one stat.  A miss searches
    the points, stores the graph and prunes the older ones; a hit imports
    no scipy.  Either way the votes get the stored uint32 (M, k) file, checked.
    """
    import hashlib  # only refinement needs it; it costs every command ~6 ms to import

    key = hashlib.blake2b(KNN_FORMAT, digest_size=8)
    key.update(points)  # the contiguous buffer itself, without a copy
    key.update(f"k={k},include_self={include_self}".encode())
    path = scan.out / D_KNN / scan.stem / f"{key.hexdigest()}.ptns"
    if not path.is_file():
        io.write_tensor(build_tree(points).neighbors(k, include_self)[0].astype(np.uint32), path)
        _prune_graphs(scan, keep=path)
    m = len(points)
    idx = io.read_tensor(path, (m, k), np.uint32)
    if idx.max() >= m:
        raise FormatError(f"{path}: neighbor {idx.max()} outside {m} indexed points")
    return idx


def _refine(cfg: PipelineConfig, scan: Scan, cloud, rows: np.ndarray, mask: FovMask) -> None:
    """Refine one scan's in-view rows; write its labels and confidences."""
    ref = cfg.refinement
    labels = np.full(len(cloud), IGNORE_ID, dtype=np.uint16)
    conf = np.zeros(len(cloud), dtype=np.float32)
    # Points out of view keep IGNORE_ID and confidence 0.  Sparse scans must
    # not abort a batch: clamp k to the indexed points (keeping it odd) and
    # fall back to all-ignore when nothing is indexed.
    limit = mask.count if ref.include_self else mask.count - 1
    if limit < 1:
        _prune_graphs(scan)
    else:
        k = min(ref.k, limit)
        if k % 2 == 0:
            k -= 1
        points = np.ascontiguousarray(cloud.xyz[mask.index_map], dtype=np.float64)
        idx = _neighborhood(scan, points, k, ref.include_self)
        if ref.scheme == "majority":
            winners = refine_majority(rows, idx, ref.tie_break)
        elif ref.scheme == "distance_weighted":
            winners = refine_distance_weighted(rows, idx, graph_distances(points, idx))
        else:  # the confidence is read from the averaged rows
            winners, rows = refine_confidence_avg(rows, idx)
        labels[mask.index_map] = winners
        conf[mask.index_map] = rows.max(axis=1)
    io.write_labels(labels, scan.output(D_REFINED, ".label"))
    io.write_tensor(conf, scan.output(D_CONF))


def _lift_only(cfg: PipelineConfig, scan: Scan) -> None:
    _lift(cfg, scan)


def _refine_stored(cfg: PipelineConfig, scan: Scan) -> None:
    cloud = io.read_cloud_bin(scan.cloud)
    mask = _read_mask(scan.output(D_MASK), len(cloud))
    path = scan.output(D_PROBS3D)
    rows = check_rows(io.read_tensor(path, (mask.count, None), np.float32),
                      lambda i: f"{path}: row {i}")
    _refine(cfg, scan, cloud, rows, mask)


def _lift_refine(cfg: PipelineConfig, scan: Scan) -> None:
    _refine(cfg, scan, *_lift(cfg, scan))


def _cut(class_map: ClassMap, thresholds: np.ndarray, scan: Scan):
    label_path, conf_path = scan.output(D_REFINED, ".label"), scan.output(D_CONF)
    labels = io.read_labels(label_path, class_map=class_map)
    conf = io.read_tensor(conf_path, (None,), np.float32).astype(np.float64)
    if conf.size != labels.size:
        raise DimMismatch(f"{label_path}: {labels.size} labels, but {conf.size} in {conf_path}")
    try:
        out, _ = apply_threshold(labels, conf, thresholds)
    except (NonFiniteValue, NotADistribution) as exc:
        raise type(exc)(f"{conf_path}: {exc}") from exc
    labeled = int((labels != IGNORE_ID).sum())
    removed = labeled - int((out != IGNORE_ID).sum())
    io.write_labels(out, scan.output(D_PSEUDO, ".label"))
    return f"{scan.seq.name}/{scan.stem}", removed, labeled


def _slice(masks: str | None, scan: Scan) -> None:
    cloud = io.read_cloud_bin(scan.cloud)
    sliced, index_map = slice_cloud(cloud, _read_mask(scan.fov_mask(masks), len(cloud)))
    io.write_cloud_bin(sliced, scan.output(D_SLICED, ".bin"))
    io.write_tensor(index_map.astype(np.uint32), scan.output(D_INDEX))
    label_path = scan.seq / D_LABELS / f"{scan.stem}.label"
    if label_path.exists():
        labels = io.read_labels(label_path, count=len(cloud))
        io.write_labels(labels[index_map], scan.output(D_LABELS_FOV, ".label"))


def _tta_emit(_, scan: Scan) -> None:
    from . import tta

    for i, variant_cloud in enumerate(tta.emit_variants(io.read_cloud_bin(scan.cloud))):
        io.write_cloud_bin(variant_cloud, scan.output(D_TTA, f"_v{i:02d}.bin"))


def _tta_aggregate(subdir: str, scan: Scan) -> None:
    from . import tta

    tensors = []
    for path in scan.variants(subdir):  # each of _v00's shape, with probability rows
        shape = tensors[0].shape if tensors else (None, None)
        tensors.append(check_rows(io.read_tensor(path, shape, np.float32),
                                  lambda i: f"{path}: row {i}"))
    io.write_tensor(tta.aggregate_tta(tensors), scan.output(D_AGG))


# ---------------------------------------------------------------------------
# Stages (shared by the individual commands and `pipeline`)


def _config(args, *required) -> PipelineConfig:
    """The config file, if any, with the command's flags over it; validated once."""
    def flags(*names):
        return {name: getattr(args, name, None) for name in names}

    cfg = read_config(args.config, {
        **flags("dataset_root", "output_root", "class_map", "jobs"),
        "refinement": flags("scheme", "k"),
        "threshold": flags("mode", "tau", "tau_min", "tau_max"),
    })
    for name in required:
        if getattr(cfg, name) in (None, ""):
            raise ConfigError(f"missing required setting {name!r} (flag or config)")
    return cfg


def _lift_inputs(cfg: PipelineConfig) -> list[Scan]:
    scans = _scans(cfg.dataset_root, cfg.output_root)
    _require(p for s in scans for p in (s.calib, *s.teacher_maps(cfg.cameras).values()))
    return scans


def _stats(out_root, scans: list[Scan], class_map: ClassMap) -> None:
    """Write histogram.csv: the class counts of the refined labels of `scans`."""
    labels = (io.read_labels(s.output(D_REFINED, ".label"), class_map=class_map) for s in scans)
    counts = histogram(labels, class_map.num_classes)
    with io.atomic_write(Path(out_root) / "histogram.csv") as fh:
        fh.write("".join(f"{i},{int(c)}\n" for i, c in enumerate(counts)).encode())
    print(f"stats: histogram over {int(counts.sum())} labels -> histogram.csv")


def _threshold(cfg: PipelineConfig, scans: list[Scan], class_map: ClassMap, pool=None) -> None:
    """Cut the refined labels of `scans` (on `pool`); write thresholds.csv and reduction.csv.

    Class-balanced mode reads the corpus counts from histogram.csv.
    """
    out_root = Path(cfg.output_root)
    tcfg = cfg.threshold
    if tcfg.mode == "static":
        thresholds = static_thresholds(tcfg, class_map.num_classes)
    else:
        hist_path = out_root / "histogram.csv"
        if not hist_path.exists():
            raise ConfigError(f"{hist_path}: run `seglift stats` first (class-balanced mode)")
        counts = _read_histogram_csv(hist_path, class_map.num_classes)
        try:
            thresholds = class_thresholds(counts, tcfg)
        except EmptyHistogram as exc:
            raise EmptyHistogram(f"{hist_path}: {exc}") from exc
    with io.atomic_write(out_root / "thresholds.csv") as fh:
        fh.write("".join(f"{i},{t:.12f}\n" for i, t in enumerate(thresholds)).encode())

    results = _run(partial(_cut, class_map), thresholds, scans, cfg.jobs, pool)
    removed = sum(r for _, r, _ in results)
    labeled = sum(n for _, _, n in results)
    frac = removed / labeled if labeled else 0.0
    lines = [f"{stem},{r},{n},{r / n if n else 0.0:.6f}" for stem, r, n in results]
    lines.append(f"total,{removed},{labeled},{frac:.6f}")
    with io.atomic_write(out_root / "reduction.csv") as fh:
        fh.write(("\n".join(lines) + "\n").encode())
    print(f"threshold[{tcfg.mode}]: removed {removed}/{labeled} labels ({frac:.2%})")


def _read_histogram_csv(path: Path, num_classes: int) -> np.ndarray:
    counts = np.zeros(num_classes, dtype=np.int64)
    seen = set()
    for lineno, cid, count in io._csv_pairs(path):
        try:
            i, n = int(cid), int(count)
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: bad histogram row") from exc
        if not 0 <= i < num_classes:
            raise ConfigError(f"{path}:{lineno}: class {i} outside the class map")
        if n < 0:
            raise ConfigError(f"{path}:{lineno}: negative count {n}")
        if i in seen:
            raise ConfigError(f"{path}:{lineno}: duplicate class {i}")
        seen.add(i)
        counts[i] = n
    missing = set(range(num_classes)) - seen
    if missing:
        raise ConfigError(f"{path}: no row for class {min(missing)}")
    return counts


# ---------------------------------------------------------------------------
# Commands


def cmd_synth(args) -> int:
    if args.scenes < 1:
        raise ConfigError("--scenes must be >= 1")
    if not (0.0 <= args.border_rate <= 1.0 and 0.0 <= args.body_rate <= 1.0):
        raise ConfigError("error rates must lie in [0, 1]")
    from . import synthetic

    synthetic.generate_corpus(
        args.out,
        num_scenes=args.scenes,
        seed=args.seed,
        error_rate_border=args.border_rate,
        error_rate_body=args.body_rate,
    )
    print(f"synth: {args.scenes} scenes (border={args.border_rate}, "
          f"body={args.body_rate}, seed={args.seed}) -> {args.out}")
    return 0


def cmd_lift(args) -> int:
    cfg = _config(args, "dataset_root", "output_root")
    scans = _lift_inputs(cfg)
    _run(_lift_only, cfg, scans, cfg.jobs)
    print(f"lift: {len(scans)} scans -> {cfg.output_root}")
    return 0


def cmd_refine(args) -> int:
    cfg = _config(args, "dataset_root", "output_root")
    scans = _scans(cfg.dataset_root, cfg.output_root)
    _require(p for s in scans for p in (s.output(D_PROBS3D), s.output(D_MASK)))
    with _pool(cfg.jobs, scans, kd_tree=True) as pool:
        _run(_refine_stored, cfg, scans, cfg.jobs, pool)
    print(f"refine[{cfg.refinement.scheme}, k={cfg.refinement.k}]: {len(scans)} scans")
    return 0


def cmd_stats(args) -> int:
    cfg = _config(args, "output_root", "class_map")
    class_map = io.read_class_map(cfg.class_map)
    scans = _scans(cfg.output_root, cfg.output_root, D_REFINED, ".label")
    _stats(cfg.output_root, scans, class_map)
    return 0


def cmd_threshold(args) -> int:
    cfg = _config(args, "output_root", "class_map")
    class_map = io.read_class_map(cfg.class_map)
    scans = _scans(cfg.output_root, cfg.output_root, D_REFINED, ".label")
    _require(s.output(D_CONF) for s in scans)
    _threshold(cfg, scans, class_map)
    return 0


def cmd_slice(args) -> int:
    cfg = _config(args, "dataset_root", "output_root")
    scans = _scans(cfg.dataset_root, cfg.output_root)
    _require(s.fov_mask(args.masks) for s in scans)
    _run(_slice, args.masks, scans, cfg.jobs)
    print(f"slice: {len(scans)} scans -> {cfg.output_root}")
    return 0


def cmd_eval(args) -> int:
    class_map = io.read_class_map(args.class_map)
    gt_dir, pred_dir = Path(args.gt), Path(args.pred)
    remap = io.read_remap(args.remap) if args.remap else None
    stems = sorted(p.stem for p in gt_dir.glob("*.label"))
    if not stems:
        raise ConfigError(f"{gt_dir}: no .label files")
    total = ConfusionMatrix(class_map.num_classes)
    for stem in stems:
        gt = io.read_labels(gt_dir / f"{stem}.label", class_map=class_map, remap=remap)
        pred = io.read_labels(pred_dir / f"{stem}.label", class_map=class_map, count=len(gt))
        mask = None
        if args.masks:
            mask = _read_mask(Path(args.masks) / f"{stem}.ptns", len(gt))
        total.merge(ConfusionMatrix(class_map.num_classes).update(gt, pred, mask))
    try:
        result = report(total, class_map)
    except EmptyMatrix as exc:
        where = ", ".join(str(p) for p in (gt_dir, args.masks) if p)
        raise EmptyMatrix(f"{where}: {exc}") from exc
    print(result.to_text())
    if args.out:
        with io.atomic_write(args.out) as fh:
            fh.write(result.to_csv().encode())
        with io.atomic_write(Path(args.out).with_suffix(".confusion.csv")) as fh:
            np.savetxt(fh, result.matrix.counts, fmt="%d", delimiter=",")
    return 0


def cmd_tta(args) -> int:
    cfg = _config(args, "dataset_root", "output_root")
    if args.action == "emit":
        import json

        from . import tta

        scans = _scans(cfg.dataset_root, cfg.output_root)
        _run(_tta_emit, None, scans, cfg.jobs)
        manifest = [v.manifest_entry() for v in tta.default_variants()]
        with io.atomic_write(Path(cfg.output_root) / "tta_manifest.json") as fh:
            fh.write(json.dumps(manifest, indent=2).encode())
    else:  # aggregate: one scan per stem with <stem>_vNN.ptns tensors
        files = _scans(cfg.dataset_root, cfg.output_root, args.probs_subdir, ".ptns")
        scans = sorted({replace(f, stem=f.stem.rsplit("_v", 1)[0]) for f in files if "_v" in f.stem})
        if not scans:
            raise ConfigError(f"{args.probs_subdir}: no per-variant tensors (<stem>_vNN.ptns)")
        _require(p for s in scans for p in s.variants(args.probs_subdir))
        _run(_tta_aggregate, args.probs_subdir, scans, cfg.jobs)
    print(f"tta {args.action}: {len(scans)} scans")
    return 0


def cmd_soup(args) -> int:
    import json
    import shlex

    from . import soup

    env = dict(os.environ)  # the caller's environment: the metric command may use BLAS
    if _PINNED:
        env.pop("OPENBLAS_NUM_THREADS", None)
    evaluate = partial(soup.evaluate_weights, shlex.split(args.eval_cmd), env=env)
    result = soup.greedy_soup(args.candidates, evaluate)
    io.write_tensor(result.vector, args.out)
    log_path = args.log or (str(args.out) + ".log.json")
    with io.atomic_write(log_path) as fh:
        fh.write(json.dumps(result.log_entries(), indent=2).encode())
    print(f"soup: {len(result.included)}/{len(args.candidates)} candidates, "
          f"metric {result.final_metric:.6f} -> {args.out}")
    return 0


def cmd_pipeline(args) -> int:
    """Lift and refine each scan in one pass, then count and cut the run's own scans."""
    cfg = _config(args, "dataset_root", "output_root", "class_map")
    class_map = io.read_class_map(cfg.class_map)
    scans = _lift_inputs(cfg)
    with _pool(cfg.jobs, scans, kd_tree=True) as pool:  # the cut reuses the forked workers
        _run(_lift_refine, cfg, scans, cfg.jobs, pool)
        print(f"lift: {len(scans)} scans -> {cfg.output_root}")
        print(f"refine[{cfg.refinement.scheme}, k={cfg.refinement.k}]: {len(scans)} scans")
        if cfg.threshold.mode == "class_balanced":
            _stats(cfg.output_root, scans, class_map)
        _threshold(cfg, scans, class_map, pool)
    print(f"pipeline: pseudo-labels in {cfg.output_root}")
    return 0


# ---------------------------------------------------------------------------
# Argument parsing


def _add_common(sp, dataset=True):
    sp.add_argument("--config", help="JSON pipeline config")
    if dataset:
        sp.add_argument("--dataset-root", help="input dataset root (sequences/ layout)")
    sp.add_argument("--output-root", help="output root")
    sp.add_argument("--class-map", help="class map CSV")
    sp.add_argument("--jobs", type=int, help="worker processes (default 1)")


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="seglift",
        description="Lift 2D segmentation probabilities onto LiDAR clouds, refine, "
                    "threshold, slice, augment, ensemble, and evaluate.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("synth", help="generate a synthetic corpus")
    sp.add_argument("--out", required=True)
    sp.add_argument("--scenes", type=int, default=10)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--border-rate", type=float, default=0.5)
    sp.add_argument("--body-rate", type=float, default=0.05)
    sp.set_defaults(func=cmd_synth)

    sp = sub.add_parser("lift", help="lift teacher maps onto clouds")
    _add_common(sp)
    sp.set_defaults(func=cmd_lift)

    sp = sub.add_parser("refine", help="KNN-refine lifted probabilities")
    _add_common(sp)
    sp.add_argument("--scheme", choices=REFINEMENT_SCHEMES)
    sp.add_argument("--k", type=int)
    sp.set_defaults(func=cmd_refine)

    sp = sub.add_parser("stats", help="corpus class histogram over refined labels")
    _add_common(sp, dataset=False)
    sp.set_defaults(func=cmd_stats)

    sp = sub.add_parser("threshold", help="apply confidence thresholds")
    _add_common(sp, dataset=False)
    sp.add_argument("--mode", choices=("static", "class_balanced"))
    sp.add_argument("--tau", type=float, help="static threshold")
    sp.add_argument("--tau-min", type=float)
    sp.add_argument("--tau-max", type=float)
    sp.set_defaults(func=cmd_threshold)

    sp = sub.add_parser("slice", help="cut clouds to the camera field of view")
    _add_common(sp)
    sp.add_argument("--masks",
                    help="lift output root holding sequences/NN/fov_mask/ (defaults to output root)")
    sp.set_defaults(func=cmd_slice)

    sp = sub.add_parser("eval", help="mIoU of predictions against ground truth")
    sp.add_argument("--gt", required=True, help="directory of ground-truth .label files")
    sp.add_argument("--pred", required=True, help="directory of predicted .label files")
    sp.add_argument("--class-map", required=True)
    sp.add_argument("--masks", help="directory of fov masks (.ptns) to restrict scoring")
    sp.add_argument("--remap", help="CSV raw_id,train_id remap applied to ground truth")
    sp.add_argument("--out", help="write the CSV summary here, and the summed confusion "
                    "matrix (rows ground truth, columns predictions) as <stem>.confusion.csv")
    sp.set_defaults(func=cmd_eval)

    sp = sub.add_parser("tta", help="emit the 12 variants / aggregate their predictions")
    sp.add_argument("action", choices=("emit", "aggregate"))
    _add_common(sp)
    sp.add_argument("--probs-subdir", default=D_TTA,
                    help="sequence subdir holding per-variant tensors (aggregate)")
    sp.set_defaults(func=cmd_tta)

    sp = sub.add_parser("soup", help="greedy-soup average of checkpoint weight vectors")
    sp.add_argument("--candidates", nargs="+", required=True)
    sp.add_argument("--eval-cmd", required=True,
                    help="command that prints one scalar given a weight file path")
    sp.add_argument("--out", required=True)
    sp.add_argument("--log", help="JSON inclusion log (default <out>.log.json)")
    sp.set_defaults(func=cmd_soup)

    sp = sub.add_parser("pipeline", help="lift -> refine -> stats -> threshold")
    _add_common(sp)
    sp.set_defaults(func=cmd_pipeline)

    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"seglift: config error: {exc}", file=sys.stderr)
        return 2
    except (ToolkitError, OSError) as exc:
        print(f"seglift: error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    """`main()` as a process, exiting with its code before the interpreter's teardown:
    outputs are closed and the pool is shut down, so teardown would only free memory."""
    try:
        code = main()
    except SystemExit as exc:  # argparse: --help and usage errors
        code = exc.code
    sys.stdout.flush()
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    entry()
