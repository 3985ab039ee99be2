"""Output checks and the reference neighbor computations.

Each check returns a list of problems (empty when the outputs are right).
The checks read the files with numpy directly and recompute what the
stats, threshold and eval commands claim, so they do not go through the
code they check.  The neighbor helpers implement the documented contract
of ``seglift.refinement`` (ascending distance, the query first, then
ascending index) independently of the library.
"""

from __future__ import annotations

import re
import struct
from pathlib import Path
from time import perf_counter

import numpy as np
from scipy.spatial import cKDTree

SEQ = "00"


def tree_diff(a: Path, b: Path) -> list[str]:
    """Differences between two output trees, as ``diff -r`` would list them."""
    files_a = {p.relative_to(a) for p in a.rglob("*") if p.is_file()}
    files_b = {p.relative_to(b) for p in b.rglob("*") if p.is_file()}
    problems = [f"only in {a}: {p}" for p in sorted(files_a - files_b)]
    problems += [f"only in {b}: {p}" for p in sorted(files_b - files_a)]
    problems += [f"differs: {p}" for p in sorted(files_a & files_b)
                 if (a / p).read_bytes() != (b / p).read_bytes()]
    if not files_a:
        problems.append(f"{a}: no outputs")
    return problems


def _labels(path: Path) -> np.ndarray:
    return (np.fromfile(path, dtype="<u4") & 0xFFFF).astype(np.int64)


def _tensor(path: Path) -> np.ndarray:
    data = path.read_bytes()
    ndim = struct.unpack_from("<I", data, 6)[0]
    dtype = {0: "<f4", 1: "<u1", 2: "<u4"}[data[5]]
    return np.frombuffer(data, dtype=dtype, offset=10 + 4 * ndim)


def _csv_column(path: Path, col: int) -> list[str]:
    return [line.split(",")[col] for line in path.read_text().splitlines() if line]


def stage_outputs(out: Path, dataset: Path, num_classes: int, eval_stdout: str,
                  threshold_stdout: str, expect: dict | None = None) -> list[str]:
    """Recompute histogram, pseudo-labels, reduction and FOV mIoU from the files.

    `expect` optionally fixes the printed mIoU and removed share, as
    ``{"miou": "67.22", "removed": "46.79%"}``.
    """
    seq = out / "sequences" / SEQ
    stems = sorted(p.stem for p in (dataset / "sequences" / SEQ / "velodyne").glob("*.bin"))
    problems = []
    thresholds = np.array([float(t) for t in _csv_column(out / "thresholds.csv", 1)])
    hist = np.zeros(num_classes, dtype=np.int64)
    conf_matrix = np.zeros((num_classes, num_classes), dtype=np.int64)
    removed = labeled = 0
    for stem in stems:
        refined = _labels(seq / "refined_labels" / f"{stem}.label")
        conf = _tensor(seq / "confidences" / f"{stem}.ptns").astype(np.float64)
        pseudo = _labels(seq / "pseudo_labels" / f"{stem}.label")
        hist += np.bincount(refined, minlength=num_classes)
        cut = (refined != 0) & (conf < thresholds[refined])
        if not np.array_equal(pseudo, np.where(cut, 0, refined)):
            problems.append(f"{stem}: pseudo-labels disagree with thresholds.csv")
        removed += int(cut.sum())
        labeled += int((refined != 0).sum())
        gt = _labels(dataset / "sequences" / SEQ / "labels" / f"{stem}.label")
        keep = (gt != 0) & (_tensor(seq / "fov_mask" / f"{stem}.ptns") != 0)
        conf_matrix += np.bincount(gt[keep] * num_classes + pseudo[keep],
                                   minlength=num_classes ** 2).reshape(num_classes, num_classes)
    if [int(c) for c in _csv_column(out / "histogram.csv", 1)] != hist.tolist():
        problems.append("histogram.csv disagrees with the refined labels")
    total = next(line.split(",") for line in (out / "reduction.csv").read_text().splitlines()
                 if line.startswith("total,"))
    if (int(total[1]), int(total[2])) != (removed, labeled):
        problems.append("reduction.csv total disagrees with the pseudo-labels")
    tp = np.diag(conf_matrix).astype(np.float64)
    union = conf_matrix.sum(axis=0) + conf_matrix.sum(axis=1) - tp
    scored = union > 0
    scored[0] = False
    miou = f"{(tp[scored] / union[scored]).mean() * 100:6.2f}".strip()
    found = re.search(r"mIoU\s+(\S+)", eval_stdout)
    printed = found.group(1) if found else None
    if printed != miou:
        problems.append(f"eval printed mIoU {printed}, recomputed {miou}")
    share = f"{removed / labeled:.2%}" if labeled else "0.00%"
    if f"({share})" not in threshold_stdout:
        problems.append(f"threshold did not report {share} removed")
    if expect is not None and {"miou": printed, "removed": share} != expect:
        problems.append(f"mIoU {printed} with {share} removed, expected {expect}")
    return problems


def reference_query(points: np.ndarray, k: int):
    """scipy's public query on the indexed points; returns (seconds, indices)."""
    kd = cKDTree(points)
    kq = min(k + 2, len(points))
    start = perf_counter()
    _, raw = kd.query(points, k=kq)
    return perf_counter() - start, raw.reshape(len(points), kq)


def tie_rows(points: np.ndarray, raw: np.ndarray, k: int) -> np.ndarray:
    """Rows (with self included) whose probe ties across the cut or lacks self first.

    These are the rows an exact search must resolve beyond the k+2 probe.
    """
    m, kq = raw.shape
    if kq == m:
        return np.zeros(0, dtype=np.int64)
    d2 = ((points[raw] - points[:, None, :]) ** 2).sum(axis=2)
    not_self = raw != np.arange(m)[:, None]
    order = np.lexsort((raw, not_self, d2), axis=-1)
    sd2 = np.take_along_axis(d2, order, axis=1)
    first_not_self = np.take_along_axis(not_self, order[:, :1], axis=1)[:, 0]
    return np.flatnonzero(first_not_self | (sd2[:, k] <= sd2[:, k - 1]))


def knn_mismatches(points: np.ndarray, idx: np.ndarray, k: int, include_self: bool,
                   rows: np.ndarray) -> int:
    """Rows of `idx` that differ from an exhaustive lexsort on (d2, not-self, index)."""
    ids = np.arange(len(points))
    bad = 0
    for row in rows:
        d2 = ((points - points[row]) ** 2).sum(axis=1)
        order = np.lexsort((ids, ids != row, d2))
        if not include_self:
            order = order[order != row]
        bad += not np.array_equal(order[:k], idx[row])
    return bad


def sample_rows(rng: np.random.Generator, m: int, ties: np.ndarray, n: int) -> np.ndarray:
    """A seeded sample of `n` rows plus up to `n` of the tie rows."""
    rows = rng.choice(m, size=min(n, m), replace=False)
    if ties.size:
        rows = np.union1d(rows, rng.choice(ties, size=min(n, ties.size), replace=False))
    return np.sort(rows)
