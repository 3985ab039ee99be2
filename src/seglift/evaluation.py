"""Confusion-matrix accumulation, per-class IoU, and mIoU reporting.

Rows are ground truth, columns predictions; ground-truth ignore points
are excluded entirely.  Predicting the ignore class on a labeled point
lands in column 0, counting as a false negative for the true class; the
ignore class itself is never scored.  Dataset-level IoU sums matrices
over scans before dividing (not a per-scan average).
"""

from __future__ import annotations

import numpy as np

from .core import IGNORE_ID, ClassMap
from .errors import EmptyMatrix, SizeMismatch, UnknownClassError


class ConfusionMatrix:
    """C x C count matrix over evaluated (gt != ignore) points."""

    def __init__(self, num_classes: int, counts: np.ndarray | None = None):
        if num_classes < 2:
            raise ValueError("need at least one real class beside ignore")
        self.num_classes = num_classes
        if counts is None:
            counts = np.zeros((num_classes, num_classes), dtype=np.int64)
        counts = np.array(counts, dtype=np.int64)  # a copy: updates never reach the caller's array
        if counts.shape != (num_classes, num_classes):
            raise ValueError(f"counts must be ({num_classes}, {num_classes})")
        self.counts = counts

    def update(self, gt: np.ndarray, pred: np.ndarray, mask=None) -> "ConfusionMatrix":
        gt = np.asarray(gt).astype(np.int64)
        pred = np.asarray(pred).astype(np.int64)
        if gt.shape != pred.shape:
            raise SizeMismatch(f"gt {gt.shape} vs pred {pred.shape}")
        keep = gt != IGNORE_ID
        if mask is not None:
            arr = mask.mask if hasattr(mask, "mask") else np.asarray(mask, dtype=bool)
            if arr.shape != gt.shape:
                raise SizeMismatch(f"mask {arr.shape} vs labels {gt.shape}")
            keep &= arr
        g, p = gt[keep], pred[keep]
        n = self.num_classes
        if g.size:
            if g.max() >= n or p.max() >= n or p.min() < 0:
                raise UnknownClassError(f"label outside 0..{n - 1}")
            flat = np.bincount(g * n + p, minlength=n * n)
            self.counts += flat.reshape(n, n)
        return self

    def merge(self, other: "ConfusionMatrix") -> "ConfusionMatrix":
        if other.num_classes != self.num_classes:
            raise SizeMismatch("cannot merge matrices of different class counts")
        self.counts += other.counts
        return self

    @property
    def total(self) -> int:
        return int(self.counts.sum())


def accumulate(gt, pred, num_classes: int, mask=None) -> ConfusionMatrix:
    """One-shot confusion matrix for a single scan."""
    return ConfusionMatrix(num_classes).update(gt, pred, mask)


def iou(matrix: ConfusionMatrix):
    """Per-class IoU and their mean.

    Returns (per_class, miou): per_class has NaN for classes excluded from
    the mean (the ignore class, and classes absent from both ground truth
    and predictions).
    """
    if matrix.total == 0:
        raise EmptyMatrix("confusion matrix has no evaluated points")
    counts = matrix.counts.astype(np.float64)
    tp = np.diag(counts)
    gt_total = counts.sum(axis=1)
    pred_total = counts.sum(axis=0)
    union = gt_total + pred_total - tp
    per_class = np.full(matrix.num_classes, np.nan)
    included = (union > 0)
    included[IGNORE_ID] = False
    per_class[included] = tp[included] / union[included]
    if not included.any():
        raise EmptyMatrix("no class present in ground truth or predictions")
    return per_class, float(per_class[included].mean())


def report(matrix: ConfusionMatrix, class_map: ClassMap) -> "Report":
    """Score one dataset-level matrix: the sum of its scans' matrices."""
    per_class, miou = iou(matrix)
    return Report(per_class=per_class, miou=miou, class_map=class_map, matrix=matrix)


class Report:
    """Evaluation summary with text and CSV renderings."""

    def __init__(self, per_class, miou, class_map, matrix):
        self.per_class = per_class
        self.miou = miou
        self.class_map = class_map
        self.matrix = matrix

    def to_csv(self) -> str:
        lines = []
        for cid, value in enumerate(self.per_class):
            if np.isnan(value):
                continue
            lines.append(f"{cid},{self.class_map.name_of(cid)},{value:.6f}")
        lines.append(f"mIoU,{self.miou:.6f}")
        return "\n".join(lines) + "\n"

    def to_text(self) -> str:
        width = max(len(n) for n in self.class_map.names)
        lines = []
        for cid, value in enumerate(self.per_class):
            if np.isnan(value):
                continue
            lines.append(f"  {self.class_map.name_of(cid):<{width}}  {value * 100:6.2f}")
        lines.append(f"  {'mIoU':<{width}}  {self.miou * 100:6.2f}")
        return "\n".join(lines)
