"""Static and class-balanced confidence thresholds for pseudo-labels.

The class-balanced threshold for class i scales linearly with its corpus
frequency relative to the most frequent real class:

    tau(i) = count_i / max_count * (tau_max - tau_min) + tau_min

so the majority class is cut at tau_max and absent classes at tau_min.
The ignore class never contributes to max_count and is never thresholded
(its slot is pinned to tau_max to keep the vector inside [tau_min, tau_max]).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import IGNORE_ID
from .errors import (EmptyHistogram, NonFiniteValue, NotADistribution, SizeMismatch,
                     UnknownClassError)

THRESHOLD_MODES = ("static", "class_balanced")


@dataclass(frozen=True)
class ThresholdConfig:
    """Confidence cut parameters; static mode uses tau_max as the single tau."""

    tau_min: float
    tau_max: float
    mode: str = "class_balanced"

    def __post_init__(self):
        if self.mode not in THRESHOLD_MODES:
            raise ValueError(f"mode must be one of {THRESHOLD_MODES}, got {self.mode!r}")
        if not 0.0 <= self.tau_min <= self.tau_max <= 1.0:
            raise ValueError(
                f"need 0 <= tau_min <= tau_max <= 1, got ({self.tau_min}, {self.tau_max})"
            )

    @classmethod
    def static(cls, tau: float) -> "ThresholdConfig":
        return cls(tau_min=tau, tau_max=tau, mode="static")


def histogram(label_arrays, num_classes: int) -> np.ndarray:
    """Per-class occurrence counts summed over a corpus of label arrays."""
    counts = np.zeros(num_classes, dtype=np.int64)
    for labels in label_arrays:
        labels = np.asarray(labels)
        if labels.size == 0:
            continue
        if labels.min() < 0 or labels.max() >= num_classes:
            bad = int(labels[(labels < 0) | (labels >= num_classes)][0])
            raise UnknownClassError(f"label {bad} outside 0..{num_classes - 1}")
        counts += np.bincount(labels.astype(np.int64), minlength=num_classes)
    return counts


def class_thresholds(hist: np.ndarray, cfg: ThresholdConfig) -> np.ndarray:
    """Per-class adaptive thresholds from corpus counts (class-balanced mode)."""
    if cfg.mode != "class_balanced":
        raise ValueError(f"class_thresholds needs class_balanced mode, got {cfg.mode!r}")
    counts = np.asarray(hist)
    real = counts[IGNORE_ID + 1:]
    if real.size == 0 or real.max() <= 0:
        raise EmptyHistogram("no nonzero count outside the ignore class")
    max_count = real.max()
    ratio = counts / float(max_count)
    taus = cfg.tau_min + ratio * (cfg.tau_max - cfg.tau_min)
    # Pin the endpoints: float rounding must not keep the majority class
    # off tau_max or an absent class off tau_min.
    taus[counts == max_count] = cfg.tau_max
    taus[counts == 0] = cfg.tau_min
    taus[IGNORE_ID] = cfg.tau_max
    return taus


def static_thresholds(cfg: ThresholdConfig, num_classes: int) -> np.ndarray:
    """One uniform threshold (tau_max) for every class."""
    if cfg.mode != "static":
        raise ValueError(f"static_thresholds needs static mode, got {cfg.mode!r}")
    return np.full(num_classes, cfg.tau_max, dtype=np.float64)


def apply_threshold(labels: np.ndarray, confidences: np.ndarray, thresholds: np.ndarray):
    """Unset labels whose confidence falls below their class threshold.

    Removal is strict less-than: a confidence exactly equal to the
    threshold is kept.  Returns (labels, reduction) where reduction is the
    removed fraction of points that carried a label before the cut.
    Raises NonFiniteValue on a NaN or infinite confidence: NaN compares
    false with every threshold, so its label would silently survive.  A
    finite confidence outside [0, 1] raises NotADistribution.
    """
    labels = np.asarray(labels)
    confidences = np.asarray(confidences, dtype=np.float64)
    thresholds = np.asarray(thresholds, dtype=np.float64)
    if labels.shape != confidences.shape:
        raise SizeMismatch(f"{labels.shape} labels vs {confidences.shape} confidences")
    if not np.isfinite(confidences).all():
        bad = int(np.flatnonzero(~np.isfinite(confidences))[0])
        raise NonFiniteValue(f"confidence {confidences[bad]} at point {bad} is not finite")
    if confidences.size and not 0.0 <= confidences.min() <= confidences.max() <= 1.0:
        bad = int(np.flatnonzero((confidences < 0.0) | (confidences > 1.0))[0])
        raise NotADistribution(f"confidence {confidences[bad]} at point {bad} is outside [0, 1]")
    if labels.size and int(labels.max()) >= thresholds.shape[0]:
        raise UnknownClassError(
            f"label {int(labels.max())} outside {thresholds.shape[0]} thresholds"
        )
    labeled = labels != IGNORE_ID
    removed = labeled & (confidences < thresholds[labels.astype(np.int64)])
    out = np.where(removed, IGNORE_ID, labels).astype(labels.dtype)
    denom = int(labeled.sum())
    reduction = float(removed.sum()) / denom if denom else 0.0
    return out, reduction
