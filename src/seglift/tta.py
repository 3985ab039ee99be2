"""The 12-variant test-time-augmentation family and prediction aggregation.

Variants: the original cloud, three flips (x, y, xy), and eight yaw
rotations at 40-degree steps (40..320), all distinct from the identity.
Every variant preserves point order, so per-variant predictions can be
averaged row-by-row.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import transforms
from .core import PointCloud
from .errors import DimMismatch

YAW_STEP_DEG = 40.0
NUM_YAW_STEPS = 8


@dataclass(frozen=True)
class TtaVariant:
    """One geometric variant: kind in {identity, flip, yaw}."""

    name: str
    kind: str
    axis: str | None = None       # flip only
    angle_deg: float | None = None  # yaw only

    def apply(self, cloud: PointCloud) -> PointCloud:
        if self.kind == "identity":
            return cloud
        if self.kind == "flip":
            return transforms.flip(cloud, self.axis)
        if self.kind == "yaw":
            return transforms.yaw_rotate(cloud, np.deg2rad(self.angle_deg))
        raise ValueError(f"unknown variant kind {self.kind!r}")

    def manifest_entry(self) -> dict:
        entry = {"name": self.name, "kind": self.kind}
        if self.axis is not None:
            entry["axis"] = self.axis
        if self.angle_deg is not None:
            entry["angle_deg"] = self.angle_deg
        return entry


def default_variants() -> tuple[TtaVariant, ...]:
    """The 12 standard variants, identity first."""
    variants = [TtaVariant("identity", "identity")]
    for axis in transforms.FLIP_AXES:
        variants.append(TtaVariant(f"flip_{axis}", "flip", axis=axis))
    for step in range(1, NUM_YAW_STEPS + 1):
        deg = YAW_STEP_DEG * step
        variants.append(TtaVariant(f"yaw_{int(deg):03d}", "yaw", angle_deg=deg))
    return tuple(variants)


def emit_variants(cloud: PointCloud):
    """Apply every default variant; returns (clouds, manifest)."""
    variants = default_variants()
    clouds = [v.apply(cloud) for v in variants]
    manifest = [v.manifest_entry() for v in variants]
    return clouds, manifest


def aggregate_tta(probs_list) -> np.ndarray:
    """Row-wise arithmetic mean of per-variant probability matrices."""
    probs_list = list(probs_list)
    if not probs_list:
        raise DimMismatch("need at least one probability matrix")
    shape = np.asarray(probs_list[0]).shape
    acc = np.zeros(shape, dtype=np.float64)
    for probs in probs_list:
        probs = np.asarray(probs)
        if probs.shape != shape:
            raise DimMismatch(f"variant shapes differ: {probs.shape} vs {shape}")
        acc += probs
    return (acc / len(probs_list)).astype(np.float32)
