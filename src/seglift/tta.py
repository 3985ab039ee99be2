"""The 12-variant test-time-augmentation family and prediction aggregation.

Variants: the original cloud, three flips (x, y, xy), and eight yaw
rotations at 40-degree steps (40..320), all distinct from the identity.
Every variant preserves point order, so per-variant predictions can be
averaged row-by-row.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .core import PointCloud
from .errors import DimMismatch

FLIP_AXES = ("x", "y", "xy")
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
        """The variant's cloud: a flip negates the named axes, a yaw rotates
        about z; intensity and point order are kept."""
        if self.kind == "identity":
            return cloud
        if self.kind == "flip":
            if self.axis not in FLIP_AXES:
                raise ValueError(f"axis must be one of {FLIP_AXES}, got {self.axis!r}")
            cols = ["xy".index(a) for a in self.axis]
            xyz = cloud.xyz.copy()
            xyz[:, cols] = -xyz[:, cols]
        elif self.kind == "yaw":
            angle = np.deg2rad(self.angle_deg)
            c, s = np.cos(angle), np.sin(angle)
            r = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
            xyz = cloud.xyz @ r.T + 0.0  # + 0.0 writes each -0.0 as +0.0
        else:
            raise ValueError(f"unknown variant kind {self.kind!r}")
        return PointCloud(xyz, cloud.intensity)

    def manifest_entry(self) -> dict:
        return {k: v for k, v in asdict(self).items() if v is not None}


def default_variants() -> tuple[TtaVariant, ...]:
    """The 12 standard variants, identity first."""
    variants = [TtaVariant("identity", "identity")]
    for axis in FLIP_AXES:
        variants.append(TtaVariant(f"flip_{axis}", "flip", axis=axis))
    for step in range(1, NUM_YAW_STEPS + 1):
        deg = YAW_STEP_DEG * step
        variants.append(TtaVariant(f"yaw_{int(deg):03d}", "yaw", angle_deg=deg))
    return tuple(variants)


def emit_variants(cloud: PointCloud) -> list[PointCloud]:
    """The cloud under every default variant, in `default_variants()` order."""
    return [v.apply(cloud) for v in default_variants()]


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
