"""Deterministic geometric ops on point clouds.

Every op is a pure function returning a new cloud; intensity and point
order are preserved.
"""

from __future__ import annotations

import numpy as np

from .core import PointCloud, RigidTransform

FLIP_AXES = ("x", "y", "xy")


def apply_transform(cloud: PointCloud, transform: RigidTransform) -> PointCloud:
    """Map coordinates p' = R @ p + t; intensity untouched."""
    return PointCloud(transform.apply(cloud.xyz), cloud.intensity)


def flip(cloud: PointCloud, axis: str) -> PointCloud:
    """Negate x ("x"), y ("y"), or both ("xy"). Exact involution."""
    if axis not in FLIP_AXES:
        raise ValueError(f"axis must be one of {FLIP_AXES}, got {axis!r}")
    xyz = cloud.xyz.copy()
    if "x" in axis:
        xyz[:, 0] = -xyz[:, 0]
    if "y" in axis:
        xyz[:, 1] = -xyz[:, 1]
    return PointCloud(xyz, cloud.intensity)


def yaw_rotate(cloud: PointCloud, angle: float) -> PointCloud:
    """Rotate about the z axis by `angle` radians; z unchanged."""
    if not np.isfinite(angle):
        raise ValueError("angle must be finite")
    return apply_transform(cloud, RigidTransform.yaw(angle))
