"""Core containers: point clouds, camera rigs, class maps.

Coordinates are kept in float64 internally; the on-disk float32 convention
is applied only at the I/O boundary so that geometric round trips do not
lose precision.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Class id reserved for unlabeled / ignored points.
IGNORE_ID = 0

_ROT_TOL = 1e-6


@dataclass
class PointCloud:
    """N sensor-frame points: xyz in meters, intensity unitless in [0, 1]."""

    xyz: np.ndarray        # (N, 3) float64
    intensity: np.ndarray  # (N,) float64

    def __post_init__(self):
        self.xyz = np.asarray(self.xyz, dtype=np.float64)
        self.intensity = np.asarray(self.intensity, dtype=np.float64)
        if self.xyz.ndim != 2 or self.xyz.shape[1] != 3:
            raise ValueError(f"xyz must be (N, 3), got {self.xyz.shape}")
        if self.intensity.shape != (self.xyz.shape[0],):
            raise ValueError(
                f"intensity must be ({self.xyz.shape[0]},), got {self.intensity.shape}"
            )
        if not np.isfinite(self.xyz).all():
            raise ValueError("point coordinates must be finite")
        if self.intensity.size and (
            not np.isfinite(self.intensity).all()
            or self.intensity.min() < 0.0
            or self.intensity.max() > 1.0
        ):
            raise ValueError("intensity must be finite and within [0, 1]")

    def __len__(self) -> int:
        return self.xyz.shape[0]

    @classmethod
    def from_array(cls, arr: np.ndarray) -> "PointCloud":
        """Build from an (N, 4) array of x, y, z, intensity rows."""
        arr = np.asarray(arr)
        if arr.ndim != 2 or arr.shape[1] != 4:
            raise ValueError(f"expected (N, 4) array, got {arr.shape}")
        with np.errstate(invalid="ignore"):  # a signalling NaN is rejected as non-finite
            xyz, intensity = arr[:, :3].astype(np.float64), arr[:, 3].astype(np.float64)
        return cls(xyz, intensity)

    def to_array(self) -> np.ndarray:
        """Return an (N, 4) float64 array of x, y, z, intensity rows."""
        return np.column_stack([self.xyz, self.intensity])

    def take(self, indices: np.ndarray) -> "PointCloud":
        """Select points by index, preserving order of `indices`."""
        return PointCloud(self.xyz[indices], self.intensity[indices])


def _check_rotation(r: np.ndarray, what: str) -> None:
    if r.shape != (3, 3):
        raise ValueError(f"{what} must be 3x3, got {r.shape}")
    if not np.allclose(r @ r.T, np.eye(3), atol=_ROT_TOL):
        raise ValueError(f"{what} is not orthonormal within {_ROT_TOL}")
    if abs(np.linalg.det(r) - 1.0) > _ROT_TOL:
        raise ValueError(f"{what} must have determinant +1 within {_ROT_TOL}")


@dataclass(frozen=True)
class CalibrationRig:
    """Pinhole camera over the sensor frame.

    Pixel coordinates come from the homogeneous chain
    ``x_img = P @ T @ [x, y, z, 1]``; ``T`` is the 4x4 sensor-to-camera
    rigid motion, ``P`` the 3x4 projection in pixels.
    """

    P: np.ndarray  # (3, 4)
    T: np.ndarray  # (4, 4), rigid, bottom row (0, 0, 0, 1)
    width: int
    height: int

    def __post_init__(self):
        object.__setattr__(self, "P", np.asarray(self.P, dtype=np.float64))
        object.__setattr__(self, "T", np.asarray(self.T, dtype=np.float64))
        if self.P.shape != (3, 4):
            raise ValueError(f"P must be 3x4, got {self.P.shape}")
        if self.T.shape != (4, 4):
            raise ValueError(f"T must be 4x4, got {self.T.shape}")
        if not np.allclose(self.T[3], [0, 0, 0, 1], atol=1e-12):
            raise ValueError("T bottom row must be (0, 0, 0, 1)")
        _check_rotation(self.T[:3, :3], "T rotation block")
        if self.width <= 0 or self.height <= 0:
            raise ValueError("image size must be positive")
        if not (np.isfinite(self.P).all() and np.isfinite(self.T).all()):
            raise ValueError("calibration matrices must be finite")


class ClassMap:
    """Ordered class-id -> name table; id 0 is always "unlabeled"."""

    def __init__(self, names):
        names = list(names)
        if not names:
            raise ValueError("class map needs at least the unlabeled class")
        if names[0] != "unlabeled":
            raise ValueError('class id 0 must be named "unlabeled"')
        if len(set(names)) != len(names):
            raise ValueError("class names must be unique")
        self.names = tuple(names)

    @property
    def num_classes(self) -> int:
        return len(self.names)

    def name_of(self, class_id: int) -> str:
        return self.names[class_id]

    def __eq__(self, other) -> bool:
        return isinstance(other, ClassMap) and self.names == other.names

    def __repr__(self) -> str:
        return f"ClassMap({len(self.names)} classes)"
