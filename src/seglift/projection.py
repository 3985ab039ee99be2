"""Lift per-pixel class probabilities onto points via the camera model.

Pixel lookup uses nearest-pixel (floor) sampling by default so lifted
rows are exact rows of the input map; bilinear sampling is available as
an option.  Pixel bounds are half-open: [0, W) x [0, H).  There is no
occlusion test; points behind foreground surfaces still receive the
foreground pixel's distribution, which is exactly the label bleeding the
KNN refinement stage repairs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import CalibrationRig, PointCloud
from .errors import DimMismatch, SizeMismatch

SAMPLING_MODES = ("nearest", "bilinear")


@dataclass
class FovMask:
    """Boolean per-point mask plus the positions of its true entries."""

    mask: np.ndarray  # (N,) bool

    def __post_init__(self):
        self.mask = np.asarray(self.mask, dtype=bool)
        if self.mask.ndim != 1:
            raise ValueError(f"mask must be 1-D, got shape {self.mask.shape}")
        self._index_map = None

    @property
    def index_map(self) -> np.ndarray:
        """Strictly increasing indices of the true entries."""
        if self._index_map is None:
            self._index_map = np.flatnonzero(self.mask)
        return self._index_map

    def __len__(self) -> int:
        return self.mask.shape[0]

    @property
    def count(self) -> int:
        return int(self.index_map.shape[0])


def _as_mask(mask, n: int) -> np.ndarray:
    arr = mask.mask if isinstance(mask, FovMask) else np.asarray(mask, dtype=bool)
    if arr.shape != (n,):
        raise SizeMismatch(f"mask length {arr.shape} does not match {n} points")
    return arr


def _affine_rows(m: np.ndarray, x: np.ndarray, y: np.ndarray, z: np.ndarray) -> list:
    # Rows 0-2 of m applied to [x, y, z, 1]: one float64 ufunc per term,
    # summed left to right as plain Python floats are.  A BLAS product would
    # wake OpenBLAS's helper thread and round through fused multiply-adds.
    # Python's sum() starts from 0, so a row whose terms are all -0.0 sums
    # to +0.0; adding +0.0 to the constant term does the same and changes
    # no other sum.
    return [r[0] * x + r[1] * y + r[2] * z + (r[3] + 0.0) for r in m[:3]]


def project_points(cloud: PointCloud, rig: CalibrationRig):
    """Project points to pixel coordinates.

    Returns (u, v, depth): pixel coordinates from the homogeneous chain
    P @ T @ [x, y, z, 1] and the camera-frame z after T.  Each product is
    rounded term by term, so the result is bit-equal to the same chain
    in plain Python floats.  Points with depth <= 0 are behind the
    camera; their u, v are NaN, not errors.
    """
    n = len(cloud)
    # Contiguous coordinate rows multiply faster than xyz's strided columns.
    cam = _affine_rows(rig.T, *np.ascontiguousarray(cloud.xyz.T))
    depth = cam[2]
    valid = depth > 0.0
    img = _affine_rows(rig.P, *(c[valid] for c in cam))
    u = np.full(n, np.nan)
    v = np.full(n, np.nan)
    # A pixel too far off-axis for a float is inf or NaN; it fails every
    # bound test, so it is simply out of view.
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        u[valid] = img[0] / img[2]
        v[valid] = img[1] / img[2]
    return u, v, depth


def _in_view(u: np.ndarray, v: np.ndarray, depth: np.ndarray, rig: CalibrationRig) -> FovMask:
    return FovMask((depth > 0.0) & (u >= 0.0) & (u < rig.width) & (v >= 0.0) & (v < rig.height))


def fov_mask(cloud: PointCloud, rig: CalibrationRig) -> FovMask:
    """True where depth > 0 and the pixel lands inside [0, W) x [0, H)."""
    return _in_view(*project_points(cloud, rig), rig)


def slice_cloud(cloud: PointCloud, mask):
    """Keep masked points in original order; returns (sliced, index_map)."""
    arr = _as_mask(mask, len(cloud))
    index_map = np.flatnonzero(arr)
    return cloud.take(index_map), index_map


def scatter(values: np.ndarray, index_map: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Write sliced `values` back into `out` at `index_map`; rest untouched."""
    values = np.asarray(values)
    if values.shape[0] != index_map.shape[0]:
        raise SizeMismatch(
            f"{values.shape[0]} values vs index map of {index_map.shape[0]}"
        )
    out[index_map] = values
    return out


def lift_probs(prob_map: np.ndarray, cloud: PointCloud, rig: CalibrationRig,
               sampling: str = "nearest"):
    """Lift an (H, W, C) probability map onto the cloud.

    Returns (probs, mask): an (N, C) float32 matrix whose in-FOV rows are
    sampled from the map and whose out-of-FOV rows are zero, plus the
    FovMask saying which rows are valid.
    """
    prob_map = np.asarray(prob_map)
    if prob_map.ndim != 3:
        raise DimMismatch(f"prob_map must be (H, W, C), got shape {prob_map.shape}")
    if prob_map.shape[0] != rig.height or prob_map.shape[1] != rig.width:
        raise DimMismatch(
            f"prob_map is {prob_map.shape[1]}x{prob_map.shape[0]} pixels, "
            f"rig expects {rig.width}x{rig.height}"
        )
    if sampling not in SAMPLING_MODES:
        raise ValueError(f"sampling must be one of {SAMPLING_MODES}")

    u, v, depth = project_points(cloud, rig)
    mask = _in_view(u, v, depth, rig)

    probs = np.zeros((len(cloud), prob_map.shape[2]), dtype=np.float32)
    idx = mask.index_map
    if idx.size:
        uu, vv = u[idx], v[idx]
        if sampling == "nearest":
            probs[idx] = prob_map[np.floor(vv).astype(np.int64), np.floor(uu).astype(np.int64)]
        else:
            probs[idx] = _bilinear(prob_map, uu, vv)
    return probs, mask


def _bilinear(prob_map: np.ndarray, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    # Sample at pixel centers (offset 0.5); weights of normalized rows stay
    # normalized because they are convex combinations.
    h, w = prob_map.shape[:2]
    x = np.clip(u - 0.5, 0.0, w - 1.0)
    y = np.clip(v - 0.5, 0.0, h - 1.0)
    x0 = np.floor(x).astype(np.int64)
    y0 = np.floor(y).astype(np.int64)
    x1 = np.minimum(x0 + 1, w - 1)
    y1 = np.minimum(y0 + 1, h - 1)
    fx = (x - x0)[:, None]
    fy = (y - y0)[:, None]
    top = prob_map[y0, x0] * (1 - fx) + prob_map[y0, x1] * fx
    bot = prob_map[y1, x0] * (1 - fx) + prob_map[y1, x1] * fx
    return (top * (1 - fy) + bot * fy).astype(np.float32)


def merge_lifted(probs_list, masks) -> tuple[np.ndarray, FovMask]:
    """Average per-point probabilities over several cameras.

    Each point's row is the mean over the cameras that see it; the merged
    mask is the union.  Points seen by no camera keep a zero row.
    """
    if not probs_list or len(probs_list) != len(masks):
        raise SizeMismatch("need one mask per probability matrix")
    shape = probs_list[0].shape
    for p in probs_list:
        if p.shape != shape:
            raise DimMismatch(f"probability shapes differ: {p.shape} vs {shape}")
    total = np.zeros(shape, dtype=np.float64)
    seen = np.zeros(shape[0], dtype=np.int64)
    for probs, mask in zip(probs_list, masks):
        m = _as_mask(mask, shape[0])
        total[m] += probs[m]
        seen += m
    out = np.zeros(shape, dtype=np.float32)
    covered = seen > 0
    out[covered] = (total[covered] / seen[covered, None]).astype(np.float32)
    return out, FovMask(covered)
