"""Lift per-pixel class probabilities onto points via the camera model.

Pixel lookup uses nearest-pixel (floor) sampling by default so lifted
rows are exact rows of the input map; bilinear sampling is available as
an option.  Every pixel a point samples must hold a probability row
(entries in [0, 1], summing to 1 within ROW_SUM_TOLERANCE); pixels no
point samples are not checked.  Pixel bounds are half-open:
[0, W) x [0, H).  There is no occlusion test; points behind foreground
surfaces still receive the foreground pixel's distribution, which is
exactly the label bleeding the KNN refinement stage repairs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import CalibrationRig, PointCloud
from .errors import DimMismatch, NotADistribution, SizeMismatch

SAMPLING_MODES = ("nearest", "bilinear")

# How far a sampled teacher row's sum may stray from 1.
ROW_SUM_TOLERANCE = 1e-3


@dataclass
class FovMask:
    """Boolean per-point mask plus the positions of its true entries."""

    mask: np.ndarray  # (N,) bool

    def __post_init__(self):
        self.mask = np.asarray(self.mask, dtype=bool)
        if self.mask.ndim != 1:
            raise ValueError(f"mask must be 1-D, got shape {self.mask.shape}")
        self.index_map = np.flatnonzero(self.mask)  # strictly increasing

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


def lift_probs(prob_map: np.ndarray, cloud: PointCloud, rig: CalibrationRig,
               sampling: str = "nearest"):
    """Lift an (H, W, C) probability map onto the cloud.

    Returns (rows, mask): the (M, C) float32 rows sampled from the map for
    the M points in view, in `mask.index_map` order, and the FovMask
    saying which points they belong to.
    """
    prob_map = np.asarray(prob_map)
    if prob_map.ndim != 3 or prob_map.shape[2] == 0:
        raise DimMismatch(f"prob_map must be (H, W, C) with C >= 1, got shape {prob_map.shape}")
    if prob_map.shape[0] != rig.height or prob_map.shape[1] != rig.width:
        raise DimMismatch(
            f"prob_map is {prob_map.shape[1]}x{prob_map.shape[0]} pixels, "
            f"rig expects {rig.width}x{rig.height}"
        )
    if sampling not in SAMPLING_MODES:
        raise ValueError(f"sampling must be one of {SAMPLING_MODES}")

    u, v, depth = project_points(cloud, rig)
    mask = _in_view(u, v, depth, rig)
    u, v = u[mask.index_map], v[mask.index_map]
    if sampling == "nearest":
        rows = _sampled_rows(prob_map, np.floor(v).astype(np.int64), np.floor(u).astype(np.int64))
    else:
        rows = _bilinear(prob_map, u, v)
    return rows.astype(np.float32, copy=False), mask


def check_rows(rows: np.ndarray, where) -> np.ndarray:
    """`rows`, once each is a probability row; else NotADistribution names the first bad one.

    Each entry must lie in [0, 1] (NaN does not) and the row must sum to 1
    within ROW_SUM_TOLERANCE.  Bad row i is named as `where(i)`.
    """
    with np.errstate(invalid="ignore", over="ignore"):
        sums = rows.sum(axis=1, dtype=np.float64)
        bad = ~(((rows >= 0.0) & (rows <= 1.0)).all(axis=1)
                & (np.abs(sums - 1.0) <= ROW_SUM_TOLERANCE))
    if bad.any():
        i = int(np.argmax(bad))
        raise NotADistribution(
            f"{where(i)} is not a probability row: entries in "
            f"[{rows[i].min()}, {rows[i].max()}], sum {sums[i]}")
    return rows


def _sampled_rows(prob_map: np.ndarray, y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The map rows at pixels (x, y), each checked as a probability row."""
    return check_rows(prob_map[y, x], lambda i: f"pixel (u={x[i]}, v={y[i]})")


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
    c00, c01, c10, c11 = (_sampled_rows(prob_map, yy, xx)
                          for yy, xx in ((y0, x0), (y0, x1), (y1, x0), (y1, x1)))
    fx = (x - x0)[:, None]
    fy = (y - y0)[:, None]
    top = c00 * (1 - fx) + c01 * fx
    bot = c10 * (1 - fx) + c11 * fx
    return (top * (1 - fy) + bot * fy).astype(np.float32)


def merge_lifted(rows_list, masks) -> tuple[np.ndarray, FovMask]:
    """Average per-camera lifted rows over the cameras that see each point.

    `rows_list[i]` holds camera i's rows in the order of its mask's true
    entries.  Returns the rows of the union mask, each the float64 mean of
    its point's rows in camera order, as float32, and the union FovMask.
    """
    if not rows_list or len(rows_list) != len(masks):
        raise SizeMismatch("need one mask per probability matrix")
    masks = [_as_mask(m, len(masks[0])) for m in masks]
    union = FovMask(np.logical_or.reduce(masks))
    classes = np.shape(rows_list[0])[-1:]
    total = np.zeros((union.count, *classes), dtype=np.float64)
    seen = np.zeros(union.count, dtype=np.int64)
    for rows, m in zip(rows_list, masks):
        want = (int(m.sum()), *classes)
        if np.shape(rows) != want:
            raise DimMismatch(f"lifted rows of shape {np.shape(rows)}, expected {want}")
        here = m[union.mask]  # this camera's points among the union's
        total[here] += rows
        seen += here
    return (total / seen[:, None]).astype(np.float32), union
