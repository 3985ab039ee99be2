"""KNN neighborhoods and the three schemes that repair lifted labels.

Neighborhood contract: each query point's K neighbors are ordered by
ascending Euclidean distance; exact ties are broken by ascending point
index, except that the query point itself always comes first (so with
self-inclusion, neighbor 0 is the query at distance 0 and K=1 is the
identity refinement).  The tie rules make results independent of thread
count, build order, and the underlying search structure.

Exactness rule: each row's kd-tree probe is put in (squared distance,
not-self, index) order, lexsorting only the probes that are not in it
already, and widened, doubling, until it extends past the tie group at
the cut: its farthest candidate lies strictly beyond the last neighbor
kept, or it holds every point.

The schemes take the (M, C) probability rows of the M indexed points, in
`index_map` order, and return labels for all N points of the cloud.

A `Neighborhood` hands the schemes one graph, stored or searched on
first use, in place of a KdTree; `graph_distances` rebuilds a stored
graph's distances with the search's own expression, so they are bit-equal.

Votes are summed by one `np.bincount` over the row-major (M, K) neighbor
layout, so each (point, class) bin adds in neighbor order and its float
sum is reproducible against a direct per-point reimplementation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .core import IGNORE_ID, PointCloud
from .errors import BadK, DimMismatch, EmptyInput
from .projection import _as_mask

# scipy.spatial takes most of the package's import time and only build_tree
# needs it, so it imports it there; commands that build no tree never load it.
if TYPE_CHECKING:
    from scipy.spatial import cKDTree

TIE_BREAKS = ("lowest", "keep")

# Cap on (rows x probe width) gathered at once by a widening pass; a group
# of c coincident points would otherwise gather c x 2c candidates together.
_CHUNK_CANDIDATES = 1 << 19


@dataclass(eq=False)
class KdTree:
    """Immutable spatial index over the masked subset of a cloud."""

    points: np.ndarray     # (M, 3) float64, the indexed subset
    index_map: np.ndarray  # (M,) positions of the subset in the original cloud
    n_total: int           # size of the original cloud
    _kd: cKDTree = field(repr=False)

    def __len__(self) -> int:
        return self.points.shape[0]

    def neighbors(self, k: int, include_self: bool = True):
        """K nearest indexed points for every indexed point.

        Returns (indices, distances), both (M, k); indices are positions
        in the indexed subset (apply `index_map` for original-cloud ids).
        """
        m = len(self)
        skip = 0 if include_self else 1  # the query leads its row; drop it when excluded
        if not 1 <= k <= m - skip:
            raise BadK(f"k={k} outside [1, {m - skip}] for {m} indexed points")

        idx = np.empty((m, k), dtype=np.int64)
        d2 = np.empty((m, k), dtype=np.float64)
        rows = np.arange(m)
        kq = k + skip + 1
        while rows.size:
            kq = min(kq, m)
            step = max(1, _CHUNK_CANDIDATES // kq)
            pending = [self._probe(rows[i:i + step], kq, k, skip, idx, d2)
                       for i in range(0, rows.size, step)]
            rows = np.concatenate(pending)
            kq *= 2
        return idx, np.sqrt(d2)

    def _probe(self, rows, kq, k, skip, idx, d2):
        """Query `rows` with `kq` candidates; fill the settled rows, return the rest."""
        m = len(self)
        _, raw = self._kd.query(self.points[rows], k=kq)
        raw = raw.reshape(rows.size, kq)
        rd2 = _squared_distances(self.points, raw, rows)
        # A probe whose d2 strictly increases and that leads with the query
        # is already in contract order; re-sort only the others.
        resort = (rd2[:, 1:] <= rd2[:, :-1]).any(axis=1) | (raw[:, 0] != rows)
        if resort.any():
            r = np.flatnonzero(resort)
            sub, sub_d2 = raw[r], rd2[r]
            order = np.lexsort((sub, sub != rows[r, None], sub_d2), axis=-1)
            raw[r] = np.take_along_axis(sub, order, axis=1)
            rd2[r] = np.take_along_axis(sub_d2, order, axis=1)
        # Every point outside the probe is at least as far as its last
        # candidate, so a strictly farther last candidate settles the row.
        done = (rd2[:, -1] > rd2[:, skip + k - 1]) | (kq == m)
        idx[rows[done]] = raw[done, skip:skip + k]
        d2[rows[done]] = rd2[done, skip:skip + k]
        return rows[~done]


def _squared_distances(points: np.ndarray, idx: np.ndarray, rows) -> np.ndarray:
    """Squared distances from `points[rows]` to their candidates `points[idx]`.

    Summed as (dx² + dy²) + dz² over contiguous coordinate columns: the
    order of numpy's sum over an (..., 3) axis, which the oracles use.
    """
    x, y, z = (np.ascontiguousarray(points[:, axis]) for axis in range(3))
    d2 = (x[idx] - x[rows, None]) ** 2
    d2 += (y[idx] - y[rows, None]) ** 2
    d2 += (z[idx] - z[rows, None]) ** 2
    return d2


def graph_distances(points: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """Distances along a stored (M, k) graph, bit-equal to those `KdTree.neighbors` returns."""
    return np.sqrt(_squared_distances(points, idx, slice(None)))


@dataclass(eq=False)
class Neighborhood:
    """The neighbor graph of one (k, include_self) over an indexed subset; refines like a KdTree.

    The graph is either given (`idx`, plus `dist` when a scheme needs
    distances) or searched in `tree` by the first `neighbors` call and kept.
    """

    index_map: np.ndarray               # (M,) positions of the subset in the original cloud
    n_total: int                        # size of the original cloud
    k: int
    include_self: bool
    tree: KdTree | None = None
    idx: np.ndarray | None = None       # (M, k) positions in the indexed subset
    dist: np.ndarray | None = None      # (M, k) distances

    def neighbors(self, k: int, include_self: bool = True):
        if (k, include_self) != (self.k, self.include_self):
            raise BadK(f"graph holds k={self.k}, include_self={self.include_self}; "
                       f"asked for k={k}, include_self={include_self}")
        if self.idx is None:
            self.idx, self.dist = self.tree.neighbors(k, include_self)
        return self.idx, self.dist


def build_tree(cloud: PointCloud, mask=None) -> KdTree:
    """Index the masked points (all points if mask is None)."""
    n = len(cloud)
    if mask is None:
        index_map = np.arange(n)
    else:
        index_map = np.flatnonzero(_as_mask(mask, n))
    if index_map.size == 0:
        raise EmptyInput("mask selects no points")
    from scipy.spatial import cKDTree

    pts = np.ascontiguousarray(cloud.xyz[index_map], dtype=np.float64)
    # Sliding-midpoint splits build and query faster than median splits;
    # the contract order comes from `_probe`'s re-sort, not from the tree.
    return KdTree(points=pts, index_map=index_map, n_total=n,
                  _kd=cKDTree(pts, balanced_tree=False))


def _indexed_rows(rows: np.ndarray, tree: KdTree, k: int) -> np.ndarray:
    """`rows` as float64, once its shape (one row per indexed point) and `k` are checked."""
    rows = np.asarray(rows)
    m = tree.index_map.shape[0]
    if rows.ndim != 2 or rows.shape[0] != m:
        raise DimMismatch(f"rows must be ({m}, C), one per indexed point, got {rows.shape}")
    if k % 2 == 0:
        raise BadK(f"k must be odd, got {k}")
    return rows.astype(np.float64, copy=False)


def _scatter_labels(tree: KdTree, winners: np.ndarray) -> np.ndarray:
    out = np.full(tree.n_total, IGNORE_ID, dtype=np.uint16)
    out[tree.index_map] = winners.astype(np.uint16)
    return out


def _votes(neighbor_labels: np.ndarray, c: int, weights=None) -> np.ndarray:
    """(M, c) per-row vote counts, or sums of `weights`, by neighbor label."""
    m = neighbor_labels.shape[0]
    bins = (np.arange(m)[:, None] * c + neighbor_labels).ravel()
    if weights is not None:
        weights = weights.ravel()
    return np.bincount(bins, weights, minlength=m * c).reshape(m, c)


def refine_majority(rows: np.ndarray, tree: KdTree, k: int,
                    include_self: bool = True, tie_break: str = "lowest") -> np.ndarray:
    """Most frequent argmax label among the K neighbors.

    Vote ties resolve to the lowest class id, or to the point's own label
    with tie_break="keep".  Points outside the indexed subset get IGNORE_ID.
    """
    if tie_break not in TIE_BREAKS:
        raise ValueError(f"tie_break must be one of {TIE_BREAKS}")
    sub = _indexed_rows(rows, tree, k)
    labels = np.argmax(sub, axis=1)
    idx, _ = tree.neighbors(k, include_self)
    votes = _votes(labels[idx], sub.shape[1])
    winners = votes.argmax(axis=1)  # first max -> lowest class id
    if tie_break == "keep":
        top = votes.max(axis=1, keepdims=True)
        tied = (votes == top).sum(axis=1) > 1
        winners = np.where(tied, labels, winners)
    return _scatter_labels(tree, winners)


def refine_distance_weighted(rows: np.ndarray, tree: KdTree, k: int,
                             include_self: bool = True) -> np.ndarray:
    """Argmax over classes of summed (1 - softmax(distances)) neighbor weights.

    Closer neighbors carry more weight; equal distances degrade to plain
    majority voting.  Ties resolve to the lowest class id.
    """
    sub = _indexed_rows(rows, tree, k)
    labels = np.argmax(sub, axis=1)
    idx, dist = tree.neighbors(k, include_self)
    e = np.exp(dist - dist.max(axis=1, keepdims=True))
    weights = 1.0 - e / e.sum(axis=1, keepdims=True)
    neighbor_labels = labels[idx]
    acc = _votes(neighbor_labels, sub.shape[1], weights)
    # Only classes that received a vote compete; at k=1 every weight is
    # zero, which must still return the self label, not class 0.
    acc[_votes(neighbor_labels, sub.shape[1]) == 0] = -np.inf
    return _scatter_labels(tree, acc.argmax(axis=1))


def refine_confidence_avg(rows: np.ndarray, tree: KdTree, k: int,
                          include_self: bool = True):
    """Unweighted mean of the K neighbors' probability rows.

    Returns (labels, refined): the argmax of each averaged row (ties ->
    lowest class id) and the (M, C) float64 averaged rows of the indexed
    points.  Averaging normalized rows keeps the output normalized.
    """
    sub = _indexed_rows(rows, tree, k)
    idx, _ = tree.neighbors(k, include_self)
    acc = np.zeros_like(sub)
    for j in range(k):
        acc += sub[idx[:, j]]
    refined = acc / k
    return _scatter_labels(tree, refined.argmax(axis=1)), refined
