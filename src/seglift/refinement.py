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

The schemes are votes over a given neighbor graph: the (M, C)
probability rows of M points and an (M, K) `idx` whose row q holds the
positions, within those M rows, of point q's neighbors.  They return one
winning class per point; the graph may come from `KdTree.neighbors` or
from storage, and `graph_distances` rebuilds a stored graph's distances
with the search's own expression, so they are bit-equal.

Votes are summed by one `np.bincount` over the row-major (M, K) neighbor
layout, so each (point, class) bin adds in neighbor order and its float
sum is reproducible against a direct per-point reimplementation.
"""

from __future__ import annotations

import os
import sys
import threading
from dataclasses import dataclass, field
from importlib import import_module
from importlib.machinery import PathFinder
from importlib.util import module_from_spec
from types import ModuleType
from typing import TYPE_CHECKING

import numpy as np

from .errors import BadK, DimMismatch, EmptyInput

# Only build_tree needs scipy, and `_ckdtree` loads only its kd-tree
# extension; commands that build no tree never load scipy.
if TYPE_CHECKING:
    from scipy.spatial import cKDTree

TIE_BREAKS = ("lowest", "keep")

# Cap on (rows x probe width) gathered at once by a widening pass; a group
# of c coincident points would otherwise gather c x 2c candidates together.
_CHUNK_CANDIDATES = 1 << 19

_AVG_BLOCK = 2048  # rows that refine_confidence_avg sums at once

# numpy submodules that scipy's array-API shim imports, by listing numpy,
# while the kd-tree loads, and that nothing then uses; `_ckdtree` defers
# them (scipy does use numpy's random, linalg, fft and typing).
_DEFERRED = ("f2py", "testing", "ma", "polynomial", "ctypeslib", "char", "rec", "strings")
_LOAD_LOCK = threading.Lock()


@dataclass(eq=False)
class KdTree:
    """Immutable spatial index over (M, 3) points."""

    points: np.ndarray  # (M, 3) float64
    _kd: cKDTree = field(repr=False)

    def __len__(self) -> int:
        return self.points.shape[0]

    def neighbors(self, k: int, include_self: bool = True):
        """K nearest indexed points for every indexed point.

        Returns (indices, distances), both (M, k); indices are rows of
        `points`.
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


class _DeferredModule(ModuleType):
    """numpy's attribute for a submodule not yet imported: any use of an
    attribute imports it, under the import system's locks, and goes to it.
    Kept out of sys.modules, so `import numpy.ma.core` runs numpy.ma first."""

    def __getattribute__(self, attr):
        return getattr(import_module(ModuleType.__getattribute__(self, "__name__")), attr)

    def __setattr__(self, attr, value):
        setattr(import_module(ModuleType.__getattribute__(self, "__name__")), attr, value)


def _ckdtree() -> type:
    """scipy's cKDTree, loaded from its extension alone.

    scipy.spatial's __init__ would also load qhull, scipy.linalg (with
    scipy's own OpenBLAS) and scipy.special.  The module is registered
    under its own name, so a later `import scipy.spatial` binds the same
    class; should a later scipy move it, the public import serves.  A lock
    covers the check and the load: the module is registered before it runs.
    """
    name = "scipy.spatial._ckdtree"
    with _LOAD_LOCK:
        if name not in sys.modules:
            for short in _DEFERRED:
                sub = f"numpy.{short}"
                if sub not in sys.modules and PathFinder.find_spec(sub, np.__path__):
                    setattr(np, short, _DeferredModule(sub))
            import scipy
            spec = PathFinder.find_spec(name, [os.path.join(scipy.__path__[0], "spatial")])
            if spec is None:
                from scipy.spatial import cKDTree
                return cKDTree
            sys.modules[name] = module_from_spec(spec)
            try:
                spec.loader.exec_module(sys.modules[name])
            except BaseException:
                sys.modules.pop(name, None)
                raise
        return sys.modules[name].cKDTree


def build_tree(points: np.ndarray) -> KdTree:
    """Index (M, 3) float64 points, for example a cloud's in-view `xyz[mask.index_map]`."""
    pts = np.ascontiguousarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise DimMismatch(f"points must be (M, 3), got shape {pts.shape}")
    if pts.shape[0] == 0:
        raise EmptyInput("no points to index")
    # Sliding-midpoint splits build and query faster than median splits;
    # the contract order comes from `_probe`'s re-sort, not from the tree.
    return KdTree(points=pts, _kd=_ckdtree()(pts, balanced_tree=False))


def _graph_rows(rows: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """`rows` as float64, once its shape fits the (M, k) graph `idx` and k is odd."""
    rows = np.asarray(rows)
    if idx.ndim != 2 or rows.ndim != 2 or rows.shape[0] != idx.shape[0]:
        raise DimMismatch(f"rows {rows.shape} and graph {idx.shape} must be (M, C) and (M, k)")
    if idx.shape[1] % 2 == 0:
        raise BadK(f"k must be odd, got {idx.shape[1]}")
    return rows.astype(np.float64, copy=False)


def _votes(neighbor_labels: np.ndarray, c: int, weights=None) -> np.ndarray:
    """(M, c) per-row vote counts, or sums of `weights`, by neighbor label."""
    m = neighbor_labels.shape[0]
    bins = (np.arange(m)[:, None] * c + neighbor_labels).ravel()
    if weights is not None:
        weights = weights.ravel()
    return np.bincount(bins, weights, minlength=m * c).reshape(m, c)


def refine_majority(rows: np.ndarray, idx: np.ndarray, tie_break: str = "lowest") -> np.ndarray:
    """Most frequent argmax label among each point's neighbors in `idx`.

    Vote ties resolve to the lowest class id, or to the point's own label
    with tie_break="keep".
    """
    if tie_break not in TIE_BREAKS:
        raise ValueError(f"tie_break must be one of {TIE_BREAKS}")
    sub = _graph_rows(rows, idx)
    labels = np.argmax(sub, axis=1)
    votes = _votes(labels[idx], sub.shape[1])
    winners = votes.argmax(axis=1)  # first max -> lowest class id
    if tie_break == "keep":
        top = votes.max(axis=1, keepdims=True)
        tied = (votes == top).sum(axis=1) > 1
        winners = np.where(tied, labels, winners)
    return winners


def refine_distance_weighted(rows: np.ndarray, idx: np.ndarray, dist: np.ndarray) -> np.ndarray:
    """Argmax over classes of summed (1 - softmax(dist)) neighbor weights.

    Closer neighbors carry more weight; equal distances degrade to plain
    majority voting.  Ties resolve to the lowest class id.
    """
    sub = _graph_rows(rows, idx)
    labels = np.argmax(sub, axis=1)
    e = np.exp(dist - dist.max(axis=1, keepdims=True))
    weights = 1.0 - e / e.sum(axis=1, keepdims=True)
    neighbor_labels = labels[idx]
    acc = _votes(neighbor_labels, sub.shape[1], weights)
    # Only classes that received a vote compete; at k=1 every weight is
    # zero, which must still return the self label, not class 0.
    acc[_votes(neighbor_labels, sub.shape[1]) == 0] = -np.inf
    return acc.argmax(axis=1)


def refine_confidence_avg(rows: np.ndarray, idx: np.ndarray):
    """Unweighted mean of each point's neighbors' probability rows.

    Returns (labels, refined): the argmax of each averaged row (ties ->
    lowest class id) and the (M, C) float64 averaged rows.  Averaging
    normalized rows keeps the output normalized.
    """
    sub = _graph_rows(rows, idx)
    refined = np.zeros_like(sub)
    # Blocks keep each rank's gathered rows small; sums still add in rank order.
    for lo in range(0, len(sub), _AVG_BLOCK):
        out = refined[lo:lo + _AVG_BLOCK]
        for col in idx[lo:lo + _AVG_BLOCK].T.astype(np.intp, order="C"):
            out += sub.take(col, axis=0)
    refined /= idx.shape[1]
    return refined.argmax(axis=1), refined
