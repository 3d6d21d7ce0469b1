"""Point sets and exact K-nearest-neighbor indexing.

Neighbor order is fully deterministic: each point is its own first neighbor,
the rest follow in non-decreasing distance with ties broken by ascending
index. Both KNN paths rank by squared distances computed with identical
arithmetic, so the accelerated variant reproduces the brute-force output
bit for bit, ties included. The accelerated index is built once per point set
and K and kept there; coordinates and indices are read-only, so it stays valid.
An index tiled for a stack of samples (`KnnIndex.tile`) is kept on the index.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import cKDTree

from .tensor import Tensor, TensorError

__all__ = ["PointSet", "KnnIndex", "knn_indices", "knn_indices_accelerated",
           "relabel_knn"]


@dataclass(frozen=True)
class PointSet:
    """Mesh or point-cloud coordinates, shape [M, C_s] with C_s in {1,2,3}."""

    coords: Tensor
    _knn: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        c = self.coords
        if not isinstance(c, Tensor):
            raise TensorError("PointSet coords must be a Tensor")
        if c.ndim != 2 or c.shape[0] < 1 or c.shape[1] not in (1, 2, 3):
            raise TensorError(f"PointSet needs [M>=1, C_s in 1..3], got {c.shape}")
        c.data.flags.writeable = False

    @property
    def m(self) -> int:
        return self.coords.shape[0]


@dataclass(frozen=True)
class KnnIndex:
    """Neighbor index matrix [M, K]; row a starts with a itself."""

    idx: np.ndarray
    _tiles: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        idx = np.array(self.idx, dtype=np.int64)
        idx.flags.writeable = False
        object.__setattr__(self, "idx", idx)
        if idx.ndim != 2:
            raise TensorError(f"KnnIndex must be [M, K], got {idx.shape}")
        m, k = idx.shape
        if not 1 <= k <= m:
            raise TensorError(f"KnnIndex needs 1 <= K <= M, got K={k}, M={m}")
        if not np.array_equal(idx[:, 0], np.arange(m)):
            raise TensorError("KnnIndex row a must start with index a")
        ranked = np.sort(idx, axis=1)
        if np.any(ranked[:, :-1] == ranked[:, 1:]):
            raise TensorError("KnnIndex rows must not repeat an index")

    @property
    def m(self) -> int:
        return self.idx.shape[0]

    @property
    def k(self) -> int:
        return self.idx.shape[1]

    def tile(self, samples: int) -> "KnnIndex":
        """The index of `samples` copies of the point set stacked in order:
        row j*M + a holds row a's neighbors offset by j*M. Built once per
        count and kept beside this index; itself for one."""
        if samples == 1:
            return self
        if samples not in self._tiles:
            offsets = np.arange(0, samples * self.m, self.m)[:, None, None]
            self._tiles.setdefault(samples,
                                   KnnIndex((self.idx + offsets).reshape(-1, self.k)))
        return self._tiles[samples]


def _squared_distance_matrix(coords: np.ndarray) -> np.ndarray:
    # Differences first: (x_i - x_j)^2 is exactly symmetric in floats, so the
    # matrix (and every tie) comes out identical to per-pair evaluation.
    diff = coords[:, None, :] - coords[None, :, :]
    return np.einsum("ijc,ijc->ij", diff, diff)


def _self_first(order: np.ndarray, k: int) -> np.ndarray:
    m = order.shape[0]
    rows = np.arange(m)[:, None]
    rest = order[order != rows].reshape(m, m - 1)
    return np.concatenate([rows, rest[:, :k - 1]], axis=1)


def knn_indices(x: PointSet, k: int) -> KnnIndex:
    """Brute-force exact KNN from the full distance matrix."""
    m = x.m
    if not 1 <= k <= m:
        raise TensorError(f"need 1 <= K <= M, got K={k}, M={m}")
    d2 = _squared_distance_matrix(x.coords.data)
    ranks = np.broadcast_to(np.arange(m), (m, m))
    order = np.lexsort((ranks, d2), axis=-1)
    return KnnIndex(_self_first(order, k))


def knn_indices_accelerated(x: PointSet, k: int) -> KnnIndex:
    """Exact KNN via a kd-tree; output matches :func:`knn_indices` bit for bit.

    The tree supplies, per point, the K-th neighbor distance; every point
    within that (slightly inflated) radius is then re-ranked with the same
    squared-distance arithmetic and tie rule as the brute-force path, so
    boundary ties resolve identically. Later calls for the same point set
    and K return the index the first call built.
    """
    coords = x.coords.data
    m = x.m
    if not 1 <= k <= m:
        raise TensorError(f"need 1 <= K <= M, got K={k}, M={m}")
    if k in x._knn:
        return x._knn[k]
    tree = cKDTree(coords)
    cut, _ = tree.query(coords, k=[k])
    radius = cut[:, 0] * (1.0 + 1e-9) + 1e-12
    balls = tree.query_ball_point(coords, radius)

    idx = np.empty((m, k), dtype=np.int64)
    idx[:, 0] = np.arange(m)
    for a, ball in enumerate(balls):
        cand = np.asarray(ball, dtype=np.int64)
        diff = coords[a] - coords[cand]
        d2 = np.einsum("jc,jc->j", diff, diff)
        ranked = cand[np.lexsort((cand, d2))]
        idx[a, 1:] = ranked[ranked != a][:k - 1]
    return x._knn.setdefault(k, KnnIndex(idx))


def relabel_knn(knn: KnnIndex, perm: np.ndarray) -> KnnIndex:
    """Relabel a KNN matrix under a row permutation.

    `perm[i]` is the old index of new row i; the result indexes the permuted
    point set consistently without re-running the neighbor search (and hence
    without re-breaking any distance ties).
    """
    perm = np.asarray(perm, dtype=np.int64)
    inv = np.empty_like(perm)
    inv[perm] = np.arange(perm.size)
    return KnnIndex(inv[knn.idx[perm]])
