"""Runtime measurements for the attention kinds, plus a dense reference.

Timings are the median of R repeats after one warm-up. The full-pairwise
reference materializes the M x M score matrix (forward-only, plain numpy) to
expose the quadratic cost the linear global branch avoids.
"""

from __future__ import annotations

import math
import time
from typing import Callable

import numpy as np

from .attention import (GlaLayerParams, global_attention, local_attention,
                        soft_mask)
from .geometry import PointSet, knn_indices_accelerated
from .tensor import Tensor, TensorError

__all__ = ["time_median", "bench_global", "bench_local", "bench_pairwise",
           "full_pairwise_attention", "check_memory_cap"]

DEFAULT_MEMORY_CAP = 2 << 30  # bytes of the dominant working array


def check_memory_cap(nbytes: int, cap: int = DEFAULT_MEMORY_CAP) -> None:
    if nbytes > cap:
        raise TensorError(
            f"benchmark size needs {nbytes / 2**20:.0f} MiB, cap is {cap / 2**20:.0f} MiB")


def time_median(fn: Callable[[], object], repeats: int = 5) -> float:
    fn()  # warm-up
    times = []
    for _ in range(repeats):
        tic = time.perf_counter()
        fn()
        times.append(time.perf_counter() - tic)
    return float(np.median(times))


def _layer_params(rng: np.random.Generator, hidden: int) -> GlaLayerParams:
    return GlaLayerParams.initialize(rng, hidden, 2 * hidden, alpha=10.0)


def bench_global(m: int, hidden: int, repeats: int = 5,
                 cap: int = DEFAULT_MEMORY_CAP) -> float:
    """Median forward time of the linear global branch at M points."""
    check_memory_cap(m * hidden * 8 * 4, cap)
    rng = np.random.default_rng(m + hidden)
    p = _layer_params(rng, hidden)
    h = Tensor(rng.standard_normal((m, hidden)))
    return time_median(lambda: global_attention(h, p), repeats)


def bench_local(m: int, k: int, hidden: int, repeats: int = 5,
                cap: int = DEFAULT_MEMORY_CAP) -> float:
    """Median forward time of the local branch (soft mask, projections, sparse patch attention)."""
    check_memory_cap(m * k * hidden * 8 * 3, cap)
    rng = np.random.default_rng(m * 31 + k)
    p = _layer_params(rng, hidden)
    h = Tensor(rng.standard_normal((m, hidden)))
    pts = PointSet(Tensor(rng.uniform(0.0, 1.0, size=(m, 2))))
    knn = knn_indices_accelerated(pts, k)

    return time_median(lambda: local_attention(h, knn, soft_mask(p.mask, k), p),
                       repeats)


def full_pairwise_attention(h: np.ndarray, w_q: np.ndarray, w_k: np.ndarray,
                            w_v: np.ndarray) -> np.ndarray:
    """Dense softmax attention over all M^2 pairs (reference, forward-only)."""
    q = h @ w_q
    k = h @ w_k
    v = h @ w_v
    scores = (q @ k.T) / math.sqrt(q.shape[1])
    scores -= scores.max(axis=1, keepdims=True)
    e = np.exp(scores)
    att = e / e.sum(axis=1, keepdims=True)
    return att @ v


def bench_pairwise(m: int, hidden: int, repeats: int = 5,
                   cap: int = DEFAULT_MEMORY_CAP) -> float:
    """Median forward time of the dense full-pairwise reference at M points."""
    check_memory_cap(m * m * 8 * 2, cap)
    rng = np.random.default_rng(m * 17 + hidden)
    d = hidden // 2
    h = rng.standard_normal((m, hidden))
    w_q = rng.standard_normal((hidden, d)) / math.sqrt(hidden)
    w_k = rng.standard_normal((hidden, d)) / math.sqrt(hidden)
    w_v = rng.standard_normal((hidden, d)) / math.sqrt(hidden)
    return time_median(lambda: full_pairwise_attention(h, w_q, w_k, w_v), repeats)

