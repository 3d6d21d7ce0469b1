"""Runtime measurements for the attention kinds, plus a dense reference.

Timings are the median of R repeats after one warm-up. The full-pairwise
reference materializes the M x M score matrix (forward-only, plain numpy) to
expose the quadratic cost the linear global branch avoids. Branch blocks take
every hyperparameter but the width from the `ModelConfig` defaults.
"""

from __future__ import annotations

import math
import time
from typing import Callable

import numpy as np

from .attention import global_attention, local_attention
from .geometry import PointSet, knn_indices_accelerated
from .model import ModelConfig, init_block
from .tensor import Tensor, TensorError, soft_mask

__all__ = ["time_median", "bench_case", "full_pairwise_attention", "check_memory_cap"]

MEMORY_CAP = 2 << 30  # bytes of the dominant working array


def check_memory_cap(kind: str, m: int, k: int, hidden: int) -> None:
    """Reject a benchmark case before its dominant working array is allocated;
    `k` counts for the local kind only."""
    nbytes = 8 * {"global": m * hidden * 4, "local": m * k * hidden * 3,
                  "pairwise": m * m * 2}[kind]
    if nbytes > MEMORY_CAP:
        raise TensorError(f"benchmark size needs {nbytes / 2**20:.0f} MiB, "
                          f"cap is {MEMORY_CAP / 2**20:.0f} MiB")


def time_median(fn: Callable[[], object], repeats: int) -> float:
    fn()  # warm-up
    times = []
    for _ in range(repeats):
        tic = time.perf_counter()
        fn()
        times.append(time.perf_counter() - tic)
    return float(np.median(times))


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


def bench_case(kind: str, m: int, k: int, hidden: int, repeats: int) -> float:
    """Median forward time at M points of the linear global branch, the local
    branch (soft mask, projections, sparse patch attention over K neighbors)
    or the dense full-pairwise reference, by kind; `k` counts for the local
    kind only."""
    check_memory_cap(kind, m, k, hidden)
    if kind == "pairwise":
        rng = np.random.default_rng(m * 17 + hidden)
        h = rng.standard_normal((m, hidden))
        w_q, w_k, w_v = (rng.standard_normal((hidden, hidden // 2)) / math.sqrt(hidden)
                         for _ in range(3))
        return time_median(lambda: full_pairwise_attention(h, w_q, w_k, w_v), repeats)
    rng = np.random.default_rng(m * 31 + k if kind == "local" else m + hidden)
    p = init_block(rng, ModelConfig(1, 2, 1, hidden=hidden))
    h = Tensor(rng.standard_normal((m, hidden)))
    if kind == "global":
        return time_median(lambda: global_attention(h, p), repeats)
    knn = knn_indices_accelerated(PointSet(Tensor(rng.uniform(0.0, 1.0, size=(m, 2)))), k)
    return time_median(
        lambda: local_attention(h, knn, soft_mask(p.mask_s, k, p.alpha), p), repeats)
