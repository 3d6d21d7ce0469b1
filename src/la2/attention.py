"""Soft-masked KNN features plus fused global (linear) and local attention.

One block runs, pre-norm: a linear-attention global branch beside a
per-patch softmax local branch over each point's K neighbors, attenuated by a
learnable rank-decay mask; the two are concatenated and projected back to the
hidden width, and a GELU feed-forward finishes the block. The global branch
uses positive `gelu(x) + 1` query/key features, so its denominator is
positive by construction. Both branches use width d = C/2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .geometry import KnnIndex
from .tensor import (
    Tensor,
    TensorError,
    add,
    concat_lastdim,
    div,
    gelu,
    knn_attention,
    layer_norm,
    matmul,
    reduce_sum,
    reshape,
    scale,
    sigmoid,
    split_lastdim,
    sub,
    transpose,
)

__all__ = ["SoftMaskParams", "GlaLayerParams", "soft_mask", "global_attention",
           "local_attention", "gla", "la2_layer"]


@dataclass
class SoftMaskParams:
    """Learnable neighbor-count mask: scalar s, fixed sharpness alpha > 0."""

    s: Tensor
    alpha: float

    def __post_init__(self):
        if self.alpha <= 0:
            raise TensorError("soft mask sharpness alpha must be positive")
        if self.s.size != 1:
            raise TensorError("soft mask parameter s must be a scalar tensor")

    def fraction(self) -> float:
        """Current effective-neighbor fraction sigmoid(s), in (0, 1)."""
        return 1.0 / (1.0 + math.exp(-self.s.item()))


def soft_mask(p: SoftMaskParams, k: int) -> Tensor:
    """Rank weights w_r = sigmoid(-alpha * (r - sigmoid(s)*(K-1) - 1)), r=1..K.

    Strictly decreasing in rank, every weight in (0, 1); differentiable in s
    through both sigmoid applications.
    """
    if k < 1:
        raise TensorError("soft mask needs K >= 1")
    ranks = Tensor(np.arange(1.0, k + 1.0))
    frac = sigmoid(p.s)                                # sigma(s), shape of s
    thresh = add(scale(frac, k - 1.0), Tensor(np.ones(1)))
    arg = scale(sub(reshape(thresh, (1,)), ranks), p.alpha)
    return sigmoid(arg)


@dataclass
class GlaLayerParams:
    """All learnables of one block; d = C/2 split across `heads`."""

    w_qg: Tensor
    b_qg: Tensor
    w_kg: Tensor
    b_kg: Tensor
    w_vg: Tensor
    b_vg: Tensor
    w_ql: Tensor
    b_ql: Tensor
    w_kl: Tensor          # neighbor-path projections carry no bias so a
    w_vl: Tensor          # zero-masked neighbor contributes exactly nothing
    w_out: Tensor
    b_out: Tensor
    ff_w1: Tensor
    ff_b1: Tensor
    ff_w2: Tensor
    ff_b2: Tensor
    ln1_gamma: Tensor
    ln1_beta: Tensor
    ln2_gamma: Tensor
    ln2_beta: Tensor
    mask: SoftMaskParams
    heads: int = 1

    @property
    def hidden(self) -> int:
        return self.w_qg.shape[0]

    @property
    def branch(self) -> int:
        return self.w_qg.shape[1]

    @classmethod
    def initialize(cls, rng: np.random.Generator, hidden: int, ff_hidden: int,
                   alpha: float, heads: int = 1) -> "GlaLayerParams":
        if hidden % 2 != 0:
            raise TensorError(f"hidden width must be even, got {hidden}")
        d = hidden // 2
        if d % heads != 0:
            raise TensorError(f"branch width {d} not divisible by {heads} heads")

        def w(fan_in, fan_out):
            bound = 1.0 / math.sqrt(fan_in)
            return Tensor(rng.uniform(-bound, bound, size=(fan_in, fan_out)),
                          requires_grad=True)

        def b(n):
            return Tensor(np.zeros(n), requires_grad=True)

        return cls(
            w_qg=w(hidden, d), b_qg=b(d),
            w_kg=w(hidden, d), b_kg=b(d),
            w_vg=w(hidden, d), b_vg=b(d),
            w_ql=w(hidden, d), b_ql=b(d),
            w_kl=w(hidden, d),
            w_vl=w(hidden, d),
            w_out=w(2 * d, hidden), b_out=b(hidden),
            ff_w1=w(hidden, ff_hidden), ff_b1=b(ff_hidden),
            ff_w2=w(ff_hidden, hidden), ff_b2=b(hidden),
            ln1_gamma=Tensor(np.ones(hidden), requires_grad=True),
            ln1_beta=b(hidden),
            ln2_gamma=Tensor(np.ones(hidden), requires_grad=True),
            ln2_beta=b(hidden),
            mask=SoftMaskParams(s=Tensor(np.zeros(1), requires_grad=True),
                                alpha=alpha),
            heads=heads,
        )

    def named_params(self) -> Iterator[tuple[str, Tensor]]:
        for name in ("w_qg", "b_qg", "w_kg", "b_kg", "w_vg", "b_vg",
                     "w_ql", "b_ql", "w_kl", "w_vl", "w_out", "b_out",
                     "ff_w1", "ff_b1", "ff_w2", "ff_b2",
                     "ln1_gamma", "ln1_beta", "ln2_gamma", "ln2_beta"):
            yield name, getattr(self, name)
        yield "mask_s", self.mask.s


def _positive_features(x: Tensor) -> Tensor:
    """Rows of phi(x) = gelu(x) + 1, each normalized to sum 1.

    gelu is bounded below by about -0.17, so every entry of phi is at least
    0.83 and every row sum is positive.
    """
    phi = add(gelu(x), Tensor(1.0))
    return div(phi, reduce_sum(phi, axis=-1, keepdims=True))


def _heads(x: Tensor, heads: int) -> list[Tensor]:
    if heads == 1:
        return [x]
    dh = x.shape[-1] // heads
    return [split_lastdim(x, h * dh, (h + 1) * dh) for h in range(heads)]


def _concat_all(parts: list[Tensor]) -> Tensor:
    out = parts[0]
    for p in parts[1:]:
        out = concat_lastdim(out, p)
    return out


def global_attention(h_bar: Tensor, p: GlaLayerParams) -> Tensor:
    """Linear-attention global branch: Qn (Kn^T V) / D + Qn, cost O(M*d^2).

    Qn and Kn are the positive features gelu(x) + 1 of each head's queries
    and keys, row-normalized; D = Qn (Kn^T 1) is then positive, so the
    division needs no guard. The M x M score matrix is never formed.
    """
    m = h_bar.shape[0]
    q = add(matmul(h_bar, p.w_qg), p.b_qg)
    k = add(matmul(h_bar, p.w_kg), p.b_kg)
    v = add(matmul(h_bar, p.w_vg), p.b_vg)
    ones = Tensor(np.ones((m, 1)))

    outs = []
    for qh, kh, vh in zip(_heads(q, p.heads), _heads(k, p.heads), _heads(v, p.heads)):
        qn = _positive_features(qh)
        kn = _positive_features(kh)
        knt = transpose(kn)
        num = matmul(qn, matmul(knt, vh))            # [M, dh] via [dh, dh]
        den = matmul(qn, matmul(knt, ones))          # [M, 1]
        outs.append(add(div(num, den), qn))
    return _concat_all(outs)


def local_attention(h_bar: Tensor, knn: KnnIndex, w: Tensor,
                    p: GlaLayerParams) -> Tensor:
    """Per-patch softmax attention over the K rank-weighted neighbors, O(M*K*d).

    Neighbor b of point a enters as w[b] * h_bar[idx[a, b]]. This relies on
    w_kl and w_vl carrying no bias: its key is w[b] * (h_bar W_kl)[idx[a, b]]
    (its value likewise), so keys and values are projected at [M, d] and each
    head runs as one sparse `knn_attention` op, in which w scales the [M, K]
    scores and attention weights; no [M, K, d] array is taped.
    """
    if h_bar.ndim != 2 or knn.m != h_bar.shape[0] or w.shape != (knn.k,):
        raise TensorError(f"local attention needs [M,C], [M,K] index, [K] weights, "
                          f"got {h_bar.shape}, {knn.idx.shape}, {w.shape}")
    q = add(matmul(h_bar, p.w_ql), p.b_ql)
    k = matmul(h_bar, p.w_kl)
    v = matmul(h_bar, p.w_vl)
    return _concat_all([knn_attention(qh, kh, vh, knn.idx, w) for qh, kh, vh in
                        zip(_heads(q, p.heads), _heads(k, p.heads), _heads(v, p.heads))])


def gla(h_bar: Tensor, knn: KnnIndex, p: GlaLayerParams) -> Tensor:
    """Fuse both branches: Linear(Concat(global, local)) back to width C."""
    g = global_attention(h_bar, p)
    l = local_attention(h_bar, knn, soft_mask(p.mask, knn.k), p)
    return add(matmul(concat_lastdim(g, l), p.w_out), p.b_out)


def la2_layer(h_prev: Tensor, knn: KnnIndex, p: GlaLayerParams) -> Tensor:
    """Pre-norm two-stage block: attention residual, then feed-forward residual."""
    h_bar = layer_norm(h_prev, p.ln1_gamma, p.ln1_beta)
    h_hat = add(gla(h_bar, knn, p), h_prev)
    h_bar2 = layer_norm(h_hat, p.ln2_gamma, p.ln2_beta)
    ff = add(matmul(gelu(add(matmul(h_bar2, p.ff_w1), p.ff_b1)), p.ff_w2), p.ff_b2)
    return add(ff, h_hat)
