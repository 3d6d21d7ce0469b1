"""Soft-masked KNN features plus fused global (linear) and local attention.

One block runs, pre-norm: a linear-attention global branch beside a
per-patch softmax local branch over each point's K neighbors, attenuated by a
learnable rank-decay mask; the two are concatenated and projected back to the
hidden width, and a GELU feed-forward finishes the block. The global branch
uses positive `gelu(x) + 1` query/key features, so its denominator is
positive by construction. Both branches use width d = C/2, split across the
heads inside one engine op per branch (`linear_attention`, `knn_attention`).
A block's tensors are one flat `GlaLayerParams` record; its hyperparameters
come from `model.ModelConfig`, and `model.init_block` draws its weights.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Iterator

import numpy as np

from .geometry import KnnIndex
from .tensor import (
    Tensor,
    TensorError,
    add,
    concat_lastdim,
    gelu,
    knn_attention,
    layer_norm,
    linear_attention,
    matmul,
    scale,
    sigmoid,
    sub,
)

__all__ = ["GlaLayerParams", "soft_mask", "global_attention", "local_attention",
           "gla", "la2_layer"]


def soft_mask(s: Tensor, k: int, alpha: float) -> Tensor:
    """Rank weights w_r = sigmoid(-alpha * (r - sigmoid(s)*(K-1) - 1)), r=1..K.

    Strictly decreasing in rank for alpha > 0, every weight in (0, 1);
    differentiable in the shape-(1,) logit s through both sigmoid applications.
    """
    if k < 1:
        raise TensorError("soft mask needs K >= 1")
    ranks = Tensor(np.arange(1.0, k + 1.0))
    frac = sigmoid(s)                                  # sigma(s), shape (1,)
    thresh = add(scale(frac, k - 1.0), Tensor(np.ones(1)))
    arg = scale(sub(thresh, ranks), alpha)
    return sigmoid(arg)


@dataclass
class GlaLayerParams:
    """One block's learnable tensors in checkpoint order, then its head count
    and mask sharpness; d = C/2 split across `heads`. `model.init_block`
    builds one from a `ModelConfig`."""

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
    mask_s: Tensor        # soft-mask logit s, shape (1,)
    heads: int
    alpha: float

    def named_params(self) -> Iterator[tuple[str, Tensor]]:
        """The `Tensor` fields in declaration order, which is the checkpoint order."""
        for f in fields(self):
            if f.type == "Tensor":
                yield f.name, getattr(self, f.name)


def global_attention(h_bar: Tensor, p: GlaLayerParams) -> Tensor:
    """Linear-attention global branch: Qn (Kn^T V) / D + Qn, cost O(M*d*dh).

    Queries, keys and values are projected at [M, d]; one `linear_attention`
    op maps each head's queries and keys to the positive features
    gelu(x) + 1, row-normalized, so D = Qn (Kn^T 1) is positive and the
    division needs no guard. The M x M score matrix is never formed.
    """
    q = add(matmul(h_bar, p.w_qg), p.b_qg)
    k = add(matmul(h_bar, p.w_kg), p.b_kg)
    v = add(matmul(h_bar, p.w_vg), p.b_vg)
    return linear_attention(q, k, v, p.heads)


def local_attention(h_bar: Tensor, knn: KnnIndex, w: Tensor,
                    p: GlaLayerParams) -> Tensor:
    """Per-patch softmax attention over the K rank-weighted neighbors, O(M*K*d).

    Neighbor b of point a enters as w[b] * h_bar[idx[a, b]]. This relies on
    w_kl and w_vl carrying no bias: its key is w[b] * (h_bar W_kl)[idx[a, b]]
    (its value likewise), so keys and values are projected at [M, d] and all
    heads run as one sparse `knn_attention` op, in which w scales the
    [M, K] scores and attention weights; no [M, K, d] array is taped.
    """
    if h_bar.ndim != 2 or knn.m != h_bar.shape[0] or w.shape != (knn.k,):
        raise TensorError(f"local attention needs [M,C], [M,K] index, [K] weights, "
                          f"got {h_bar.shape}, {knn.idx.shape}, {w.shape}")
    q = add(matmul(h_bar, p.w_ql), p.b_ql)
    k = matmul(h_bar, p.w_kl)
    v = matmul(h_bar, p.w_vl)
    return knn_attention(q, k, v, knn.idx, w, p.heads)


def gla(h_bar: Tensor, knn: KnnIndex, p: GlaLayerParams) -> Tensor:
    """Fuse both branches: Linear(Concat(global, local)) back to width C."""
    g = global_attention(h_bar, p)
    l = local_attention(h_bar, knn, soft_mask(p.mask_s, knn.k, p.alpha), p)
    return add(matmul(concat_lastdim(g, l), p.w_out), p.b_out)


def la2_layer(h_prev: Tensor, knn: KnnIndex, p: GlaLayerParams) -> Tensor:
    """Pre-norm two-stage block: attention residual, then feed-forward residual."""
    h_bar = layer_norm(h_prev, p.ln1_gamma, p.ln1_beta)
    h_hat = add(gla(h_bar, knn, p), h_prev)
    h_bar2 = layer_norm(h_hat, p.ln2_gamma, p.ln2_beta)
    ff = add(matmul(gelu(add(matmul(h_bar2, p.ff_w1), p.ff_b1)), p.ff_w2), p.ff_b2)
    return add(ff, h_hat)
