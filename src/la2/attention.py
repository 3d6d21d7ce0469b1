"""One LA2 block: fused global (linear) and soft-masked local attention.

One block runs, pre-norm: a linear-attention global branch beside a
per-patch softmax local branch over each point's K neighbors, attenuated by a
learnable rank-decay mask (the engine op `soft_mask`); the two are
concatenated and projected back to the hidden width, and a GELU feed-forward
finishes the block. The global branch uses positive `gelu(x) + 1` query/key
features, so its denominator is positive by construction. Both branches use
width d = C/2, split across the heads inside one engine op per branch
(`linear_attention`, `knn_attention`).
A block's tensors are one flat `GlaLayerParams` record; its hyperparameters
come from `model.ModelConfig`, and `model.init_block` draws its weights.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Iterator

from .geometry import KnnIndex
from .tensor import (
    Tensor,
    add,
    concat_lastdim,
    gelu,
    knn_attention,
    layer_norm,
    linear,
    linear_attention,
    linear_attention_sums,
    row_stage,
    soft_mask,
)

__all__ = ["GlaLayerParams", "global_attention", "local_attention", "la2_layer"]


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


def _global_qkv(h_bar: Tensor, p: GlaLayerParams) -> tuple[Tensor, Tensor, Tensor]:
    return (linear(h_bar, p.w_qg, p.b_qg), linear(h_bar, p.w_kg, p.b_kg),
            linear(h_bar, p.w_vg, p.b_vg))


def _local_qkv(h_bar: Tensor, p: GlaLayerParams) -> tuple[Tensor, Tensor, Tensor]:
    return linear(h_bar, p.w_ql, p.b_ql), linear(h_bar, p.w_kl), linear(h_bar, p.w_vl)


def global_attention(h_bar: Tensor, p: GlaLayerParams) -> Tensor:
    """Linear-attention global branch: Qn (Kn^T V) / D + Qn, cost O(M*d*dh).

    Queries, keys and values are projected at [M, d]; the key sums and one
    `linear_attention` op map each head's queries and keys to the positive
    features gelu(x) + 1, row-normalized, so D = Qn (Kn^T 1) is positive and
    the division needs no guard. The M x M score matrix is never formed.
    """
    q, k, v = _global_qkv(h_bar, p)
    return linear_attention(q, linear_attention_sums(k, v, p.heads))


def local_attention(h_bar: Tensor, knn: KnnIndex, w: Tensor,
                    p: GlaLayerParams) -> Tensor:
    """Per-patch softmax attention over the K rank-weighted neighbors, O(M*K*d).

    Neighbor b of point a enters as w[b] * h_bar[idx[a, b]]. This relies on
    w_kl and w_vl carrying no bias: its key is w[b] * (h_bar W_kl)[idx[a, b]]
    (its value likewise), so keys and values are projected at [M, d] and all
    heads run as one sparse `knn_attention` op, in which w scales the
    [M, K] scores and attention weights; no [M, K, d] array is taped.
    """
    return knn_attention(*_local_qkv(h_bar, p), knn.idx, w, p.heads)


def la2_layer(h_prev: Tensor, knn: KnnIndex, p: GlaLayerParams,
              row_workers: int = 1, split_taped: bool = False) -> Tensor:
    """Pre-norm block: the fused global and local branches, Linear(Concat(global,
    local)) back to width C, as a residual, then a feed-forward residual.

    Only two steps read other rows than their own: the local branch reads
    its neighbors' keys and values, and the global branch sums over all rows
    (Kn^T V, Kn^T 1). So the block runs as two `row_stage`s on the row
    blocks of [S?, M, C], dealt to `row_workers` threads, the caller's among
    them; under an active tape the rows are cut only with `split_taped`.
    Stage A normalizes each block's rows and projects them six ways. The
    global key side is then formed once, on the calling thread, from the
    joined keys and values. Stage B runs the row side of both branches,
    fusion, the attention residual and the feed-forward residual.

    A row's arithmetic does not depend on the cut, so the output is the same
    bit for bit on any blocks. Under an active tape each stage with several
    blocks is one entry whose rule adds the blocks' gradients of what they
    read whole in block order; the taped blocks depend on M, C and
    `split_taped` alone, so the gradients are the same for any `row_workers`.

    `h_prev` [S, M, C] stacks S samples on one point set: a row block cuts
    every sample's points alike, each sample reads its own neighbors through
    `knn` and has global sums of its own, so each sample's rows are those of
    its own pass, bit for bit.
    """
    c = h_prev.shape[-1]

    def project(rows, h):                                       # stage A
        h_bar = layer_norm(h, p.ln1_gamma, p.ln1_beta)
        return _global_qkv(h_bar, p) + _local_qkv(h_bar, p)

    q_g, k_g, v_g, q_l, k_l, v_l = row_stage(project, (h_prev,), c, row_workers, split_taped)
    sums = linear_attention_sums(k_g, v_g, p.heads)
    w = soft_mask(p.mask_s, knn.k, p.alpha)

    def attend(rows, q_g, q_l, h):                              # stage B
        g = linear_attention(q_g, sums)
        l = knn_attention(q_l, k_l, v_l, knn.idx[rows], w, p.heads)
        h = add(linear(concat_lastdim(g, l), p.w_out, p.b_out), h)
        ff = linear(gelu(linear(layer_norm(h, p.ln2_gamma, p.ln2_beta),
                                p.ff_w1, p.ff_b1)), p.ff_w2, p.ff_b2)
        return (add(ff, h),)

    return row_stage(attend, (q_g, q_l, h_prev), c, row_workers, split_taped)[0]
