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
    _map_in_order,
    add,
    concat_lastdim,
    concat_rows,
    gelu,
    knn_attention,
    layer_norm,
    linear,
    linear_attention,
    linear_attention_sums,
    row_blocks,
    soft_mask,
    take_rows,
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

    Queries, keys and values are projected at [M, d]; one `linear_attention`
    op maps each head's queries and keys to the positive features
    gelu(x) + 1, row-normalized, so D = Qn (Kn^T 1) is positive and the
    division needs no guard. The M x M score matrix is never formed.
    """
    return linear_attention(*_global_qkv(h_bar, p), p.heads)


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
              row_workers: int = 1) -> Tensor:
    """Pre-norm block: the fused global and local branches, Linear(Concat(global,
    local)) back to width C, as a residual, then a feed-forward residual.

    Only two steps read other rows than their own: the local branch reads
    its neighbors' keys and values, and the global branch sums over all rows
    (Kn^T V, Kn^T 1). So the rows are cut into `row_blocks(M, row_workers)`
    blocks, run on as many threads, the caller's among them; under an active
    GradTape that is one block on the caller. Stage A normalizes each block
    and projects it six ways. Between stages A and B the keys and values of
    both branches are joined and the global sums are formed once. Stage B
    runs the row side of both branches, fusion and the attention residual;
    stage C, once the projections are freed, the feed-forward residual. A
    row's arithmetic does not depend on the cut, so the output is the same
    bit for bit for any `row_workers`, and with one block nothing is copied.
    """
    blocks = row_blocks(h_prev.shape[0], row_workers)

    def project(rows):                                          # stage A
        h_bar = layer_norm(take_rows(h_prev, rows), p.ln1_gamma, p.ln1_beta)
        return _global_qkv(h_bar, p) + _local_qkv(h_bar, p)

    qkv = _map_in_order(project, blocks, len(blocks))
    k_g, v_g, k_l, v_l = (concat_rows([t[j] for t in qkv]) for j in (1, 2, 4, 5))
    queries = [(t[0], t[3]) for t in qkv]
    del qkv                                 # frees the blocks' keys and values once joined
    sums = linear_attention_sums(k_g, v_g, p.heads, row_workers)
    w = soft_mask(p.mask_s, knn.k, p.alpha)

    def attend(i):                                              # stage B
        rows, (q_g, q_l) = blocks[i], queries[i]
        g = linear_attention(q_g, k_g, v_g, p.heads, sums)
        l = knn_attention(q_l, k_l, v_l, knn.idx[rows], w, p.heads)
        return add(linear(concat_lastdim(g, l), p.w_out, p.b_out), take_rows(h_prev, rows))

    h_hat = _map_in_order(attend, range(len(blocks)), len(blocks))
    del queries, k_g, v_g, k_l, v_l, sums       # the feed-forward's peak holds none of them

    def feed_forward(h):                                        # stage C
        ff = linear(gelu(linear(layer_norm(h, p.ln2_gamma, p.ln2_beta),
                                p.ff_w1, p.ff_b1)), p.ff_w2, p.ff_b2)
        return add(ff, h)

    return concat_rows(_map_in_order(feed_forward, h_hat, len(blocks)))
