"""Dense float64 tensors with tape-based reverse-mode automatic differentiation.

All values live in C-contiguous float64 arrays. Operations run eagerly; while
a ``GradTape`` is active (entered as a context manager) every op whose inputs
require gradients pushes a backward rule onto the tape, and ``backward(loss,
tape)`` replays those rules in reverse and returns the leaf gradients.

The ops are the model's kernels and nothing more. Any op that produces a
non-finite value on finite inputs raises ``TensorError`` instead of
propagating NaN/Inf.

Each attention branch is one fused op with a hand-written backward rule and
its heads handled inside: ``linear_attention`` (global) and ``knn_attention``
(local, over each row's K indexed rows). The learnable rank mask
(``soft_mask``) and the training loss (``relative_l2_loss``) are one op each
as well. ``recompute(fn, x, params)`` tapes a whole sub-computation as one
entry and re-runs it in backward, trading a second forward pass for a tape
that keeps none of its intermediates. ``row_stage`` runs a row-wise
sub-computation on row blocks across threads; under a tape each block records
on a sub-tape of its own, and the stage is one entry that replays them.
"""

from __future__ import annotations

import ctypes
import functools
import os
import platform
import threading
from contextlib import contextmanager
from typing import Callable, Iterable

import numpy as np
from scipy.sparse import csr_matrix
from scipy.special import erf as _erf

__all__ = [
    "Tensor",
    "GradTape",
    "TensorError",
    "linear",
    "knn_attention",
    "linear_attention",
    "linear_attention_sums",
    "layer_norm",
    "soft_mask",
    "gelu",
    "add",
    "concat_lastdim",
    "row_stage",
    "relative_l2_loss",
    "recompute",
    "backward",
]

_INV_SQRT2 = 1.0 / np.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / np.sqrt(2.0 * np.pi)
# Rows per block of knn_attention's score gather: 1 MiB at K=8, dh=32, and no
# slower than one whole [M*H, K, dh] gather at M=4096.
_SCORE_BLOCK_ROWS = 512
_LN_EPS = 1e-5  # added to layer_norm's variance
# Row blocks start at multiples of this. A BLAS matrix-vector product (numpy
# runs [M, n] @ [n, 1] as one) sums a row in an order that depends on the
# row's place in a group of rows, 4 in OpenBLAS's Haswell kernel; a block that
# starts on a group boundary sees every row in the place the whole array does.
_ROW_ALIGN = 64
# Points x width that each row block holds at least (`_row_blocks`), that
# one sample reaches for `training.train` to run samples on threads, and that
# `training.evaluate` stacks samples up to.
# Two threads against one at C=64 (2 CPUs, 1 BLAS thread): forward
# passes (two sweeps, BENCH_12.json) ran 0.92-1.16x at M=256, where the GIL
# dominates and the tail latency of 16-sample calls rose; 1.28-1.58x at
# M=576, 1.44-1.72x at 1024, 1.84-1.95x at 2304 and 1.66-1.85x at 4096.
# Training with recomputed blocks on two threads against serial full-tape
# training (BENCH_14.json) ran 0.84x at M=256, 1.05x at 576, 1.20x at 1024
# and 1.44x at 4096. One sample's forward (L=4, K=8) on two row blocks
# against one, medians of 15 interleaved calls in three sweeps, ran
# 0.89-1.15x at M=576 (blocks of 256 and 320 rows), 0.98-1.13x at 784,
# 1.12-1.14x at 1024, 1.26-1.34x at 1600, 1.37-1.46x at 2304 and
# 1.67-1.76x at 4096; so rows split in two from M=1024.
_THREAD_MIN_ACTIVATIONS = 512 * 64
# Row blocks under a tape that says `split_rows` (`row_stage`). A taped M=4096 step
# (L=4, C=64, K=8, forward, loss and backward) on 1, 2, 4 and 8 blocks,
# medians of 10 interleaved runs in two sweeps: on 2 threads 517/516,
# 334/313, 331/327 and 325/323 ms; on one CPU (taskset -c 0) 505/490,
# 511/486, 556/506 and 549/480 ms (2 CPUs, 1 BLAS thread). Past two, blocks
# gained nothing there; each adds its own Python ops, and its own full-size
# key and value gradients for the stage to add. A taped pass adds its
# blocks' gradients in block order, so this count may not follow the CPUs;
# an untaped pass cuts one block per CPU (`_cpus`), as its bytes do not
# depend on the cut.
_MAX_ROW_BLOCKS = 2
# glibc's malloc thresholds for the process (`_pin_malloc_thresholds`).
# Left dynamic, glibc returns a freed heap top to the kernel past a trim
# threshold of twice the largest mmapped block freed so far (about 16 MiB
# at M=4096), so every sample, and every block that `recompute` re-runs,
# faults its memory back in at about 1.5 us per 4 KiB page: 90-157k minor
# faults per 8-sample M=4096 training batch (L=4, C=64, 2 sample threads).
# 32 MiB is the mmap threshold's dynamic ceiling. With it, trim thresholds
# of 32, 64, 128 and 256 MiB gave 65-123k, 43-427, 44-1699 and 41-941
# faults per such batch (6 batches each); 64 MiB is the least that keeps a
# step's freed memory mapped.
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_MMAP_THRESHOLD_BYTES = 32 << 20
_TRIM_THRESHOLD_BYTES = 64 << 20


def _pin_malloc_thresholds(libc=None) -> None:
    """Pin glibc's mmap and trim thresholds at `_MMAP_THRESHOLD_BYTES` and
    `_TRIM_THRESHOLD_BYTES`, so freed step memory stays mapped for the next
    sample, in every thread's arena. Does nothing off glibc. The mmap
    threshold goes first: setting either alone turns the dynamic rule off
    and leaves the mmap threshold at 128 KiB, so if glibc rejects it the
    trim threshold is left alone too. `libc` defaults to the process's C
    library."""
    if platform.libc_ver()[0] != "glibc":
        return
    if libc is None:
        libc = ctypes.CDLL(None)
        libc.mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
        libc.mallopt.restype = ctypes.c_int
    if libc.mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD_BYTES):
        libc.mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD_BYTES)


_pin_malloc_thresholds()


class TensorError(ValueError):
    """Shape mismatch, invalid construction, bad index, or numeric overflow."""


class Tensor:
    """Dense row-major float64 array, optionally a gradient target.

    ``data`` is immutable by convention after construction; gradients are the
    map that :func:`backward` returns.
    """

    __slots__ = ("data", "requires_grad")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.array(data, dtype=np.float64, order="C")
        if not np.all(np.isfinite(arr)):
            raise TensorError("tensor constructed from non-finite values")
        self.data = arr
        self.requires_grad = bool(requires_grad)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise TensorError(f"item() on tensor of shape {self.shape}")
        return float(self.data.reshape(()))

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


# ---------------------------------------------------------------------------
# Tape machinery
# ---------------------------------------------------------------------------

class _ActiveTape(threading.local):
    """Each thread's active tape: ops record only on their own thread's tape.
    And the CPUs that `_map_in_order` handed the thread's job (`_cpus`),
    None outside any job."""

    tape: "GradTape | None" = None
    cpus: "int | None" = None


_ACTIVE_TAPE = _ActiveTape()


class GradTape:
    """Ordered record of executed ops with their backward rules.

    Entries are ``(out, inputs, rule)``; ``rule(out_grad)`` returns one
    gradient array (or None) per input. A `row_stage` entry's `out` is a
    tuple of tensors, and its rule takes a tuple of their gradients, None
    for one that the loss does not reach. A tape records the ops of the thread
    that entered it, and at most one tape is active per thread. `backward`
    consumes the tape, popping each entry and so freeing what it saved as it
    goes; a second backward on it is an error.

    Two flags, which change no gradient's bytes, say how a pass records:
    `recompute` (`model.forward`) and `split_rows` (`row_stage`).
    """

    def __init__(self, recompute: bool = False, split_rows: bool = False):
        self._entries: list[tuple[Tensor, tuple[Tensor, ...], Callable]] = []
        self._consumed = False
        self.recompute = recompute
        self.split_rows = split_rows

    def __len__(self) -> int:
        return len(self._entries)

    def __enter__(self) -> "GradTape":
        if _ACTIVE_TAPE.tape is not None:
            raise TensorError("a GradTape is already active")
        _ACTIVE_TAPE.tape = self
        return self

    def __exit__(self, *exc) -> None:
        _ACTIVE_TAPE.tape = None


def _result(data: np.ndarray, inputs: tuple[Tensor, ...],
            rule: Callable | None) -> Tensor:
    """Wrap an op result, check finiteness, and record on the active tape."""
    if not np.all(np.isfinite(data)):
        raise TensorError("operation produced non-finite values (overflow?)")
    out = Tensor.__new__(Tensor)
    out.data = np.ascontiguousarray(data)
    out.requires_grad = any(t.requires_grad for t in inputs)
    tape = _ACTIVE_TAPE.tape
    if rule is not None and tape is not None and out.requires_grad:
        tape._entries.append((out, inputs, rule))
    return out


@contextmanager
def _on_tape(tape: "GradTape | None"):
    """Run the body with `tape` (None for none, or a fresh sub-tape) as this
    thread's tape, then restore the thread's own; yields `tape`."""
    saved, _ACTIVE_TAPE.tape = _ACTIVE_TAPE.tape, tape
    try:
        yield tape
    finally:
        _ACTIVE_TAPE.tape = saved


def _cpus() -> int:
    """The CPUs this thread's work may use: the share `_map_in_order` handed
    its job; outside any job, the CPUs the process may run on, or 1 where
    that set cannot be read."""
    if _ACTIVE_TAPE.cpus is None:
        return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    return _ACTIVE_TAPE.cpus


def _map_in_order(fn, items, workers: int) -> list:
    """``[fn(x) for x in items]``, with the items dealt round-robin to
    `workers` threads, the calling thread among them, and no more threads
    than items. Each job gets ``max(1, _cpus() // workers)`` of the caller's
    CPUs as its `_cpus`; the caller's share is restored afterwards.

    Every thread is joined before this returns or raises. A thread stops at
    its first error, and the error of the lowest failing position is raised,
    the one a serial loop would raise.
    """
    results = [None] * len(items)
    errors = {}
    share = max(1, _cpus() // workers)

    def run(first):
        _ACTIVE_TAPE.cpus = share
        for j in range(first, len(items), workers):
            try:
                results[j] = fn(items[j])
            except BaseException as exc:
                errors[j] = exc
                return

    threads = []
    saved = _ACTIVE_TAPE.cpus
    try:
        for w in range(1, min(workers, len(items))):
            threads.append(threading.Thread(target=run, args=(w,)))
            threads[-1].start()
        run(0)
    finally:
        _ACTIVE_TAPE.cpus = saved
        for t in threads:
            t.join()
    if errors:
        raise errors[min(errors)]
    return results


def _outputs(out) -> tuple[Tensor, ...]:
    """A tape entry's outputs: its `out`, or the tuple a `row_stage` entry holds."""
    return out if isinstance(out, tuple) else (out,)


def _reads(tape: GradTape, known: Iterable[Tensor] = ()) -> list[Tensor]:
    """The tensors that `tape` read, need a gradient, and are neither in
    `known` nor produced by an entry on the tape, in the order first read."""
    skip = {id(t) for t in known} | {id(t) for o, _, _ in tape._entries for t in _outputs(o)}
    return list({id(t): t for _, inputs, _ in tape._entries for t in inputs
                 if t.requires_grad and id(t) not in skip}.values())


def _backprop(tape: GradTape, grads: dict[int, np.ndarray]) -> dict[int, np.ndarray]:
    """Reverse-replay `tape` from the seed gradients `grads`, keyed by tensor
    identity, which it updates and returns. It pops each entry before its
    rule runs; the caller keeps the leaves alive, so no key is reused."""
    entries = tape._entries
    while entries:
        out, inputs, rule = entries.pop()
        if isinstance(out, tuple):
            gout = tuple(grads.pop(id(t), None) for t in out)
            if all(g is None for g in gout):
                continue
        else:
            gout = grads.pop(id(out), None)
            if gout is None:
                continue
        for t, g in zip(inputs, rule(gout)):
            if g is None or not t.requires_grad:
                continue
            acc = grads.get(id(t))
            grads[id(t)] = (np.ascontiguousarray(g, dtype=np.float64) if acc is None
                            else acc + g)
    return grads


def backward(loss: Tensor, tape: GradTape) -> dict[Tensor, np.ndarray]:
    """Reverse-replay `tape` from scalar `loss`; return leaf gradients.

    The map holds every requires_grad leaf tensor that appears on the tape,
    keyed by tensor identity: its accumulated gradient if reachable from the
    loss, zeros otherwise. A rule may hand one array to several inputs (`add`
    does), so gradients accumulate out of place and never write through it.
    The replay consumes the tape (see `GradTape`): it is empty afterwards.
    """
    if loss.data.size != 1:
        raise TensorError(f"loss must be scalar, got shape {loss.shape}")
    if tape._consumed:
        raise TensorError("tape already consumed by backward")
    if not any(t is loss for out, _, _ in tape._entries for t in _outputs(out)):
        raise TensorError("loss was not recorded on this tape")
    leaves = _reads(tape)

    tape._consumed = True
    grads = _backprop(tape, {id(loss): np.ones_like(loss.data)})
    return {t: grads[id(t)] if id(t) in grads else np.zeros_like(t.data) for t in leaves}


def _check_tensor(t, name: str) -> None:
    if not isinstance(t, Tensor):
        raise TensorError(f"{name} must be a Tensor, got {type(t).__name__}")


# ---------------------------------------------------------------------------
# Linear algebra and structure ops
# ---------------------------------------------------------------------------

def linear(x: Tensor, w: Tensor, b: Tensor | None = None) -> Tensor:
    """``x @ w + b`` with the bias added in place into the product, so no
    pre-bias copy is taped. `x` is [..., n], `w` is [n, out] and `b` is [out]
    or None; the input gradient is formed only if `x` requires one."""
    inputs = (x, w) if b is None else (x, w, b)
    for t, name in zip(inputs, "xwb"):
        _check_tensor(t, name)
    if x.ndim < 2 or w.ndim != 2 or x.shape[-1] != w.shape[0]:
        raise TensorError(f"linear needs x [..., n] and w [n, out], got {x.shape}, {w.shape}")
    if b is not None and b.shape != (w.shape[1],):
        raise TensorError(f"linear bias must have shape ({w.shape[1]},), got {b.shape}")
    xd, wd, need_gx = x.data, w.data, x.requires_grad
    out = xd @ wd
    if b is not None:
        out += b.data

    def rule(g):
        gx = g @ wd.T if need_gx else None
        gw = xd.reshape(-1, xd.shape[-1]).T @ g.reshape(-1, g.shape[-1])
        return (gx, gw) if b is None else (gx, gw, g.sum(axis=tuple(range(g.ndim - 1))))

    return _result(out, inputs, rule)


def concat_lastdim(a: Tensor, b: Tensor) -> Tensor:
    """Concatenate along the last axis; leading dims must match exactly."""
    _check_tensor(a, "a")
    _check_tensor(b, "b")
    if a.shape[:-1] != b.shape[:-1]:
        raise TensorError(f"concat leading dims disagree: {a.shape} vs {b.shape}")
    d1 = a.shape[-1]

    def rule(g):
        return g[..., :d1], g[..., d1:]

    return _result(np.concatenate([a.data, b.data], axis=-1), (a, b), rule)


def _row_blocks(m: int, width: int, parts: int) -> list[slice]:
    """Up to `parts` contiguous ranges that cover the m rows (points) of an
    [S?, m, width] activation, at most one per `_THREAD_MIN_ACTIVATIONS`
    points x width and at least one, each starting at a multiple of
    `_ROW_ALIGN`, the last one taking the remainder."""
    units = m // _ROW_ALIGN
    parts = min(parts, m * width // _THREAD_MIN_ACTIVATIONS, units)
    if parts <= 1:
        return [slice(None)]
    bounds = [_ROW_ALIGN * (units * i // parts) for i in range(parts)] + [m]
    return [slice(a, b) for a, b in zip(bounds, bounds[1:])]


def _untaped(data: np.ndarray, requires_grad: bool) -> Tensor:
    out = Tensor.__new__(Tensor)
    out.data = data
    out.requires_grad = requires_grad
    return out


def _take_rows(x: Tensor, rows: slice) -> Tensor:
    """The `rows` of `x` on its point axis, -2, a block from `_row_blocks`,
    as an untaped view; `x` itself for ``slice(None)``."""
    _check_tensor(x, "x")
    return x if rows == slice(None) else _untaped(x.data[..., rows, :], x.requires_grad)


def _concat_rows(parts: list[Tensor]) -> Tensor:
    """Row blocks joined in order on the point axis, untaped; the one block
    itself if there is only one, so a pass on one block copies nothing."""
    if len(parts) == 1:
        return parts[0]
    return _untaped(np.concatenate([t.data for t in parts], axis=-2),
                    any(t.requires_grad for t in parts))


# ---------------------------------------------------------------------------
# Normalization and attention
# ---------------------------------------------------------------------------

def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor) -> Tensor:
    """Per-last-axis normalization (biased variance + `_LN_EPS`), affine scale/shift.
    Backward recomputes the normalized input from `x`, which the tape holds."""
    _check_tensor(x, "x")
    _check_tensor(gamma, "gamma")
    _check_tensor(beta, "beta")
    c = x.shape[-1]
    if c < 1 or gamma.shape != (c,) or beta.shape != (c,):
        raise TensorError(
            f"layer_norm over width {c} needs gamma/beta of shape ({c},)")
    xd, gd = x.data, gamma.data
    mu = xd.mean(axis=-1, keepdims=True)
    xhat = xd - mu
    var = (xhat * xhat).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + _LN_EPS)
    xhat *= inv

    def rule(g):
        xhat = xd - mu                              # the forward's, recomputed
        xhat *= inv
        g2 = g.reshape(-1, c)
        dbeta = g2.sum(axis=0)
        dgamma = (g2 * xhat.reshape(-1, c)).sum(axis=0)
        gh = g * gd
        xhat *= (gh * xhat).mean(axis=-1, keepdims=True)
        gh -= gh.mean(axis=-1, keepdims=True)
        gh -= xhat
        gh *= inv
        return gh, dgamma, dbeta

    xhat *= gd
    xhat += beta.data
    return _result(xhat, (x, gamma, beta), rule)


def _check_heads(heads: int, d: int) -> None:
    if heads < 1 or d % heads != 0:
        raise TensorError(f"width {d} does not split into {heads} heads")


def knn_attention(q: Tensor, k: Tensor, v: Tensor, idx: np.ndarray, w: Tensor,
                  heads: int) -> Tensor:
    """Rank-weighted softmax attention of each row over its K indexed rows, per head.

    out[a] = sum_b att[a, b] * w[b] * v[idx[a, b]], where att[a] is the
    max-subtracted softmax over b of w[b] * q[a] . k[idx[a, b]] / sqrt(dh),
    taken separately in each head's dh = d/heads columns.
    `q` is [S?, M, d], `k` and `v` are [S?, N, d] with the same leading axis,
    `idx` is integer [M, K] into [0, N) and `w` is [K]; each of S stacked
    samples reads its own k and v through the one `idx`. Head h of row a of
    sample s is row (s*M + a)*H + h of the [S*M*H, dh] view, so its index is
    (s*N + idx)*H + h. The weighted attention matrix is CSR with that
    pattern, so the output and the q, k, v gradients are sparse products; the
    backward rule keeps [S*M*H, K] arrays, never an [M, K, d] gather.
    """
    for t, name in ((q, "q"), (k, "k"), (v, "v"), (w, "w")):
        _check_tensor(t, name)
    idx = np.asarray(idx)
    if idx.ndim != 2 or k.ndim not in (2, 3) or not np.issubdtype(idx.dtype, np.integer):
        raise TensorError(f"knn_attention needs k [S?,N,d] and integer idx [M,K], got "
                          f"{k.shape}, {idx.dtype} {idx.shape}")
    (m, kk), (n, d) = idx.shape, k.shape[-2:]
    if (q.shape != (*k.shape[:-2], m, d) or v.shape != k.shape or w.shape != (kk,)
            or kk < 1 or d < 1):
        raise TensorError(f"knn_attention needs q {(*k.shape[:-2], m, d)}, v {k.shape}, "
                          f"w ({kk},) and K, d >= 1, got {q.shape}, {v.shape}, {w.shape}")
    _check_heads(heads, d)
    if idx.size and (idx.min() < 0 or idx.max() >= n):
        raise TensorError(f"knn_attention index out of range [0, {n})")
    dh = d // heads
    samples = k.shape[0] if k.ndim == 3 else 1
    rows = samples * m * heads
    starts = np.arange(0, samples * n * heads, n * heads)[:, None, None, None]
    idx = (idx[:, None, :] * heads + np.arange(heads)[:, None] + starts).reshape(rows, kk)
    qd, kd, vd = (t.data.reshape(-1, dh) for t in (q, k, v))
    wd = w.data
    inv_sqrt_d = 1.0 / np.sqrt(dh)
    c = wd * inv_sqrt_d
    # Scores are a product, then np.sum's pairwise order over dh; the model
    # amplifies last-bit score changes (einsum's order moved an M=4096 output
    # 2.5e-10). The [rows, K, dh] gather is formed a block of rows at a time,
    # which leaves each row's sum order as it is and caps the transient at the
    # block's size.
    dots = np.empty((rows, kk))
    for r in range(0, rows, _SCORE_BLOCK_ROWS):
        kq = kd[idx[r:r + _SCORE_BLOCK_ROWS]]
        kq *= qd[r:r + _SCORE_BLOCK_ROWS, None, :]
        kq.sum(axis=-1, out=dots[r:r + _SCORE_BLOCK_ROWS])
    s = dots * c
    e = np.exp(s - s.max(axis=1, keepdims=True))
    att = e / e.sum(axis=1, keepdims=True)
    cols = idx.reshape(-1)
    indptr = np.arange(0, rows * kk + 1, kk)
    a_mat = csr_matrix(((att * wd).reshape(-1), cols, indptr), shape=(rows, len(kd)))

    def rule(g):
        g = g.reshape(rows, dh)
        gaw = np.einsum("mkd,md->mk", vd[idx], g)     # d out / d (att * w)
        gatt = gaw * wd
        gs = att * (gatt - (gatt * att).sum(axis=1, keepdims=True))
        r_mat = csr_matrix(((gs * c).reshape(-1), cols, indptr), shape=a_mat.shape)
        dw = (gaw * att).sum(axis=0) + (gs * dots).sum(axis=0) * inv_sqrt_d
        return ((r_mat @ kd).reshape(q.shape), (r_mat.T @ qd).reshape(k.shape),
                (a_mat.T @ g).reshape(v.shape), dw)

    return _result((a_mat @ vd).reshape(q.shape), (q, k, v, w), rule)


def _split_heads(x: np.ndarray, heads: int) -> np.ndarray:
    """[..., M, d] -> [..., H, M, dh], a view."""
    return x.reshape(*x.shape[:-1], heads, x.shape[-1] // heads).swapaxes(-2, -3)


def _merge_heads(x: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """[..., H, M, dh] -> `shape`, [..., M, d]."""
    return x.swapaxes(-2, -3).reshape(shape)


def _positive_features(x: np.ndarray):
    """Rows of gelu(x) + 1, each normalized to sum 1, with the gelu CDF and
    the row sums that backward needs: (cdf, features, sums)."""
    cdf = _gelu_cdf(x)
    phi = x * cdf
    phi += 1.0
    s = phi.sum(axis=-1, keepdims=True)
    phi /= s
    return cdf, phi, s


def _features_grad(x, cdf, n, s, gn, shape):
    """Gradient of x, merged to `shape` [..., M, d], through n = phi /
    sum(phi), phi = gelu(x) + 1, from the [..., H, M, dh] gradient gn of the
    features n (`_positive_features`)."""
    gphi = gn - (gn * n).sum(axis=-1, keepdims=True)
    gphi /= s
    return _merge_heads(_gelu_grad(x, cdf, gphi), shape)


def linear_attention_sums(k: Tensor, v: Tensor, heads: int) -> Tensor:
    """The key side of `linear_attention`, formed once over all N rows of
    `k` and `v` [S?, N, d]: each head's key features Kn, and the sums Kn^T V
    stacked over (Kn^T 1)^T, as one [S?, H, dh + 1, dh] tensor, with k's
    leading axis: each of S stacked samples has sums of its own. Every query
    row reads the same sums, so any number of query row blocks share one and
    add their gradients of it; the rule turns that small gradient into the
    keys' and values' gradients once."""
    for t, name in ((k, "k"), (v, "v")):
        _check_tensor(t, name)
    if k.ndim not in (2, 3) or v.shape != k.shape or min(k.shape) < 1:
        raise TensorError(f"linear_attention needs equal [S?,N,d] k and v with N, d >= 1, "
                          f"got {k.shape}, {v.shape}")
    d = k.shape[-1]
    _check_heads(heads, d)
    dh = d // heads
    rows = k.data.reshape(*k.shape[:-1], heads, dh)                  # [S?, N, H, dh]
    kcdf, kn, ks = (a.swapaxes(-2, -3) for a in _positive_features(rows))
    vh = _split_heads(v.data, heads)

    def rule(g):
        gkv, gzt = np.ascontiguousarray(g[..., :dh, :]), g[..., dh:, :]
        gkn = vh @ gkv.swapaxes(-1, -2) + gzt
        return (_features_grad(rows.swapaxes(-2, -3), kcdf, kn, ks, gkn, k.shape),
                _merge_heads(kn @ gkv, v.shape))

    sums = np.concatenate([kn.swapaxes(-1, -2) @ vh, kn.sum(axis=-2, keepdims=True)],
                          axis=-2)
    return _result(sums, (k, v), rule)


def linear_attention(q: Tensor, sums: Tensor) -> Tensor:
    """Positive-feature linear attention per head: Qn (Kn^T V) / (Qn Kn^T 1) + Qn.

    `q` is [S?, M, d]; `sums`, from `linear_attention_sums(k, v, heads)`, is
    the key side, over the keys and values [S?, N, d], and its leading axis
    must be q's: each of S stacked samples reads its own sums. Head h owns
    columns [h*dh, (h+1)*dh) with dh = d/heads, viewed as [S?, H, M, dh]. Qn
    and Kn are the rows of gelu(x) + 1 of each head's queries and keys, each
    normalized to sum 1. gelu is bounded below by about -0.17, so every
    feature is at least 0.83 and the denominator is positive by
    construction. Cost O((M + N)*d*dh): the M x N score matrix is never
    formed. Each output row depends on its own query row and the sums only.
    The denominator, a BLAS matrix-vector product whose sum order depends on
    a row's place, is formed per sample and head. The op is taped on
    (q, sums), with a hand-written backward rule.
    """
    _check_tensor(q, "q")
    if not (isinstance(sums, Tensor) and sums.ndim in (3, 4)
            and sums.shape[-2] == sums.shape[-1] + 1):
        raise TensorError("linear_attention needs the [S?, H, dh + 1, dh] sums from "
                          "linear_attention_sums")
    heads, dh = sums.shape[-3], sums.shape[-1]
    if q.ndim != sums.ndim - 1 or q.shape[:-2] != sums.shape[:-3] \
            or q.shape[-1] != heads * dh:
        lead = "".join(f"{s}," for s in sums.shape[:-3])
        raise TensorError(f"linear_attention needs q [{lead}M,{heads * dh}], got {q.shape}")
    kv = np.ascontiguousarray(sums.data[..., :dh, :])        # [S?, H, dh, dh]: Kn^T V
    zt = np.ascontiguousarray(sums.data[..., dh:, :])        # [S?, H, 1, dh]: (Kn^T 1)^T
    qx = _split_heads(q.data, heads)
    qcdf, qn, qs = _positive_features(qx)
    den = qn @ zt.swapaxes(-1, -2)                  # [S?, H, M, 1]
    ratio = (qn @ kv) / den

    def rule(g):
        gh = _split_heads(g, heads)
        gnum = gh / den
        gden = -(gh * ratio).sum(axis=-1, keepdims=True) / den
        gqn = gh + gnum @ kv.swapaxes(-1, -2) + gden * zt
        gsums = np.concatenate([qn.swapaxes(-1, -2) @ gnum,
                                gden.swapaxes(-1, -2) @ qn], axis=-2)
        return _features_grad(qx, qcdf, qn, qs, gqn, q.shape), gsums

    return _result(_merge_heads(ratio + qn, q.shape), (q, sums), rule)


# ---------------------------------------------------------------------------
# Elementwise ops and the loss
# ---------------------------------------------------------------------------

def _sigmoid(x: np.ndarray) -> np.ndarray:
    """Logistic function of an array, without overflow at any finite x."""
    y = np.empty_like(x)
    pos = x >= 0
    y[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    y[~pos] = ex / (1.0 + ex)
    return y


def soft_mask(s: Tensor, k: int, alpha: float) -> Tensor:
    """Rank weights w_r = sigmoid(-alpha * (r - sigmoid(s)*(K-1) - 1)), r=1..K.

    Strictly decreasing in rank for alpha > 0, every weight in (0, 1);
    differentiable in the shape-(1,) logit s through both sigmoids.
    """
    _check_tensor(s, "s")
    if k < 1:
        raise TensorError("soft mask needs K >= 1")
    alpha = float(alpha)
    frac = _sigmoid(s.data)                          # sigma(s), shape (1,)
    with np.errstate(over="ignore", invalid="ignore"):
        arg = (frac * (k - 1.0) + 1.0 - np.arange(1.0, k + 1.0)) * alpha
    if not np.all(np.isfinite(arg)):
        raise TensorError("soft mask argument is not finite (alpha too large?)")
    w = _sigmoid(arg)

    def rule(g):
        gs = g * w * (1.0 - w) * alpha
        if k != 1:                  # a one-element sum would turn -0.0 into 0.0
            gs = gs.sum(axis=0, keepdims=True)
        return (gs * (k - 1.0) * frac * (1.0 - frac),)

    return _result(w, (s,), rule)


# GELU kernels: the same steps in the same order, in place in arrays of their own.

def _gelu_cdf(x: np.ndarray) -> np.ndarray:
    """Standard normal CDF, 0.5 * (1 + erf(x / sqrt 2)); gelu(x) = x * cdf(x)."""
    cdf = x * _INV_SQRT2
    _erf(cdf, out=cdf)
    cdf += 1.0
    cdf *= 0.5
    return cdf


def _gelu_grad(x: np.ndarray, cdf: np.ndarray, g: np.ndarray) -> np.ndarray:
    """g * d gelu / dx = g * (cdf(x) + x * pdf(x))."""
    d = -0.5 * x
    d *= x
    np.exp(d, out=d)
    d *= _INV_SQRT_2PI
    d *= x
    d += cdf
    d *= g
    return d


def gelu(x: Tensor) -> Tensor:
    """Exact (erf-based) GELU."""
    _check_tensor(x, "x")
    xd = x.data
    cdf = _gelu_cdf(xd)
    return _result(xd * cdf, (x,), lambda g: (_gelu_grad(xd, cdf, g),))


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum of two tensors of one shape."""
    _check_tensor(a, "a")
    _check_tensor(b, "b")
    if a.shape != b.shape:
        raise TensorError(f"add needs equal shapes, got {a.shape} and {b.shape}")
    # Overflow surfaces as a TensorError from the finite check, not a numpy
    # warning.
    with np.errstate(over="ignore", invalid="ignore"):
        out = a.data + b.data
    return _result(out, (a, b), lambda g: (g, g))


def relative_l2_loss(pred: Tensor, target: Tensor) -> Tensor:
    """Squared-ratio relative L2 discrepancy over the whole field, shape (1,).

    |pred - target|^2 / |target|^2. The target is data: no gradient flows
    into it.
    """
    _check_tensor(pred, "pred")
    _check_tensor(target, "target")
    if pred.shape != target.shape:
        raise TensorError(f"loss shapes disagree: {pred.shape} vs {target.shape}")
    with np.errstate(over="ignore", invalid="ignore"):
        den_sq = float(np.sum(target.data * target.data))
        if not 0.0 < den_sq < np.inf:
            raise TensorError("relative L2 needs a nonzero target of finite norm")
        c = 1.0 / den_sq
        diff = pred.data - target.data
        loss = (diff * diff).sum() * c

    def rule(g):
        gd = g * c * diff
        return (gd + gd,)

    return _result(loss, (pred,), rule)


# ---------------------------------------------------------------------------
# Sub-tapes: recomputation and row stages
# ---------------------------------------------------------------------------

def recompute(fn: Callable[[Tensor], Tensor], x: Tensor,
              params: Iterable[Tensor]) -> Tensor:
    """``fn(x)`` as one tape entry that keeps only `x` and the output.

    `fn` runs untaped, so no tape sees what it reads: `params` must list
    every tensor besides `x` that `fn` reads and that needs a gradient. The
    backward rule re-runs `fn(x)` on a fresh tape (`_on_tape`) with the
    caller's `split_rows`, raises `TensorError` if that tape read one missing
    from `params`, and replays it from the output gradient into the
    gradients of `x` and `params`. `fn` must be deterministic, so that the
    re-run reproduces the output and the gradients are those of the full
    tape, bit for bit.
    """
    _check_tensor(x, "x")
    inputs = (x, *params)
    outer = _ACTIVE_TAPE.tape
    with _on_tape(None):
        out = fn(x)

    def rule(g):
        with _on_tape(GradTape(split_rows=outer.split_rows)) as tape:
            y = fn(x)
        if _reads(tape, inputs):
            raise TensorError("recompute: fn reads a tensor that needs a gradient "
                              "and is neither x nor in params")
        grads = _backprop(tape, {id(y): g})
        return tuple(grads.get(id(t)) for t in inputs)

    return _result(out.data, inputs, rule)


def row_stage(fn: Callable[..., tuple[Tensor, ...]], row_inputs: tuple[Tensor, ...],
              width: int) -> tuple[Tensor, ...]:
    """``fn(rows, *xs)`` on each row block of an [S?, M, width] activation, M
    the rows (points) of `row_inputs`, where xs are those rows of each of
    `row_inputs`, of every stacked sample alike; returns fn's outputs with
    the blocks' rows joined in order.

    fn returns a tuple of tensors whose rows are `rows`, each row computed
    from the same rows of `row_inputs` and from tensors that every block
    reads whole. The blocks run on one thread per block, up to `_cpus()`,
    the caller's among them (`_map_in_order`). Untaped, the rows are cut
    into `_row_blocks(M, width, _cpus())`, one block per CPU: a row's bytes
    do not depend on the cut. Under an active tape the blocks may not follow
    the CPUs: they are `_row_blocks(M, width, _MAX_ROW_BLOCKS)` if the tape
    says `split_rows`, else one. On one block fn runs on the caller as it
    is, on the caller's tape if one is active, and nothing is copied.

    Under an active tape with several blocks, each block records on a
    sub-tape of its own (`_on_tape`), and the stage is one entry on the
    caller's tape, taped on `row_inputs` and on what else the first block
    read (`_reads`), as every block runs the same ops. The rule replays the
    sub-tapes on as many threads, each from its rows of the output
    gradients, joins the blocks' row input gradients and adds the rest in
    block order, so the gradients are the same for any CPU count.
    """
    tape, cpus = _ACTIVE_TAPE.tape, _cpus()
    parts = cpus if tape is None else _MAX_ROW_BLOCKS if tape.split_rows else 1
    blocks = _row_blocks(row_inputs[0].shape[-2], width, parts)
    workers = min(cpus, len(blocks))
    split = tape is not None and len(blocks) > 1

    def run(rows):
        views = [_take_rows(x, rows) for x in row_inputs]
        # Split, on a sub-tape; else on the caller's tape, or none, as it is.
        with _on_tape(GradTape() if split else tape) as sub:
            return views, fn(rows, *views), sub

    runs = _map_in_order(run, blocks, workers)
    outs = tuple(_concat_rows([r[1][j] for r in runs]) for j in range(len(runs[0][1])))
    if not split:
        return outs
    # The joined outputs take over the blocks' rows: the sub-tapes hold their
    # outputs only to key the seed gradients, and no rule reads an output.
    for (_, parts, _), rows in zip(runs, blocks):
        for part, whole in zip(parts, outs):
            part.data = whole.data[..., rows, :]
    read_whole = _reads(runs[0][2], runs[0][0])                 # besides the row views

    def rule(gouts):
        def replay(j):
            views, parts, sub = runs[j]
            grads = _backprop(sub, {id(o): g[..., blocks[j], :]
                                    for o, g in zip(parts, gouts) if g is not None})
            return [grads.get(id(t)) for t in (*views, *read_whole)]

        per_block = _map_in_order(replay, range(len(blocks)), workers)
        # Every block runs the same ops, so an input's gradient is None in
        # every block or in none.
        grads = []
        for i, gs in enumerate(zip(*per_block)):
            if gs[0] is None:
                grads.append(None)
            elif i < len(row_inputs):
                grads.append(np.concatenate(gs, axis=-2))
            else:
                grads.append(functools.reduce(np.add, gs))          # in block order
        return grads

    if any(t.requires_grad for t in outs):
        tape._entries.append((outs, (*row_inputs, *read_whole), rule))
    return outs
