"""Dense float64 tensors with tape-based reverse-mode automatic differentiation.

All values live in C-contiguous float64 arrays. Operations run eagerly; while
a ``GradTape`` is active (entered as a context manager) every op whose inputs
require gradients pushes a backward rule onto the tape, and ``backward(loss,
tape)`` replays those rules in reverse and returns the leaf gradients.

Binary ops broadcast numpy-style (right-aligned), which covers the scalar and
trailing-axis cases the model needs; gradients are summed back over broadcast
axes. Any op that produces a non-finite value on finite inputs raises
``TensorError`` instead of propagating NaN/Inf.

Each attention branch is one fused op with a hand-written backward rule and
its heads handled inside: ``linear_attention`` (global) and ``knn_attention``
(local, over each row's K indexed rows).
"""

from __future__ import annotations

from typing import Callable

import numpy as np
from scipy.sparse import csr_matrix
from scipy.special import erf as _erf

__all__ = [
    "Tensor",
    "GradTape",
    "TensorError",
    "matmul",
    "knn_attention",
    "linear_attention",
    "layer_norm",
    "sigmoid",
    "gelu",
    "add",
    "sub",
    "mul",
    "scale",
    "reduce_sum",
    "concat_lastdim",
    "backward",
]

_INV_SQRT2 = 1.0 / np.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / np.sqrt(2.0 * np.pi)


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

_ACTIVE_TAPE: "GradTape | None" = None


class GradTape:
    """Ordered record of executed ops with their backward rules.

    Entries are ``(out, inputs, rule)``; ``rule(out_grad)`` returns one
    gradient array (or None) per input. A tape is confined to one logical
    execution context and is cleared/discarded after each backward pass.
    """

    def __init__(self):
        self._entries: list[tuple[Tensor, tuple[Tensor, ...], Callable]] = []

    def __len__(self) -> int:
        return len(self._entries)

    def __enter__(self) -> "GradTape":
        global _ACTIVE_TAPE
        if _ACTIVE_TAPE is not None:
            raise TensorError("a GradTape is already active")
        _ACTIVE_TAPE = self
        return self

    def __exit__(self, *exc) -> None:
        global _ACTIVE_TAPE
        _ACTIVE_TAPE = None


def _result(data: np.ndarray, inputs: tuple[Tensor, ...],
            rule: Callable | None) -> Tensor:
    """Wrap an op result, check finiteness, and record on the active tape."""
    if not np.all(np.isfinite(data)):
        raise TensorError("operation produced non-finite values (overflow?)")
    out = Tensor.__new__(Tensor)
    out.data = np.ascontiguousarray(data)
    out.requires_grad = any(t.requires_grad for t in inputs)
    if rule is not None and _ACTIVE_TAPE is not None and out.requires_grad:
        _ACTIVE_TAPE._entries.append((out, inputs, rule))
    return out


def backward(loss: Tensor, tape: GradTape) -> dict[Tensor, np.ndarray]:
    """Reverse-replay `tape` from scalar `loss`; return leaf gradients.

    The map holds every requires_grad leaf tensor that appears on the tape,
    keyed by tensor identity: its accumulated gradient if reachable from the
    loss, zeros otherwise.
    """
    if loss.data.size != 1:
        raise TensorError(f"loss must be scalar, got shape {loss.shape}")
    produced = {id(out) for out, _, _ in tape._entries}
    if id(loss) not in produced:
        raise TensorError("loss was not recorded on this tape")

    grads: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
    for out, inputs, rule in reversed(tape._entries):
        gout = grads.pop(id(out), None)
        if gout is None:
            continue
        for t, g in zip(inputs, rule(gout)):
            if g is None or not t.requires_grad:
                continue
            acc = grads.get(id(t))
            if acc is None:
                grads[id(t)] = np.ascontiguousarray(g, dtype=np.float64)
            else:
                acc += g

    result: dict[Tensor, np.ndarray] = {}
    for _, inputs, _ in tape._entries:
        for t in inputs:
            if t.requires_grad and id(t) not in produced and t not in result:
                g = grads.get(id(t))
                result[t] = np.zeros_like(t.data) if g is None else g
    return result


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a broadcast gradient back down to `shape`."""
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, (gs, ss) in enumerate(zip(g.shape, shape)) if ss == 1 and gs != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


def _check_tensor(t, name: str) -> None:
    if not isinstance(t, Tensor):
        raise TensorError(f"{name} must be a Tensor, got {type(t).__name__}")


# ---------------------------------------------------------------------------
# Linear algebra and structure ops
# ---------------------------------------------------------------------------

def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product ``a @ b``; `a` may carry leading batch axes, `b` is 2-D."""
    _check_tensor(a, "a")
    _check_tensor(b, "b")
    if a.ndim < 2 or b.ndim != 2:
        raise TensorError(f"matmul needs a >=2-D and b 2-D, got {a.shape} @ {b.shape}")
    if a.shape[-1] != b.shape[0]:
        raise TensorError(f"matmul inner dims disagree: {a.shape} @ {b.shape}")
    ad, bd = a.data, b.data

    def rule(g):
        ga = g @ bd.T
        gb = ad.reshape(-1, ad.shape[-1]).T @ g.reshape(-1, g.shape[-1])
        return ga, gb

    return _result(ad @ bd, (a, b), rule)


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


# ---------------------------------------------------------------------------
# Normalization and attention
# ---------------------------------------------------------------------------

def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-5) -> Tensor:
    """Per-last-axis normalization (biased variance) with affine scale/shift."""
    _check_tensor(x, "x")
    _check_tensor(gamma, "gamma")
    _check_tensor(beta, "beta")
    c = x.shape[-1]
    if c < 1 or gamma.shape != (c,) or beta.shape != (c,):
        raise TensorError(
            f"layer_norm over width {c} needs gamma/beta of shape ({c},)")
    if eps <= 0:
        raise TensorError("layer_norm eps must be positive")
    mu = x.data.mean(axis=-1, keepdims=True)
    xc = x.data - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    gd = gamma.data

    def rule(g):
        g2 = g.reshape(-1, c)
        dbeta = g2.sum(axis=0)
        dgamma = (g2 * xhat.reshape(-1, c)).sum(axis=0)
        gh = g * gd
        dx = inv * (gh - gh.mean(axis=-1, keepdims=True)
                    - xhat * (gh * xhat).mean(axis=-1, keepdims=True))
        return dx, dgamma, dbeta

    return _result(gd * xhat + beta.data, (x, gamma, beta), rule)


def _check_heads(heads: int, d: int) -> None:
    if heads < 1 or d % heads != 0:
        raise TensorError(f"width {d} does not split into {heads} heads")


def knn_attention(q: Tensor, k: Tensor, v: Tensor, idx: np.ndarray, w: Tensor,
                  heads: int) -> Tensor:
    """Rank-weighted softmax attention of each row over its K indexed rows, per head.

    out[a] = sum_b att[a, b] * w[b] * v[idx[a, b]], where att[a] is the
    max-subtracted softmax over b of w[b] * q[a] . k[idx[a, b]] / sqrt(dh),
    taken separately in each head's dh = d/heads columns.
    `q` is [M, d], `k` and `v` are [N, d], `idx` is integer [M, K] into [0, N),
    `w` is [K]. Head h of row a is row a*H + h of the [M*H, dh] view, so head
    h's index is idx*H + h. The weighted attention matrix is CSR with that
    pattern, so the output and the q, k, v gradients are sparse products; the
    backward rule keeps [M*H, K] arrays, never an [M, K, d] gather.
    """
    for t, name in ((q, "q"), (k, "k"), (v, "v"), (w, "w")):
        _check_tensor(t, name)
    idx = np.asarray(idx)
    if idx.ndim != 2 or k.ndim != 2 or not np.issubdtype(idx.dtype, np.integer):
        raise TensorError(f"knn_attention needs k [N,d] and integer idx [M,K], got "
                          f"{k.shape}, {idx.dtype} {idx.shape}")
    (m, kk), (n, d) = idx.shape, k.shape
    if q.shape != (m, d) or v.shape != (n, d) or w.shape != (kk,) or kk < 1 or d < 1:
        raise TensorError(f"knn_attention needs q [{m},{d}], v [{n},{d}], w [{kk}] and "
                          f"K, d >= 1, got {q.shape}, {v.shape}, {w.shape}")
    _check_heads(heads, d)
    if idx.size and (idx.min() < 0 or idx.max() >= n):
        raise TensorError(f"knn_attention index out of range [0, {n})")
    dh = d // heads
    rows = m * heads
    idx = (idx[:, None, :] * heads + np.arange(heads)[:, None]).reshape(rows, kk)
    qd, kd, vd = (t.data.reshape(-1, dh) for t in (q, k, v))
    wd = w.data
    inv_sqrt_d = 1.0 / np.sqrt(dh)
    c = wd * inv_sqrt_d
    # np.sum's pairwise order keeps scores bit-equal to mul + reduce_sum; the model
    # amplifies last-bit score changes (einsum's order moved an M=4096 output 2.5e-10).
    kq = kd[idx]
    kq *= qd[:, None, :]
    dots = kq.sum(axis=-1)
    s = dots * c
    e = np.exp(s - s.max(axis=1, keepdims=True))
    att = e / e.sum(axis=1, keepdims=True)
    cols = idx.reshape(-1)
    indptr = np.arange(0, rows * kk + 1, kk)
    a_mat = csr_matrix(((att * wd).reshape(-1), cols, indptr), shape=(rows, n * heads))

    def rule(g):
        g = g.reshape(rows, dh)
        gaw = np.einsum("mkd,md->mk", vd[idx], g)     # d out / d (att * w)
        gatt = gaw * wd
        gs = att * (gatt - (gatt * att).sum(axis=1, keepdims=True))
        r_mat = csr_matrix(((gs * c).reshape(-1), cols, indptr), shape=(rows, n * heads))
        dw = (gaw * att).sum(axis=0) + (gs * dots).sum(axis=0) * inv_sqrt_d
        return ((r_mat @ kd).reshape(m, d), (r_mat.T @ qd).reshape(n, d),
                (a_mat.T @ g).reshape(n, d), dw)

    return _result((a_mat @ vd).reshape(m, d), (q, k, v, w), rule)


def linear_attention(q: Tensor, k: Tensor, v: Tensor, heads: int) -> Tensor:
    """Positive-feature linear attention per head: Qn (Kn^T V) / (Qn Kn^T 1) + Qn.

    `q`, `k` and `v` are [M, d]; head h owns columns [h*dh, (h+1)*dh) with
    dh = d/heads, viewed as [H, M, dh]. Qn and Kn are the rows of gelu(x) + 1
    of each head's queries and keys, each normalized to sum 1. gelu is bounded
    below by about -0.17, so every feature is at least 0.83 and the
    denominator is positive by construction. Cost O(M*d*dh): the M x M score
    matrix is never formed. The backward rule is hand-written.
    """
    for t, name in ((q, "q"), (k, "k"), (v, "v")):
        _check_tensor(t, name)
    if q.ndim != 2 or k.shape != q.shape or v.shape != q.shape or q.shape[1] < 1:
        raise TensorError(f"linear_attention needs equal [M,d] q, k, v with d >= 1, "
                          f"got {q.shape}, {k.shape}, {v.shape}")
    m, d = q.shape
    _check_heads(heads, d)
    dh = d // heads

    def split(x):                                   # [M, d] -> [H, M, dh]
        return x.reshape(m, heads, dh).transpose(1, 0, 2)

    def merge(x):                                   # [H, M, dh] -> [M, d]
        return x.transpose(1, 0, 2).reshape(m, d)

    def features(x):
        cdf = _gelu_cdf(x)
        phi = x * cdf + 1.0
        s = phi.sum(axis=-1, keepdims=True)
        return cdf, phi / s, s

    def features_grad(x, cdf, n, s, gn):                # through n = phi / sum(phi)
        gphi = (gn - (gn * n).sum(axis=-1, keepdims=True)) / s
        return merge(gphi * _gelu_grad(x, cdf))

    qx, kx, vh = split(q.data), split(k.data), split(v.data)
    qcdf, qn, qs = features(qx)
    kcdf, kn, ks = features(kx)
    kv = kn.transpose(0, 2, 1) @ vh                 # [H, dh, dh]
    zt = kn.sum(axis=1, keepdims=True)              # [H, 1, dh]: (Kn^T 1)^T
    den = qn @ zt.transpose(0, 2, 1)                # [H, M, 1]
    ratio = (qn @ kv) / den

    def rule(g):
        gh = split(g)
        gnum = gh / den
        gden = -(gh * ratio).sum(axis=-1, keepdims=True) / den
        gqn = gh + gnum @ kv.transpose(0, 2, 1) + gden * zt
        gkv = qn.transpose(0, 2, 1) @ gnum
        gkn = vh @ gkv.transpose(0, 2, 1) + gden.transpose(0, 2, 1) @ qn
        return (features_grad(qx, qcdf, qn, qs, gqn),
                features_grad(kx, kcdf, kn, ks, gkn), merge(kn @ gkv))

    return _result(merge(ratio + qn), (q, k, v), rule)


# ---------------------------------------------------------------------------
# Elementwise ops
# ---------------------------------------------------------------------------

def sigmoid(x: Tensor) -> Tensor:
    _check_tensor(x, "x")
    xd = x.data
    y = np.empty_like(xd)
    pos = xd >= 0
    y[pos] = 1.0 / (1.0 + np.exp(-xd[pos]))
    ex = np.exp(xd[~pos])
    y[~pos] = ex / (1.0 + ex)

    def rule(g):
        return (g * y * (1.0 - y),)

    return _result(y, (x,), rule)


def _gelu_cdf(x: np.ndarray) -> np.ndarray:
    """Standard normal CDF; gelu(x) = x * cdf(x)."""
    return 0.5 * (1.0 + _erf(x * _INV_SQRT2))


def _gelu_grad(x: np.ndarray, cdf: np.ndarray) -> np.ndarray:
    """d gelu / dx = cdf(x) + x * pdf(x)."""
    return cdf + x * (np.exp(-0.5 * x * x) * _INV_SQRT_2PI)


def gelu(x: Tensor) -> Tensor:
    """Exact (erf-based) GELU."""
    _check_tensor(x, "x")
    xd = x.data
    cdf = _gelu_cdf(xd)
    return _result(xd * cdf, (x,), lambda g: (g * _gelu_grad(xd, cdf),))


def scale(x: Tensor, c: float) -> Tensor:
    """Multiply by a python scalar constant."""
    _check_tensor(x, "x")
    c = float(c)
    if not np.isfinite(c):
        raise TensorError("scale factor must be finite")
    return _result(x.data * c, (x,), lambda g: (g * c,))


def _binary(a: Tensor, b: Tensor, fwd, da, db) -> Tensor:
    _check_tensor(a, "a")
    _check_tensor(b, "b")
    try:
        # Overflow surfaces as a TensorError from the finite check, not a
        # numpy warning.
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            out = fwd(a.data, b.data)
    except ValueError as exc:
        raise TensorError(f"shapes {a.shape} and {b.shape} do not broadcast") from exc
    sa, sb = a.shape, b.shape

    def rule(g):
        return _unbroadcast(da(g), sa), _unbroadcast(db(g), sb)

    return _result(out, (a, b), rule)


def add(a: Tensor, b: Tensor) -> Tensor:
    return _binary(a, b, np.add, lambda g: g, lambda g: g)


def sub(a: Tensor, b: Tensor) -> Tensor:
    return _binary(a, b, np.subtract, lambda g: g, lambda g: -g)


def mul(a: Tensor, b: Tensor) -> Tensor:
    _check_tensor(a, "a")
    _check_tensor(b, "b")
    x, y = a.data, b.data
    return _binary(a, b, np.multiply, lambda g: g * y, lambda g: g * x)


# ---------------------------------------------------------------------------
# Reductions
# ---------------------------------------------------------------------------

def reduce_sum(x: Tensor) -> Tensor:
    """Sum of all entries, as a 0-d tensor."""
    _check_tensor(x, "x")
    shape = x.shape
    return _result(x.data.sum(), (x,), lambda g: (np.broadcast_to(g, shape).copy(),))

