"""Dense float64 tensors with tape-based reverse-mode automatic differentiation.

All values live in C-contiguous float64 arrays. Operations run eagerly; while
a ``GradTape`` is active (entered as a context manager) every op whose inputs
require gradients pushes a backward rule onto the tape, and ``backward(loss,
tape)`` replays those rules in reverse to accumulate gradients.

Binary ops broadcast numpy-style (right-aligned), which covers the scalar and
trailing-axis cases the model needs; gradients are summed back over broadcast
axes. Any op that produces a non-finite value on finite inputs raises
``TensorError`` instead of propagating NaN/Inf.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np
from scipy.sparse import csr_matrix
from scipy.special import erf as _erf

__all__ = [
    "Tensor",
    "GradTape",
    "TensorError",
    "tensor_new",
    "matmul",
    "transpose",
    "reshape",
    "knn_attention",
    "layer_norm",
    "sigmoid",
    "gelu",
    "add",
    "sub",
    "mul",
    "div",
    "scale",
    "reduce_sum",
    "l2_lastdim",
    "concat_lastdim",
    "split_lastdim",
    "backward",
]

_INV_SQRT2 = 1.0 / np.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / np.sqrt(2.0 * np.pi)


class TensorError(ValueError):
    """Shape mismatch, invalid construction, bad index, or numeric overflow."""


class Tensor:
    """Dense row-major float64 array with an optional gradient buffer.

    ``data`` is immutable by convention after construction; ``grad`` is
    written only by :func:`backward`.
    """

    __slots__ = ("data", "grad", "requires_grad")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.array(data, dtype=np.float64, order="C")
        if not np.all(np.isfinite(arr)):
            raise TensorError("tensor constructed from non-finite values")
        self.data = arr
        self.grad: np.ndarray | None = None
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


def tensor_new(shape: Sequence[int], values: Sequence[float],
               requires_grad: bool = False) -> Tensor:
    """Build a tensor of `shape` from a flat row-major value list."""
    shape = tuple(int(s) for s in shape)
    if any(s < 0 for s in shape):
        raise TensorError(f"negative dimension in shape {shape}")
    n = int(np.prod(shape)) if shape else 1
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 1 or values.size != n:
        raise TensorError(
            f"shape {shape} needs {n} values, got {values.size}")
    t = Tensor.__new__(Tensor)
    t.data = np.ascontiguousarray(values.reshape(shape))
    t.grad = None
    t.requires_grad = bool(requires_grad)
    return t


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

    def clear(self) -> None:
        self._entries.clear()

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
    out.grad = None
    out.requires_grad = any(t.requires_grad for t in inputs)
    if rule is not None and _ACTIVE_TAPE is not None and out.requires_grad:
        _ACTIVE_TAPE._entries.append((out, inputs, rule))
    return out


def backward(loss: Tensor, tape: GradTape) -> dict[Tensor, np.ndarray]:
    """Reverse-replay `tape` from scalar `loss`; return leaf gradients.

    Every requires_grad leaf tensor that appears on the tape gets its ``grad``
    buffer set: accumulated gradients if reachable from the loss, zeros
    otherwise. Returns the same mapping keyed by tensor identity.
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
                if g is None:
                    g = np.zeros_like(t.data)
                t.grad = g
                result[t] = g
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


def transpose(a: Tensor) -> Tensor:
    """Transpose of a 2-D tensor."""
    _check_tensor(a, "a")
    if a.ndim != 2:
        raise TensorError(f"transpose needs a 2-D tensor, got {a.shape}")
    return _result(a.data.T, (a,), lambda g: (g.T,))


def reshape(a: Tensor, shape: Sequence[int]) -> Tensor:
    _check_tensor(a, "a")
    shape = tuple(int(s) for s in shape)
    if int(np.prod(shape)) != a.size:
        raise TensorError(f"cannot reshape {a.shape} to {shape}")
    old = a.shape
    return _result(a.data.reshape(shape), (a,), lambda g: (g.reshape(old),))


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


def split_lastdim(a: Tensor, start: int, stop: int) -> Tensor:
    """Contiguous slice [start:stop) of the last axis."""
    _check_tensor(a, "a")
    d = a.shape[-1]
    if not (0 <= start < stop <= d):
        raise TensorError(f"bad slice [{start}:{stop}) for last dim {d}")

    def rule(g):
        ga = np.zeros(a.shape, dtype=np.float64)
        ga[..., start:stop] = g
        return (ga,)

    return _result(a.data[..., start:stop], (a,), rule)


# ---------------------------------------------------------------------------
# Normalization and softmax
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


def knn_attention(q: Tensor, k: Tensor, v: Tensor, idx: np.ndarray, w: Tensor) -> Tensor:
    """Rank-weighted softmax attention of each row over its K indexed rows.

    out[a] = sum_b att[a, b] * w[b] * v[idx[a, b]], where att[a] is the
    max-subtracted softmax over b of w[b] * q[a] . k[idx[a, b]] / sqrt(d).
    `q` is [M, d], `k` and `v` are [N, d], `idx` is integer [M, K] into [0, N),
    `w` is [K]. The weighted attention matrix is CSR with the pattern of `idx`,
    so the output and the q, k, v gradients are sparse products; the backward
    rule keeps [M, K] arrays, never an [M, K, d] gather.
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
    if idx.size and (idx.min() < 0 or idx.max() >= n):
        raise TensorError(f"knn_attention index out of range [0, {n})")
    qd, kd, vd, wd = q.data, k.data, v.data, w.data
    inv_sqrt_d = 1.0 / np.sqrt(d)
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
    indptr = np.arange(0, m * kk + 1, kk)
    a_mat = csr_matrix(((att * wd).reshape(-1), cols, indptr), shape=(m, n))

    def rule(g):
        gaw = np.einsum("mkd,md->mk", vd[idx], g)     # d out / d (att * w)
        gatt = gaw * wd
        gs = att * (gatt - (gatt * att).sum(axis=1, keepdims=True))
        r_mat = csr_matrix(((gs * c).reshape(-1), cols, indptr), shape=(m, n))
        dw = (gaw * att).sum(axis=0) + (gs * dots).sum(axis=0) * inv_sqrt_d
        return r_mat @ kd, r_mat.T @ qd, a_mat.T @ g, dw

    return _result(a_mat @ vd, (q, k, v, w), rule)


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


def gelu(x: Tensor) -> Tensor:
    """Exact (erf-based) GELU."""
    _check_tensor(x, "x")
    xd = x.data
    phi = 0.5 * (1.0 + _erf(xd * _INV_SQRT2))

    def rule(g):
        pdf = np.exp(-0.5 * xd * xd) * _INV_SQRT_2PI
        return (g * (phi + xd * pdf),)

    return _result(xd * phi, (x,), rule)


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


def div(a: Tensor, b: Tensor) -> Tensor:
    _check_tensor(a, "a")
    _check_tensor(b, "b")
    x, y = a.data, b.data
    return _binary(a, b, np.divide, lambda g: g / y, lambda g: -g * x / (y * y))


# ---------------------------------------------------------------------------
# Reductions
# ---------------------------------------------------------------------------

def _norm_axis(axis: int, ndim: int) -> int:
    if not -ndim <= axis < ndim:
        raise TensorError(f"axis {axis} out of range for {ndim}-D tensor")
    return axis % ndim


def reduce_sum(x: Tensor, axis: int | None = None, keepdims: bool = False) -> Tensor:
    _check_tensor(x, "x")
    shape = x.shape
    if axis is None:
        out = x.data.sum()

        def rule(g):
            return (np.broadcast_to(g, shape).copy(),)
    else:
        ax = _norm_axis(axis, x.ndim)
        out = x.data.sum(axis=ax, keepdims=keepdims)

        def rule(g):
            if not keepdims:
                g = np.expand_dims(g, ax)
            return (np.broadcast_to(g, shape).copy(),)

    return _result(out, (x,), rule)


def l2_lastdim(x: Tensor) -> Tensor:
    """Euclidean norm over the last axis, axis kept with size 1."""
    _check_tensor(x, "x")
    if x.ndim < 1:
        raise TensorError("l2_lastdim needs at least one axis")
    out = np.sqrt((x.data * x.data).sum(axis=-1, keepdims=True))
    xd = x.data

    def rule(g):
        safe = np.where(out > 0.0, out, 1.0)
        return (g * xd / safe,)

    return _result(out, (x,), rule)
