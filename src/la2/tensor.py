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
that keeps none of its intermediates.
"""

from __future__ import annotations

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
    "layer_norm",
    "soft_mask",
    "gelu",
    "add",
    "concat_lastdim",
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
    """Each thread's active tape: ops record only on their own thread's tape."""

    tape: "GradTape | None" = None


_ACTIVE_TAPE = _ActiveTape()


class GradTape:
    """Ordered record of executed ops with their backward rules.

    Entries are ``(out, inputs, rule)``; ``rule(out_grad)`` returns one
    gradient array (or None) per input. A tape records the ops of the thread
    that entered it, at most one tape is active per thread, and a tape is
    discarded after its backward pass.
    """

    def __init__(self):
        self._entries: list[tuple[Tensor, tuple[Tensor, ...], Callable]] = []

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
def _tape_suspended():
    """Run the body with no active tape on this thread, then restore it."""
    saved, _ACTIVE_TAPE.tape = _ACTIVE_TAPE.tape, None
    try:
        yield
    finally:
        _ACTIVE_TAPE.tape = saved


def _backprop(tape: GradTape, grads: dict[int, np.ndarray]) -> dict[int, np.ndarray]:
    """Reverse-replay `tape` from the seed gradients `grads`, keyed by tensor
    identity, which it updates and returns."""
    for out, inputs, rule in reversed(tape._entries):
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
    """
    if loss.data.size != 1:
        raise TensorError(f"loss must be scalar, got shape {loss.shape}")
    produced = {id(out) for out, _, _ in tape._entries}
    if id(loss) not in produced:
        raise TensorError("loss was not recorded on this tape")

    grads = _backprop(tape, {id(loss): np.ones_like(loss.data)})

    result: dict[Tensor, np.ndarray] = {}
    for _, inputs, _ in tape._entries:
        for t in inputs:
            if t.requires_grad and id(t) not in produced and t not in result:
                g = grads.get(id(t))
                result[t] = np.zeros_like(t.data) if g is None else g
    return result


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
        xhat = (xd - mu) * inv                      # the forward's, recomputed
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
    den_sq = float(np.sum(target.data * target.data))
    if den_sq <= 0.0:
        raise TensorError("relative L2 needs a nonzero target")
    c = 1.0 / den_sq
    with np.errstate(over="ignore", invalid="ignore"):
        diff = pred.data - target.data
        loss = (diff * diff).sum() * c

    def rule(g):
        gd = g * c * diff
        return (gd + gd,)

    return _result(loss, (pred,), rule)


# ---------------------------------------------------------------------------
# Recomputation
# ---------------------------------------------------------------------------

def recompute(fn: Callable[[Tensor], Tensor], x: Tensor,
              params: Iterable[Tensor]) -> Tensor:
    """``fn(x)`` as one tape entry that keeps only `x` and the output.

    `fn` runs with this thread's tape suspended, so none of its ops are
    recorded. The backward rule re-runs `fn(x)` on a fresh tape (the caller's
    active tape, if any, set aside meanwhile) and replays it from the output
    gradient; it returns the gradients of `x` and of `params`, which must
    list every tensor besides `x` that `fn` reads and that needs a gradient.
    `fn` must be deterministic, so that the re-run reproduces the output and
    the gradients are those of the full tape, bit for bit.
    """
    _check_tensor(x, "x")
    inputs = (x, *params)
    with _tape_suspended():
        out = fn(x)

    def rule(g):
        with _tape_suspended(), GradTape() as tape:
            y = fn(x)
        grads = _backprop(tape, {id(y): g})
        return tuple(grads.get(id(t)) for t in inputs)

    return _result(out.data, inputs, rule)
