"""Shared test helpers: the central finite-difference gradient oracle."""

import json
import struct

import numpy as np
import pytest

from la2.tensor import GradTape, Tensor, backward, relative_l2_loss


def fd_gradient(loss_fn, tensor, step=1e-6):
    """Central-difference gradient of scalar loss_fn() w.r.t. tensor.data.

    loss_fn must re-run the forward computation from the tensor's current
    contents; this oracle never touches the tape machinery.
    """
    flat = tensor.data.ravel()
    grad = np.zeros_like(flat)
    for i in range(flat.size):
        old = flat[i]
        flat[i] = old + step
        fp = loss_fn()
        flat[i] = old - step
        fm = loss_fn()
        flat[i] = old
        grad[i] = (fp - fm) / (2.0 * step)
    return grad.reshape(tensor.data.shape)


def rel_error(analytic, numeric):
    """Max elementwise deviation, scaled by the dominant gradient magnitude."""
    analytic = np.asarray(analytic)
    numeric = np.asarray(numeric)
    denom = max(1.0, float(np.abs(analytic).max(initial=0.0)),
                float(np.abs(numeric).max(initial=0.0)))
    return float(np.abs(analytic - numeric).max(initial=0.0)) / denom


def gradcheck(build_loss, wrt, step=1e-6, tol=1e-5):
    """Compare tape gradients of build_loss() against the FD oracle.

    build_loss constructs the loss tensor from current parameter contents;
    `wrt` lists the tensors to check (all must have requires_grad).
    Returns the worst relative error, asserting it is within tol.
    """
    with GradTape() as tape:
        grads = backward(build_loss(), tape)
    analytic = [grads[t] for t in wrt]

    def loss_value():
        return float(build_loss().data.reshape(()))

    worst = 0.0
    for t, a in zip(wrt, analytic):
        numeric = fd_gradient(loss_value, t, step=step)
        worst = max(worst, rel_error(a, numeric))
    assert worst < tol, f"gradient mismatch: {worst:.3e} >= {tol:.0e}"
    return worst


def gradcheck_op(op, wrt, rng, **kwargs):
    """`gradcheck` of relative_l2_loss(op(), r), with r a fixed random field of
    op()'s shape: a scalar loss that every output entry reaches."""
    r = Tensor(rng.uniform(-1.0, 1.0, op().shape))
    return gradcheck(lambda: relative_l2_loss(op(), r), wrt, **kwargs)


def edit_header(path, edit):
    """Rewrite a checkpoint's JSON header in place; `edit` mutates the dict."""
    blob = path.read_bytes()
    (hlen,) = struct.unpack("<Q", blob[8:16])
    header = json.loads(blob[16:16 + hlen])
    edit(header)
    head = json.dumps(header).encode()
    path.write_bytes(blob[:8] + struct.pack("<Q", len(head)) + head + blob[16 + hlen:])


def assert_mask_monotone(w):
    """Strictly decreasing rank weights, up to float64 sigmoid saturation.

    sigmoid rounds to exactly 1.0 above ~37.4 and underflows to exactly 0.0
    below ~-744.4, so consecutive equal values are legitimate only at those
    two saturation points; equality anywhere inside (0, 1) is a real bug.
    """
    w = np.asarray(w)
    assert ((w >= 0.0) & (w <= 1.0)).all()
    pairs = zip(w[:-1], w[1:])
    for a, b in pairs:
        if a == b:
            assert a in (0.0, 1.0), f"non-saturated tie at {a!r}"
        else:
            assert a > b


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
