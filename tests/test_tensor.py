"""Tensor engine: construction, op semantics, and gradient correctness."""

import ast
import math
from pathlib import Path

import numpy as np
import pytest

from conftest import fd_gradient, gradcheck, rel_error
from la2 import tensor as T
from la2.tensor import GradTape, Tensor, TensorError, backward


def leaf(values, rng=None, shape=None):
    if shape is not None:
        values = rng.uniform(-2.0, 2.0, size=shape)
    return Tensor(values, requires_grad=True)


class TestConstruction:
    def test_row_major_layout(self):
        t = Tensor(np.asfortranarray(np.reshape([1, 2, 3, 4], (2, 2))))
        assert t.data.flags.c_contiguous and t.data.dtype == np.float64
        assert t.data[0, 0] == 1 and t.data[0, 1] == 2
        assert t.data[1, 0] == 3 and t.data[1, 1] == 4

    def test_empty_tensor(self):
        t = Tensor(np.reshape([], (0,)))
        assert t.shape == (0,) and t.size == 0

    def test_non_finite_rejected(self):
        with pytest.raises(TensorError):
            Tensor([1.0, np.inf])


class TestMatmul:
    def test_identity(self):
        eye = Tensor(np.eye(2))
        b = Tensor(np.reshape([5, 6, 7, 8], (2, 2)))
        assert np.array_equal(T.matmul(eye, b).data, b.data)

    def test_hand_product(self):
        a = Tensor(np.reshape([1, 2], (1, 2)))
        b = Tensor(np.reshape([3, 4], (2, 1)))
        assert T.matmul(a, b).data.ravel() == pytest.approx([11.0])

    def test_dim_mismatch(self):
        with pytest.raises(TensorError):
            T.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 2))))

    def test_gradient(self, rng):
        a = leaf(None, rng, (3, 4))
        b = leaf(None, rng, (4, 2))
        r = Tensor(rng.uniform(-1, 1, (3, 2)))
        gradcheck(lambda: T.reduce_sum(T.mul(T.matmul(a, b), r)), [a, b],
                  tol=1e-6)

    def test_batched_gradient(self, rng):
        a = leaf(None, rng, (2, 3, 4))
        b = leaf(None, rng, (4, 2))
        r = Tensor(rng.uniform(-1, 1, (2, 3, 2)))
        gradcheck(lambda: T.reduce_sum(T.mul(T.matmul(a, b), r)), [a, b],
                  tol=1e-6)


def knn_attention_reference(q, k, v, idx, w, r):
    """Loop-by-pair numpy reference: output, and the q/k/v/w gradients of sum(out * r)."""
    m, kk = idx.shape
    c = w / math.sqrt(q.shape[1])
    out = np.zeros_like(q)
    dq, dk, dv, dw = (np.zeros_like(q), np.zeros_like(k), np.zeros_like(v),
                      np.zeros_like(w))
    for a in range(m):
        dots = np.array([q[a] @ k[j] for j in idx[a]])
        e = np.exp(dots * c - (dots * c).max())
        att = e / e.sum()
        gaw = np.array([r[a] @ v[j] for j in idx[a]])
        gs = att * (gaw * w - (gaw * w * att).sum())
        dw += gaw * att + gs * dots / math.sqrt(q.shape[1])
        for b, j in enumerate(idx[a]):
            out[a] += att[b] * w[b] * v[j]
            dv[j] += att[b] * w[b] * r[a]
            dk[j] += gs[b] * c[b] * q[a]
            dq[a] += gs[b] * c[b] * k[j]
    return out, dq, dk, dv, dw


class TestKnnAttention:
    # Four query rows over six key/value rows; row 0 is referenced five
    # times (twice by query 0), rows 3 and 5 never.
    IDX = np.array([[0, 0, 2], [1, 2, 0], [4, 0, 1], [0, 4, 2]])

    def inputs(self, rng, scale=1.0):
        q = leaf(rng.standard_normal((4, 3)) * scale)
        k = leaf(rng.standard_normal((6, 3)) * scale)
        v = leaf(rng.standard_normal((6, 3)))
        w = leaf(rng.uniform(0.2, 1.0, 3))
        return q, k, v, w

    def test_gradcheck(self, rng):
        q, k, v, w = self.inputs(rng)
        r = Tensor(rng.uniform(-1, 1, (4, 3)))
        gradcheck(lambda: T.reduce_sum(T.mul(T.knn_attention(q, k, v, self.IDX, w, 1), r)),
                  [q, k, v, w])

    def test_large_scores_stay_finite(self, rng):
        q, k, v, w = self.inputs(rng, scale=40.0)
        r = np.zeros((4, 3))
        ref, *_ = knn_attention_reference(q.data, k.data, v.data, self.IDX, w.data, r)
        scores = np.einsum("mkd,md->mk", k.data[self.IDX], q.data) * w.data / math.sqrt(3)
        assert 5e2 < np.abs(scores).max() < 5e3
        out = T.knn_attention(q, k, v, self.IDX, w, 1).data
        assert np.abs(out - ref).max() <= 1e-12 * np.abs(ref).max()

    def test_gradients_accumulate_per_row(self, rng):
        q, k, v, w = self.inputs(rng)
        r = rng.uniform(-1, 1, (4, 3))
        with GradTape() as tape:
            out = T.knn_attention(q, k, v, self.IDX, w, 1)
            grads = backward(T.reduce_sum(T.mul(out, Tensor(r))), tape)
        ref = knn_attention_reference(q.data, k.data, v.data, self.IDX, w.data, r)
        for got, expect in zip((out.data, *(grads[t] for t in (q, k, v, w))), ref):
            assert np.abs(got - expect).max() <= 1e-12 * np.abs(expect).max()
        for g in (grads[k], grads[v]):
            assert np.abs(g[0]).min() > 0.0
            assert np.array_equal(g[[3, 5]], np.zeros((2, 3)))

    def test_two_heads_match_single_head_calls(self, rng):
        # Head h owns columns [3h, 3h + 3); w is shared, so its gradient sums
        # over the heads.
        q = leaf(rng.standard_normal((4, 6)))
        k = leaf(rng.standard_normal((6, 6)))
        v = leaf(rng.standard_normal((6, 6)))
        w = leaf(rng.uniform(0.2, 1.0, 3))
        r = rng.uniform(-1, 1, (4, 6))
        with GradTape() as tape:
            out = T.knn_attention(q, k, v, self.IDX, w, 2)
            grads = backward(T.reduce_sum(T.mul(out, Tensor(r))), tape)
        got = (out.data, *(grads[t] for t in (q, k, v, w)))
        parts = [np.zeros((4, 6)), np.zeros((4, 6)), np.zeros((6, 6)), np.zeros((6, 6)),
                 np.zeros(3)]
        for h in range(2):
            cols = slice(3 * h, 3 * h + 3)
            qh, kh, vh = (leaf(t.data[:, cols]) for t in (q, k, v))
            wh = leaf(w.data)
            with GradTape() as tape:
                out_h = T.knn_attention(qh, kh, vh, self.IDX, wh, 1)
                grads = backward(T.reduce_sum(T.mul(out_h, Tensor(r[:, cols]))), tape)
            for part, t in zip(parts[:4], (out_h.data, grads[qh], grads[kh], grads[vh])):
                part[:, cols] = t
            parts[4] += grads[wh]
        for g, expect in zip(got, parts):
            assert np.abs(g - expect).max() <= 1e-12 * np.abs(expect).max()

    @pytest.mark.parametrize("case", [
        "index_too_large", "index_negative", "float_index", "index_1d",
        "q_rows", "q_width", "kv_shape", "k_1d", "w_length", "w_2d", "no_neighbors",
        "not_a_tensor", "heads_not_dividing"])
    def test_validation(self, rng, case):
        q, k, v, w = self.inputs(rng)
        idx = self.IDX
        heads = 1
        if case == "index_too_large":
            idx = np.where(idx == 4, 6, idx)
        elif case == "index_negative":
            idx = np.where(idx == 4, -1, idx)
        elif case == "float_index":
            idx = idx.astype(float)
        elif case == "index_1d":
            idx = idx[:, 0]
        elif case == "q_rows":
            q = Tensor(np.ones((5, 3)))
        elif case == "q_width":
            q = Tensor(np.ones((4, 2)))
        elif case == "kv_shape":
            v = Tensor(np.ones((5, 3)))
        elif case == "k_1d":
            k, v = Tensor(np.ones(6)), Tensor(np.ones(6))
        elif case == "w_length":
            w = Tensor(np.ones(2))
        elif case == "w_2d":
            w = Tensor(np.ones((1, 3)))
        elif case == "no_neighbors":
            idx, w = idx[:, :0], Tensor(np.ones(0))
        elif case == "heads_not_dividing":
            heads = 2
        else:
            v = v.data
        with pytest.raises(TensorError):
            T.knn_attention(q, k, v, idx, w, heads)


class TestLinearAttention:
    """Exact values are checked against a dense reference in test_attention."""

    @pytest.mark.parametrize("heads", [1, 2])
    def test_gradcheck(self, rng, heads):
        q, k, v = (leaf(None, rng, (5, 4)) for _ in range(3))
        r = Tensor(rng.uniform(-1, 1, (5, 4)))
        gradcheck(lambda: T.reduce_sum(T.mul(T.linear_attention(q, k, v, heads), r)),
                  [q, k, v])

    @pytest.mark.parametrize("case", [
        "k_shape", "v_shape", "q_1d", "zero_width", "heads_not_dividing", "zero_heads",
        "not_a_tensor"])
    def test_validation(self, rng, case):
        q, k, v = (Tensor(rng.standard_normal((5, 4))) for _ in range(3))
        heads = 2
        if case == "k_shape":
            k = Tensor(np.ones((6, 4)))
        elif case == "v_shape":
            v = Tensor(np.ones((5, 2)))
        elif case == "q_1d":
            q, k, v = Tensor(np.ones(4)), Tensor(np.ones(4)), Tensor(np.ones(4))
        elif case == "zero_width":
            q, k, v = (Tensor(np.ones((5, 0))) for _ in range(3))
            heads = 1
        elif case == "heads_not_dividing":
            heads = 3
        elif case == "zero_heads":
            heads = 0
        else:
            k = k.data
        with pytest.raises(TensorError):
            T.linear_attention(q, k, v, heads)


class TestLayerNorm:
    def test_constant_row_is_zero(self):
        x = Tensor(np.reshape([5, 5, 5], (1, 3)))
        out = T.layer_norm(x, Tensor(np.ones(3)), Tensor(np.zeros(3)))
        assert np.allclose(out.data, 0.0)

    def test_two_value_row(self):
        x = Tensor(np.reshape([1, 3], (1, 2)))
        out = T.layer_norm(x, Tensor(np.ones(2)), Tensor(np.zeros(2)), eps=1e-14)
        assert out.data.ravel() == pytest.approx([-1.0, 1.0], abs=1e-9)

    def test_normalized_moments(self, rng):
        x = Tensor(rng.uniform(-2, 2, (6, 8)))
        out = T.layer_norm(x, Tensor(np.ones(8)), Tensor(np.zeros(8))).data
        assert np.abs(out.mean(axis=-1)).max() < 1e-12
        assert out.var(axis=-1) == pytest.approx(np.ones(6), abs=1e-4)

    def test_gradients(self, rng):
        x = leaf(None, rng, (3, 5))
        gamma = leaf(None, rng, (5,))
        beta = leaf(None, rng, (5,))
        r = Tensor(rng.uniform(-1, 1, (3, 5)))
        gradcheck(lambda: T.reduce_sum(T.mul(T.layer_norm(x, gamma, beta), r)),
                  [x, gamma, beta])

    def test_bad_eps(self):
        x = Tensor(np.ones((1, 2)))
        with pytest.raises(TensorError):
            T.layer_norm(x, Tensor(np.ones(2)), Tensor(np.zeros(2)), eps=0.0)


class TestSoftmax:
    """The patch softmax inside knn_attention, read through its output."""

    def two_neighbors(self, q, keys, values):
        # One query row, two key/value rows of width 1, unit rank weights:
        # the scores are q * keys and the output is att . values.
        return T.knn_attention(Tensor([[q]]), Tensor([[x] for x in keys]),
                               Tensor([[x] for x in values]), np.array([[0, 1]]),
                               Tensor(np.ones(2)), 1).data[0, 0]

    def test_symmetry(self):
        assert self.two_neighbors(0.0, [3.0, -5.0], [2.0, 4.0]) == 3.0

    def test_direct_evaluation(self):
        e1, em1 = math.exp(1.0), math.exp(-1.0)
        out = self.two_neighbors(1.0, [1.0, -1.0], [1.0, 0.0])
        assert out == pytest.approx(e1 / (e1 + em1), abs=1e-15)
        assert out == pytest.approx(0.880797, abs=1e-6)

    def test_large_values_stable(self):
        assert self.two_neighbors(1000.0, [1.0, 0.0], [1.0, 0.0]) == 1.0
        assert self.two_neighbors(1000.0, [1.0, 0.0], [0.0, 1.0]) == pytest.approx(0.0, abs=1e-300)

    def test_rows_sum_to_one(self, rng):
        # With identity values and distinct neighbors, row a of the output
        # holds att[a, b] at column idx[a, b] and zeros elsewhere.
        idx = np.array([rng.permutation(9) for _ in range(7)])
        q = Tensor(rng.uniform(-5, 5, (7, 9)))
        k = Tensor(rng.uniform(-5, 5, (9, 9)))
        att = T.knn_attention(q, k, Tensor(np.eye(9)), idx, Tensor(np.ones(9)), 1).data
        assert np.abs(att.sum(axis=-1) - 1.0).max() < 1e-12
        assert ((att > 0) & (att < 1)).all()

    def test_gradient(self, rng):
        q = leaf(None, rng, (4, 6))
        k = Tensor(rng.uniform(-1, 1, (5, 6)))
        v = Tensor(rng.uniform(-1, 1, (5, 6)))
        idx = rng.integers(0, 5, (4, 3))
        w = Tensor(np.ones(3))
        r = Tensor(rng.uniform(-1, 1, (4, 6)))
        gradcheck(lambda: T.reduce_sum(T.mul(T.knn_attention(q, k, v, idx, w, 1), r)), [q])


class TestElementwise:
    def test_sigmoid_values(self):
        assert T.sigmoid(Tensor([0.0])).data[0] == 0.5
        expect = 1.0 / (1.0 + math.exp(-5.0))
        assert T.sigmoid(Tensor([5.0])).data[0] == pytest.approx(expect, abs=1e-15)
        assert T.sigmoid(Tensor([5.0])).data[0] == pytest.approx(0.993307, abs=1e-6)

    def test_sigmoid_extremes_stable(self):
        out = T.sigmoid(Tensor([1000.0, -1000.0]))
        assert out.data == pytest.approx([1.0, 0.0], abs=1e-300)

    def test_add_and_broadcast(self):
        out = T.add(Tensor([1.0, 2.0]), Tensor([3.0, 4.0]))
        assert np.array_equal(out.data, [4.0, 6.0])
        out = T.add(Tensor(np.ones((2, 3))), Tensor([1.0, 2.0, 3.0]))
        assert np.array_equal(out.data, [[2, 3, 4], [2, 3, 4]])

    def test_incompatible_shapes(self):
        with pytest.raises(TensorError):
            T.add(Tensor(np.ones(3)), Tensor(np.ones(4)))

    def test_overflow_is_error(self):
        big = Tensor([1e308])
        with pytest.raises(TensorError):
            T.mul(big, big)

    @pytest.mark.parametrize("op", ["sigmoid", "gelu"])
    def test_unary_gradients(self, rng, op):
        x = leaf(None, rng, (3, 4))
        r = Tensor(rng.uniform(-1, 1, (3, 4)))
        fn = getattr(T, op)
        gradcheck(lambda: T.reduce_sum(T.mul(fn(x), r)), [x])

    @pytest.mark.parametrize("op", ["add", "sub", "mul"])
    def test_binary_gradients(self, rng, op):
        a = leaf(None, rng, (3, 4))
        b = leaf(None, rng, (4,))
        r = Tensor(rng.uniform(-1, 1, (3, 4)))
        fn = getattr(T, op)
        gradcheck(lambda: T.reduce_sum(T.mul(fn(a, b), r)), [a, b])

    def test_scale_gradient(self, rng):
        x = leaf(None, rng, (5,))
        gradcheck(lambda: T.reduce_sum(T.scale(x, 2.5)), [x])


class TestReduce:
    def test_sum_of_ones(self):
        assert T.reduce_sum(Tensor(np.ones((3, 3)))).data == pytest.approx(9.0)


class TestConcatSplit:
    def test_hand_example(self):
        out = T.concat_lastdim(Tensor([[1.0]]), Tensor([[2.0]]))
        assert np.array_equal(out.data, [[1.0, 2.0]])

    def test_branch_widths(self, rng):
        a = Tensor(rng.standard_normal((4, 64)))
        b = Tensor(rng.standard_normal((4, 64)))
        assert T.concat_lastdim(a, b).shape == (4, 128)

    def test_leading_dim_mismatch(self):
        with pytest.raises(TensorError):
            T.concat_lastdim(Tensor(np.ones((2, 3))), Tensor(np.ones((3, 3))))

    def test_concat_gradient_splits(self, rng):
        a = leaf(None, rng, (3, 2))
        b = leaf(None, rng, (3, 4))
        r = Tensor(rng.uniform(-1, 1, (3, 6)))
        gradcheck(lambda: T.reduce_sum(T.mul(T.concat_lastdim(a, b), r)), [a, b])


class TestBackward:
    def test_square_rule(self):
        x = Tensor([3.0], requires_grad=True)
        with GradTape() as tape:
            loss = T.reduce_sum(T.mul(x, x))
            gmap = backward(loss, tape)
        assert np.array_equal(gmap[x], [6.0])

    def test_sigmoid_rule(self):
        x = Tensor([0.0], requires_grad=True)
        with GradTape() as tape:
            loss = T.reduce_sum(T.sigmoid(x))
            gmap = backward(loss, tape)
        assert gmap[x] == pytest.approx([0.25], abs=1e-15)

    def test_non_scalar_loss_rejected(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with GradTape() as tape:
            y = T.mul(x, x)
            with pytest.raises(TensorError):
                backward(y, tape)

    def test_unreachable_gets_zero(self):
        x = Tensor([2.0], requires_grad=True)
        y = Tensor([5.0], requires_grad=True)
        with GradTape() as tape:
            loss = T.reduce_sum(T.mul(x, x))
            T.mul(y, y)  # recorded but not feeding the loss
            gmap = backward(loss, tape)
        assert np.array_equal(gmap[y], [0.0])

    def test_loss_not_on_tape(self):
        x = Tensor([1.0], requires_grad=True)
        loss = T.reduce_sum(x)  # created with no tape active
        with GradTape() as tape:
            T.mul(x, x)
            with pytest.raises(TensorError):
                backward(loss, tape)

    def test_reuse_accumulates(self, rng):
        x = leaf(None, rng, (4,))
        gradcheck(lambda: T.reduce_sum(T.add(T.mul(x, x), x)), [x])


class TestEngineSurface:
    EXEMPT = {"Tensor", "GradTape", "TensorError", "backward"}

    def test_every_op_is_called_by_the_package(self):
        # An engine op that no other la2 module calls is dead weight: delete it.
        src = Path(T.__file__).parent
        called = set()
        for path in src.glob("*.py"):
            if path.name == "tensor.py":
                continue
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Call):
                    f = node.func
                    called.add(f.id if isinstance(f, ast.Name) else getattr(f, "attr", None))
        unused = sorted(set(T.__all__) - self.EXEMPT - called)
        assert unused == [], f"engine ops no la2 module calls: {unused}"


class TestDeterminism:
    def test_bit_identical_repeat(self, rng):
        a = Tensor(rng.standard_normal((16, 16)))
        b = Tensor(rng.standard_normal((16, 16)))
        idx = rng.integers(0, 16, (16, 4))
        w = Tensor(rng.uniform(0.0, 1.0, 4))

        def compute():
            h = T.matmul(T.gelu(a), b)
            return T.knn_attention(h, h, h, idx, w, 1).data.copy()

        first = compute()
        for _ in range(3):
            assert np.array_equal(first, compute())


class TestFdOracleSelfCheck:
    def test_oracle_matches_hand_derivative(self):
        # d/dx of x^3 at 1.5 is 6.75; the oracle must find it on its own.
        x = Tensor([1.5], requires_grad=True)

        def loss():
            return float(x.data[0] ** 3)

        g = fd_gradient(loss, x)
        assert g == pytest.approx([6.75], rel=1e-8)
        assert rel_error([6.75], g) < 1e-8
