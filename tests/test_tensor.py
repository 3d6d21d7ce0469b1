"""Tensor engine: construction, op semantics, and gradient correctness."""

import ast
import importlib
import math
import threading
from pathlib import Path

import numpy as np
import pytest

from conftest import fd_gradient, gradcheck, gradcheck_op, rel_error
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


class TestLinear:
    def test_identity(self):
        eye = Tensor(np.eye(2))
        b = Tensor(np.reshape([5, 6, 7, 8], (2, 2)))
        assert np.array_equal(T.linear(eye, b).data, b.data)

    def test_hand_product(self):
        a = Tensor(np.reshape([1, 2], (1, 2)))
        w = Tensor(np.reshape([3, 4, 5, 6], (2, 2)))
        assert T.linear(a, w).data.ravel() == pytest.approx([13.0, 16.0])
        out = T.linear(a, w, Tensor([0.5, -1.0])).data
        assert out.ravel() == pytest.approx([13.5, 15.0])

    def test_dim_mismatch(self):
        with pytest.raises(TensorError):
            T.linear(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 2))))

    @pytest.mark.parametrize("shape", [(3,), (1, 2), (2, 1)])
    def test_bias_shape(self, shape):
        with pytest.raises(TensorError, match="bias"):
            T.linear(Tensor(np.ones((4, 3))), Tensor(np.ones((3, 2))),
                     Tensor(np.ones(shape)))

    def test_gradient(self, rng):
        x = leaf(None, rng, (3, 4))
        w = leaf(None, rng, (4, 2))
        b = leaf(None, rng, (2,))
        gradcheck_op(lambda: T.linear(x, w, b), [x, w, b], rng, tol=1e-6)

    def test_batched_gradient(self, rng):
        x = leaf(None, rng, (2, 3, 4))
        w = leaf(None, rng, (4, 2))
        b = leaf(None, rng, (2,))
        gradcheck_op(lambda: T.linear(x, w, b), [x, w, b], rng, tol=1e-6)

    def test_gradient_without_bias(self, rng):
        x = leaf(None, rng, (3, 4))
        w = leaf(None, rng, (4, 2))
        gradcheck_op(lambda: T.linear(x, w), [x, w], rng, tol=1e-6)

    def test_constant_input_gets_no_gradient(self, rng):
        x = Tensor(rng.uniform(-1, 1, (3, 4)))
        w = leaf(None, rng, (4, 2))
        b = leaf(None, rng, (2,))
        target = rng.uniform(-1, 1, (3, 2))
        with GradTape() as tape:
            out = T.linear(x, w, b)
            (_, _, rule), = (e for e in tape._entries if e[0] is out)
            grads = backward(T.relative_l2_loss(out, Tensor(target)), tape)
        g = loss_grad(out.data, target)
        assert set(grads) == {w, b}
        assert grads[w] == pytest.approx(x.data.T @ g, rel=1e-14, abs=1e-15)
        assert grads[b] == pytest.approx(g.sum(axis=0), rel=1e-14, abs=1e-15)
        # The rule does not form the input gradient that nothing reads.
        assert rule(np.ones((3, 2)))[0] is None


def loss_grad(out, target):
    """d relative_l2_loss(out, target) / d out."""
    return 2.0 * (out - target) / np.sum(target * target)


def knn_attention_reference(q, k, v, idx, w, r):
    """Loop-by-pair numpy reference: output, and the q/k/v/w gradients of a
    loss whose gradient to the output is r."""
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
        gradcheck_op(lambda: T.knn_attention(q, k, v, self.IDX, w, 1), [q, k, v, w], rng)

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
        target = rng.uniform(-1, 1, (4, 3))
        with GradTape() as tape:
            out = T.knn_attention(q, k, v, self.IDX, w, 1)
            grads = backward(T.relative_l2_loss(out, Tensor(target)), tape)
        ref = knn_attention_reference(q.data, k.data, v.data, self.IDX, w.data,
                                      loss_grad(out.data, target))
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
        target = Tensor(rng.uniform(-1, 1, (4, 6)))
        with GradTape() as tape:
            out = T.knn_attention(q, k, v, self.IDX, w, 2)
            grads = backward(T.relative_l2_loss(out, target), tape)
        got = (out.data, *(grads[t] for t in (q, k, v, w)))
        per_head = [[leaf(t.data[:, 3 * h:3 * h + 3]) for t in (q, k, v)] for h in range(2)]
        wh = leaf(w.data)
        with GradTape() as tape:
            out_h = T.concat_lastdim(*(T.knn_attention(qh, kh, vh, self.IDX, wh, 1)
                                       for qh, kh, vh in per_head))
            grads = backward(T.relative_l2_loss(out_h, target), tape)
        parts = [out_h.data, *(np.concatenate([grads[head[i]] for head in per_head], axis=1)
                               for i in range(3)), grads[wh]]
        for g, expect in zip(got, parts):
            assert np.abs(g - expect).max() <= 1e-12 * np.abs(expect).max()

    def test_score_blocks_leave_output_bit_equal(self, rng, monkeypatch):
        # Scores are gathered a block of rows at a time; a block edge inside
        # the rows (and inside one row's heads) must not change a bit.
        q = leaf(rng.standard_normal((4, 6)))
        k = leaf(rng.standard_normal((6, 6)))
        v = leaf(rng.standard_normal((6, 6)))
        w = leaf(rng.uniform(0.2, 1.0, 3))
        whole = T.knn_attention(q, k, v, self.IDX, w, 2).data
        monkeypatch.setattr(T, "_SCORE_BLOCK_ROWS", 3)
        blocked = T.knn_attention(q, k, v, self.IDX, w, 2).data
        assert whole.tobytes() == blocked.tobytes()

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
        gradcheck_op(lambda: T.linear_attention(q, T.linear_attention_sums(k, v, heads)),
                     [q, k, v], rng)

    @pytest.mark.parametrize("heads", [1, 2])
    def test_query_rows_of_their_own(self, rng, heads):
        # Queries need not be the keys' rows: a block of query rows against
        # all keys, with the key side formed once, is the whole op's rows.
        q, k, v = (leaf(None, rng, (m, 4)) for m in (3, 7, 7))
        gradcheck_op(lambda: T.linear_attention(q, T.linear_attention_sums(k, v, heads)),
                     [q, k, v], rng)
        qk = Tensor(rng.uniform(-2, 2, (7, 4)))
        sums = T.linear_attention_sums(k, v, heads)
        whole = T.linear_attention(qk, sums).data
        for rows in (slice(0, 2), slice(2, 7)):
            part = T.linear_attention(Tensor(qk.data[rows]), sums)
            assert np.array_equal(part.data, whole[rows])

    @pytest.mark.parametrize("heads", [1, 2])
    def test_stacked_samples_are_their_own(self, rng, heads):
        # Three samples of 13 rows: each reads only its own sums, and comes
        # out as it does alone, bit for bit.
        q, k, v = (rng.uniform(-2, 2, (39, 8)) for _ in range(3))
        sums = T.linear_attention_sums(Tensor(k), Tensor(v), heads, 3)
        out = T.linear_attention(Tensor(q), sums).data
        assert sums.shape == (3, heads, 8 // heads + 1, 8 // heads)
        for j in range(3):
            rows = slice(13 * j, 13 * (j + 1))
            alone = T.linear_attention_sums(Tensor(k[rows]), Tensor(v[rows]), heads)
            assert np.array_equal(sums.data[j], alone.data)
            assert np.array_equal(out[rows], T.linear_attention(Tensor(q[rows]), alone).data)

    def test_stacked_samples_run_untaped(self, rng):
        q, k, v = (leaf(None, rng, (6, 4)) for _ in range(3))
        sums = T.linear_attention_sums(k, v, 2, 2)
        with GradTape():
            with pytest.raises(TensorError, match="untaped"):
                T.linear_attention_sums(k, v, 2, 2)
            with pytest.raises(TensorError, match="untaped"):
                T.linear_attention(q, sums)

    @pytest.mark.parametrize("samples", [0, 4])
    def test_rows_must_split_into_samples(self, rng, samples):
        k = Tensor(rng.standard_normal((6, 4)))
        with pytest.raises(TensorError, match="do not split"):
            T.linear_attention_sums(k, k, 2, samples)
        if samples:
            sums = T.linear_attention_sums(Tensor(np.ones((8, 4))), Tensor(np.ones((8, 4))),
                                           2, samples)
            with pytest.raises(TensorError, match="do not split"):
                T.linear_attention(k, sums)

    @pytest.mark.parametrize("sums", [None, "tuple"])
    def test_sums_not_from_linear_attention_sums_rejected(self, rng, sums):
        q, k, v = (Tensor(rng.standard_normal((5, 4))) for _ in range(3))
        if sums == "tuple":                 # the same numbers, but not a Tensor
            sums = tuple(T.linear_attention_sums(k, v, 2).data)
        with pytest.raises(TensorError, match="linear_attention_sums"):
            T.linear_attention(q, sums)

    @pytest.mark.parametrize("case", [
        "k_shape", "v_shape", "q_1d", "q_width", "zero_width", "heads_not_dividing",
        "zero_heads", "not_a_tensor", "q_not_a_tensor"])
    def test_validation(self, rng, case):
        q, k, v = (Tensor(rng.standard_normal((5, 4))) for _ in range(3))
        heads = 2
        if case == "k_shape":
            k = Tensor(np.ones((6, 4)))
        elif case == "v_shape":
            v = Tensor(np.ones((5, 2)))
        elif case == "q_1d":
            q, k, v = Tensor(np.ones(4)), Tensor(np.ones(4)), Tensor(np.ones(4))
        elif case == "q_width":
            q = Tensor(np.ones((5, 2)))
        elif case == "zero_width":
            q, k, v = (Tensor(np.ones((5, 0))) for _ in range(3))
            heads = 1
        elif case == "heads_not_dividing":
            heads = 3
        elif case == "zero_heads":
            heads = 0
        elif case == "q_not_a_tensor":
            q = q.data
        else:
            k = k.data
        with pytest.raises(TensorError):
            T.linear_attention(q, T.linear_attention_sums(k, v, heads))


@pytest.mark.threads
class TestRowBlocks:
    """Row blocks of an untaped pass, and the products they must not change."""

    @pytest.mark.parametrize("m", [4096, 4099, 1090])
    @pytest.mark.parametrize("heads", [1, 2])
    def test_row_sliced_products_bit_equal(self, m, heads):
        # The products of one block at C=64, d=32, C_out=1, on the row blocks
        # `forward` cuts at M for 2 and 4 row threads: each block's rows must
        # equal the whole product's bit for bit, though BLAS may pick another
        # kernel for each shape. The [.., 1] products run as matrix-vector
        # kernels; at M=4099 and 1090, blocks not aligned to `_ROW_ALIGN`
        # would fail them.
        rng = np.random.default_rng(m + heads)
        c, d = 64, 32
        dh = d // heads
        cuts = [T.row_blocks(m, c, parts) for parts in (2, 4)]
        assert len(cuts[0]) == 2
        x = rng.standard_normal((m, c))
        wide = rng.standard_normal((m, 2 * c))
        # Positive rows summing to 1 in each head, as linear_attention's Qn.
        qn = rng.uniform(0.83, 3.0, (m, d)).reshape(m, heads, dh).transpose(1, 0, 2)
        qn = qn / qn.sum(axis=-1, keepdims=True)
        products = [
            (x, rng.standard_normal((c, d))),
            (x, rng.standard_normal((c, 2 * c))),
            (wide, rng.standard_normal((2 * c, c))),
            (x, rng.standard_normal((c, 1))),
            (qn, rng.standard_normal((heads, dh, dh))),
            (qn, rng.standard_normal((heads, dh, 1))),
        ]
        for a, b in products:
            whole = a @ b
            for rows in (r for blocks in cuts for r in blocks):
                assert np.array_equal(a[..., rows, :] @ b, whole[..., rows, :]), \
                    (a.shape, b.shape, rows)

    def test_blocks_cover_rows_in_aligned_starts(self):
        for m, parts in [(4096, 2), (4097, 3), (1089, 2), (130, 5)]:
            blocks = T.row_blocks(m, 10**6, parts)
            assert blocks[0].start == 0 and blocks[-1].stop == m
            assert all(a.stop == b.start for a, b in zip(blocks, blocks[1:]))
            assert all(r.start % T._ROW_ALIGN == 0 for r in blocks)
        assert len(T.row_blocks(4097, 10**6, 3)) == 3
        assert len(T.row_blocks(130, 10**6, 5)) == 2             # two aligned starts
        assert T.row_blocks(127, 10**6, 2) == T.row_blocks(4096, 64, 1) == [slice(None)]

    def test_at_most_one_block_per_min_activations(self):
        # M x width over _THREAD_MIN_ACTIVATIONS (512 x 64) caps the count.
        assert T.row_blocks(4096, 64, 2) == [slice(0, 2048), slice(2048, 4096)]
        assert len(T.row_blocks(4096, 64, 100)) == 8
        assert len(T.row_blocks(1600, 64, 100)) == 3
        assert T.row_blocks(1024, 63, 8) == [slice(None)]

    def test_one_block_and_any_tape_leave_tensors_as_they_are(self, rng):
        # The blocks follow their arguments alone; a tape does not change them.
        x = leaf(None, rng, (256, 3))
        quarters = [slice(0, 64), slice(64, 128), slice(128, 192), slice(192, 256)]
        assert T.row_blocks(256, 512, 4) == quarters
        with GradTape():
            assert T.row_blocks(256, 512, 4) == quarters
        assert T._take_rows(x, slice(None)) is x
        assert T._concat_rows([x]) is x
        parts = [T._take_rows(x, r) for r in quarters]
        assert np.shares_memory(parts[1].data, x.data)
        assert np.array_equal(T._concat_rows(parts).data, x.data)


@pytest.mark.threads
class TestRowStage:
    """row_stage's blocks under a tape, and the tensors its blocks read whole."""

    @staticmethod
    def stage(x, w, b, workers, split_taped):
        return T.row_stage(lambda rows, x: (T.linear(x, w, b),), (x,), 64, workers,
                           split_taped)[0]

    def test_taped_blocks_follow_split_taped_not_workers(self, rng):
        # 1024 x 64 is two blocks under a tape with split_taped, whatever the
        # workers; one entry then stands for the stage. Untaped, the rows are
        # cut one block per worker; the output bytes never change.
        x, w, b = leaf(None, rng, (1024, 64)), leaf(None, rng, (64, 64)), leaf(None, rng, (64,))
        whole = self.stage(x, w, b, 1, False).data
        for workers in (1, 2, 3):
            assert np.array_equal(self.stage(x, w, b, workers, False).data, whole)
            for split_taped in (False, True):
                with GradTape() as tape:
                    out = self.stage(x, w, b, workers, split_taped)
                    assert np.array_equal(out.data, whole)
                    assert len(tape) == 1
                    rule = tape._entries[0][2].__qualname__
                    assert ("row_stage" in rule) == split_taped, rule
                    backward(T.relative_l2_loss(out, Tensor(np.ones(out.shape))), tape)

    def test_tensors_read_whole_get_their_gradients(self, rng):
        # The closure reads w and b, which no argument names; the split stage
        # tapes them from what its first block read. Small integers and a
        # target of squared norm 2^16 keep every sum exact, so the two blocks'
        # gradients, added in block order, equal the one-block tape's.
        x, w, b = (Tensor(rng.integers(-2, 3, shape), requires_grad=True)
                   for shape in ((1024, 64), (64, 64), (64,)))
        target = Tensor(np.ones((1024, 64)))

        def grads(split_taped):
            with GradTape() as tape:
                out = self.stage(x, w, b, 2, split_taped)
                entry_inputs = tape._entries[0][1]
                grads = backward(T.relative_l2_loss(out, target), tape)
            assert [id(t) for t in entry_inputs] == [id(x), id(w), id(b)]
            return grads

        one, split = grads(False), grads(True)
        assert list(split) == list(one) == [x, w, b]
        for t in (x, w, b):
            assert np.any(split[t] != 0)
            assert np.array_equal(split[t], one[t])


class TestLayerNorm:
    def test_constant_row_is_zero(self):
        x = Tensor(np.reshape([5, 5, 5], (1, 3)))
        out = T.layer_norm(x, Tensor(np.ones(3)), Tensor(np.zeros(3)))
        assert np.allclose(out.data, 0.0)

    def test_two_value_row(self):
        x = Tensor(np.reshape([1, 3], (1, 2)))
        out = T.layer_norm(x, Tensor(np.ones(2)), Tensor(np.zeros(2)))
        # The biased variance is 1, plus the fixed epsilon 1e-5.
        bound = 1.0 / np.sqrt(1.0 + 1e-5)
        assert out.data.ravel() == pytest.approx([-bound, bound], abs=1e-9)

    def test_normalized_moments(self, rng):
        x = Tensor(rng.uniform(-2, 2, (6, 8)))
        out = T.layer_norm(x, Tensor(np.ones(8)), Tensor(np.zeros(8))).data
        assert np.abs(out.mean(axis=-1)).max() < 1e-12
        assert out.var(axis=-1) == pytest.approx(np.ones(6), abs=1e-4)

    def test_gradients(self, rng):
        x = leaf(None, rng, (3, 5))
        gamma = leaf(None, rng, (5,))
        beta = leaf(None, rng, (5,))
        gradcheck_op(lambda: T.layer_norm(x, gamma, beta), [x, gamma, beta], rng)


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
        gradcheck_op(lambda: T.knn_attention(q, k, v, idx, w, 1), [q], rng)


class TestElementwise:
    def test_sigmoid_values(self):
        # The stable logistic helper behind soft_mask and mask_trajectory.
        assert T._sigmoid(np.array([0.0]))[0] == 0.5
        expect = 1.0 / (1.0 + math.exp(-5.0))
        assert T._sigmoid(np.array([5.0]))[0] == pytest.approx(expect, abs=1e-15)
        assert T._sigmoid(np.array([-5.0]))[0] == pytest.approx(1.0 - expect, abs=1e-15)
        assert T._sigmoid(np.array([5.0]))[0] == pytest.approx(0.993307, abs=1e-6)

    def test_sigmoid_extremes_stable(self):
        # Both sigmoids saturate without overflow: sigma(+-1000) is 1 or 0, and
        # alpha = 1000 puts every rank's argument at 0 or beyond +-1000.
        assert np.array_equal(T._sigmoid(np.array([1000.0, -1000.0])), [1.0, 0.0])
        for s, expect in ((1000.0, [1.0, 1.0, 1.0, 0.5]), (-1000.0, [0.5, 0.0, 0.0, 0.0])):
            x = Tensor([s], requires_grad=True)
            with GradTape() as tape:
                w = T.soft_mask(x, 4, 1000.0)
                gmap = backward(T.relative_l2_loss(w, Tensor(np.ones(4))), tape)
            assert np.array_equal(w.data, expect)
            assert np.array_equal(gmap[x], [0.0])

    def test_add_and_broadcast(self):
        out = T.add(Tensor([1.0, 2.0]), Tensor([3.0, 4.0]))
        assert np.array_equal(out.data, [4.0, 6.0])
        # Equal shapes only: the model adds [M, C] residuals and nothing else.
        with pytest.raises(TensorError, match="equal shapes"):
            T.add(Tensor(np.ones((2, 3))), Tensor([1.0, 2.0, 3.0]))

    def test_incompatible_shapes(self):
        with pytest.raises(TensorError):
            T.add(Tensor(np.ones(3)), Tensor(np.ones(4)))

    def test_overflow_is_error(self):
        big = Tensor([1e308])
        with pytest.raises(TensorError):
            T.add(big, big)

    @pytest.mark.parametrize("op", ["gelu"])
    def test_unary_gradients(self, rng, op):
        x = leaf(None, rng, (3, 4))
        fn = getattr(T, op)
        gradcheck_op(lambda: fn(x), [x], rng)

    @pytest.mark.parametrize("op", ["add"])
    def test_binary_gradients(self, rng, op):
        a = leaf(None, rng, (3, 4))
        b = leaf(None, rng, (3, 4))
        fn = getattr(T, op)
        gradcheck_op(lambda: fn(a, b), [a, b], rng)


class TestReduce:
    def test_sum_of_ones(self):
        # The loss sums every squared entry: nine ones over |target|^2 = 2.25.
        loss = T.relative_l2_loss(Tensor(np.full((3, 3), 1.5)), Tensor(np.full((3, 3), 0.5)))
        assert loss.shape == (1,)
        assert loss.item() * 2.25 == pytest.approx(9.0)


class TestSoftMaskOp:
    """Values and monotonicity are checked in test_attention."""

    @pytest.mark.parametrize("k,alpha,s", [(1, 10.0, 0.3), (2, 1.0, -0.7),
                                           (7, 3.0, 0.37), (16, 0.5, 2.0)])
    def test_gradcheck(self, rng, k, alpha, s):
        x = leaf([s])
        gradcheck_op(lambda: T.soft_mask(x, k, alpha), [x], rng)

    def test_single_rank_is_half_with_zero_gradient(self):
        # K=1: the threshold sits on rank 1 for every s.
        x = leaf([1.3])
        with GradTape() as tape:
            w = T.soft_mask(x, 1, 10.0)
            gmap = backward(T.relative_l2_loss(w, Tensor([2.0])), tape)
        assert np.array_equal(w.data, [0.5])
        assert np.array_equal(gmap[x], [0.0])

    @pytest.mark.parametrize("s,alpha", [(50.0, 1e308), (0.0, math.inf)])
    def test_argument_overflow_is_error(self, s, alpha):
        # (sigma(50)*3 + 1 - 1) * 1e308 overflows; 0 * inf is NaN.
        with pytest.raises(TensorError, match="not finite"):
            T.soft_mask(Tensor([s]), 4, alpha)


class TestRelativeL2LossOp:
    """Values and the exact gradient are checked in test_training."""

    @pytest.mark.parametrize("shape", [(5,), (4, 3)])
    def test_gradcheck(self, rng, shape):
        pred = leaf(None, rng, shape)
        target = Tensor(rng.uniform(-1, 1, shape))
        gradcheck(lambda: T.relative_l2_loss(pred, target), [pred])

    def test_shape_mismatch(self):
        with pytest.raises(TensorError, match="disagree"):
            T.relative_l2_loss(Tensor(np.ones((2, 1))), Tensor(np.ones(2)))

    def test_overflow_is_error(self):
        with pytest.raises(TensorError):
            T.relative_l2_loss(Tensor([1e200]), Tensor([1.0]))


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
        gradcheck_op(lambda: T.concat_lastdim(a, b), [a, b], rng)


class TestBackward:
    def test_square_rule(self):
        x = Tensor([3.0], requires_grad=True)
        with GradTape() as tape:
            loss = T.relative_l2_loss(x, Tensor([1.0]))      # (x - 1)^2
            gmap = backward(loss, tape)
        assert np.array_equal(gmap[x], [4.0])

    def test_sigmoid_rule(self):
        # K=2, alpha=1, s=0: w = (sigma(0.5), sigma(-0.5)) = (a, 1 - a). Against
        # target (1, 1), dL/dw = w - 1, and dw_r/ds = w_r (1 - w_r) * sigma'(0)
        # = a (1 - a) / 4 for both ranks, so dL/ds = -a (1 - a) / 4.
        s = Tensor([0.0], requires_grad=True)
        with GradTape() as tape:
            loss = T.relative_l2_loss(T.soft_mask(s, 2, 1.0), Tensor([1.0, 1.0]))
            gmap = backward(loss, tape)
        a = 1.0 / (1.0 + math.exp(-0.5))
        assert gmap[s] == pytest.approx([-0.25 * a * (1.0 - a)], rel=1e-14)

    def test_non_scalar_loss_rejected(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with GradTape() as tape:
            y = T.add(x, x)
            with pytest.raises(TensorError):
                backward(y, tape)

    def test_unreachable_gets_zero(self):
        x = Tensor([2.0], requires_grad=True)
        y = Tensor([5.0], requires_grad=True)
        with GradTape() as tape:
            loss = T.relative_l2_loss(x, Tensor([1.0]))
            T.add(y, y)  # recorded but not feeding the loss
            gmap = backward(loss, tape)
        assert np.array_equal(gmap[y], [0.0])

    def test_loss_not_on_tape(self):
        x = Tensor([1.0], requires_grad=True)
        loss = T.relative_l2_loss(x, Tensor([2.0]))  # created with no tape active
        with GradTape() as tape:
            T.add(x, x)
            with pytest.raises(TensorError):
                backward(loss, tape)

    def test_reuse_accumulates(self, rng):
        x = leaf(None, rng, (4,))
        gradcheck_op(lambda: T.add(x, x), [x], rng)

    def test_shared_output_gradient_is_not_written_through(self):
        # `add` hands one array to both inputs: the outer add gives it to u and
        # t, u's add then gives it to a and b, and t's add later adds to a's.
        # Accumulating in place would write that into b's gradient too.
        a = Tensor([1.0], requires_grad=True)
        b = Tensor([2.0], requires_grad=True)
        with GradTape() as tape:
            t = T.add(a, Tensor([10.0]))
            u = T.add(a, b)
            loss = T.relative_l2_loss(T.add(u, t), Tensor([2.0]))  # (v - 2)^2 / 4, v = 14
            gmap = backward(loss, tape)
        assert np.array_equal(gmap[a], [12.0])
        assert np.array_equal(gmap[b], [6.0])

    def test_second_backward_on_a_consumed_tape(self):
        x = Tensor([3.0], requires_grad=True)
        with GradTape() as tape:
            loss = T.relative_l2_loss(x, Tensor([1.0]))
            backward(loss, tape)
            assert len(tape) == 0
            with pytest.raises(TensorError, match="tape already consumed by backward"):
                backward(loss, tape)


# The kernels as they were written out of place; the in-place ones must give
# these values bit for bit.
def old_gelu_cdf(x):
    return 0.5 * (1.0 + T._erf(x * T._INV_SQRT2))


def old_gelu_grad(x, cdf):
    return cdf + x * (np.exp(-0.5 * x * x) * T._INV_SQRT_2PI)


def old_positive_features(x):
    cdf = old_gelu_cdf(x)
    phi = x * cdf + 1.0
    s = phi.sum(axis=-1, keepdims=True)
    return cdf, phi / s, s


def old_layer_norm(x, gd, bd, g):
    """Output and (x, gamma, beta) gradients for output gradient g."""
    c = x.shape[-1]
    mu = x.mean(axis=-1, keepdims=True)
    xhat = x - mu
    inv = 1.0 / np.sqrt((xhat * xhat).mean(axis=-1, keepdims=True) + T._LN_EPS)
    out = gd * (xhat * inv) + bd
    xhat = (x - mu) * inv
    g2 = g.reshape(-1, c)
    gh = g * gd
    dx = inv * (gh - gh.mean(axis=-1, keepdims=True)
                - xhat * (gh * xhat).mean(axis=-1, keepdims=True))
    return out, (dx, (g2 * xhat.reshape(-1, c)).sum(axis=0), g2.sum(axis=0))


def old_linear_attention(q, k, v, heads, g):
    """Output and (q, k, v) gradients for output gradient g."""
    def split(x):
        return x.reshape(x.shape[0], heads, -1).transpose(1, 0, 2)

    def merge(x):
        return x.transpose(1, 0, 2).reshape(x.shape[1], -1)

    def features_grad(x, cdf, n, s, gn):
        gphi = (gn - (gn * n).sum(axis=-1, keepdims=True)) / s
        return merge(gphi * old_gelu_grad(x, cdf))

    kx, vh, qx, gh = split(k), split(v), split(q), split(g)
    kcdf, kn, ks = (a.transpose(1, 0, 2)
                    for a in old_positive_features(k.reshape(k.shape[0], heads, -1)))
    kv, zt = kn.transpose(0, 2, 1) @ vh, kn.sum(axis=1, keepdims=True)
    qcdf, qn, qs = old_positive_features(qx)
    den = qn @ zt.transpose(0, 2, 1)
    ratio = (qn @ kv) / den
    gnum = gh / den
    gden = -(gh * ratio).sum(axis=-1, keepdims=True) / den
    gqn = gh + gnum @ kv.transpose(0, 2, 1) + gden * zt
    gkv = qn.transpose(0, 2, 1) @ gnum
    gkn = vh @ gkv.transpose(0, 2, 1) + gden.transpose(0, 2, 1) @ qn
    return merge(ratio + qn), (features_grad(qx, qcdf, qn, qs, gqn),
                               features_grad(kx, kcdf, kn, ks, gkn), merge(kn @ gkv))


class TestInPlaceKernels:
    """The elementwise kernels work in place, in arrays of their own only."""

    @staticmethod
    def run(op, inputs, rng, g=None):
        """op()'s output and its rule's gradients for output gradient g,
        random if not given. Neither the forward, the rule (run twice) nor a
        backward through a loss writes into an input, g or the rule's saved
        arrays."""
        before = [t.data.copy() for t in inputs]
        with GradTape() as tape:
            out = op()
            (_, _, rule), = (e for e in tape._entries if e[0] is out)
            g = rng.standard_normal(out.shape) if g is None else g
            g_before = g.copy()
            grads, again = rule(g), rule(g)
            backward(T.relative_l2_loss(out, Tensor(rng.standard_normal(out.shape))), tape)
        assert np.array_equal(g, g_before)
        assert all(np.array_equal(a, b) for a, b in zip(grads, again))
        assert all(np.array_equal(t.data, b) for t, b in zip(inputs, before))
        return out.data, grads, g

    @staticmethod
    def assert_equal(got, want):
        out, grads = got
        assert np.array_equal(out, want[0])
        assert len(grads) == len(want[1])
        assert all(np.array_equal(a, b) for a, b in zip(grads, want[1]))

    def test_gelu(self, rng):
        x = leaf(None, rng, (300, 16))
        out, grads, g = self.run(lambda: T.gelu(x), [x], rng)
        cdf = old_gelu_cdf(x.data)
        self.assert_equal((out, grads), (x.data * cdf, (g * old_gelu_grad(x.data, cdf),)))

    def test_layer_norm(self, rng):
        x, gamma, beta = leaf(None, rng, (300, 16)), leaf(None, rng, (16,)), leaf(None, rng, (16,))
        out, grads, g = self.run(lambda: T.layer_norm(x, gamma, beta), [x, gamma, beta], rng)
        self.assert_equal((out, grads), old_layer_norm(x.data, gamma.data, beta.data, g))

    @pytest.mark.parametrize("heads", [1, 2])
    def test_linear_attention_with_queries_of_their_own(self, rng, heads):
        # The query side's rule gives q's gradient and the sums'; the key
        # side's rule turns the sums' gradient into k's and v's.
        q, k, v = (leaf(None, rng, (m, 8)) for m in (130, 300, 300))
        out, (gq, gsums), g = self.run(
            lambda: T.linear_attention(q, T.linear_attention_sums(k, v, heads)), [q, k, v], rng)
        _, (gk, gv), _ = self.run(lambda: T.linear_attention_sums(k, v, heads), [k, v], rng,
                                  g=gsums)
        self.assert_equal((out, (gq, gk, gv)),
                          old_linear_attention(q.data, k.data, v.data, heads, g))

    @pytest.mark.parametrize("heads", [1, 2])
    def test_knn_attention_leaves_its_inputs(self, rng, heads):
        q, k, v = (leaf(None, rng, (m, 8)) for m in (130, 300, 300))
        w = leaf(None, rng, (4,))
        idx = rng.integers(0, 300, (130, 4))
        idx_before = idx.copy()
        self.run(lambda: T.knn_attention(q, k, v, idx, w, heads), [q, k, v, w], rng)
        assert np.array_equal(idx, idx_before)

    @pytest.mark.parametrize("view", ["transposed", "strided"])
    def test_kernels_on_a_non_contiguous_input(self, rng, view):
        base = rng.uniform(-4.0, 4.0, (40, 64))
        x = base.T if view == "transposed" else base[:, ::2]
        g = rng.standard_normal(x.shape)
        base_before = base.copy()
        cdf = T._gelu_cdf(x)
        assert np.array_equal(cdf, old_gelu_cdf(x))
        assert np.array_equal(T._gelu_grad(x, cdf, g), g * old_gelu_grad(x, cdf))
        for a, b in zip(T._positive_features(x), old_positive_features(x)):
            assert np.array_equal(a, b)
        assert np.array_equal(base, base_before)


class TestRecompute:
    """One tape entry for a whole sub-computation, re-run in backward."""

    @staticmethod
    def block(w, b):
        # x reaches the output twice, so its gradient accumulates on the
        # rule's own tape.
        return lambda t: T.add(T.gelu(T.linear(t, w, b)), t)

    @staticmethod
    def leaves(rng):
        return leaf(None, rng, (5, 3)), leaf(None, rng, (3, 3)), leaf(None, rng, (3,))

    def test_gradcheck(self, rng):
        x, w, b = self.leaves(rng)
        gradcheck_op(lambda: T.recompute(self.block(w, b), x, [w, b]), [x, w, b], rng)

    def test_backward_inside_an_active_tape(self, rng):
        # `train` calls backward inside its `with GradTape()`: the rule runs
        # its own tape, then hands this thread's tape back.
        x, w, b = self.leaves(rng)
        r = Tensor(rng.uniform(-1.0, 1.0, (5, 3)))
        with GradTape() as tape:
            full = backward(T.relative_l2_loss(self.block(w, b)(x), r), tape)
        with GradTape() as tape:
            loss = T.relative_l2_loss(T.recompute(self.block(w, b), x, [w, b]), r)
            assert len(tape) == 2
            grads = backward(loss, tape)
            assert len(tape) == 0                 # backward consumed it
            T.add(x, x)
            assert len(tape) == 1
        for t in (x, w, b):
            assert np.array_equal(grads[t], full[t])

    def test_error_in_fn_restores_the_tape(self, rng):
        x, w, b = self.leaves(rng)
        with GradTape() as tape:
            with pytest.raises(TensorError, match="add needs equal shapes"):
                T.recompute(lambda t: T.add(t, w), x, [w])
            T.add(x, x)
        assert len(tape) == 1

    def test_unlisted_tensor_that_needs_a_gradient_rejected(self, rng):
        # fn reads b, which params leaves out; the re-run's tape sees it.
        x, w, b = self.leaves(rng)
        with GradTape() as tape:
            loss = T.relative_l2_loss(T.recompute(self.block(w, b), x, [w]),
                                      Tensor(np.ones((5, 3))))
            with pytest.raises(TensorError, match="neither x nor in params"):
                backward(loss, tape)

    def test_input_without_gradient(self, rng):
        x, w, b = self.leaves(rng)
        x.requires_grad = False
        gradcheck_op(lambda: T.recompute(self.block(w, b), x, [w, b]), [w, b], rng)


@pytest.mark.threads
class TestTapeThreads:
    """The active tape is per thread: each thread records only its own ops."""

    def test_other_threads_ops_are_not_recorded(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with GradTape() as tape:
            done = []
            worker = threading.Thread(target=lambda: done.append(T.add(x, x)))
            worker.start()
            worker.join(timeout=10)
            assert done and len(tape) == 0
            T.add(x, x)
        assert len(tape) == 1

    def test_concurrent_tapes_backward_alone(self):
        # Both tapes are active at once: each thread holds its tape open until
        # the other has recorded into its own.
        inputs = [Tensor([1.0, -2.0], requires_grad=True),
                  Tensor([3.0, 0.5, 4.0], requires_grad=True)]
        recorded = threading.Barrier(2, timeout=10)
        grads = [None, None]

        def run(j):
            x = inputs[j]
            with GradTape() as tape:
                loss = T.relative_l2_loss(T.add(x, x), Tensor(2.0 * x.data + 1.0))
                recorded.wait()
                grads[j] = (len(tape), backward(loss, tape)[x])

        workers = [threading.Thread(target=run, args=(j,)) for j in range(2)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=10)
            assert not w.is_alive()
        for x, (entries, g) in zip(inputs, grads):
            assert entries == 2
            # d/dx |2x - (2x + 1)|^2 / |2x + 1|^2 = -4 / |2x + 1|^2
            assert g == pytest.approx(-4.0 / np.sum((2.0 * x.data + 1.0) ** 2), rel=1e-15)

    def test_second_tape_in_one_thread_rejected(self):
        with GradTape():
            with pytest.raises(TensorError, match="already active"):
                with GradTape():
                    pass
        with GradTape() as tape:                  # the failed entry left none active
            T.add(Tensor([1.0], requires_grad=True), Tensor([2.0]))
        assert len(tape) == 1


def _loaded_names(tree) -> set[str]:
    """Names and attributes that `tree` reads, each outside the function or
    class of that name (so a definition does not count as its own use)."""
    found = set()

    def visit(node, inside):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inside = inside | {node.name}
        elif isinstance(getattr(node, "ctx", None), ast.Load):
            name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
            if name not in inside:
                found.add(name)
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    visit(tree, frozenset())
    return found


class TestEngineSurface:
    # The [project.scripts] target, called by the installed `la2` command.
    EXEMPT = {("cli", "entrypoint")}

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
        unused = sorted(set(T.__all__) - {"Tensor", "GradTape", "TensorError", "backward"}
                        - called)
        assert unused == [], f"engine ops no la2 module calls: {unused}"

    def test_every_public_name_is_used(self):
        # Each name in a la2 module's __all__ is read somewhere in the package
        # or the benchmark, outside its own definition; tests do not count.
        src = Path(T.__file__).parent
        files = sorted(src.glob("*.py")) + sorted((src.parents[1] / "perfbench").glob("*.py"))
        used = set()
        for path in files:
            used |= _loaded_names(ast.parse(path.read_text(encoding="utf-8")))
        unused = []
        for path in sorted(src.glob("*.py")):
            module = importlib.import_module(
                "la2" if path.stem == "__init__" else f"la2.{path.stem}")
            unused += [(path.stem, name) for name in module.__all__
                       if name not in used and (path.stem, name) not in self.EXEMPT]
        assert unused == [], f"public names nothing reads: {unused}"

    def test_every_import_is_read(self):
        # A name a la2 module imports is read there or listed in its __all__;
        # a deletion can leave an import behind.
        unread = []
        for path in sorted(Path(T.__file__).parent.glob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            imported = {(alias.asname or alias.name).split(".")[0]
                        for node in ast.walk(tree)
                        if isinstance(node, (ast.Import, ast.ImportFrom))
                        and getattr(node, "module", None) != "__future__"
                        for alias in node.names}
            read = {node.id for node in ast.walk(tree)
                    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
            module = importlib.import_module(
                "la2" if path.stem == "__init__" else f"la2.{path.stem}")
            unread += [(path.stem, name)
                       for name in sorted(imported - read - set(module.__all__))]
        assert unread == [], f"imported names nothing reads: {unread}"


class _StandInLibc:
    """Records `mallopt` calls and answers each with `ok`."""

    def __init__(self, ok):
        self.ok, self.calls = ok, []

    def mallopt(self, param, value):
        self.calls.append((param, value))
        return self.ok


class TestMallocThresholds:
    MMAP, TRIM = -3, -1   # glibc's M_MMAP_THRESHOLD and M_TRIM_THRESHOLD

    @pytest.mark.parametrize("libc_name, ok, calls", [
        ("glibc", 1, [(MMAP, 32 << 20), (TRIM, 64 << 20)]),
        # The trim threshold alone would pin the mmap threshold at 128 KiB.
        ("glibc", 0, [(MMAP, 32 << 20)]),
        ("", 1, [])], ids=["glibc", "mmap_rejected", "other_libc"])
    def test_calls(self, monkeypatch, libc_name, ok, calls):
        monkeypatch.setattr(T.platform, "libc_ver", lambda: (libc_name, "2.36"))
        libc = _StandInLibc(ok)
        T._pin_malloc_thresholds(libc)
        assert libc.calls == calls


class TestDeterminism:
    def test_bit_identical_repeat(self, rng):
        a = Tensor(rng.standard_normal((16, 16)))
        b = Tensor(rng.standard_normal((16, 16)))
        idx = rng.integers(0, 16, (16, 4))
        w = Tensor(rng.uniform(0.0, 1.0, 4))

        def compute():
            h = T.linear(T.gelu(a), b)
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
