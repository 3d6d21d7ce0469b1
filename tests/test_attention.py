"""Soft mask, both attention branches, fusion, and the full block."""

import math

import numpy as np
import pytest
from scipy.special import erf

from conftest import assert_mask_monotone, gradcheck_op
from la2.attention import gla, global_attention, la2_layer, local_attention
from la2.geometry import KnnIndex, PointSet, knn_indices, relabel_knn
from la2.model import ModelConfig, init_block
from la2.tensor import Tensor, TensorError, soft_mask


def sig(v):
    return 1.0 / (1.0 + math.exp(-v))


def make_params(rng, hidden, heads=1, alpha=10.0):
    return init_block(rng, ModelConfig(1, 2, 1, hidden=hidden, heads=heads, alpha=alpha))


def logit(s=0.0):
    return Tensor([s], requires_grad=True)


def random_knn(rng, m, k):
    pts = PointSet(Tensor(rng.uniform(0.0, 1.0, size=(m, 2))))
    return knn_indices(pts, k)


class TestSoftMask:
    def test_anchor_at_half(self):
        # K=3, s=0: threshold sits exactly on rank 2, so w_2 = 0.5.
        w = soft_mask(logit(0.0), 3, 10.0).data
        assert w[1] == 0.5

    def test_k4_direct_evaluation(self):
        w = soft_mask(logit(0.0), 4, 10.0).data
        expect = [sig(-10.0 * (k - 0.5 * 3.0 - 1.0)) for k in (1, 2, 3, 4)]
        assert w == pytest.approx(expect, abs=1e-15)
        assert w == pytest.approx([0.99999969, 0.993307, 0.006693, 3.06e-7],
                                  abs=1e-6)

    @pytest.mark.parametrize("alpha", [1.0, 10.0, 50.0])
    @pytest.mark.parametrize("s", [-3.0, 0.0, 3.0])
    def test_strictly_decreasing_in_rank(self, alpha, s):
        for k in (2, 5, 16, 64):
            w = soft_mask(logit(s), k, alpha).data
            assert_mask_monotone(w)

    def test_open_range_when_unsaturated(self):
        # alpha=2, K=8 keeps every sigmoid argument well inside the band
        # where float64 resolves values away from 0 and 1.
        for s in (-3.0, 0.0, 3.0):
            w = soft_mask(logit(s), 8, 2.0).data
            assert ((w > 0.0) & (w < 1.0)).all()
            assert (np.diff(w) < 0).all()

    def test_monotone_in_s(self):
        for k in (3, 8, 31):
            prev = soft_mask(logit(-4.0), k, 10.0).data
            for s in (-2.0, 0.0, 2.0, 4.0):
                cur = soft_mask(logit(s), k, 10.0).data
                assert (cur >= prev).all()
                prev = cur

    def test_gradient_through_both_sigmoids(self, rng):
        s = logit(0.37)
        gradcheck_op(lambda: soft_mask(s, 6, 3.0), [s], rng)

    def test_validation(self):
        # alpha > 0 and the (1,) shape of s are checked where they enter:
        # ModelConfig.validate and load_checkpoint (see test_model).
        with pytest.raises(TensorError):
            soft_mask(logit(), 0, 10.0)


def dense_global_reference(h, p):
    """Independent numpy evaluation that materializes each head's M x M matrix."""
    def lin(w, b):
        return h @ w.data + b.data

    def features(x):
        phi = 0.5 * x * (1.0 + erf(x / math.sqrt(2.0))) + 1.0   # gelu(x) + 1
        return phi / phi.sum(axis=1, keepdims=True)

    q_all, k_all, v_all = lin(p.w_qg, p.b_qg), lin(p.w_kg, p.b_kg), lin(p.w_vg, p.b_vg)
    dh = q_all.shape[1] // p.heads
    outs = []
    for i in range(p.heads):
        sl = slice(i * dh, (i + 1) * dh)
        q, k, v = features(q_all[:, sl]), features(k_all[:, sl]), v_all[:, sl]
        scores = q @ k.T                 # the M x M route
        num = scores @ v
        den = scores @ np.ones((h.shape[0], 1))
        outs.append(num / den + q)
    return np.concatenate(outs, axis=1)


class TestGlobalAttention:
    def test_single_point_hand_example(self):
        # Zero weights, values injected through the biases: Q=[1,1], K=[2,0],
        # V=[3,7]. phi(Q) is constant, so Qn=[.5,.5]; with M=1 the branch
        # gives (Qn.Kn) V / (Qn.Kn) + Qn = V + Qn = [3.5, 7.5] for any Kn.
        rng = np.random.default_rng(0)
        p = make_params(rng, 4)
        for w in (p.w_qg, p.w_kg, p.w_vg):
            w.data[:] = 0.0
        p.b_qg.data[:] = [1.0, 1.0]
        p.b_kg.data[:] = [2.0, 0.0]
        p.b_vg.data[:] = [3.0, 7.0]
        out = global_attention(Tensor(np.zeros((1, 4))), p)
        assert out.data.ravel() == pytest.approx([3.5, 7.5], abs=1e-14)

    @pytest.mark.parametrize("m, heads", [
        pytest.param(1, 1, id="1"), pytest.param(7, 1, id="7"),
        pytest.param(64, 1, id="64"), pytest.param(64, 2, id="64-heads2")])
    def test_matches_dense_reference(self, rng, m, heads):
        p = make_params(rng, 8, heads=heads)
        h = Tensor(rng.standard_normal((m, 8)))
        mine = global_attention(h, p).data
        ref = dense_global_reference(h.data, p)
        tol = 1e-12 * max(1.0, np.abs(ref).max())
        assert np.abs(mine - ref).max() < tol

    def test_numerator_associativity(self, rng):
        # Positive rows summing to 1 bound both products by M max|V|, so the
        # right-associated and dense numerators agree to 1e-12 absolutely.
        for _ in range(10):
            m, d = int(rng.integers(1, 65)), 4
            q = rng.uniform(0.83, 3.0, (m, d))
            q /= q.sum(axis=1, keepdims=True)
            k = rng.uniform(0.83, 3.0, (m, d))
            k /= k.sum(axis=1, keepdims=True)
            v = rng.standard_normal((m, d))
            right = q @ (k.T @ v)
            dense = (q @ k.T) @ v
            assert np.abs(right - dense).max() < 1e-12

    def test_zero_projections_give_uniform_features(self, rng):
        p = make_params(rng, 6)
        for t in (p.b_qg, p.b_kg, p.b_vg):
            t.data[:] = 0.0
        h = Tensor(np.zeros((3, 6)))  # all projections vanish: phi = 1, V = 0
        out = global_attention(h, p).data
        assert np.array_equal(out, np.full((3, 3), 1 / 3))

    def test_row_permutation_equivariance(self, rng):
        p = make_params(rng, 8)
        h = rng.standard_normal((20, 8))
        perm = rng.permutation(20)
        a = global_attention(Tensor(h[perm]), p).data
        b = global_attention(Tensor(h), p).data[perm]
        tol = 1e-12 * max(1.0, np.abs(b).max())
        assert np.abs(a - b).max() < tol

    def test_gradients(self, rng):
        p = make_params(rng, 4)
        h = Tensor(rng.uniform(-2, 2, (5, 4)), requires_grad=True)
        wrt = [h, p.w_qg, p.b_qg, p.w_kg, p.b_kg, p.w_vg, p.b_vg]
        gradcheck_op(lambda: global_attention(h, p), wrt, rng)


def dense_local_reference(h, idx, w, p):
    """Plain-numpy local branch in the gather -> mask -> project order."""
    h_knn = h[idx] * w[None, :, None]                    # [M, K, C]
    q = h @ p.w_ql.data + p.b_ql.data
    k = h_knn @ p.w_kl.data
    v = h_knn @ p.w_vl.data
    dh = q.shape[1] // p.heads
    outs = []
    for i in range(p.heads):
        sl = slice(i * dh, (i + 1) * dh)
        scores = np.einsum("md,mkd->mk", q[:, sl], k[:, :, sl]) / math.sqrt(dh)
        e = np.exp(scores - scores.max(axis=1, keepdims=True))
        att = e / e.sum(axis=1, keepdims=True)
        outs.append(np.einsum("mk,mkd->md", att, v[:, :, sl]))
    return np.concatenate(outs, axis=1)


class TestLocalAttention:
    def test_hand_example(self):
        # d=1; point 0's patch is rows [1, 2] and [-1, 4]: keys [1, -1],
        # values [2, 4], query 1, so the scores are [1, -1].
        rng = np.random.default_rng(0)
        p = make_params(rng, 2)
        p.w_ql.data[:] = 0.0
        p.b_ql.data[:] = [1.0]
        p.w_kl.data[:] = [[1.0], [0.0]]
        p.w_vl.data[:] = [[0.0], [1.0]]
        h = Tensor(np.array([[1.0, 2.0], [-1.0, 4.0]]))
        knn = KnnIndex(np.array([[0, 1], [1, 0]]))
        out = local_attention(h, knn, Tensor(np.ones(2)), p)
        e1, em1 = math.exp(1.0), math.exp(-1.0)
        expect = (e1 * 2.0 + em1 * 4.0) / (e1 + em1)
        assert out.data[0] == pytest.approx([expect], abs=1e-12)
        assert out.data[0] == pytest.approx([2.238406], abs=1e-6)

    @pytest.mark.parametrize("heads", [1, 2])
    def test_matches_dense_reference(self, rng, heads):
        p = make_params(rng, 8, heads=heads)
        knn = random_knn(rng, 12, 4)
        h = rng.standard_normal((12, 8))
        w = soft_mask(logit(0.3), 4, 2.0).data
        out = local_attention(Tensor(h), knn, Tensor(w), p).data
        ref = dense_local_reference(h, knn.idx, w, p)
        assert np.abs(out - ref).max() <= 1e-12 * np.abs(ref).max()

    def test_single_neighbor_passthrough(self, rng):
        p = make_params(rng, 6)
        h = Tensor(rng.standard_normal((5, 6)))
        knn = KnnIndex(np.arange(5)[:, None])
        out = local_attention(h, knn, Tensor(np.ones(1)), p).data
        v = h.data @ p.w_vl.data
        assert np.abs(out - v).max() < 1e-14

    def test_identical_neighbors_average_to_value(self, rng):
        p = make_params(rng, 6)
        h = Tensor(np.tile(rng.standard_normal(6), (4, 1)))
        knn = random_knn(rng, 4, 3)
        out = local_attention(h, knn, Tensor(np.ones(3)), p).data
        v0 = h.data @ p.w_vl.data
        assert np.abs(out - v0).max() < 1e-12

    def test_zeroed_neighbor_cannot_influence(self, rng):
        # With mask [1, 0, 0] a point's output depends on its own row only:
        # zero-weighted neighbors score exactly 0 and add exactly 0 to the
        # output, whatever their features.
        p = make_params(rng, 6)
        knn = random_knn(rng, 5, 3)
        base = rng.standard_normal((5, 6))
        w = Tensor(np.array([1.0, 0.0, 0.0]))
        out1 = local_attention(Tensor(base), knn, w, p).data
        for a in range(5):
            tampered = rng.standard_normal((5, 6)) * 100.0
            tampered[a] = base[a]
            out2 = local_attention(Tensor(tampered), knn, w, p).data
            assert np.array_equal(out1[a], out2[a])

    def test_shape_mismatch(self, rng):
        p = make_params(rng, 6)
        knn = random_knn(rng, 5, 2)
        with pytest.raises(TensorError):
            local_attention(Tensor(np.ones((4, 6))), knn, Tensor(np.ones(2)), p)
        with pytest.raises(TensorError):
            local_attention(Tensor(np.ones((5, 6))), knn, Tensor(np.ones(3)), p)

    def test_gradients(self, rng):
        p = make_params(rng, 4, alpha=2.0)
        p.mask_s.data[:] = 0.4
        knn = random_knn(rng, 5, 3)
        h = Tensor(rng.uniform(-2, 2, (5, 4)), requires_grad=True)
        wrt = [h, p.w_ql, p.b_ql, p.w_kl, p.w_vl, p.mask_s]
        gradcheck_op(lambda: local_attention(h, knn, soft_mask(p.mask_s, 3, p.alpha), p),
                     wrt, rng)


class TestGla:
    def test_output_shape_at_paper_width(self, rng):
        p = make_params(rng, 128)
        knn = random_knn(rng, 256, 8)
        h = Tensor(rng.standard_normal((256, 128)))
        assert gla(h, knn, p).shape == (256, 128)

    def test_zero_fusion_weight_leaves_bias(self, rng):
        p = make_params(rng, 8)
        p.w_out.data[:] = 0.0
        p.b_out.data[:] = rng.standard_normal(8)
        knn = random_knn(rng, 10, 3)
        h = Tensor(rng.standard_normal((10, 8)))
        out = gla(h, knn, p).data
        assert np.abs(out - p.b_out.data).max() == 0.0

    def test_full_gradcheck(self, rng):
        p = make_params(rng, 4, alpha=5.0)
        knn = random_knn(rng, 6, 3)
        h = Tensor(rng.uniform(-2, 2, (6, 4)), requires_grad=True)
        wrt = [h, p.w_qg, p.b_qg, p.w_kg, p.w_vg, p.w_ql, p.w_kl, p.w_vl,
               p.w_out, p.b_out, p.mask_s]
        gradcheck_op(lambda: gla(h, knn, p), wrt, rng)


class TestLa2Layer:
    def test_zero_weights_identity(self, rng):
        p = make_params(rng, 8)
        for name, t in p.named_params():
            if name.startswith(("w_", "ff_w", "b_", "ff_b")) or name == "mask_s":
                if name != "mask_s":
                    t.data[:] = 0.0
        knn = random_knn(rng, 12, 4)
        h = Tensor(rng.standard_normal((12, 8)))
        out = la2_layer(h, knn, p)
        assert np.array_equal(out.data, h.data)

    def test_shape_preserved(self, rng):
        p = make_params(rng, 16)
        knn = random_knn(rng, 30, 5)
        h = Tensor(rng.standard_normal((30, 16)))
        assert la2_layer(h, knn, p).shape == (30, 16)

    def test_permutation_equivariance(self, rng):
        p = make_params(rng, 8)
        pts = PointSet(Tensor(rng.uniform(0, 1, (32, 2))))
        knn = knn_indices(pts, 6)
        h = rng.standard_normal((32, 8))
        perm = rng.permutation(32)
        out = la2_layer(Tensor(h), knn, p).data
        out_p = la2_layer(Tensor(h[perm]), relabel_knn(knn, perm), p).data
        assert np.abs(out_p - out[perm]).max() < 1e-12

    def test_full_block_gradcheck(self, rng):
        p = make_params(rng, 4, alpha=5.0)
        knn = random_knn(rng, 5, 3)
        h = Tensor(rng.uniform(-2, 2, (5, 4)), requires_grad=True)
        wrt = [h] + [t for _, t in p.named_params()]
        gradcheck_op(lambda: la2_layer(h, knn, p), wrt, rng)


class TestBlockParams:
    def test_checkpoint_names_in_order(self, rng):
        # Field order is the checkpoint byte layout; saved blocks use exactly
        # these names in this order.
        names = [name for name, _ in make_params(rng, 4).named_params()]
        assert names == ["w_qg", "b_qg", "w_kg", "b_kg", "w_vg", "b_vg",
                         "w_ql", "b_ql", "w_kl", "w_vl", "w_out", "b_out",
                         "ff_w1", "ff_b1", "ff_w2", "ff_b2",
                         "ln1_gamma", "ln1_beta", "ln2_gamma", "ln2_beta", "mask_s"]


class TestMultiHead:
    def test_two_head_shapes(self, rng):
        p = make_params(rng, 8, heads=2)
        knn = random_knn(rng, 10, 4)
        h = Tensor(rng.standard_normal((10, 8)))
        assert la2_layer(h, knn, p).shape == (10, 8)

    def test_two_head_gradcheck(self, rng):
        p = make_params(rng, 8, heads=2, alpha=5.0)
        knn = random_knn(rng, 5, 3)
        h = Tensor(rng.uniform(-1, 1, (5, 8)), requires_grad=True)
        wrt = [h, p.w_qg, p.w_kg, p.w_vg, p.w_ql, p.w_kl, p.w_vl]
        gradcheck_op(lambda: gla(h, knn, p), wrt, rng)
