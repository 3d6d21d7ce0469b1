"""Operator composition, seeding, equivariance, checkpoint round-trips."""

import json
import struct
import threading
import time
import tracemalloc

import numpy as np
import pytest

from conftest import edit_header, gradcheck_op
from la2.data import generate_darcy
from la2.geometry import PointSet, knn_indices, knn_indices_accelerated, relabel_knn
import la2.attention
import la2.model
from la2.attention import la2_layer
from la2.model import (CheckpointError, ModelConfig, OperatorModel, encode,
                       forward, init_block, init_model, load_checkpoint,
                       mask_trajectory, save_checkpoint)
import la2.tensor as T
from la2.tensor import (GradTape, Tensor, TensorError, _sigmoid, backward,
                        linear_attention_sums, recompute,
                        relative_l2_loss, soft_mask)
from la2.training import _THREAD_MIN_ACTIVATIONS


# A split tape's gradients against the one-block tape's, relative to each
# tensor's largest entry. Measured through the whole model at M=1089 and 4096,
# heads 1 and 2, L=1, 2 and 3: at most 4.4e-12.
SPLIT_GRAD_RTOL = 1e-10


def tiny_config(**kw):
    base = dict(in_channels=1, coord_channels=2, out_channels=1, k=4,
                layers=2, hidden=8, seed=5)
    base.update(kw)
    return ModelConfig(**base)


def darcy_like_instance(rng, m=16, cfg=None):
    cfg = cfg or tiny_config()
    pts = PointSet(Tensor(rng.uniform(0, 1, (m, cfg.coord_channels))))
    knn = knn_indices(pts, cfg.k)
    f_in = Tensor(rng.standard_normal((m, cfg.in_channels)))
    return pts, knn, f_in


class TestConfig:
    def test_paper_defaults(self):
        cfg = ModelConfig(in_channels=1, coord_channels=2, out_channels=1, k=8)
        assert cfg.layers == 8 and cfg.hidden == 128
        assert cfg.ff_hidden == 256

    def test_odd_hidden_rejected(self):
        with pytest.raises(TensorError):
            tiny_config(hidden=127)

    def test_heads_must_divide_branch(self):
        with pytest.raises(TensorError):
            tiny_config(hidden=12, heads=4)

    @pytest.mark.parametrize("alpha", [0.0, -1.0])
    def test_alpha_must_be_positive(self, alpha):
        with pytest.raises(TensorError, match="alpha must be positive"):
            tiny_config(alpha=alpha)

    @pytest.mark.parametrize("key, value", [
        ("layers", 1.5), ("layers", True), ("hidden", 8.0), ("seed", "5"),
        ("alpha", "10"), ("alpha", True)])
    def test_field_types_checked(self, key, value):
        with pytest.raises(TensorError, match=f"{key} must be"):
            tiny_config(**{key: value})

    def test_numpy_numbers_accepted(self):
        cfg = tiny_config(layers=np.int64(2), alpha=np.float64(5.0))
        assert init_model(cfg).blocks[1].alpha == 5.0

    def test_bad_counts(self):
        with pytest.raises(TensorError):
            tiny_config(layers=0)
        with pytest.raises(TensorError):
            tiny_config(k=0)
        with pytest.raises(TensorError):
            tiny_config(ff_hidden=0)
        with pytest.raises(TensorError, match="seed must be non-negative"):
            tiny_config(seed=-1)


class TestInit:
    def test_block_count_and_widths(self):
        cfg = ModelConfig(in_channels=1, coord_channels=2, out_channels=1,
                          k=8, layers=8, hidden=128)
        m = init_model(cfg)
        assert len(m.blocks) == 8
        assert m.enc_w2.shape == (128, 128)
        assert all(b.w_qg.shape == (128, 64) for b in m.blocks)

    def test_seed_determinism(self):
        a = init_model(tiny_config(seed=11))
        b = init_model(tiny_config(seed=11))
        for (na, ta), (nb, tb) in zip(a.named_parameters(), b.named_parameters()):
            assert na == nb
            assert np.array_equal(ta.data, tb.data)

    def test_different_seeds_differ(self):
        a = init_model(tiny_config(seed=1))
        b = init_model(tiny_config(seed=2))
        assert not np.array_equal(a.enc_w1.data, b.enc_w1.data)

    def test_all_learnables_flagged(self):
        m = init_model(tiny_config())
        assert all(t.requires_grad for _, t in m.named_parameters())


class TestEncode:
    def test_output_shape(self, rng):
        cfg = tiny_config(hidden=16)
        m = init_model(cfg)
        pts, _, f_in = darcy_like_instance(rng, 256, cfg)
        assert encode(f_in, pts, m).shape == (256, 16)

    def test_zero_weights_gives_bias(self, rng):
        cfg = tiny_config()
        m = init_model(cfg)
        m.enc_w1.data[:] = 0.0
        m.enc_w2.data[:] = 0.0
        m.enc_b1.data[:] = 0.0
        m.enc_b2.data[:] = rng.standard_normal(cfg.hidden)
        pts, _, f_in = darcy_like_instance(rng, 10, cfg)
        out = encode(f_in, pts, m).data
        assert np.array_equal(out, np.broadcast_to(m.enc_b2.data, (10, cfg.hidden)))

    def test_joint_permutation(self, rng):
        cfg = tiny_config()
        m = init_model(cfg)
        pts, _, f_in = darcy_like_instance(rng, 32, cfg)
        perm = rng.permutation(32)
        a = encode(Tensor(f_in.data[perm]),
                   PointSet(Tensor(pts.coords.data[perm])), m).data
        b = encode(f_in, pts, m).data[perm]
        assert np.abs(a - b).max() < 1e-12

    def test_row_mismatch(self, rng):
        cfg = tiny_config()
        m = init_model(cfg)
        pts, _, _ = darcy_like_instance(rng, 8, cfg)
        with pytest.raises(TensorError):
            encode(Tensor(np.ones((9, 1))), pts, m)


class TestForward:
    def test_output_shape(self, rng):
        cfg = tiny_config(hidden=16)
        m = init_model(cfg)
        pts, knn, f_in = darcy_like_instance(rng, 64, cfg)
        assert forward(m, f_in, pts, knn).shape == (64, 1)

    def test_applies_every_block(self, rng, monkeypatch):
        cfg = tiny_config(layers=5)
        m = init_model(cfg)
        pts, knn, f_in = darcy_like_instance(rng, 12, cfg)
        seen = []

        def counting(h, knn, p, *args):
            seen.append(p)
            return la2_layer(h, knn, p, *args)

        monkeypatch.setattr(la2.model, "la2_layer", counting)
        forward(m, f_in, pts, knn)
        assert seen == m.blocks

    def test_joint_permutation_equivariance(self, rng):
        cfg = tiny_config()
        m = init_model(cfg)
        pts, knn, f_in = darcy_like_instance(rng, 32, cfg)
        out = forward(m, f_in, pts, knn).data
        perm = rng.permutation(32)
        out_p = forward(m, Tensor(f_in.data[perm]),
                        PointSet(Tensor(pts.coords.data[perm])),
                        relabel_knn(knn, perm)).data
        tol = 1e-9 * max(1.0, np.abs(out).max())
        assert np.abs(out_p - out[perm]).max() < tol

    def test_tiny_model_gradcheck(self, rng):
        cfg = tiny_config()
        m = init_model(cfg)
        pts, knn, f_in = darcy_like_instance(rng, 16, cfg)
        f_in.requires_grad = True
        wrt = [f_in] + [t for _, t in m.named_parameters()]
        worst = gradcheck_op(lambda: forward(m, f_in, pts, knn), wrt, rng, tol=1e-4)
        assert worst < 1e-4

    def test_tape_length_independent_of_heads(self):
        # Heads live inside the fused attention ops, so a second head adds
        # no tape entries.
        lengths = []
        for heads in (1, 2):
            cfg = tiny_config(heads=heads)
            m = init_model(cfg)
            pts, knn, f_in = darcy_like_instance(np.random.default_rng(0), 16, cfg)
            with GradTape() as tape:
                loss = relative_l2_loss(forward(m, f_in, pts, knn), Tensor(np.ones((16, 1))))
                lengths.append(len(tape))           # backward consumes the tape
                backward(loss, tape)
        assert lengths[0] == lengths[1] == 5 + 19 * cfg.layers

    @staticmethod
    def taped_bytes(recompute_blocks, split_taped=False, row_workers=1):
        """Tape length and live bytes after one forward pass and loss, L=2,
        C=64, M=1024 (two row blocks with `split_taped`), the peak bytes
        through the backward that follows, the bytes of one [M, C] float64
        array, and the live bytes of numpy array data alone."""
        ds = generate_darcy(n=1, g=32, seed=3)
        cfg = ModelConfig(in_channels=1, coord_channels=2, out_channels=1, k=8,
                          layers=2, hidden=64, seed=0)
        assert len(T.row_blocks(ds.geometry.m, cfg.hidden, T._MAX_ROW_BLOCKS)) == 2
        m = init_model(cfg)
        knn = knn_indices_accelerated(ds.geometry, cfg.k)
        f_in, target = Tensor(ds.inputs.data[0]), Tensor(ds.outputs.data[0])
        tracemalloc.start()
        try:
            with GradTape() as tape:
                loss = relative_l2_loss(forward(m, f_in, ds.geometry, knn, row_workers=row_workers,
                                                recompute_blocks=recompute_blocks,
                                                split_taped=split_taped), target)
                entries = len(tape)
                live, _ = tracemalloc.get_traced_memory()
                arrays = tracemalloc.take_snapshot().filter_traces(
                    [tracemalloc.DomainFilter(True, np.lib.tracemalloc_domain)])
                backward(loss, tape)
                _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        data = sum(t.size for t in arrays.traces)
        return entries, live, peak, 8 * ds.geometry.m * cfg.hidden, data

    def test_tape_footprint(self):
        # The one-block (full) tape: a block's tape holds what its backward
        # rules read and no more: no pre-bias GEMM output, no normalized copy
        # inside layer_norm. That is about 22.3 [M, C] float64 arrays per
        # block; keeping both copies measured 31.3. Entries: 19 per block, 4
        # for encoder and projection, 1 for the loss.
        layers = 2
        entries, live, _, array_bytes, _ = self.taped_bytes(False)
        assert live <= 23 * array_bytes * layers, live / (array_bytes * layers)
        assert entries == 5 + 19 * layers

    @pytest.mark.threads
    @pytest.mark.parametrize("row_workers", [1, 2])
    def test_split_tape_footprint(self, row_workers):
        # On two row blocks each stage keeps its blocks' sub-tapes, which
        # together hold the one-block tape's arrays: the joined outputs take
        # over the blocks' output rows. Measured: 152 more bytes of array data
        # in 22.3 MiB (small per-block index arrays), and 49 KB more in all,
        # the sub-tapes' Python objects (views, lists, closures). Entries: 4
        # per block (stages A and B, the global key sums and the mask), 1 for
        # the encoder, 1 for the projection and 1 for the loss.
        layers = 2
        one = self.taped_bytes(False)
        split = self.taped_bytes(False, split_taped=True, row_workers=row_workers)
        assert split[4] <= one[4] + 1024, split[4] - one[4]
        assert split[1] <= one[1] + 128 * 1024, split[1] - one[1]
        assert split[0] == 3 + 4 * layers

    def test_recomputed_tape_footprint(self):
        # With recompute_blocks each block but the last is one entry that
        # keeps its input and output, one [M, C] array, where the full tape
        # keeps about 22.3; the encoder's entries hold 4 more, and the last
        # block is taped in full. Measured: 25.3 arrays at L=2 after the
        # forward, and a peak of 30.0 through backward, which frees each
        # entry's arrays as it passes. Recomputing every block and keeping
        # the whole tape until backward ends peaked at 35.3.
        layers = 2
        entries, live, peak, array_bytes, _ = self.taped_bytes(True)
        assert live <= (4.5 + (layers - 1) + 23) * array_bytes, live / array_bytes
        assert peak <= 32 * array_bytes, peak / array_bytes
        assert entries == 5 + (layers - 1) + 19


class TestRecompute:
    @pytest.mark.parametrize("heads", [1, 2])
    def test_block_gradients_equal_the_full_tape(self, heads):
        # M x C = 576 x 64 is at least the size from which `train` runs
        # samples on threads and recomputes its blocks.
        ds = generate_darcy(n=1, g=24, seed=3)
        cfg = ModelConfig(1, 2, 1, k=8, hidden=64, heads=heads, seed=2)
        assert ds.geometry.m * cfg.hidden >= _THREAD_MIN_ACTIVATIONS
        rng = np.random.default_rng(4)
        blk = init_block(rng, cfg)
        blk.mask_s.data[:] = 0.4                 # off zero: a generic mask gradient
        knn = knn_indices_accelerated(ds.geometry, cfg.k)
        x = Tensor(rng.standard_normal((ds.geometry.m, cfg.hidden)), requires_grad=True)
        target = Tensor(rng.standard_normal(x.shape))
        params = [t for _, t in blk.named_params()]

        def run(block):
            with GradTape() as tape:
                loss = relative_l2_loss(block(x), target)
                entries = len(tape)
                grads = backward(loss, tape)
            return entries, loss.data, [grads[t] for t in [x, *params]]

        def layer(t):
            return la2_layer(t, knn, blk)

        full = run(layer)
        once = run(lambda t: recompute(layer, t, params))
        assert (full[0], once[0]) == (20, 2)
        assert np.array_equal(full[1], once[1])
        assert all(np.array_equal(a, b) for a, b in zip(full[2], once[2]))

    @pytest.mark.parametrize("layers", [1, 2, 3])
    @pytest.mark.parametrize("heads", [1, 2])
    def test_every_block_but_the_last_recomputed(self, layers, heads):
        # The last block's backward starts right after the forward, so
        # forward tapes it in full; the gradients stay the full tape's.
        cfg = tiny_config(layers=layers, heads=heads, hidden=16)
        m = init_model(cfg)
        rng = np.random.default_rng(layers)
        for _, p in m.named_parameters():      # off the zero biases and mask logits
            p.data += 0.05 * rng.standard_normal(p.shape)
        pts, knn, f_in = darcy_like_instance(rng, 40, cfg)
        target = Tensor(rng.standard_normal((40, 1)))
        runs = []
        for recompute_blocks in (False, True):
            with GradTape() as tape:
                loss = relative_l2_loss(forward(m, f_in, pts, knn,
                                                recompute_blocks=recompute_blocks), target)
                rules = [rule.__qualname__ for _, _, rule in tape._entries]
                grads = backward(loss, tape)
            runs.append((rules, loss.data, [grads[p] for _, p in m.named_parameters()]))
        (full, *_), (once, *_) = runs
        assert len(full) == 5 + 19 * layers
        assert len(once) == 5 + (layers - 1) + 19
        assert once.count("recompute.<locals>.rule") == layers - 1
        assert np.array_equal(runs[0][1], runs[1][1])
        assert all(np.array_equal(a, b) for a, b in zip(runs[0][2], runs[1][2]))


@pytest.mark.threads
class TestRowWorkers:
    """forward splits each block's rows across threads; its results must not show it."""

    @staticmethod
    def perturbed_model(heads, layers=2):
        m = init_model(ModelConfig(1, 2, 1, k=8, layers=layers, hidden=64, heads=heads,
                                   seed=2))
        rng = np.random.default_rng(heads)
        for _, p in m.named_parameters():      # off the zero biases and mask logits
            p.data += 0.05 * rng.standard_normal(p.shape)
        return m

    @pytest.mark.parametrize("g, heads", [(33, 1), (33, 2), (64, 2)],
                             ids=["M1089", "M1089-heads2", "M4096-heads2"])
    def test_any_row_workers_give_the_same_bytes(self, g, heads):
        # M=1089 is odd, so no cut is even; both sizes are above the 2 x 512
        # x 64 points x width from which evaluate splits rows.
        ds = generate_darcy(n=1, g=g, seed=6)
        assert ds.geometry.m * 64 >= 2 * _THREAD_MIN_ACTIVATIONS
        m = self.perturbed_model(heads)
        knn = knn_indices_accelerated(ds.geometry, 8)
        f_in = Tensor(ds.inputs.data[0])
        before = threading.active_count()
        one = forward(m, f_in, ds.geometry, knn).data
        for workers in (2, 3):
            out = forward(m, f_in, ds.geometry, knn, row_workers=workers).data
            assert np.array_equal(out, one), workers
        assert threading.active_count() == before

    # numpy's overflow warnings: np.errstate would not reach the started thread.
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("stage", ["A", "B"])
    def test_non_finite_in_second_block_raises_the_serial_error(self, stage):
        # Row 3000 is in the second of two blocks. Stage A: its layer_norm
        # mean overflows. Stage B: the attention residual overflows there,
        # and nowhere else, since only that row is near the largest float.
        rng = np.random.default_rng(8)
        p = init_block(rng, ModelConfig(1, 2, 1, k=8, hidden=64, seed=2))
        knn = knn_indices_accelerated(generate_darcy(n=1, g=64, seed=6).geometry, 8)
        h = rng.standard_normal((4096, 64))
        if stage == "A":
            h[3000] = 1e307
        else:
            h[3000, 0] = 1.7e308
            p.b_out.data[0] = 1e308
        h = Tensor(h)
        errors = {}
        for workers in (1, 2):
            before = threading.active_count()
            with pytest.raises(TensorError) as info:
                la2_layer(h, knn, p, row_workers=workers)
            assert threading.active_count() == before
            errors[workers] = (type(info.value), str(info.value))
        assert errors[1] == errors[2]
        assert errors[1][0] is TensorError

    @staticmethod
    def counted_starts(monkeypatch):
        """The list that every thread started from now on is appended to."""
        started = []
        start = threading.Thread.start

        def counted(thread):
            started.append(thread)
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", counted)
        return started

    def test_taped_split_same_bytes_on_any_row_workers(self, monkeypatch):
        # With split_taped, M=1089 x C=64 cuts into two row blocks under a
        # tape for any row_workers; the row threads only run them, so loss and
        # gradients keep their bytes. Entries: 4 per block, 1 each for
        # encoder, projection, loss.
        ds = generate_darcy(n=1, g=33, seed=6)
        m = self.perturbed_model(1)
        knn = knn_indices_accelerated(ds.geometry, 8)
        started = self.counted_starts(monkeypatch)
        runs = []
        for workers in (1, 2, 3):
            started.clear()
            before = threading.active_count()
            x = Tensor(ds.inputs.data[0])
            with GradTape() as tape:
                loss = relative_l2_loss(forward(m, x, ds.geometry, knn, row_workers=workers,
                                                split_taped=True),
                                        Tensor(ds.outputs.data[0]))
                entries = len(tape)
                grads = backward(loss, tape)
            assert threading.active_count() == before
            # Forward and backward each fan out once per stage: the encoder
            # and stages A and B of the two layers.
            assert len(started) == (0 if workers == 1 else 2 * (1 + 2 * 2))
            runs.append((entries, loss.data, [grads[p] for _, p in m.named_parameters()]))
        assert runs[0][0] == 3 + 4 * 2
        for run in runs[1:]:
            assert run[0] == runs[0][0] and np.array_equal(run[1], runs[0][1])
            assert all(np.array_equal(a, b) for a, b in zip(run[2], runs[0][2]))

    def test_rows_never_split_under_a_tape(self, monkeypatch):
        # Without split_taped (a sample of a larger batch) a tape keeps the
        # rows whole whatever row_workers says: no thread starts, and the tape
        # is the one-block tape, 19 entries per block.
        ds = generate_darcy(n=1, g=33, seed=6)
        m = self.perturbed_model(1)
        knn = knn_indices_accelerated(ds.geometry, 8)
        started = self.counted_starts(monkeypatch)
        runs = []
        for workers in (1, 3):
            x = Tensor(ds.inputs.data[0])
            with GradTape() as tape:
                loss = relative_l2_loss(forward(m, x, ds.geometry, knn, row_workers=workers),
                                        Tensor(ds.outputs.data[0]))
                entries = len(tape)
                grads = backward(loss, tape)
            runs.append((entries, loss.data, [grads[p] for _, p in m.named_parameters()]))
        assert started == []
        assert runs[0][0] == runs[1][0] == 5 + 19 * 2
        assert np.array_equal(runs[0][1], runs[1][1])
        assert all(np.array_equal(a, b) for a, b in zip(runs[0][2], runs[1][2]))

    @staticmethod
    def split_layer(heads):
        """A perturbed block at C=64 and a unit-scale input x at M=1089, the
        KNN index, and the block's tensors with x first."""
        ds = generate_darcy(n=1, g=33, seed=6)
        rng = np.random.default_rng(10 + heads)
        blk = init_block(rng, ModelConfig(1, 2, 1, k=8, hidden=64, heads=heads, seed=2))
        for _, p in blk.named_params():
            p.data += 0.05 * rng.standard_normal(p.shape)
        x = Tensor(rng.standard_normal((ds.geometry.m, 64)), requires_grad=True)
        assert len(T.row_blocks(*x.shape, T._MAX_ROW_BLOCKS)) == 2
        return blk, x, knn_indices_accelerated(ds.geometry, 8), [x, *(p for _, p in
                                                                     blk.named_params())]

    @pytest.mark.parametrize("heads", [1, 2])
    def test_split_layer_gradcheck(self, rng, heads):
        # M=1089 cuts into blocks of 512 and 577 rows: the tail is not
        # aligned. Central differences along one random direction per tensor
        # check every gradient, the blocks' added weight, key and value
        # gradients among them; the mask logit is checked entry by entry.
        blk, x, knn, tensors = self.split_layer(heads)
        target = Tensor(rng.standard_normal(x.shape))

        def loss():
            return relative_l2_loss(la2_layer(x, knn, blk, row_workers=2, split_taped=True),
                                    target)

        with GradTape() as tape:
            grads = backward(loss(), tape)
        step = 1e-6
        for t in tensors:
            u = rng.standard_normal(t.shape)
            base = t.data.copy()
            t.data = base + step * u
            up = loss().item()
            t.data = base - step * u
            down = loss().item()
            t.data = base
            fd, tape_dd = (up - down) / (2 * step), float(np.sum(grads[t] * u))
            assert abs(fd - tape_dd) <= 1e-6 * max(1.0, abs(fd)), (fd, tape_dd)
        gradcheck_op(lambda: la2_layer(x, knn, blk, row_workers=2, split_taped=True),
                     [blk.mask_s], rng)

    @pytest.mark.parametrize("heads", [1, 2])
    def test_split_tape_matches_one_block(self, rng, heads):
        # The split forward is the one-block forward bit for bit; its
        # gradients add the blocks' weight, key and value gradients in
        # another order, within SPLIT_GRAD_RTOL of each tensor's largest.
        blk, x, knn, tensors = self.split_layer(heads)
        target = Tensor(rng.standard_normal(x.shape))

        def run(split_taped):
            with GradTape() as tape:
                out = la2_layer(x, knn, blk, row_workers=2, split_taped=split_taped)
                grads = backward(relative_l2_loss(out, target), tape)
            return out.data, [grads[t] for t in tensors]

        (one, g_one), (split, g_split) = run(False), run(True)
        assert np.array_equal(split, one)
        for a, b in zip(g_split, g_one):
            assert np.abs(a - b).max() <= SPLIT_GRAD_RTOL * np.abs(b).max()

    def test_taped_error_in_stage_b_is_the_lowest_blocks(self, monkeypatch):
        # Both blocks fail in stage B, block 0 last; its error, the one a
        # serial loop raises first, reaches the caller, whose tape is active
        # again, and no started thread outlives the call.
        blk, x, knn, _ = self.split_layer(1)
        real = la2.attention.knn_attention

        def failing(q, *args):
            if q.shape[0] == 512:
                time.sleep(0.05)
            raise TensorError(f"block of {q.shape[0]} rows")

        monkeypatch.setattr(la2.attention, "knn_attention", failing)
        before = threading.active_count()
        with GradTape() as tape:
            with pytest.raises(TensorError, match="^block of 512 rows$"):
                la2_layer(x, knn, blk, row_workers=2, split_taped=True)
            assert threading.active_count() == before
            assert T._ACTIVE_TAPE.tape is tape
        monkeypatch.setattr(la2.attention, "knn_attention", real)
        la2_layer(x, knn, blk, row_workers=2, split_taped=True)

    def test_threads_started_by_a_split_forward(self, monkeypatch):
        # On 2 row blocks one thread starts for the encoder and one for each
        # block's stages A and B; the global key sums run on the caller.
        ds = generate_darcy(n=1, g=33, seed=6)
        layers = 2
        m = self.perturbed_model(1, layers)
        knn = knn_indices_accelerated(ds.geometry, 8)
        started = []
        start = threading.Thread.start

        def counted(thread):
            started.append(thread)
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", counted)
        forward(m, Tensor(ds.inputs.data[0]), ds.geometry, knn, row_workers=2)
        assert len(started) == 1 + 2 * layers
        started.clear()
        k, v = (Tensor(np.ones((4096, 32))) for _ in range(2))
        linear_attention_sums(k, v, 2)
        assert started == []


class TestStackedForward:
    """`forward` of [S, M, C_f] runs S samples as one untaped pass."""

    @pytest.mark.parametrize("g", [11, 16])
    @pytest.mark.parametrize("heads", [1, 2])
    def test_each_sample_as_its_own_forward(self, g, heads):
        # At M=121 a sample's rows start off the BLAS kernels' groups of
        # rows, so a matrix-vector product over the whole stack shows.
        ds = generate_darcy(n=5, g=g, seed=8)
        m = init_model(tiny_config(hidden=16, k=8, heads=heads))
        knn = knn_indices_accelerated(ds.geometry, 8)
        x = ds.inputs.data
        alone = [forward(m, Tensor(x[i]), ds.geometry, knn).data for i in range(5)]
        for order in ([3], [3, 0, 3, 4, 1]):
            out = forward(m, Tensor(x[order]), ds.geometry, knn).data
            assert out.shape == (len(order), ds.geometry.m, 1)
            assert [y.tobytes() for y in out] == [alone[i].tobytes() for i in order]

    def test_under_a_tape_raises(self, rng):
        m = init_model(tiny_config())
        pts, knn, f_in = darcy_like_instance(rng, 12)
        for samples in (1, 2):
            stacked = Tensor(np.stack([f_in.data] * samples))
            with GradTape(), pytest.raises(TensorError, match="untaped"):
                forward(m, stacked, pts, knn)

    @pytest.mark.threads
    def test_stacked_rows_on_row_blocks(self):
        # At M=1089 two row workers cut [0, 512) and [512, 1089) of every
        # sample's points alike, and sample 1 comes twice.
        ds = generate_darcy(n=2, g=33, seed=8)
        m = init_model(tiny_config(hidden=64, k=8))
        knn = knn_indices_accelerated(ds.geometry, 8)
        assert T.row_blocks(ds.geometry.m, 64, 2) == [slice(0, 512), slice(512, 1089)]
        x = ds.inputs.data
        alone = [forward(m, Tensor(x[i]), ds.geometry, knn).data for i in range(2)]
        order = [1, 0, 1]
        out = forward(m, Tensor(x[order]), ds.geometry, knn, row_workers=2).data
        assert [y.tobytes() for y in out] == [alone[i].tobytes() for i in order]

    def test_input_rows_must_match_points(self, rng):
        m = init_model(tiny_config())
        pts, knn, _ = darcy_like_instance(rng, 12)
        with pytest.raises(TensorError, match="must align"):
            forward(m, Tensor(np.ones((2, 13, 1))), pts, knn)


class TestMaskTrajectory:
    def test_fresh_model_at_half(self):
        m = init_model(tiny_config(layers=4))
        assert mask_trajectory(m) == [0.5, 0.5, 0.5, 0.5]

    def test_range(self):
        m = init_model(tiny_config())
        for blk, v in zip(m.blocks, [3.0, -2.5]):
            blk.mask_s.data[:] = v
        traj = mask_trajectory(m)
        assert all(0.0 < t < 1.0 for t in traj)
        assert traj[0] > 0.9 and traj[1] < 0.1

    def test_is_the_mask_ops_sigma(self, rng):
        # Bit for bit the sigma(s) that soft_mask uses: its rank weights are
        # sigmoid((sigma(s)*(K-1) + 1 - r) * alpha).
        m = init_model(tiny_config(layers=3, alpha=3.0))
        ranks = np.arange(1.0, m.config.k + 1.0)
        for _ in range(200):
            values = rng.uniform(-40.0, 40.0, 3)
            for blk, v in zip(m.blocks, values):
                blk.mask_s.data[:] = v
            for blk, sig in zip(m.blocks, mask_trajectory(m)):
                assert sig == _sigmoid(blk.mask_s.data)[0]
                w = soft_mask(blk.mask_s, m.config.k, blk.alpha).data
                expect = _sigmoid((sig * (m.config.k - 1.0) + 1.0 - ranks) * blk.alpha)
                assert np.array_equal(w, expect)

    def test_saturated_logit(self):
        # exp(800) overflows a float; the stable sigmoid does not.
        m = init_model(tiny_config())
        m.blocks[0].mask_s.data[:] = -800.0
        m.blocks[1].mask_s.data[:] = 800.0
        assert mask_trajectory(m) == [0.0, 1.0]


class TestCheckpoint:
    def test_roundtrip_bit_identical(self, rng, tmp_path):
        cfg = tiny_config(layers=3, hidden=12)
        m = init_model(cfg)
        # Perturb away from init so the test is not trivially true.
        for _, t in m.named_parameters():
            t.data += rng.standard_normal(t.shape) * 0.1
        path = tmp_path / "model.la2c"
        save_checkpoint(m, path)
        m2 = load_checkpoint(path)
        assert m2.config == m.config
        for (na, ta), (nb, tb) in zip(m.named_parameters(), m2.named_parameters()):
            assert na == nb
            assert np.array_equal(ta.data, tb.data)

    def test_roundtrip_forward_identical(self, rng, tmp_path):
        cfg = tiny_config()
        m = init_model(cfg)
        pts, knn, f_in = darcy_like_instance(rng, 20, cfg)
        out = forward(m, f_in, pts, knn).data
        path = tmp_path / "model.la2c"
        save_checkpoint(m, path)
        out2 = forward(load_checkpoint(path), f_in, pts, knn).data
        assert np.array_equal(out, out2)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.la2c"
        path.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_truncated(self, tmp_path):
        m = init_model(tiny_config())
        path = tmp_path / "model.la2c"
        save_checkpoint(m, path)
        blob = path.read_bytes()
        path.write_bytes(blob[:len(blob) // 2])
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    @pytest.mark.parametrize("damage", ["missing-offset", "string-entry"])
    def test_rejects_malformed_entry(self, tmp_path, damage):
        path = tmp_path / "model.la2c"
        save_checkpoint(init_model(tiny_config()), path)

        def edit(header):
            if damage == "missing-offset":
                del header["params"][1]["offset"]
            else:
                header["params"][1] = header["params"][1]["name"]

        edit_header(path, edit)
        with pytest.raises(CheckpointError, match="malformed checkpoint header"):
            load_checkpoint(path)

    @pytest.mark.parametrize("value", [1.5, True])
    def test_rejects_non_integer_int_field(self, tmp_path, value):
        path = tmp_path / "model.la2c"
        save_checkpoint(init_model(tiny_config()), path)
        edit_header(path, lambda header: header["config"].update(layers=value))
        with pytest.raises(CheckpointError, match="layers must be an integer"):
            load_checkpoint(path)

    def test_rejects_negative_seed(self, tmp_path):
        path = tmp_path / "model.la2c"
        save_checkpoint(init_model(tiny_config()), path)
        edit_header(path, lambda header: header["config"].update(seed=-1))
        with pytest.raises(CheckpointError, match="seed must be non-negative"):
            load_checkpoint(path)

    @pytest.mark.parametrize("shape", [[], [1, 1]])
    def test_rejects_mask_s_shape(self, tmp_path, shape):
        # Both shapes hold one float, so only the shape check can catch them.
        path = tmp_path / "model.la2c"
        save_checkpoint(init_model(tiny_config()), path)

        def edit(header):
            entry, = (e for e in header["params"] if e["name"] == "blocks.0.mask_s")
            entry["shape"] = shape

        edit_header(path, edit)
        with pytest.raises(CheckpointError, match="blocks.0.mask_s has shape"):
            load_checkpoint(path)

    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
    def test_rejects_non_finite_value(self, tmp_path, value):
        m = init_model(tiny_config())
        m.blocks[1].w_qg.data[0, 0] = value
        path = tmp_path / "model.la2c"
        save_checkpoint(m, path)
        with pytest.raises(CheckpointError,
                           match="parameter blocks.1.w_qg holds non-finite values"):
            load_checkpoint(path)

    @pytest.mark.parametrize("damage", ["overlap", "gap", "trailing"])
    def test_rejects_non_contiguous_layout(self, tmp_path, damage):
        path = tmp_path / "model.la2c"
        save_checkpoint(init_model(tiny_config()), path)
        blob = path.read_bytes()
        (hlen,) = struct.unpack("<Q", blob[8:16])
        header = json.loads(blob[16:16 + hlen])
        data = blob[16 + hlen:]
        if damage == "overlap":
            header["params"][1]["offset"] -= 8
        elif damage == "gap":
            cut = header["params"][1]["offset"]
            for e in header["params"][1:]:
                e["offset"] += 8
            data = data[:cut] + bytes(8) + data[cut:]
        else:
            data += bytes(8)
        head = json.dumps(header).encode()
        path.write_bytes(blob[:8] + struct.pack("<Q", len(head)) + head + data)
        with pytest.raises(CheckpointError):
            load_checkpoint(path)
