"""Loss semantics, optimizer behavior, and the training loop contract."""

import math
import os
import platform
import subprocess
import sys
import textwrap
import threading
from pathlib import Path

import numpy as np
import pytest

from la2 import data as D
from la2 import training as TR
from la2 import geometry as G
from la2.model import ModelConfig, init_model, load_checkpoint, save_checkpoint
from la2 import tensor as T
from la2.tensor import GradTape, Tensor, TensorError, backward


@pytest.fixture(scope="module")
def tiny_darcy():
    return D.generate_darcy(n=12, g=8, seed=21)


def tiny_model(ds, **kw):
    base = dict(in_channels=1, coord_channels=2, out_channels=1, k=4,
                layers=2, hidden=8, seed=3)
    base.update(kw)
    return init_model(ModelConfig(**base))


class TestRelativeL2Loss:
    def test_train_calls_the_module_global(self, tiny_darcy, monkeypatch):
        # `train` reaches the loss as `training.relative_l2_loss`, so rebinding
        # that name observes every training sample.
        calls = []

        def counted(pred, target):
            calls.append(pred.shape)
            return T.relative_l2_loss(pred, target)

        monkeypatch.setattr(TR, "relative_l2_loss", counted)
        TR.train(tiny_model(tiny_darcy), tiny_darcy, TR.TrainConfig(epochs=2, batch_size=4))
        assert len(calls) == 2 * len(tiny_darcy.train_indices)

    def test_identical_fields(self, rng):
        t = Tensor(rng.standard_normal((6, 2)))
        assert TR.relative_l2_loss(t, t).item() == 0.0

    def test_zero_prediction_is_one(self, rng):
        t = Tensor(rng.standard_normal((6, 2)))
        z = Tensor(np.zeros((6, 2)))
        assert TR.relative_l2_loss(z, t).item() == pytest.approx(1.0)

    def test_hand_example(self):
        pred = Tensor([[3.0], [4.0]])
        target = Tensor([[3.0], [0.0]])
        assert TR.relative_l2_loss(pred, target).item() == pytest.approx(16.0 / 9.0,
                                                                         abs=1e-12)

    def test_zero_norm_target_rejected(self):
        # A squared norm that overflows would make the loss and gradient 0.
        for pred, target in ((1.0, 0.0), (1e200, 1e200)):
            with pytest.raises(TensorError, match="nonzero target"):
                TR.relative_l2_loss(Tensor(np.full((3, 1), pred)),
                                    Tensor(np.full((3, 1), target)))

    def test_scale_robustness(self, rng):
        pred = Tensor(rng.standard_normal((5, 1)))
        target = Tensor(rng.standard_normal((5, 1)))
        base = TR.relative_l2_loss(pred, target).item()
        for c in (3.0, -0.25, 1e4):
            scaled = TR.relative_l2_loss(Tensor(c * pred.data),
                                         Tensor(c * target.data)).item()
            assert scaled == pytest.approx(base, abs=1e-12)

    def test_gradient_flows(self, rng):
        pred = Tensor(rng.standard_normal((4, 1)), requires_grad=True)
        target = Tensor(rng.standard_normal((4, 1)))
        with GradTape() as tape:
            loss = TR.relative_l2_loss(pred, target)
            gmap = backward(loss, tape)
        assert np.isfinite(gmap[pred]).all()
        # d/dpred |pred - target|^2 / |target|^2 = 2 (pred - target) / |target|^2
        expect = 2.0 * (pred.data - target.data) / np.sum(target.data ** 2)
        assert gmap[pred] == pytest.approx(expect, rel=1e-12)


class TestAdam:
    def cfg(self, **kw):
        base = dict(epochs=1, weight_decay=0.0)
        base.update(kw)
        return TR.TrainConfig(**base)

    def test_zero_gradient_fixed_point(self):
        p = Tensor([1.0, -2.0], requires_grad=True)
        state = TR.AdamState([p])
        before = p.data.copy()
        TR.adam_step([p], [np.zeros(2)], state, self.cfg(), lr=0.1)
        assert np.array_equal(p.data, before)

    def test_first_step_magnitude(self):
        p = Tensor([0.0], requires_grad=True)
        state = TR.AdamState([p])
        TR.adam_step([p], [np.ones(1)], state, self.cfg(), lr=0.1)
        # Bias-corrected m/sqrt(v) is 1, so the step is -lr/(1+eps).
        assert p.data[0] == pytest.approx(-0.1, abs=1e-8)

    def test_decoupled_weight_decay(self):
        p = Tensor([2.0], requires_grad=True)
        state = TR.AdamState([p])
        TR.adam_step([p], [np.zeros(1)], state, self.cfg(weight_decay=0.5), lr=0.1)
        assert p.data[0] == pytest.approx(2.0 - 0.1 * 0.5 * 2.0)

    def test_determinism(self, rng):
        g = rng.standard_normal(5)
        results = []
        for _ in range(2):
            p = Tensor(np.linspace(-1, 1, 5), requires_grad=True)
            state = TR.AdamState([p])
            for _ in range(7):
                TR.adam_step([p], [g], state, self.cfg(), lr=0.1)
            results.append(p.data.copy())
        assert np.array_equal(results[0], results[1])

    def test_shape_mismatch(self):
        p = Tensor([1.0], requires_grad=True)
        state = TR.AdamState([p])
        with pytest.raises(TR.TrainingError):
            TR.adam_step([p], [np.zeros(3)], state, self.cfg(), lr=0.1)


class TestClipAndSchedule:
    def test_clip_invariant(self, rng):
        for _ in range(5):
            grads = [rng.standard_normal(s) * 10 for s in ((3, 4), (7,), (2, 2))]
            TR.clip_gradients(grads, 1.0)
            norm = math.sqrt(sum(float(np.sum(g * g)) for g in grads))
            assert norm <= 1.0 + 1e-12

    def test_clip_noop_when_small(self, rng):
        g = rng.standard_normal(4) * 1e-3
        before = g.copy()
        TR.clip_gradients([g], 1.0)
        assert np.array_equal(g, before)

    @pytest.mark.parametrize("scale,clipped", [(1.0, True), (1e-3, False)])
    def test_clip_returns_pre_clip_norm(self, scale, clipped):
        grads = [np.array([3.0]) * scale, np.array([[4.0]]) * scale]
        before = [g.copy() for g in grads]
        assert TR.clip_gradients(grads, 1.0) == pytest.approx(5.0 * scale, rel=1e-15)
        assert np.array_equal(grads[0], before[0]) != clipped
        if clipped:
            assert grads[0] == pytest.approx([0.6], rel=1e-15)
            assert grads[1].ravel() == pytest.approx([0.8], rel=1e-15)

    def test_cosine_endpoints(self):
        assert TR.cosine_lr(0, 10, 1e-3, 1e-5) == pytest.approx(1e-3)
        assert TR.cosine_lr(9, 10, 1e-3, 1e-5) == pytest.approx(1e-5)
        mid = TR.cosine_lr(5, 11, 1e-3, 1e-5)
        assert 1e-5 < mid < 1e-3

    def test_single_epoch_uses_peak(self):
        assert TR.cosine_lr(0, 1, 1e-3, 1e-5) == 1e-3


class TestTrainConfig:
    def test_zero_epochs_rejected(self):
        with pytest.raises(TR.TrainingError):
            TR.TrainConfig(epochs=0)

    @pytest.mark.parametrize("key", ["lr", "lr_min", "weight_decay", "clip_norm"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_rejected(self, key, value):
        with pytest.raises(TR.TrainingError):
            TR.TrainConfig(epochs=1, **{key: value})

    @pytest.mark.parametrize("key,value", [
        ("epochs", 2.5), ("epochs", True), ("batch_size", 2.5), ("lr", "1e-3")],
        ids=["float_epochs", "bool_epochs", "float_batch_size", "string_lr"])
    def test_mistyped_field_rejected(self, key, value):
        with pytest.raises(TR.TrainingError, match=f"{key} must be"):
            TR.TrainConfig(**{"epochs": 1, key: value})

    def test_final_rate_above_peak_rejected(self):
        # lr=1e-6 under the default lr_min=1e-5 would raise the rate each epoch.
        with pytest.raises(TR.TrainingError, match=r"lr_min=1e-05 .* lr=1e-06"):
            TR.TrainConfig(epochs=3, lr=1e-6)
        assert TR.TrainConfig(epochs=3, lr=1e-5).lr_min == 1e-5   # a flat schedule

    def test_non_finite_alpha_rejected(self):
        with pytest.raises(TensorError):
            ModelConfig(1, 2, 1, alpha=math.nan)


class TestEvaluate:
    def test_mean_equals_per_sample_average(self, tiny_darcy):
        m = tiny_model(tiny_darcy)
        res = TR.evaluate(m, tiny_darcy, "test")
        assert res["rel_l2"] == pytest.approx(np.mean(res["per_sample"]), abs=1e-12)

    def test_forced_equal_prediction_is_zero(self, tiny_darcy, monkeypatch):
        m = tiny_model(tiny_darcy)
        stats = tiny_darcy.stats
        order = iter(tiny_darcy.test_indices)

        def fake_forward(model, f_in, pts, knn, row_workers):
            # One stacked call per group: [S, M, C_f] in, [S, M, C_u] out.
            group = [next(order) for _ in f_in.data]
            y = D.normalize(tiny_darcy.outputs.data[group],
                            stats["output_mean"], stats["output_std"])
            return Tensor(y)

        monkeypatch.setattr(TR, "forward", fake_forward)
        res = TR.evaluate(m, tiny_darcy, "test")
        assert res["rel_l2"] < 1e-12

    def test_zero_prediction_normalized_metric_is_one(self, tiny_darcy):
        # A model that predicts exactly 0 in normalized space scores exactly
        # 1.0 there: |0 - y|/|y|. (A *random* fresh model does not sit near
        # 1.0: the global branch's interaction-mass division can amplify
        # fresh outputs by orders of magnitude, see the finiteness test.)
        m = tiny_model(tiny_darcy)
        m.proj_w.data[:] = 0.0
        m.proj_b.data[:] = 0.0
        res = TR.evaluate(m, tiny_darcy, "test")
        assert res["rel_l2_normalized"] == pytest.approx(1.0, abs=1e-12)

    def test_fresh_model_metric_finite(self, tiny_darcy):
        for seed in (0, 1, 2):
            m = tiny_model(tiny_darcy, seed=seed)
            res = TR.evaluate(m, tiny_darcy, "test")
            assert math.isfinite(res["rel_l2"]) and res["rel_l2"] > 0
            assert math.isfinite(res["rel_l2_normalized"])

    def test_channel_mismatch_rejected(self, tiny_darcy):
        m = tiny_model(tiny_darcy, in_channels=3)
        with pytest.raises(TR.TrainingError):
            TR.evaluate(m, tiny_darcy, "test")

    def test_zero_target_field_rejected(self):
        ds = D.generate_darcy(n=6, g=8, seed=1)
        i = int(ds.test_indices[0])
        ds.outputs.data[i] = 0.0
        with pytest.raises(TR.TrainingError, match=f"^sample {i}: the target field "
                                                   "has zero norm"):
            TR.evaluate(tiny_model(ds), ds, "test")

    @pytest.mark.parametrize("bad", [lambda n: [-1], lambda n: [n],
                                     lambda n: [[0]], lambda n: "val",
                                     lambda n: [1.7], lambda n: [True],
                                     lambda n: [[0], [0, 1]]],
                             ids=["negative", "past-end", "nested", "unknown-name",
                                  "float", "bool", "ragged"])
    def test_bad_sample_indices_rejected(self, tiny_darcy, bad):
        m = tiny_model(tiny_darcy)
        with pytest.raises(TR.TrainingError):
            TR.evaluate(m, tiny_darcy, bad(tiny_darcy.n))


@pytest.fixture(scope="module")
def wide_darcy():
    # One sample has 576 points x width 64, above evaluate's thread cutoff.
    ds = D.generate_darcy(n=5, g=24, seed=23)
    m = tiny_model(ds, layers=1, hidden=64)
    assert ds.geometry.m * m.config.hidden >= TR._THREAD_MIN_ACTIVATIONS
    return ds, m


def result_bytes(res):
    return (np.array(res["per_sample"]).tobytes(),
            np.array([res["rel_l2"], res["rel_l2_normalized"]]).tobytes(), res["n"])


@pytest.mark.threads
class TestParallelEvaluate:
    """evaluate spreads samples over threads; its results must not show it."""

    def cpus(self, monkeypatch, n):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))

    def test_one_and_two_cpus_give_the_same_bytes(self, wide_darcy, monkeypatch):
        ds, m = wide_darcy
        seen = set()
        real = TR.forward

        def recording(model, f_in, *args, **kwargs):
            # A wide sample reaches the cutoff alone: groups of one.
            assert f_in.shape == (1, ds.geometry.m, 1)
            seen.add(threading.get_ident())
            return real(model, f_in, *args, **kwargs)

        monkeypatch.setattr(TR, "forward", recording)
        results = {}
        for n in (1, 2):
            self.cpus(monkeypatch, n)
            seen.clear()
            results[n] = result_bytes(TR.evaluate(m, ds, "all"))
            assert len(seen) == n
        assert results[1] == results[2]

    def test_matches_one_sample_calls(self, wide_darcy):
        # Unpatched: this runs threaded on a multi-CPU host and serially
        # under `taskset -c 0`; a one-sample call always runs serially.
        ds, m = wide_darcy
        res = TR.evaluate(m, ds, "all")
        alone = [TR.evaluate(m, ds, [i])["per_sample"][0] for i in range(ds.n)]
        assert np.array(res["per_sample"]).tobytes() == np.array(alone).tobytes()

    def test_worker_error_reaches_caller(self, wide_darcy, monkeypatch):
        # Positions 1 and 2 fail; position 1 runs on the started thread and is
        # the error a serial loop would raise first.
        ds, m = wide_darcy
        self.cpus(monkeypatch, 2)
        real = TR.forward
        where = {}

        def failing(model, f_in, pts, knn, row_workers):
            (x,) = f_in.data                    # a wide sample's group of one
            i = next(i for i in range(ds.n) if np.array_equal(
                x, D.normalize(ds.inputs.data[i], ds.stats["input_mean"],
                               ds.stats["input_std"])))
            where[i] = threading.get_ident()
            if i in (1, 2):
                raise TensorError(f"overflow in sample {i}")
            return real(model, f_in, pts, knn, row_workers=row_workers)

        monkeypatch.setattr(TR, "forward", failing)
        before = threading.active_count()
        with pytest.raises(TensorError) as info:
            TR.evaluate(m, ds, "all")
        assert type(info.value) is TensorError
        assert str(info.value) == "overflow in sample 1"
        assert where[1] != threading.get_ident()
        assert threading.active_count() == before

    def test_no_thread_outlives_the_call(self, wide_darcy, monkeypatch):
        ds, m = wide_darcy
        self.cpus(monkeypatch, 2)
        before = threading.active_count()
        TR.evaluate(m, ds, "all")
        assert threading.active_count() == before

    def test_threads_started_are_capped_by_samples(self, wide_darcy, monkeypatch):
        ds, m = wide_darcy
        self.cpus(monkeypatch, 10_000)
        started = []
        start = threading.Thread.start

        def counted(thread):
            started.append(thread)
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", counted)
        TR.evaluate(m, ds, [0, 1, 2])
        assert len(started) == 2

    def test_map_in_order_under_contention(self):
        # More threads than cores and a short switch interval: every result
        # lands at its own position, and the lowest failing position's error
        # is the one raised.
        items = list(range(2000))

        def square_unless_bad(x):
            if x in (1500, 777, 1201):
                raise TR.TrainingError(f"bad item {x}")
            return x * x

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            assert TR._map_in_order(lambda x: x * x, items, 8) == [x * x for x in items]
            with pytest.raises(TR.TrainingError, match="^bad item 777$"):
                TR._map_in_order(square_unless_bad, items, 8)
        finally:
            sys.setswitchinterval(old)

    def test_worker_count(self, monkeypatch):
        # Pure arithmetic: computing the plan starts no thread.
        self.cpus(monkeypatch, 10_000)
        assert TR._THREAD_MIN_ACTIVATIONS == 512 * 64
        before = threading.active_count()
        assert TR._threads(3, 512, 64)[0] == 3
        assert TR._threads(20_000, 512, 64)[0] == 10_000
        assert TR._threads(16, 511, 64) == (1, 1)
        self.cpus(monkeypatch, 1)
        assert TR._threads(3, 512, 64)[0] == 1
        assert threading.active_count() == before


@pytest.mark.threads
class TestGroupedEvaluate:
    """evaluate stacks samples below the thread cutoff into groups that reach
    it, one forward each; its results must not show it."""

    cpus = TestParallelEvaluate.cpus

    @pytest.mark.parametrize("g,size", [(16, 2), (11, 5)])
    @pytest.mark.parametrize("heads", [1, 2])
    @pytest.mark.parametrize("n_cpus", [1, 2])
    def test_same_bytes_as_one_sample_calls(self, monkeypatch, g, size, heads, n_cpus):
        # At M=121 a sample's rows start off the BLAS kernels' groups of rows,
        # so a whole-array matrix-vector product shows in the bytes.
        ds = D.generate_darcy(n=7, g=g, seed=26)
        m = tiny_model(ds, layers=2, hidden=64, k=8, heads=heads)
        split = [5, 0, 3, 3, 6, 1, 0, 4, 2, 6, 5]
        sizes = []
        preds = {}                  # each sample's forward output, by its input
        real = TR.forward

        def recording(model, f_in, *args, **kwargs):
            out = real(model, f_in, *args, **kwargs)
            sizes.append(f_in.shape[0])
            for x, y in zip(f_in.data, out.data):
                assert preds.setdefault(x.tobytes(), y.tobytes()) == y.tobytes()
            return out

        monkeypatch.setattr(TR, "forward", recording)
        self.cpus(monkeypatch, n_cpus)
        res = TR.evaluate(m, ds, split)
        assert sorted(sizes) == sorted([size] * (len(split) // size) + [len(split) % size])
        sizes.clear()
        alone = [TR.evaluate(m, ds, [i]) for i in split]
        assert sizes == [1] * len(split)
        per_sample = [r["per_sample"][0] for r in alone]
        assert result_bytes(res) == result_bytes({
            "per_sample": per_sample, "rel_l2": float(np.mean(per_sample)),
            "rel_l2_normalized": float(np.mean([r["rel_l2_normalized"] for r in alone])),
            "n": len(split)})

    def test_desk_request_starts_one_thread(self, monkeypatch):
        # On the desk grid 256 points x width 64 is half the thread cutoff:
        # 16 samples in pairs are 8 forwards, on 2 CPUs the caller's and one
        # started thread's.
        ds = D.generate_darcy(n=8, g=16, seed=25)
        m = tiny_model(ds, layers=1, hidden=64, k=8)
        self.cpus(monkeypatch, 2)
        started = []
        start = threading.Thread.start

        def counted(thread):
            started.append(thread)
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", counted)
        before = threading.active_count()
        res = TR.evaluate(m, ds, list(range(8)) * 2)
        assert len(started) == 1
        assert threading.active_count() == before
        assert res["per_sample"][:8] == res["per_sample"][8:]

    def test_group_error_reaches_caller(self, monkeypatch):
        # Groups (0, 1), (6, 2) and (3,): the second and third fail, and the
        # error of the lower position is raised, as in a serial loop.
        ds = D.generate_darcy(n=8, g=16, seed=25)
        ds.outputs.data[[3, 6]] = 0.0
        self.cpus(monkeypatch, 2)
        with pytest.raises(TR.TrainingError, match="^sample 6: "):
            TR.evaluate(tiny_model(ds, layers=1, hidden=64), ds, [0, 1, 6, 2, 3])


@pytest.mark.threads
class TestParallelTrain:
    """train spreads a batch's samples over threads, recomputing each block in
    backward; its results must not show it."""

    cpus = TestParallelEvaluate.cpus

    def run(self, ds, monkeypatch, n, tmp_path=None):
        # Batches of 3 from 4 train samples, then a one-sample batch. On 2 CPUs
        # the first batch is a wave of 2 and a partial wave of 1; on 3 CPUs it
        # is one wave of 3, whose sum is the first that is not commutative.
        self.cpus(monkeypatch, n)
        m = tiny_model(ds, layers=1, hidden=64)
        ckpt = None if tmp_path is None else tmp_path / f"best{n}.la2c"
        report = TR.train(m, ds, TR.TrainConfig(epochs=2, batch_size=3, seed=4),
                          checkpoint_path=ckpt)
        return m, report, ckpt

    def test_one_two_and_three_cpus_give_the_same_bytes(self, wide_darcy, monkeypatch,
                                                       tmp_path):
        ds, _ = wide_darcy
        assert len(ds.train_indices) == 4
        seen = []
        real = TR.forward

        def recording(*args, recompute_blocks=False, **kwargs):
            seen.append((threading.get_ident(), recompute_blocks))
            return real(*args, recompute_blocks=recompute_blocks, **kwargs)

        monkeypatch.setattr(TR, "forward", recording)
        results = {}
        for n in (1, 2, 3):
            seen.clear()
            m, report, ckpt = self.run(ds, monkeypatch, n, tmp_path)
            final = tmp_path / f"final{n}.la2c"
            save_checkpoint(m, final)
            results[n] = (final.read_bytes(), ckpt.read_bytes(), report.train_loss,
                          report.test_rel_l2, report.mask_sigma)
            # Per epoch: 4 training samples, then evaluate's one test sample.
            assert len(seen) == 2 * (4 + 1)
            threads = {t for t, rc in seen if rc}
            assert len(threads) == (n if n > 1 else 0)
        assert results[1] == results[2] == results[3]

    def test_non_finite_loss_same_error(self, wide_darcy, monkeypatch):
        # The second sample of the first batch, which runs on the started
        # thread, gives a NaN loss; the serial loop raises the same error.
        ds, _ = wide_darcy
        first = ds.train_indices[np.random.default_rng(4).permutation(4)]
        bad = first[1]
        y_bad = D.normalize(ds.outputs.data[bad], ds.stats["output_mean"],
                            ds.stats["output_std"])
        where = []

        def nan_for_bad(pred, target):
            loss = T.relative_l2_loss(pred, target)
            if np.array_equal(target.data, y_bad):
                where.append(threading.get_ident())
                loss.data = np.full(1, np.nan)
            return loss

        monkeypatch.setattr(TR, "relative_l2_loss", nan_for_bad)
        before = threading.active_count()
        messages = {}
        for n in (1, 2):
            where.clear()
            with pytest.raises(TR.TrainingError) as info:
                self.run(ds, monkeypatch, n)
            messages[n] = str(info.value)
            assert threading.active_count() == before
            assert (where[0] != threading.get_ident()) == (n == 2)
        assert messages[1] == messages[2] == f"non-finite loss at epoch 1, sample {bad}"

    def test_workers_call_the_module_global_loss(self, wide_darcy, monkeypatch):
        # The benchmark's step clock hooks `training.relative_l2_loss` to
        # count samples; worker threads must call it there too.
        ds, _ = wide_darcy
        threads = []

        def counted(pred, target):
            threads.append(threading.get_ident())
            return T.relative_l2_loss(pred, target)

        monkeypatch.setattr(TR, "relative_l2_loss", counted)
        self.run(ds, monkeypatch, 2)
        assert len(threads) == 2 * 4
        assert len(set(threads)) == 2


@pytest.mark.threads
class TestRowSplitTrain:
    """One large sample's taped step runs its row blocks on the CPUs that
    sample threads leave idle; the results must not show it."""

    cpus = TestParallelEvaluate.cpus

    @pytest.mark.parametrize("batch_size", [1, 2])
    def test_same_bytes_on_one_two_and_three_cpus(self, monkeypatch, tmp_path, batch_size):
        # 1024 points x width 64 cuts into two row blocks under a tape with
        # split_taped, which only a batch of one sample asks for: it leaves
        # every CPU but one to its rows. A batch of two runs its samples on
        # sample threads, each on one block.
        ds = D.generate_darcy(n=3, g=32, seed=25)
        assert len(ds.train_indices) == 2
        plans = []
        real = TR.forward

        def recording(*args, recompute_blocks=False, row_workers=1, split_taped=False,
                      **kwargs):
            plans.append((recompute_blocks, row_workers, split_taped))
            return real(*args, recompute_blocks=recompute_blocks, row_workers=row_workers,
                        split_taped=split_taped, **kwargs)

        monkeypatch.setattr(TR, "forward", recording)
        results = {}
        for n in (1, 2, 3):
            self.cpus(monkeypatch, n)
            plans.clear()
            m = tiny_model(ds, layers=2, hidden=64, k=8)
            before = threading.active_count()
            report = TR.train(m, ds, TR.TrainConfig(epochs=2, batch_size=batch_size, seed=4),
                              checkpoint_path=tmp_path / f"best{n}.la2c")
            assert threading.active_count() == before
            # Per epoch: the two training samples, then evaluate's test sample.
            step = (False, min(n, 2), True) if batch_size == 1 else (n > 1, 1, False)
            assert plans == ([step] * 2 + [(False, min(n, 2), False)]) * 2
            results[n] = (b"".join(p.data.tobytes() for _, p in m.named_parameters()),
                          np.array(report.train_loss + report.test_rel_l2).tobytes(),
                          (tmp_path / f"best{n}.la2c").read_bytes())
        assert results[1] == results[2] == results[3]


@pytest.mark.threads
class TestRowSplitEvaluate:
    """One large sample's rows are split across the CPUs that sample threads
    leave idle; the results must not show it."""

    cpus = TestParallelEvaluate.cpus

    def test_one_large_sample_same_bytes_on_one_two_and_three_cpus(self, monkeypatch):
        # 1600 points x width 64 is three times the cutoff, room for three
        # row blocks.
        ds = D.generate_darcy(n=2, g=40, seed=24)
        m = tiny_model(ds, layers=2, hidden=64, k=8)
        started = []
        start = threading.Thread.start

        def counted(thread):
            started.append(thread)
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", counted)
        results = {}
        for n in (1, 2, 3):
            self.cpus(monkeypatch, n)
            started.clear()
            before = threading.active_count()
            results[n] = result_bytes(TR.evaluate(m, ds, [1]))
            assert threading.active_count() == before
            # n - 1 started threads in each of the encoder and, per block,
            # stage A and stage B.
            assert len(started) == (1 + 2 * 2) * (n - 1)
        assert results[1] == results[2] == results[3]

    def test_row_worker_count(self, monkeypatch):
        # Pure arithmetic: computing the plan starts no thread. One row thread
        # per 512 x 64 points x width, as many as the CPUs left idle.
        before = threading.active_count()
        self.cpus(monkeypatch, 2)
        assert TR._threads(1, 4096, 64) == (1, 2)
        assert TR._threads(2, 4096, 64) == (2, 1)
        assert TR._threads(1, 1023, 64) == (1, 1)
        self.cpus(monkeypatch, 10_000)
        assert TR._threads(1, 4096, 64) == (1, 8)
        assert TR._threads(3, 4096, 64) == (3, 8)
        assert TR._threads(3, 512, 64) == (3, 1)
        self.cpus(monkeypatch, 1)
        assert TR._threads(1, 4096, 64) == (1, 1)
        assert threading.active_count() == before

    def test_plan_reads_the_cpu_set_once(self, monkeypatch):
        reads = []
        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda pid: reads.append(pid) or set(range(4)))
        assert TR._threads(1, 4096, 64) == (1, 4)
        assert reads == [0]
        monkeypatch.delattr(os, "sched_getaffinity")
        assert TR._threads(1, 4096, 64) == (1, 1)


# Run in a fresh interpreter, on the CPUs this process may use: one warm-up
# epoch, then the fewest minor page faults of two more, in three rounds. A
# thread that starts while a joined one is still exiting can get a new malloc
# arena, whose first use faults in about 16 MiB (5 of 30 single rounds on 2
# CPUs took 844-4370 faults, each with a third arena); the rounds keep that
# one-off cost out of the count.
_FAULTS_OF_TRAINING = textwrap.dedent("""
    import resource
    from la2 import data, training
    from la2.model import ModelConfig, init_model

    ds = data.generate_darcy(n=3, g=32, seed=0)
    m = init_model(ModelConfig(1, 2, 1, layers=2, hidden=64))
    training.train(m, ds, training.TrainConfig(epochs=1, batch_size=2))
    faults = []
    for _ in range(3):
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        training.train(m, ds, training.TrainConfig(epochs=2, batch_size=2))
        faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
    print(min(faults))
""")


@pytest.mark.threads
@pytest.mark.skipif(not sys.platform.startswith("linux") or platform.libc_ver()[0] != "glibc",
                    reason="pins glibc's malloc thresholds")
def test_training_reuses_freed_memory():
    # With glibc's dynamic thresholds each sample (M=1024, two of them per
    # batch) returned its freed heap top and faulted it back in: 9500-14200
    # minor faults per two epochs on 2 CPUs and 5800-7000 on one. With the
    # thresholds pinned at import (`tensor._pin_malloc_thresholds`), 0-480.
    env = {k: v for k, v in os.environ.items() if not k.startswith("MALLOC_")}
    src = str(Path(TR.__file__).parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, "-c", _FAULTS_OF_TRAINING], env=env,
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    assert int(run.stdout) < 1000


class TestTrainLoop:
    def test_report_structure_and_learning(self, tiny_darcy, tmp_path):
        m = tiny_model(tiny_darcy)
        cfg = TR.TrainConfig(epochs=3, batch_size=4, seed=2)
        ckpt = tmp_path / "best.la2c"
        report = TR.train(m, tiny_darcy, cfg, checkpoint_path=ckpt)
        assert report.epochs == 3
        assert len(report.mask_sigma[0]) == 2
        assert all(len(row) == 2 for row in report.mask_sigma)
        assert all(s > 0 for s in report.epoch_seconds)
        assert report.best_epoch >= 1
        assert ckpt.exists()
        best = load_checkpoint(ckpt)
        assert best.config == m.config

    def test_seeded_determinism(self, tiny_darcy):
        runs = []
        for _ in range(2):
            m = tiny_model(tiny_darcy)
            report = TR.train(m, tiny_darcy, TR.TrainConfig(epochs=2, seed=5))
            runs.append((report.train_loss, report.test_rel_l2, report.mask_sigma))
        assert runs[0] == runs[1]

    def test_builds_knn_once(self, monkeypatch):
        # A fresh dataset: the module-scoped one may already hold its index.
        ds = D.generate_darcy(n=6, g=8, seed=22)
        trees = []
        tree = G.cKDTree

        def counted(*args, **kwargs):
            trees.append(args)
            return tree(*args, **kwargs)

        monkeypatch.setattr(G, "cKDTree", counted)
        m = tiny_model(ds)
        TR.train(m, ds, TR.TrainConfig(epochs=3))
        TR.evaluate(m, ds, "test")
        TR.evaluate(m, ds, "all")
        assert len(trees) == 1

    def test_patch_size_exceeds_points(self, tiny_darcy):
        m = tiny_model(tiny_darcy, k=100)
        with pytest.raises(TR.TrainingError):
            TR.train(m, tiny_darcy, TR.TrainConfig(epochs=1))

    def test_csv_columns(self, tiny_darcy, tmp_path):
        m = tiny_model(tiny_darcy)
        report = TR.train(m, tiny_darcy, TR.TrainConfig(epochs=2, seed=1))
        path = tmp_path / "report.csv"
        report.write_csv(path)
        lines = path.read_text().strip().splitlines()
        header = lines[0].split(",")
        assert header == ["epoch", "train_loss", "test_rel_l2",
                          "sigma_s_1", "sigma_s_2", "epoch_seconds"]
        assert len(lines) == 3
