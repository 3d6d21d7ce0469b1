"""Operator composition, seeding, equivariance, checkpoint round-trips."""

import json
import struct

import numpy as np
import pytest

from conftest import edit_header, gradcheck
from la2.geometry import PointSet, knn_indices, relabel_knn
from la2.model import (CheckpointError, ModelConfig, OperatorModel, encode,
                       forward, init_model, load_checkpoint, mask_trajectory,
                       save_checkpoint)
from la2.tensor import GradTape, Tensor, TensorError, backward, mul, reduce_sum


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

    def test_applies_every_block(self, rng):
        cfg = tiny_config(layers=5)
        m = init_model(cfg)
        pts, knn, f_in = darcy_like_instance(rng, 12, cfg)
        seen = []
        forward(m, f_in, pts, knn, layer_hook=lambda i, h: seen.append(i))
        assert seen == [0, 1, 2, 3, 4]

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
        r = Tensor(rng.uniform(-1, 1, (16, 1)))
        wrt = [f_in] + [t for _, t in m.named_parameters()]
        worst = gradcheck(lambda: reduce_sum(mul(forward(m, f_in, pts, knn), r)),
                          wrt, tol=1e-4)
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
                backward(reduce_sum(forward(m, f_in, pts, knn)), tape)
            lengths.append(len(tape))
        assert lengths[0] == lengths[1]


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
