"""Darcy oracle behavior, generators, normalization, and the file format."""

import json
import struct

import numpy as np
import pytest

from la2 import data as D
from la2.geometry import knn_indices
from la2.tensor import Tensor, TensorError


def mms_error(g):
    """Max-norm error against the manufactured solution sin(pi x) sin(pi y)."""
    xs = np.linspace(0.0, 1.0, g)
    yy, xx = np.meshgrid(xs, xs, indexing="ij")
    a = Tensor(np.ones((g, g)))
    f = Tensor(2.0 * np.pi ** 2 * np.sin(np.pi * xx) * np.sin(np.pi * yy))
    u = D.solve_darcy_fd(a, f).data
    exact = np.sin(np.pi * xx) * np.sin(np.pi * yy)
    return np.abs(u - exact).max()


class TestDarcySolver:
    def test_zero_forcing_zero_solution(self):
        g = 12
        u = D.solve_darcy_fd(Tensor(np.ones((g, g))), Tensor(np.zeros((g, g))))
        assert np.array_equal(u.data, np.zeros((g, g)))

    def test_manufactured_solution_second_order(self):
        e16, e32 = mms_error(16), mms_error(32)
        assert e16 < 0.05
        assert e16 / e32 >= 3.5

    def test_xy_symmetry(self, rng):
        g = 17
        half = rng.uniform(1.0, 5.0, (g, g))
        a = (half + half.T) / 2.0          # symmetric under x <-> y
        f = np.ones((g, g))
        u = D.solve_darcy_fd(Tensor(a), Tensor(f)).data
        assert np.abs(u - u.T).max() < 1e-10

    def test_rejects_nonpositive_coefficient(self):
        g = 8
        a = np.ones((g, g))
        a[3, 3] = 0.0
        with pytest.raises(TensorError):
            D.solve_darcy_fd(Tensor(a), Tensor(np.ones((g, g))))

    def test_rejects_tiny_grid(self):
        with pytest.raises(TensorError):
            D.solve_darcy_fd(Tensor(np.ones((2, 2))), Tensor(np.ones((2, 2))))

    def test_residual_of_solution(self, rng):
        g = 20
        a = rng.uniform(3.0, 12.0, (g, g))
        f = rng.uniform(0.5, 1.5, (g, g))
        u = D.solve_darcy_fd(Tensor(a), Tensor(f))
        assert D.darcy_residual(Tensor(a), Tensor(f), u) < 1e-10


class TestGenerateDarcy:
    def test_shapes(self):
        ds = D.generate_darcy(n=6, g=16, seed=3)
        assert ds.inputs.shape == (6, 256, 1)
        assert ds.outputs.shape == (6, 256, 1)
        assert ds.geometry.coords.shape == (256, 2)

    def test_coefficient_is_two_valued(self):
        ds = D.generate_darcy(n=3, g=8, seed=0)
        vals = np.unique(ds.inputs.data)
        assert set(vals) <= {D.DARCY_A_LO, D.DARCY_A_HI}

    def test_seed_determinism(self):
        a = D.generate_darcy(n=4, g=8, seed=9)
        b = D.generate_darcy(n=4, g=8, seed=9)
        assert np.array_equal(a.inputs.data, b.inputs.data)
        assert np.array_equal(a.outputs.data, b.outputs.data)
        assert a.manifest == b.manifest

    def test_every_sample_satisfies_stencil(self):
        ds = D.generate_darcy(n=5, g=12, seed=2)
        g = 12
        f = Tensor(np.ones((g, g)))
        for i in range(ds.n):
            a = Tensor(ds.inputs.data[i, :, 0].reshape(g, g))
            u = Tensor(ds.outputs.data[i, :, 0].reshape(g, g))
            assert D.darcy_residual(a, f, u) < 1e-8

    def test_contract_violations(self):
        with pytest.raises(TensorError):
            D.generate_darcy(n=0, g=16, seed=0)
        with pytest.raises(TensorError):
            D.generate_darcy(n=2, g=4, seed=0)

    def test_split_and_stats(self):
        ds = D.generate_darcy(n=10, g=8, seed=1)
        train, test = ds.train_indices, ds.test_indices
        assert len(train) == 8 and len(test) == 2
        assert set(train) | set(test) == set(range(10))
        stats = ds.stats
        x = D.normalize(ds.inputs.data[train], stats["input_mean"], stats["input_std"])
        y = D.normalize(ds.outputs.data[train], stats["output_mean"], stats["output_std"])
        for z in (x, y):
            flat = z.reshape(-1, z.shape[-1])
            assert np.abs(flat.mean(axis=0)).max() < 1e-10
            assert np.abs(flat.std(axis=0) - 1.0).max() < 1e-10


class TestGeneratePointcloud:
    def test_shapes_and_channels(self):
        ds = D.generate_pointcloud_task(n=4, m=64, seed=7)
        assert ds.inputs.shape == (4, 64, 2)
        assert ds.outputs.shape == (4, 64, 1)
        assert np.array_equal(ds.inputs.data[0], ds.geometry.coords.data)

    def test_target_matches_closed_form(self):
        ds = D.generate_pointcloud_task(n=2, m=48, seed=5)
        expect = D.pointcloud_target(ds.geometry.coords.data)
        assert np.abs(ds.outputs.data[0, :, 0] - expect).max() < 1e-12
        assert ds.manifest["target_form"] == D.POINTCLOUD_FORM

    def test_geometry_inside_unit_square(self):
        ds = D.generate_pointcloud_task(n=1, m=200, seed=8)
        c = ds.geometry.coords.data
        assert (c >= 0.0).all() and (c <= 1.0).all()

    def test_seeds_change_geometry_and_knn(self):
        a = D.generate_pointcloud_task(n=1, m=64, seed=1)
        b = D.generate_pointcloud_task(n=1, m=64, seed=2)
        assert not np.array_equal(a.geometry.coords.data, b.geometry.coords.data)
        ka = knn_indices(a.geometry, 5)
        kb = knn_indices(b.geometry, 5)
        assert not np.array_equal(ka.idx, kb.idx)

    def test_too_few_points(self):
        with pytest.raises(TensorError):
            D.generate_pointcloud_task(n=1, m=8, seed=0)


class TestFileFormat:
    def test_tensor_roundtrip(self, rng, tmp_path):
        arr = rng.standard_normal((3, 5, 2))
        path = tmp_path / "t.la2t"
        D.write_tensor_file(arr, path)
        back = D.read_tensor_file(path)
        assert np.array_equal(arr, back)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.la2t"
        path.write_bytes(b"XXXX" + b"\x00" * 16)
        with pytest.raises(D.FormatError):
            D.read_tensor_file(path)

    def test_truncated_payload(self, rng, tmp_path):
        path = tmp_path / "t.la2t"
        D.write_tensor_file(rng.standard_normal((4, 4)), path)
        blob = path.read_bytes()
        path.write_bytes(blob[:-8])
        with pytest.raises(D.FormatError):
            D.read_tensor_file(path)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_payload_rejected(self, tmp_path, value):
        path = tmp_path / "t.la2t"
        D.write_tensor_file(np.array([[1.0, value]]), path)
        with pytest.raises(D.FormatError, match="t.la2t: holds NaN or infinite values"):
            D.read_tensor_file(path)

    def test_element_count_past_int64(self, tmp_path):
        # 2^33 x 2^31 elements: an int64 product wraps to 0, which an empty
        # payload would match.
        path = tmp_path / "huge.la2t"
        path.write_bytes(D.TENSOR_MAGIC + struct.pack("<II", D.TENSOR_VERSION, 2)
                         + struct.pack("<2Q", 2 ** 33, 2 ** 31))
        with pytest.raises(D.FormatError, match="payload does not match"):
            D.read_tensor_file(path)

    def test_dataset_roundtrip_bit_exact(self, tmp_path):
        ds = D.generate_darcy(n=5, g=8, seed=4)
        D.write_dataset(ds, tmp_path / "dset")
        back = D.read_dataset(tmp_path / "dset")
        assert np.array_equal(ds.geometry.coords.data, back.geometry.coords.data)
        assert np.array_equal(ds.inputs.data, back.inputs.data)
        assert np.array_equal(ds.outputs.data, back.outputs.data)
        assert ds.manifest == back.manifest

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(D.FormatError):
            D.read_dataset(tmp_path)

    def test_stored_stats_match_recomputation(self, tmp_path):
        ds = D.generate_darcy(n=8, g=8, seed=6)
        D.write_dataset(ds, tmp_path / "dset")
        back = D.read_dataset(tmp_path / "dset")
        train = back.train_indices
        flat_in = back.inputs.data[train].reshape(-1, 1)
        flat_out = back.outputs.data[train].reshape(-1, 1)
        stats = back.stats
        assert np.abs(flat_in.mean(axis=0) - stats["input_mean"]).max() < 1e-12
        assert np.abs(flat_in.std(axis=0) - stats["input_std"]).max() < 1e-12
        assert np.abs(flat_out.mean(axis=0) - stats["output_mean"]).max() < 1e-12
        assert np.abs(flat_out.std(axis=0) - stats["output_std"]).max() < 1e-12

    def test_manifest_is_json(self, tmp_path):
        ds = D.generate_darcy(n=3, g=8, seed=4)
        D.write_dataset(ds, tmp_path / "dset")
        with open(tmp_path / "dset" / "manifest.json") as fh:
            manifest = json.load(fh)
        assert manifest["task"] == "darcy"
        assert "stats" in manifest and "train_indices" in manifest

    @pytest.mark.parametrize("corrupt", [
        lambda m: "{not json",
        lambda m: json.dumps({k: v for k, v in m.items() if k != "test_indices"}),
        lambda m: json.dumps({**m, "train_indices": [0, 1.5]}),
        lambda m: json.dumps({**m, "train_indices": [0, 1, 999]}),
        lambda m: json.dumps({**m, "test_indices": [-1]}),
        lambda m: json.dumps({**m, "train_indices": []}),
        lambda m: json.dumps({**m, "stats": {k: v for k, v in m["stats"].items()
                                             if k != "output_std"}}),
        lambda m: json.dumps({**m, "stats": {**m["stats"], "input_mean": [0.0, 1.0]}}),
    ], ids=["invalid-json", "missing-split", "non-integer-index", "index-past-n",
            "negative-index", "empty-train", "missing-stats-key",
            "stats-length-mismatch"])
    def test_malformed_manifest(self, tmp_path, corrupt):
        D.write_dataset(D.generate_darcy(n=5, g=8, seed=4), tmp_path / "dset")
        path = tmp_path / "dset" / "manifest.json"
        path.write_text(corrupt(json.loads(path.read_text())))
        with pytest.raises(D.FormatError):
            D.read_dataset(tmp_path / "dset")

    @pytest.mark.parametrize("key, text", [
        ("input_std", "[0]"), ("input_mean", "[Infinity]"), ("output_std", "[NaN]"),
        ("output_std", "[-1]"), ("input_mean", "[1" + "0" * 400 + "]"),
        ("output_std", "[1e-300]"), ("input_std", "[1e-160]")])
    def test_stats_must_be_finite_with_positive_std(self, tmp_path, key, text):
        # json reads NaN and Infinity, and ints past the float range; a zero
        # std divides by zero and a negative one flips every prediction's sign.
        # A positive std too small to divide by overflows the normalized field
        # (1e-300) or its squared norm (1e-160).
        D.write_dataset(D.generate_darcy(n=5, g=8, seed=4), tmp_path / "dset")
        path = tmp_path / "dset" / "manifest.json"
        man = json.loads(path.read_text())
        man["stats"][key] = "@"
        path.write_text(json.dumps(man).replace('"@"', text))
        with pytest.raises(D.FormatError, match=f"stats.{key} must be"):
            D.read_dataset(tmp_path / "dset")

    @pytest.mark.parametrize("name", ["geometry", "inputs", "outputs"])
    def test_dataset_with_non_finite_values_names_the_file(self, tmp_path, name):
        D.write_dataset(D.generate_darcy(n=5, g=8, seed=4), tmp_path / "dset")
        path = tmp_path / "dset" / f"{name}.la2t"
        arr = D.read_tensor_file(path)
        arr.flat[7] = np.nan
        D.write_tensor_file(arr, path)
        with pytest.raises(D.FormatError, match=f"{name}.la2t: holds NaN"):
            D.read_dataset(tmp_path / "dset")

    def test_finite_values_too_large_for_the_std(self, tmp_path):
        # 1e200 is finite, but its square under a std of order 1 is not: the
        # message names the std and the data file both.
        D.write_dataset(D.generate_darcy(n=5, g=8, seed=4), tmp_path / "dset")
        path = tmp_path / "dset" / "inputs.la2t"
        arr = D.read_tensor_file(path)
        arr.flat[7] = 1e200
        D.write_tensor_file(arr, path)
        with pytest.raises(D.FormatError,
                           match="stats.input_std must be large enough for the values "
                                 "of inputs.la2t"):
            D.read_dataset(tmp_path / "dset")
