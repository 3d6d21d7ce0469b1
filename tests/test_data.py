"""Darcy oracle behavior, generators, normalization, and the file format."""

import itertools
import json
import os
import struct
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import solveh_banded
from scipy.ndimage import gaussian_filter
from scipy.sparse import csr_matrix
from scipy.sparse.linalg import spsolve

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


def stencil(a):
    """The five-point operator over the interior nodes, written out node by
    node as a dense matrix: harmonic-mean faces, u = 0 on the boundary."""
    g = a.shape[0]
    gi = g - 2
    h2 = (g - 1.0) ** 2
    mat = np.zeros((gi * gi, gi * gi))
    for i in range(1, g - 1):
        for j in range(1, g - 1):
            row = (i - 1) * gi + (j - 1)
            diag = 0.0
            for ni, nj in ((i - 1, j), (i + 1, j), (i, j - 1), (i, j + 1)):
                p, q = a[i, j], a[ni, nj]
                face = 2.0 * p * q / (p + q)
                diag += face
                if 0 < ni < g - 1 and 0 < nj < g - 1:
                    mat[row, (ni - 1) * gi + (nj - 1)] = -face * h2
            mat[row, row] = diag * h2
    return mat


def expand_bands(bands):
    """Dense symmetric matrix from LAPACK upper banded storage."""
    kd, n = bands.shape[0] - 1, bands.shape[1]
    mat = np.zeros((n, n))
    for r in range(kd + 1):
        off = kd - r
        cols = np.arange(off, n)
        mat[cols - off, cols] = bands[r, off:]
        mat[cols, cols - off] = bands[r, off:]
    return mat


def darcy_field(kind, g):
    if kind == "random":
        return np.random.default_rng(g).uniform(0.5, 5.0, (g, g))
    return D.generate_darcy(n=1, g=g, seed=g).inputs.data[0, :, 0].reshape(g, g)


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

    @pytest.mark.parametrize("g", [8, 13])
    @pytest.mark.parametrize("kind", ["two-valued", "random"])
    def test_bands_are_the_stencil(self, kind, g):
        a = darcy_field(kind, g)
        assert np.array_equal(expand_bands(D._darcy_bands(D._faces(a))), stencil(a))

    @pytest.mark.parametrize("g", [8, 13])
    @pytest.mark.parametrize("kind", ["two-valued", "random"])
    def test_matches_sparse_reference(self, kind, g, rng):
        # The sparse LU solve is a test-only reference, as brute-force KNN is.
        a = darcy_field(kind, g)
        f = rng.uniform(0.5, 1.5, (g, g))
        ref = spsolve(csr_matrix(stencil(a)), f[1:-1, 1:-1].ravel())
        u = D.solve_darcy_fd(Tensor(a), Tensor(f)).data
        assert np.abs(u[1:-1, 1:-1].ravel() - ref).max() <= 1e-12 * np.abs(ref).max()
        assert not u[[0, -1], :].any() and not u[:, [0, -1]].any()

    @pytest.mark.parametrize("field", ["huge", "subnormal", "mixed"])
    def test_degenerate_operator_rejected(self, field):
        # Positive coefficients whose harmonic faces overflow (1e300) or
        # underflow to zero (1e-320): the old path warned, then failed as
        # "non-finite values" or with the sparse solver's rank warning.
        g = 8
        a = np.full((g, g), 1e-320 if field == "subnormal" else 1e300)
        if field == "mixed":
            a[:g // 2] = 1e-300
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(TensorError, match="overflow or become singular"):
                D.solve_darcy_fd(Tensor(a), Tensor(np.ones((g, g))))

    def test_factorization_failure_is_tensor_error(self, monkeypatch):
        faulty_dpbsv(monkeypatch, 0, info=3)    # the 3rd leading minor is not positive
        with pytest.raises(TensorError, match="not positive definite"):
            D.solve_darcy_fd(Tensor(np.ones((8, 8))), Tensor(np.ones((8, 8))))

    @pytest.mark.parametrize("a_value, f_value", [(1.0, 1e12), (1e150, 1e300)])
    def test_large_forcing_solved(self, a_value, f_value):
        # An absolute 1e-10 bound refused these at relative errors of 1e-15:
        # the check bounds each residual by the sizes of the terms it sums.
        g = 8
        a, f = Tensor(np.full((g, g), a_value)), Tensor(np.full((g, g), f_value))
        u = D.solve_darcy_fd(a, f)
        assert 0 < D.darcy_residual(a, f, u) <= 1e-10 * f_value
        unit = D.solve_darcy_fd(Tensor(np.ones((g, g))), Tensor(np.ones((g, g)))).data
        assert np.allclose(u.data, unit * (f_value / a_value), rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("f_value", [1.0, 1e12])
    def test_corrupted_solution_fails_the_residual_check(self, monkeypatch, f_value):
        faulty_dpbsv(monkeypatch, 0)
        g = 8
        with pytest.raises(TensorError, match="solver residual"):
            D.solve_darcy_fd(Tensor(np.ones((g, g))), Tensor(np.full((g, g), f_value)))

    @pytest.mark.parametrize("field", ["uniform", "two-valued"])
    def test_overflowing_solution_rejected(self, field):
        # u grows as f / a: past the largest float the solve gives inf, which
        # failed as "tensor constructed from non-finite values".
        g = 8
        a = np.full((g, g), 1e-150)
        if field == "two-valued":
            a = np.full((g, g), 1e100)
            a[:, :g // 2] = 1e-100
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(TensorError, match="^Darcy solution overflows"):
                D.solve_darcy_fd(Tensor(a), Tensor(np.full((g, g), 1e300)))

    @pytest.mark.parametrize("g", [64, 128])
    def test_residual_on_large_grids(self, g):
        ds = D.generate_darcy(n=2, g=g, seed=4)
        f = Tensor(np.ones((g, g)))
        for i in range(ds.n):
            a = Tensor(ds.inputs.data[i, :, 0].reshape(g, g))
            u = Tensor(ds.outputs.data[i, :, 0].reshape(g, g))
            assert D.darcy_residual(a, f, u) <= 1e-10

    @pytest.mark.slow
    def test_large_grid_is_not_refused(self):
        # An absolute 1e-10 residual bound refused this at g=320 (1.17e-10),
        # where the backward error is near 1e-15.
        ds = D.generate_darcy(n=4, g=320, seed=0)
        assert ds.outputs.shape == (4, 320 * 320, 1)


def faulty_dpbsv(monkeypatch, call, info=0):
    """Patch `dpbsv` so that its call number `call` (from 0) reports `info`
    or, where that is 0, returns one unknown scaled by 1 + 1e-6."""
    real, calls = D.dpbsv, itertools.count()

    def solve(*args, **kwargs):
        c, x, ok = real(*args, **kwargs)
        if next(calls) != call:
            return c, x, ok
        if not info:
            x[len(x) // 2] *= 1 + 1e-6
        return c, x, info
    monkeypatch.setattr(D, "dpbsv", solve)


def reference_darcy(n, g, seed):
    """Per-sample generator loop: each field filtered on its own and solved
    through `solveh_banded`, which wraps LAPACK's `pbsv` too."""
    a_all, u_all = [], []
    for i in range(n):
        noise = np.random.default_rng([seed, i]).standard_normal((g, g))
        field = gaussian_filter(noise, sigma=g / 8.0, mode="reflect")
        a = np.where(field >= 0.0, D.DARCY_A_HI, D.DARCY_A_LO)
        x = solveh_banded(D._darcy_bands(D._faces(a)), np.ones((g - 2) ** 2))
        a_all.append(a)
        u_all.append(np.pad(x.reshape(g - 2, g - 2), 1))
    return np.stack(a_all), np.stack(u_all)


class TestStackedSolve:
    def stack(self, n=3, g=64):
        return np.stack([darcy_field("random", g) * (i + 1) for i in range(n)])

    def test_stack_equals_per_sample_solves(self, rng):
        # g=64: two samples a chunk, so sample 2 is the second chunk's first.
        a = self.stack()
        f = rng.uniform(0.5, 1.5, a.shape[1:])
        u = D.solve_darcy_fd(Tensor(a), Tensor(f)).data
        assert u.shape == a.shape
        for i in range(len(a)):
            assert np.array_equal(u[i], D.solve_darcy_fd(Tensor(a[i]), Tensor(f)).data)

    @pytest.mark.parametrize("n, g", [(5, 8), (180, 16), (5, 33)])
    def test_generator_equals_per_sample_loop(self, n, g):
        # 180 samples at g=16 fill a 178-sample chunk and start another.
        ds = D.generate_darcy(n=n, g=g, seed=7)
        a, u = reference_darcy(n, g, seed=7)
        assert np.array_equal(ds.inputs.data, a.reshape(n, g * g, 1))
        assert np.array_equal(ds.outputs.data, u.reshape(n, g * g, 1))

    @pytest.mark.parametrize("bad", [1, 2])
    @pytest.mark.parametrize("fault, match", [
        ("zero", "strictly positive"),
        ("huge", "overflow or become singular"),
        ("overflow", "^Darcy solution overflows"),
        ("not-definite", "not positive definite"),
        ("corrupted", "solver residual")])
    def test_bad_sample_is_named(self, monkeypatch, fault, match, bad):
        a, f = self.stack(), np.ones((64, 64))
        if fault == "zero":
            a[bad, 5, 7] = 0.0
        elif fault == "huge":
            a[bad] = 1e300
        elif fault == "overflow":
            a[bad], f = 1e-150, np.full((64, 64), 1e300)
        else:
            faulty_dpbsv(monkeypatch, bad, info=5 if fault == "not-definite" else 0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(TensorError, match=match) as err:
                D.solve_darcy_fd(Tensor(a), Tensor(f))
        assert f"(sample {bad}" in str(err.value)

    @pytest.mark.parametrize("n, g, sizes", [
        (200, 16, [178, 22]), (5, 64, [2, 2, 1]), (2, 128, [1, 1])])
    def test_bands_stay_within_a_chunk(self, monkeypatch, n, g, sizes):
        seen = []
        real = D._darcy_bands

        def spy(faces):
            bands = real(faces)
            seen.append(bands.shape[0])
            assert bands.nbytes <= D._CHUNK_BAND_BYTES or bands.shape[0] == 1
            return bands

        monkeypatch.setattr(D, "_darcy_bands", spy)
        D.generate_darcy(n=n, g=g, seed=1)
        assert seen == sizes

    def test_rejects_mismatched_stack(self):
        with pytest.raises(TensorError, match="square matching"):
            D.solve_darcy_fd(Tensor(np.ones((2, 8, 8))), Tensor(np.ones((9, 9))))
        with pytest.raises(TensorError, match="square matching"):
            D.solve_darcy_fd(Tensor(np.ones((1, 2, 8, 8))), Tensor(np.ones((8, 8))))


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
        with pytest.raises(TensorError, match="seed"):
            D.generate_darcy(n=2, g=8, seed=-1)

    def test_outputs_independent_of_blas_threads(self):
        code = ("import sys; from la2.data import generate_darcy; "
                "sys.stdout.buffer.write(generate_darcy(n=3, g=64, seed=5)"
                ".outputs.data.tobytes())")
        src = str(Path(D.__file__).parents[1])
        outs = []
        for threads in ("1", "2"):
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads}
            env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
            run = subprocess.run([sys.executable, "-c", code], env=env,
                                 capture_output=True, timeout=120)
            assert run.returncode == 0, run.stderr.decode()
            outs.append(run.stdout)
        assert len(outs[0]) == 3 * 64 * 64 * 8 and outs[0] == outs[1]

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

    def test_negative_seed(self):
        with pytest.raises(TensorError, match="seed"):
            D.generate_pointcloud_task(n=1, m=32, seed=-1)


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
