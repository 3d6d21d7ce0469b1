"""Synthetic PDE datasets and the portable tensor file format.

The Darcy generator draws a stack of thresholded Gaussian random fields as
permeabilities, fixes the forcing at 1, and solves -div(a grad u) = f on the
unit square with a conservative five-point finite-volume stencil (harmonic
face coefficients, homogeneous Dirichlet boundary), one direct banded Cholesky
factorization a sample. Each solution is checked to a componentwise backward
error of 1e-14: it satisfies the discrete equations to near machine precision.

Tensor files (``.la2t``): magic ``LA2T``, u32 version=1, u32 rank, rank u64
dims, then little-endian float64 values, row-major. A dataset directory holds
``geometry.la2t``, ``inputs.la2t``, ``outputs.la2t``, and ``manifest.json``.
"""

from __future__ import annotations

import json
import math
import struct
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.linalg.lapack import dpbsv
from scipy.ndimage import gaussian_filter

from .geometry import PointSet
from .tensor import Tensor, TensorError

__all__ = ["Dataset", "FormatError", "solve_darcy_fd", "darcy_residual",
           "generate_darcy", "generate_pointcloud_task",
           "write_dataset", "read_dataset",
           "write_tensor_file", "read_tensor_file",
           "normalize", "denormalize"]

TENSOR_MAGIC = b"LA2T"
TENSOR_VERSION = 1

DARCY_A_LO = 3.0
DARCY_A_HI = 12.0
_CHUNK_BAND_BYTES = 4 << 20     # most band bytes one solver chunk holds
_BACKWARD_ERROR = 1e-14         # most componentwise backward error of a solve


class FormatError(ValueError):
    """Malformed magic/version/shape or truncated tensor file."""


@dataclass
class Dataset:
    """Shared geometry plus N paired input/output field samples."""

    geometry: PointSet
    inputs: Tensor       # [N, M, C_f]
    outputs: Tensor      # [N, M, C_u]
    manifest: dict

    def __post_init__(self):
        if self.inputs.ndim != 3 or self.outputs.ndim != 3:
            raise TensorError("dataset inputs/outputs must be [N, M, C]")
        n, m = self.inputs.shape[:2]
        if n < 1 or self.outputs.shape[0] != n or self.outputs.shape[1] != m \
                or m != self.geometry.m:
            raise TensorError("dataset fields must align with the geometry")

    @property
    def n(self) -> int:
        return self.inputs.shape[0]

    @property
    def train_indices(self) -> np.ndarray:
        return np.asarray(self.manifest["train_indices"], dtype=np.int64)

    @property
    def test_indices(self) -> np.ndarray:
        return np.asarray(self.manifest["test_indices"], dtype=np.int64)

    @property
    def stats(self) -> dict:
        return self.manifest["stats"]


# ---------------------------------------------------------------------------
# Darcy finite-volume oracle
# ---------------------------------------------------------------------------

def _neighbors(x: np.ndarray) -> np.ndarray:
    """North, south, west and east neighbors of the interior nodes, [4, S?, g-2, g-2]."""
    return np.stack([x[..., :-2, 1:-1], x[..., 2:, 1:-1], x[..., 1:-1, :-2],
                     x[..., 1:-1, 2:]])


def _faces(a: np.ndarray, first: int = 0) -> np.ndarray:
    """Harmonic-mean face coefficients of the interior nodes of [S?, g, g], in
    `_neighbors` order; errors number a stack's samples from `first`."""
    ai, nb = a[..., 1:-1, 1:-1], _neighbors(a)
    with np.errstate(all="ignore"):
        faces = 2.0 * ai * nb / (ai + nb)
    _refuse((np.isfinite(faces) & (faces != 0)).all(axis=(0, -2, -1)), first,
            "coefficient range makes the operator overflow or become singular")
    return faces


def _refuse(ok: np.ndarray, first: int, what: str) -> None:
    """Raise `what`, naming the first sample whose `ok` [S?] is false."""
    if not ok.all():
        raise TensorError(f"{what} (sample {first + int(ok.argmin())})")


def _darcy_bands(faces: np.ndarray) -> np.ndarray:
    """Upper bands of the symmetric operator over the (g-2)^2 interior
    unknowns (u = 0 outside), from `_faces` [4, S?, g-2, g-2], in LAPACK's
    [S?, g-1, (g-2)^2] banded storage: row g-2 is the diagonal, row g-3 the
    east coupling and row 0 the south one."""
    north, south, west, east = faces
    gi = faces.shape[-1]
    h2 = (gi + 1.0) ** 2                    # 1 / h^2
    lead = faces.shape[1:-2]
    bands = np.zeros(lead + (gi + 1, gi * gi))
    bands[..., -1, :] = ((north + south + west + east) * h2).reshape(lead + (-1,))
    east = -east * h2
    east[..., -1] = 0.0                     # no coupling across a grid row's end
    bands[..., -2, 1:] = east.reshape(lead + (-1,))[..., :-1]
    bands[..., 0, gi:] = (-south[..., :-1, :] * h2).reshape(lead + (-1,))
    return bands


def solve_darcy_fd(a: Tensor, f: Tensor) -> Tensor:
    """Solve -div(a grad u) = f on [0,1]^2 with u = 0 on the boundary, for each
    field of a stack `a` [S?, g, g] with one forcing `f` [g, g].

    Fields are node values on a g x g grid (boundary included). Uses a
    conservative 5-point stencil with harmonic-mean face coefficients, whose
    operator is symmetric positive definite with half-bandwidth g-2. One banded
    Cholesky factorization (LAPACK ``pbsv``) a sample solves it in O(g^4) time,
    which only ties a sparse LU at g=256, and (g-1)(g-2)^2 floats of bands,
    1 GiB at g=512. A chunk of samples holds at most 4 MiB of bands, or one sample.
    A solution's componentwise backward error, max_i |r_i| / (|A||u| + |f|)_i,
    must be at most 1e-14. Errors name the failing sample.
    """
    ad, fd = a.data, f.data
    if ad.ndim not in (2, 3) or ad.shape[-2:] != fd.shape or fd.shape[0] != fd.shape[-1]:
        raise TensorError(f"need square matching grids, got {ad.shape}, {fd.shape}")
    g = fd.shape[0]
    if g < 3:
        raise TensorError(f"grid side must be >= 3, got {g}")
    stack = ad.reshape(-1, g, g)
    _refuse((stack > 0).all(axis=(1, 2)), 0, "coefficient field must be strictly positive")

    h2 = (g - 1.0) ** 2
    fi = fd[1:-1, 1:-1]
    u = np.zeros(stack.shape)
    chunk = max(1, _CHUNK_BAND_BYTES // (8 * (g - 1) * (g - 2) ** 2))
    for lo in range(0, len(stack), chunk):
        faces = _faces(stack[lo:lo + chunk], lo)
        sol = u[lo:lo + chunk, 1:-1, 1:-1]                # u = 0 on the boundary
        for s, ab in enumerate(_darcy_bands(faces)):
            _, x, info = dpbsv(ab, fi.ravel(), overwrite_ab=1)
            if info:
                raise TensorError(f"Darcy operator not positive definite (sample {lo + s})")
            sol[s] = x.reshape(g - 2, g - 2)
        _refuse(np.isfinite(sol).all(axis=(1, 2)), lo,
                "Darcy solution overflows for this coefficient and forcing range")
        # Componentwise backward error: each residual against the terms it sums.
        nb = _neighbors(u[lo:lo + chunk])
        res = np.abs((faces * (sol - nb)).sum(axis=0) * h2 - fi)
        size = (faces * (np.abs(sol) + np.abs(nb))).sum(axis=0) * h2 + np.abs(fi)
        _refuse((res <= _BACKWARD_ERROR * size).all(axis=(1, 2)), lo,
                f"solver residual exceeds {_BACKWARD_ERROR:.0e} of |A||u| + |f|")
    return Tensor(u.reshape(ad.shape))


def darcy_residual(a: Tensor, f: Tensor, u: Tensor) -> float:
    """Max-norm residual of the discrete equations at interior nodes."""
    ad, fd, ud = a.data, f.data, u.data
    g = ad.shape[0]
    h2 = (g - 1.0) ** 2
    flux = (_faces(ad) * (ud[1:-1, 1:-1] - _neighbors(ud))).sum(axis=0)
    return float(np.abs(flux * h2 - fd[1:-1, 1:-1]).max())


def grid_coords(g: int) -> np.ndarray:
    """Row-major node coordinates of the g x g unit-square grid, [g*g, 2]."""
    xs = np.linspace(0.0, 1.0, g)
    yy, xx = np.meshgrid(xs, xs, indexing="ij")
    return np.stack([xx.ravel(), yy.ravel()], axis=1)


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------

def _split_and_stats(inputs: np.ndarray, outputs: np.ndarray,
                     seed: int, n: int) -> dict:
    rng = np.random.default_rng([seed, n])
    perm = rng.permutation(n)
    n_train = max(1, int(round(0.8 * n)))
    if n_train >= n and n > 1:
        n_train = n - 1
    train = np.sort(perm[:n_train])
    test = np.sort(perm[n_train:])

    def channel_stats(arr):
        flat = arr[train].reshape(-1, arr.shape[-1])
        mean = flat.mean(axis=0)
        std = flat.std(axis=0)
        std = np.where(std < 1e-12, 1.0, std)
        return mean.tolist(), std.tolist()

    in_mean, in_std = channel_stats(inputs)
    out_mean, out_std = channel_stats(outputs)
    return {
        "train_indices": train.tolist(),
        "test_indices": test.tolist(),
        "stats": {"input_mean": in_mean, "input_std": in_std,
                  "output_mean": out_mean, "output_std": out_std},
    }


def generate_darcy(n: int, g: int, seed: int) -> Dataset:
    """n permeability/pressure pairs on a g x g grid, M = g^2 points."""
    if n < 1:
        raise TensorError("need n >= 1 samples")
    if g < 8:
        raise TensorError(f"grid side must be >= 8, got {g}")
    if seed < 0:
        raise TensorError(f"seed must be non-negative, got {seed}")
    # The noise, its filtered field, then the coefficients: one stack held at a time.
    a = np.stack([np.random.default_rng([seed, i]).standard_normal((g, g)) for i in range(n)])
    a = gaussian_filter(a, sigma=g / 8.0, mode="reflect", axes=(1, 2))
    a = np.where(a >= 0.0, DARCY_A_HI, DARCY_A_LO)
    u = solve_darcy_fd(Tensor(a), Tensor(np.ones((g, g)))).data
    inputs, outputs = a.reshape(n, g * g, 1), u.reshape(n, g * g, 1)

    manifest = {
        "name": f"darcy-g{g}-n{n}",
        "task": "darcy",
        "n": n,
        "grid": g,
        "seed": seed,
        "coefficients": {"a_lo": DARCY_A_LO, "a_hi": DARCY_A_HI, "forcing": 1.0},
    }
    manifest.update(_split_and_stats(inputs, outputs, seed, n))
    return Dataset(geometry=PointSet(Tensor(grid_coords(g))),
                   inputs=Tensor(inputs), outputs=Tensor(outputs),
                   manifest=manifest)


POINTCLOUD_R0 = 0.25
POINTCLOUD_R1 = 0.45
POINTCLOUD_NOTCH = np.pi / 4
POINTCLOUD_FORM = ("sin(pi*(r-r0)/(r1-r0)) * (1 + 0.3*cos(3*theta)), "
                   "r,theta polar about (0.5,0.5)")


def pointcloud_target(coords: np.ndarray) -> np.ndarray:
    """Closed-form field the point-cloud task asks the operator to fit."""
    dx = coords[:, 0] - 0.5
    dy = coords[:, 1] - 0.5
    r = np.sqrt(dx * dx + dy * dy)
    theta = np.arctan2(dy, dx)
    radial = (r - POINTCLOUD_R0) / (POINTCLOUD_R1 - POINTCLOUD_R0)
    return np.sin(np.pi * radial) * (1.0 + 0.3 * np.cos(3.0 * theta))


def generate_pointcloud_task(n: int, m: int, seed: int) -> Dataset:
    """Irregular annulus-with-notch cloud; target is an exact analytic field.

    The geometry (and hence the KNN structure) is what varies with the seed;
    inputs are the coordinates replicated as features, so every sample of a
    dataset shares the same input/target pair.
    """
    if n < 1:
        raise TensorError("need n >= 1 samples")
    if m < 16:
        raise TensorError(f"need m >= 16 points, got {m}")
    if seed < 0:
        raise TensorError(f"seed must be non-negative, got {seed}")
    rng = np.random.default_rng(seed)
    notch_at = rng.uniform(0.0, 2.0 * np.pi)
    theta = (notch_at + POINTCLOUD_NOTCH
             + rng.uniform(0.0, 2.0 * np.pi - POINTCLOUD_NOTCH, size=m)) % (2.0 * np.pi)
    r = np.sqrt(rng.uniform(POINTCLOUD_R0 ** 2, POINTCLOUD_R1 ** 2, size=m))
    coords = np.stack([0.5 + r * np.cos(theta), 0.5 + r * np.sin(theta)], axis=1)

    target = pointcloud_target(coords)
    inputs = np.broadcast_to(coords, (n, m, 2)).copy()
    outputs = np.broadcast_to(target[:, None], (n, m, 1)).copy()

    manifest = {
        "name": f"pointcloud-m{m}-n{n}",
        "task": "pointcloud",
        "n": n,
        "points": m,
        "seed": seed,
        "target_form": POINTCLOUD_FORM,
        "annulus": {"r0": POINTCLOUD_R0, "r1": POINTCLOUD_R1,
                    "notch_width": POINTCLOUD_NOTCH, "notch_at": float(notch_at)},
    }
    manifest.update(_split_and_stats(inputs, outputs, seed, n))
    return Dataset(geometry=PointSet(Tensor(coords)),
                   inputs=Tensor(inputs), outputs=Tensor(outputs),
                   manifest=manifest)


# ---------------------------------------------------------------------------
# Normalization helpers
# ---------------------------------------------------------------------------

def normalize(arr: np.ndarray, mean, std) -> np.ndarray:
    return (arr - np.asarray(mean)) / np.asarray(std)


def denormalize(arr: np.ndarray, mean, std) -> np.ndarray:
    return arr * np.asarray(std) + np.asarray(mean)


# ---------------------------------------------------------------------------
# File format
# ---------------------------------------------------------------------------

def write_tensor_file(arr: np.ndarray, path) -> None:
    arr = np.asarray(arr, dtype=np.float64)
    with open(path, "wb") as fh:
        fh.write(TENSOR_MAGIC)
        fh.write(struct.pack("<I", TENSOR_VERSION))
        fh.write(struct.pack("<I", arr.ndim))
        fh.write(struct.pack(f"<{arr.ndim}Q", *arr.shape))
        fh.write(np.ascontiguousarray(arr).astype("<f8").tobytes())


def read_tensor_file(path) -> np.ndarray:
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as exc:
        raise FormatError(f"{path}: cannot read: {exc.strerror}") from exc
    if len(blob) < 12 or blob[:4] != TENSOR_MAGIC:
        raise FormatError(f"{path}: not a tensor file (bad magic)")
    (version,) = struct.unpack("<I", blob[4:8])
    if version != TENSOR_VERSION:
        raise FormatError(f"{path}: unsupported tensor file version {version}")
    (rank,) = struct.unpack("<I", blob[8:12])
    head = 12 + 8 * rank
    if len(blob) < head:
        raise FormatError(f"{path}: truncated dims")
    shape = struct.unpack(f"<{rank}Q", blob[12:head])
    count = math.prod(shape)                # Python ints: no overflow
    if len(blob) != head + 8 * count:
        raise FormatError(f"{path}: payload does not match shape {shape}")
    arr = np.frombuffer(blob[head:], dtype="<f8").reshape(shape).astype(np.float64)
    if not np.all(np.isfinite(arr)):
        raise FormatError(f"{path}: holds NaN or infinite values")
    return arr


def write_dataset(ds: Dataset, path) -> None:
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    write_tensor_file(ds.geometry.coords.data, path / "geometry.la2t")
    write_tensor_file(ds.inputs.data, path / "inputs.la2t")
    write_tensor_file(ds.outputs.data, path / "outputs.la2t")
    with open(path / "manifest.json", "w", encoding="utf-8") as fh:
        json.dump(ds.manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_dataset(path) -> Dataset:
    path = Path(path)
    manifest_path = path / "manifest.json"
    try:
        with open(manifest_path, encoding="utf-8") as fh:
            manifest = json.load(fh)
    except OSError as exc:
        raise FormatError(f"{manifest_path}: cannot read: {exc.strerror}") from exc
    except ValueError as exc:
        raise FormatError(f"{manifest_path}: not valid JSON: {exc}") from exc
    geometry = PointSet(Tensor(read_tensor_file(path / "geometry.la2t")))
    inputs = Tensor(read_tensor_file(path / "inputs.la2t"))
    outputs = Tensor(read_tensor_file(path / "outputs.la2t"))
    ds = Dataset(geometry=geometry, inputs=inputs, outputs=outputs,
                 manifest=manifest)
    _check_manifest(ds, manifest_path)
    return ds


def _check_manifest(ds: Dataset, where) -> None:
    """Both splits index [0, N), train is non-empty, stats match the channels,
    every stat is finite and every standard deviation is positive. A standard
    deviation must also be large enough for the (finite) values it divides:
    every normalized input and output field, and each sample's squared norm
    of it (the loss's denominator), must be finite."""
    man = ds.manifest
    if not isinstance(man, dict):
        raise FormatError(f"{where}: manifest must be a JSON object")
    for key in ("train_indices", "test_indices"):
        idx = man.get(key)
        if not isinstance(idx, list) or not all(
                type(i) is int and 0 <= i < ds.n for i in idx):
            raise FormatError(
                f"{where}: {key} must be a list of integers in [0, {ds.n})")
    if not man["train_indices"]:
        raise FormatError(f"{where}: train_indices is empty")
    stats = man.get("stats")
    if not isinstance(stats, dict):
        raise FormatError(f"{where}: missing stats")
    c_in, c_out = ds.inputs.shape[2], ds.outputs.shape[2]
    for key, c in (("input_mean", c_in), ("input_std", c_in),
                   ("output_mean", c_out), ("output_std", c_out)):
        vals = stats.get(key)
        if not isinstance(vals, list) or len(vals) != c \
                or not all(type(v) in (int, float) for v in vals):
            raise FormatError(f"{where}: stats.{key} must be a list of {c} numbers")
        low = 0.0 if key.endswith("_std") else -math.inf
        # An int past the largest float is not a finite float either.
        if not all(low < v and abs(v) <= sys.float_info.max for v in vals):
            kind = "positive and finite" if low == 0.0 else "finite"
            raise FormatError(f"{where}: stats.{key} must be {kind}, got {vals}")
    for field, arr in (("input", ds.inputs.data), ("output", ds.outputs.data)):
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            z = normalize(arr, stats[f"{field}_mean"], stats[f"{field}_std"])
            finite = np.all(np.isfinite(z)) and np.all(np.isfinite((z * z).sum(axis=(1, 2))))
        if not finite:
            raise FormatError(
                f"{where}: stats.{field}_std must be large enough for the values of "
                f"{field}s.la2t, which normalized, or their squared norms, overflow; "
                f"got {stats[f'{field}_std']}")
