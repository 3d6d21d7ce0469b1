"""Full neural operator: MLP encoder, L attention blocks, linear projection.

Checkpoints use a single binary file: magic ``LA2C``, u32 version, u64 JSON
header length, a UTF-8 JSON header (config, parameter names/shapes/offsets),
then the raw little-endian float64 parameter blobs in header order.
"""

from __future__ import annotations

import json
import math
import numbers
import struct
from dataclasses import asdict, dataclass, fields
from typing import Iterator

import numpy as np

from .attention import GlaLayerParams, la2_layer
from .geometry import KnnIndex, PointSet
from .tensor import (_ACTIVE_TAPE, Tensor, TensorError, _sigmoid, concat_lastdim,
                     gelu, linear, recompute, row_stage)

__all__ = ["ModelConfig", "OperatorModel", "init_block", "init_model", "encode",
           "forward", "mask_trajectory", "save_checkpoint", "load_checkpoint",
           "CheckpointError"]

CHECKPOINT_MAGIC = b"LA2C"
# Version 2: the global branch uses gelu(x) + 1 features. Version-1 files have
# the same layout but weights trained for the old signed l1 features.
CHECKPOINT_VERSION = 2


class CheckpointError(ValueError):
    """Malformed or truncated checkpoint file."""


def _check_field_types(record, error: type[Exception]) -> None:
    """Raise `error` unless every field of dataclass `record` holds its type:
    a real number for a "float" field, an integer (not a bool) for the rest."""
    for f in fields(record):
        value = getattr(record, f.name)
        real = f.type == "float"
        if isinstance(value, bool) or not isinstance(
                value, numbers.Real if real else numbers.Integral):
            kind = "a real number" if real else "an integer"
            raise error(f"{f.name} must be {kind}, got {value!r}")


@dataclass
class ModelConfig:
    in_channels: int          # C_f, input function channels
    coord_channels: int       # C_s
    out_channels: int         # C_u
    k: int = 8                # neighbor patch size
    layers: int = 8
    hidden: int = 128
    alpha: float = 10.0
    ff_hidden: int | None = None
    heads: int = 1
    seed: int = 0

    def __post_init__(self):
        # Only an integer width derives one; validate names a mistyped hidden.
        if self.ff_hidden is None and isinstance(self.hidden, numbers.Integral):
            self.ff_hidden = 2 * self.hidden
        self.validate()

    def validate(self) -> None:
        _check_field_types(self, TensorError)
        if self.hidden < 2 or self.hidden % 2 != 0:
            raise TensorError(f"hidden width must be even and positive, got {self.hidden}")
        if self.layers < 1:
            raise TensorError("need at least one layer")
        if self.k < 1:
            raise TensorError("patch size K must be >= 1")
        if self.heads < 1 or (self.hidden // 2) % self.heads != 0:
            raise TensorError(
                f"branch width {self.hidden // 2} not divisible by {self.heads} heads")
        if min(self.in_channels, self.coord_channels, self.out_channels) < 1:
            raise TensorError("channel counts must be positive")
        if self.ff_hidden < 1:
            raise TensorError(f"feed-forward width must be >= 1, got {self.ff_hidden}")
        if not 0 < self.alpha < math.inf:
            raise TensorError("alpha must be positive and finite")
        if self.seed < 0:
            raise TensorError(f"seed must be non-negative, got {self.seed}")


@dataclass
class OperatorModel:
    config: ModelConfig
    enc_w1: Tensor
    enc_b1: Tensor
    enc_w2: Tensor
    enc_b2: Tensor
    blocks: list[GlaLayerParams]
    proj_w: Tensor
    proj_b: Tensor

    def named_parameters(self) -> Iterator[tuple[str, Tensor]]:
        """All learnables in a fixed, checkpoint-stable order."""
        yield "enc_w1", self.enc_w1
        yield "enc_b1", self.enc_b1
        yield "enc_w2", self.enc_w2
        yield "enc_b2", self.enc_b2
        for i, blk in enumerate(self.blocks):
            for name, t in blk.named_params():
                yield f"blocks.{i}.{name}", t
        yield "proj_w", self.proj_w
        yield "proj_b", self.proj_b


def _weight(rng: np.random.Generator, fan_in: int, fan_out: int) -> Tensor:
    bound = 1.0 / math.sqrt(fan_in)
    return Tensor(rng.uniform(-bound, bound, size=(fan_in, fan_out)), requires_grad=True)


def _fill(n: int, value: float = 0.0) -> Tensor:
    return Tensor(np.full(n, value), requires_grad=True)


def init_block(rng: np.random.Generator, cfg: ModelConfig) -> GlaLayerParams:
    """One block sized by `cfg`: uniform +-1/sqrt(fan_in) weights drawn from
    `rng` in field order, zero biases and mask logit, unit norm gains."""
    c, d, f = cfg.hidden, cfg.hidden // 2, cfg.ff_hidden
    return GlaLayerParams(
        w_qg=_weight(rng, c, d), b_qg=_fill(d),
        w_kg=_weight(rng, c, d), b_kg=_fill(d),
        w_vg=_weight(rng, c, d), b_vg=_fill(d),
        w_ql=_weight(rng, c, d), b_ql=_fill(d),
        w_kl=_weight(rng, c, d),
        w_vl=_weight(rng, c, d),
        w_out=_weight(rng, 2 * d, c), b_out=_fill(c),
        ff_w1=_weight(rng, c, f), ff_b1=_fill(f),
        ff_w2=_weight(rng, f, c), ff_b2=_fill(c),
        ln1_gamma=_fill(c, 1.0), ln1_beta=_fill(c),
        ln2_gamma=_fill(c, 1.0), ln2_beta=_fill(c),
        mask_s=_fill(1),
        heads=cfg.heads, alpha=cfg.alpha,
    )


def init_model(cfg: ModelConfig) -> OperatorModel:
    """Deterministic seeded initialization; equal seeds give equal models."""
    cfg.validate()
    rng = np.random.default_rng(cfg.seed)
    c = cfg.hidden
    c_in = cfg.in_channels + cfg.coord_channels
    blocks = [init_block(rng, cfg) for _ in range(cfg.layers)]
    return OperatorModel(
        config=cfg,
        enc_w1=_weight(rng, c_in, c), enc_b1=_fill(c),
        enc_w2=_weight(rng, c, c), enc_b2=_fill(c),
        blocks=blocks,
        proj_w=_weight(rng, c, cfg.out_channels), proj_b=_fill(cfg.out_channels),
    )


def encode(f_in: Tensor, x: PointSet, m: OperatorModel, row_workers: int = 1,
           split_taped: bool = False) -> Tensor:
    """Concatenate coordinates to the input field and lift to width C, each
    point on its own, so as one `row_stage` on the row blocks of [S?, M, C],
    dealt to `row_workers` threads (cut under a tape only with
    `split_taped`), which finds the weights that `lift` reads itself.
    `f_in` [S, M, C_f] stacks S samples on the point set, each with the
    coordinates beside it, untaped only."""
    if f_in.ndim == 3 and _ACTIVE_TAPE.tape is not None:
        raise TensorError("a stacked input runs untaped only")
    if f_in.ndim not in (2, 3) or f_in.shape[-2] != x.m:
        raise TensorError(
            f"input field rows {f_in.shape} must align with {x.m} points")
    if f_in.shape[-1] != m.config.in_channels:
        raise TensorError(
            f"expected {m.config.in_channels} input channels, got {f_in.shape[-1]}")
    coords = x.coords
    if f_in.ndim == 3:
        coords = Tensor(np.broadcast_to(coords.data, (f_in.shape[0], *coords.shape)))
    z = concat_lastdim(f_in, coords)

    def lift(rows, z):
        return (linear(gelu(linear(z, m.enc_w1, m.enc_b1)), m.enc_w2, m.enc_b2),)

    return row_stage(lift, (z,), m.config.hidden, row_workers, split_taped)[0]


def forward(m: OperatorModel, f_in: Tensor, x: PointSet, knn: KnnIndex,
            recompute_blocks: bool = False, row_workers: int = 1,
            split_taped: bool = False) -> Tensor:
    """Apply encoder, the L blocks in order, and the output projection.

    With `recompute_blocks`, each block but the last is one `recompute` tape
    entry, re-run in backward: an active tape then holds such a block's input
    and output instead of its intermediates. The last block is taped in
    full, since its backward starts as soon as the forward ends. The
    gradients are the same bit for bit. The encoder and each block deal
    their row blocks to `row_workers` threads (`la2_layer`); under an active
    tape the rows are cut, into blocks that depend on the shape alone, only
    with `split_taped`. The output is the same bit for bit for any
    `row_workers` or `split_taped`, and the gradients for any `row_workers`.

    `f_in` [S, M, C_f] stacks S samples on the point set into one untaped
    pass, giving [S, M, C_u]. Every activation carries the sample axis in
    front, so the global sums (`la2_layer`) and numpy's batched matrix
    products, among them the output projection (for one channel a BLAS
    matrix-vector product, whose sum order depends on a row's place), run
    per sample: each sample's output is that of its own forward, bit for
    bit, on any row blocks.
    """
    if knn.m != x.m:
        raise TensorError("KNN index does not match the point set")
    h = encode(f_in, x, m, row_workers, split_taped)
    for i, blk in enumerate(m.blocks):
        args = (knn, blk, row_workers, split_taped)
        if recompute_blocks and i < len(m.blocks) - 1:
            h = recompute(lambda t, args=args: la2_layer(t, *args),
                          h, [p for _, p in blk.named_params()])
        else:
            h = la2_layer(h, *args)
    return linear(h, m.proj_w, m.proj_b)


def mask_trajectory(m: OperatorModel) -> list[float]:
    """Per-layer effective-neighbor fraction sigmoid(s), each in [0, 1]: the
    sigma(s) that `soft_mask` computes, bit for bit."""
    return [float(_sigmoid(blk.mask_s.data)[0]) for blk in m.blocks]


def save_checkpoint(m: OperatorModel, path) -> None:
    params = list(m.named_parameters())
    header_params = []
    offset = 0
    for name, t in params:
        header_params.append({"name": name, "shape": list(t.shape), "offset": offset})
        offset += t.size * 8
    header = json.dumps({"config": asdict(m.config),
                         "params": header_params}).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<I", CHECKPOINT_VERSION))
        fh.write(struct.pack("<Q", len(header)))
        fh.write(header)
        for _, t in params:
            fh.write(t.data.astype("<f8").tobytes())


def load_checkpoint(path) -> OperatorModel:
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as exc:
        raise CheckpointError(f"{path}: cannot read: {exc.strerror}") from exc
    if len(blob) < 16 or blob[:4] != CHECKPOINT_MAGIC:
        raise CheckpointError("not a checkpoint file (bad magic)")
    (version,) = struct.unpack("<I", blob[4:8])
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(f"unsupported checkpoint version {version}")
    (hlen,) = struct.unpack("<Q", blob[8:16])
    if len(blob) < 16 + hlen:
        raise CheckpointError("truncated checkpoint header")
    try:
        header = json.loads(blob[16:16 + hlen].decode("utf-8"))
        cfg = ModelConfig(**header["config"])
        entries = header["params"]
    except (ValueError, KeyError, TypeError) as exc:
        raise CheckpointError(f"malformed checkpoint header: {exc}") from exc

    if not isinstance(entries, list) or not all(
            isinstance(e, dict) and isinstance(e.get("name"), str)
            and isinstance(e.get("shape"), list) and type(e.get("offset")) is int
            for e in entries):
        raise CheckpointError("malformed checkpoint header: each parameter entry "
                              "needs a string name, a list shape and an integer offset")
    m = init_model(cfg)
    slots = dict(m.named_parameters())
    names = [e["name"] for e in entries]
    if len(names) != len(slots) or set(slots) != set(names):
        raise CheckpointError("checkpoint parameter names do not match config")
    base = end = 16 + hlen
    for e in entries:
        t = slots[e["name"]]
        shape = tuple(e["shape"])
        if shape != t.shape:
            raise CheckpointError(
                f"parameter {e['name']} has shape {shape}, expected {t.shape}")
        # save_checkpoint stores the blobs back to back in header order.
        start = end
        if e["offset"] != start - base:
            raise CheckpointError(
                f"parameter {e['name']} overlaps or leaves a gap before its blob")
        end = start + t.size * 8
        if end > len(blob):
            raise CheckpointError("truncated checkpoint data")
        t.data = np.frombuffer(blob[start:end], dtype="<f8").reshape(shape).astype(
            np.float64)
        if not np.all(np.isfinite(t.data)):
            raise CheckpointError(f"parameter {e['name']} holds non-finite values")
    if end != len(blob):
        raise CheckpointError(f"{len(blob) - end} bytes trail the last parameter")
    return m
