"""AdamW-style optimizer, training loop, and evaluation.

Training minimizes the squared-ratio relative L2 loss (the engine op
`relative_l2_loss`) on z-normalized fields; the reported metric is the
root-ratio relative L2 on de-normalized fields.
One optimizer step per mini-batch with per-sample gradient accumulation in
fixed sample order, global-norm clipping, and a cosine learning-rate decay.
Large samples run on parallel threads, in `train` as in `evaluate`.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass, field

import numpy as np

from . import data as data_mod
from .geometry import knn_indices_accelerated
from .model import (ModelConfig, OperatorModel, _check_field_types, forward,
                    mask_trajectory, save_checkpoint)
# `train` calls the loss through this module's global name, which a caller may
# rebind to observe each training sample.
from .tensor import (_THREAD_MIN_ACTIVATIONS, GradTape, Tensor, _map_in_order,
                     backward, relative_l2_loss, row_blocks)

__all__ = ["TrainConfig", "TrainReport", "TrainingError",
           "AdamState", "adam_step", "clip_gradients", "cosine_lr",
           "check_compatible", "train", "evaluate"]

# Adam moment decay rates and denominator offset.
BETA1 = 0.9
BETA2 = 0.999
ADAM_EPS = 1e-8


class TrainingError(RuntimeError):
    """Config/dataset mismatch or a non-finite loss during training."""


@dataclass
class TrainConfig:
    epochs: int
    batch_size: int = 8
    lr: float = 1e-3
    lr_min: float = 1e-5
    weight_decay: float = 1e-4
    clip_norm: float = 1.0
    seed: int = 0

    def __post_init__(self):
        _check_field_types(self, TrainingError)
        if self.epochs < 1:
            raise TrainingError("epochs must be >= 1")
        if self.batch_size < 1:
            raise TrainingError("batch size must be >= 1")
        if not all(0 < x < math.inf for x in (self.lr, self.lr_min, self.clip_norm)):
            raise TrainingError("rates and clip norm must be positive and finite")
        if self.lr_min > self.lr:
            raise TrainingError(f"final learning rate lr_min={self.lr_min!r} exceeds "
                                f"the peak lr={self.lr!r}")
        if not 0 <= self.weight_decay < math.inf:
            raise TrainingError("weight decay must be non-negative and finite")
        if self.seed < 0:
            raise TrainingError(f"seed must be non-negative, got {self.seed}")


@dataclass
class TrainReport:
    """One row per epoch plus the best observed test metric."""

    train_loss: list[float] = field(default_factory=list)
    test_rel_l2: list[float] = field(default_factory=list)
    mask_sigma: list[list[float]] = field(default_factory=list)
    epoch_seconds: list[float] = field(default_factory=list)
    best_test_rel_l2: float = math.inf
    best_epoch: int = -1

    @property
    def epochs(self) -> int:
        return len(self.train_loss)

    def write_csv(self, path) -> None:
        layers = len(self.mask_sigma[0]) if self.mask_sigma else 0
        cols = ["epoch", "train_loss", "test_rel_l2"]
        cols += [f"sigma_s_{i + 1}" for i in range(layers)]
        cols += ["epoch_seconds"]
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(",".join(cols) + "\n")
            for i in range(self.epochs):
                row = [str(i + 1), repr(self.train_loss[i]), repr(self.test_rel_l2[i])]
                row += [repr(s) for s in self.mask_sigma[i]]
                row += [f"{self.epoch_seconds[i]:.6f}"]
                fh.write(",".join(row) + "\n")


class AdamState:
    """First/second moment buffers and the shared step counter."""

    def __init__(self, params: list[Tensor]):
        self.step = 0
        self.m = [np.zeros_like(p.data) for p in params]
        self.v = [np.zeros_like(p.data) for p in params]


def adam_step(params: list[Tensor], grads: list[np.ndarray], state: AdamState,
              cfg: TrainConfig, lr: float) -> None:
    """Decoupled-weight-decay Adam update at rate `lr`, in place."""
    if len(params) != len(grads) or len(params) != len(state.m):
        raise TrainingError("parameter/gradient/state lists must align")
    state.step += 1
    t = state.step
    bc1 = 1.0 - BETA1 ** t
    bc2 = 1.0 - BETA2 ** t
    for p, g, m, v in zip(params, grads, state.m, state.v):
        if g.shape != p.data.shape:
            raise TrainingError(
                f"gradient shape {g.shape} does not match parameter {p.data.shape}")
        if cfg.weight_decay:
            p.data -= lr * cfg.weight_decay * p.data
        m *= BETA1
        m += (1.0 - BETA1) * g
        v *= BETA2
        v += (1.0 - BETA2) * (g * g)
        p.data -= lr * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)


def clip_gradients(grads: list[np.ndarray], max_norm: float) -> float:
    """Scale all gradients so the global norm is at most max_norm; returns the pre-clip norm."""
    total = math.sqrt(sum(float(np.sum(g * g)) for g in grads))
    if total > max_norm:
        factor = max_norm / total
        for g in grads:
            g *= factor
    return total


def cosine_lr(epoch: int, total_epochs: int, lr: float, lr_min: float) -> float:
    """Cosine decay from lr (epoch 0) to lr_min (last epoch)."""
    if total_epochs <= 1:
        return lr
    frac = epoch / (total_epochs - 1)
    return lr_min + 0.5 * (lr - lr_min) * (1.0 + math.cos(math.pi * frac))


def check_compatible(cfg: ModelConfig, ds: data_mod.Dataset) -> None:
    """Raise TrainingError unless a model with `cfg` can run on `ds`."""
    if ds.inputs.shape[2] != cfg.in_channels \
            or ds.outputs.shape[2] != cfg.out_channels \
            or ds.geometry.coords.shape[1] != cfg.coord_channels:
        raise TrainingError(
            f"model channels (C_f={cfg.in_channels}, C_s={cfg.coord_channels}, "
            f"C_u={cfg.out_channels}) do not match dataset shapes "
            f"{ds.inputs.shape}/{ds.geometry.coords.shape}/{ds.outputs.shape}")
    if cfg.k > ds.geometry.m:
        raise TrainingError(f"patch size {cfg.k} exceeds {ds.geometry.m} points")


def _threads(n_passes: int, m: int, width: int) -> tuple[int, int]:
    """The plan of `evaluate` and `train` for `n_passes` forward passes of
    `m` rows x hidden `width` each (a sample, or a group of stacked ones):
    (pass threads, the caller's among them; row threads per pass). (1, 1)
    below `_THREAD_MIN_ACTIVATIONS` or when the CPU set cannot be read;
    else one pass thread per CPU, at most one per pass, and the CPUs those
    leave idle run each pass's row blocks, one thread per block of an
    untaped pass (`row_blocks`)."""
    if m * width < _THREAD_MIN_ACTIVATIONS or not hasattr(os, "sched_getaffinity"):
        return 1, 1
    cpus = len(os.sched_getaffinity(0))
    passes = min(cpus, n_passes)
    return passes, len(row_blocks(m, width, cpus // passes))


def evaluate(m: OperatorModel, ds: data_mod.Dataset, split: str = "test") -> dict:
    """Mean and per-sample root-ratio relative L2 on de-normalized fields.

    Also reports the metric in normalized space (the space the model is
    trained in), useful as a scale-free baseline. `split` is "train", "test",
    "all", or a 1-D integer list of sample indices in [0, N); anything else
    raises TrainingError, as does a selected sample whose target field has
    zero norm, raw or normalized. The KNN index is cached on the geometry.

    The indices are cut, in order, into groups of the fewest samples whose
    points x width reach `_THREAD_MIN_ACTIVATIONS`: one sample where one
    alone reaches it, and pairs on the desk grid (256 points x width 64).
    Each group is one stacked forward (`forward` of [S, M, C_f]), so a
    group of small samples holds the GIL for its per-op Python work once,
    and is large enough for threads. Groups run on the threads of
    `_threads`, the caller's among them, and each group's forward always
    gets that plan's row blocks, which use the CPUs the group threads leave
    idle. numpy releases the GIL in the kernels that dominate a large
    forward pass. A stacked sample's output is that of its own forward, bit
    for bit, and results are kept in index order, so the output is the same
    for any thread count.
    """
    check_compatible(m.config, ds)
    if isinstance(split, str):
        named = {"train": ds.train_indices, "test": ds.test_indices,
                 "all": np.arange(ds.n)}
        if split not in named:
            raise TrainingError(f"unknown split {split!r}; expected one of {list(named)}")
        indices = named[split]
    else:
        try:
            indices = np.asarray(split)
        except ValueError as exc:              # ragged nested lists
            raise TrainingError(f"split {split!r} is not a 1-D integer list") from exc
        if (indices.ndim != 1 or not np.issubdtype(indices.dtype, np.integer)
                or not np.all((indices >= 0) & (indices < ds.n))):
            raise TrainingError(f"split {split!r} is not a 1-D integer list in [0, {ds.n})")
    if len(indices) == 0:
        raise TrainingError(f"split {split!r} selects no samples")
    knn = knn_indices_accelerated(ds.geometry, m.config.k)
    stats = ds.stats
    width, points = m.config.hidden, ds.geometry.m
    per_group = -(-_THREAD_MIN_ACTIVATIONS // (points * width))     # at least 1
    groups = [indices[j:j + per_group] for j in range(0, len(indices), per_group)]
    workers, rows = _threads(len(groups), per_group * points, width)

    def rel_errors(group):
        x_norm = data_mod.normalize(ds.inputs.data[group], stats["input_mean"],
                                    stats["input_std"])
        preds = forward(m, Tensor(x_norm), ds.geometry, knn, row_workers=rows).data
        pairs = []
        for i, pred_norm in zip(group, preds):
            raw = ds.outputs.data[i]
            y_norm = data_mod.normalize(raw, stats["output_mean"], stats["output_std"])
            den, den_norm = np.linalg.norm(raw), np.linalg.norm(y_norm)
            if den == 0.0 or den_norm == 0.0:
                raise TrainingError(f"sample {i}: the target field has zero norm, so "
                                    "its relative L2 is undefined")
            pred = data_mod.denormalize(pred_norm, stats["output_mean"],
                                        stats["output_std"])
            pairs.append((float(np.linalg.norm(pred - raw) / den),
                          float(np.linalg.norm(pred_norm - y_norm) / den_norm)))
        return pairs

    pairs = [p for group in _map_in_order(rel_errors, groups, workers) for p in group]
    per_sample = [raw for raw, _ in pairs]
    per_sample_norm = [norm for _, norm in pairs]
    return {
        "rel_l2": float(np.mean(per_sample)),
        "per_sample": per_sample,
        "rel_l2_normalized": float(np.mean(per_sample_norm)),
        "n": len(per_sample),
    }


def train(m: OperatorModel, ds: data_mod.Dataset, cfg: TrainConfig,
          checkpoint_path=None) -> TrainReport:
    """Run the full training protocol; returns the per-epoch report.

    Seeded shuffling, per-batch gradient accumulation over samples in fixed
    order, global-norm clipping, Adam with cosine decay. The test metric and
    the per-layer mask fractions are logged every epoch; the best checkpoint
    (lowest test metric) is written to `checkpoint_path` when given. Every
    step and per-epoch evaluation uses the geometry's one cached KNN index.

    A batch's samples run on the sample threads of `_threads`, the caller's
    among them, in waves of one sample per thread. With more than one
    sample thread each block but the last is recomputed in backward
    (`forward(..., recompute_blocks=True)`), so the concurrent tapes together
    hold less than one full tape. A one-sample batch has no sample to run
    beside it, so its rows are cut (`forward(..., split_taped=True)`) and
    run on that plan's row threads, forward and backward; a larger batch
    keeps each sample's tape whole, as cutting rows that then run one after
    the other only adds work. Each wave's gradients and losses are added in
    sample order once the wave has ended, and the taped row blocks depend on
    the shape and the batch size alone, so every result is the same for any
    thread count.
    """
    check_compatible(m.config, ds)
    train_idx = ds.train_indices
    if len(train_idx) == 0:
        raise TrainingError("dataset has an empty train split")
    stats = ds.stats
    x_norm = data_mod.normalize(ds.inputs.data, stats["input_mean"], stats["input_std"])
    y_norm = data_mod.normalize(ds.outputs.data, stats["output_mean"], stats["output_std"])

    knn = knn_indices_accelerated(ds.geometry, m.config.k)
    params = [p for _, p in m.named_parameters()]
    state = AdamState(params)
    rng = np.random.default_rng(cfg.seed)
    report = TrainReport()

    def sample_grads(i):
        """Sample i's loss value and per-parameter gradients (None if unreached),
        in the loop's current `epoch` and with its current `workers`, `rows`
        and `batch`."""
        with GradTape() as tape:
            pred = forward(m, Tensor(x_norm[i]), ds.geometry, knn,
                           recompute_blocks=workers > 1, row_workers=rows,
                           split_taped=len(batch) == 1)
            loss = relative_l2_loss(pred, Tensor(y_norm[i]))
            value = loss.item()
            if not math.isfinite(value):
                raise TrainingError(
                    f"non-finite loss at epoch {epoch + 1}, sample {i}")
            grad_map = backward(loss, tape)
        return value, [grad_map.get(p) for p in params]

    for epoch in range(cfg.epochs):
        tic = time.perf_counter()
        lr = cosine_lr(epoch, cfg.epochs, cfg.lr, cfg.lr_min)
        order = train_idx[rng.permutation(len(train_idx))]
        epoch_loss = 0.0
        n_seen = 0
        for start in range(0, len(order), cfg.batch_size):
            batch = order[start:start + cfg.batch_size]
            grads = [np.zeros_like(p.data) for p in params]
            batch_loss = 0.0
            workers, rows = _threads(len(batch), ds.geometry.m, m.config.hidden)
            # One wave at a time bounds the gradient maps held at once.
            for first in range(0, len(batch), workers):
                wave = batch[first:first + workers]
                for value, sample in _map_in_order(sample_grads, wave, len(wave)):
                    for g_acc, g in zip(grads, sample):
                        if g is not None:
                            g_acc += g
                    batch_loss += value
            inv = 1.0 / len(batch)
            for g in grads:
                g *= inv
            clip_gradients(grads, cfg.clip_norm)
            adam_step(params, grads, state, cfg, lr=lr)
            epoch_loss += batch_loss
            n_seen += len(batch)

        metrics = evaluate(m, ds, "test" if len(ds.test_indices) else "train")
        report.train_loss.append(epoch_loss / n_seen)
        report.test_rel_l2.append(metrics["rel_l2"])
        report.mask_sigma.append(mask_trajectory(m))
        report.epoch_seconds.append(time.perf_counter() - tic)
        if metrics["rel_l2"] < report.best_test_rel_l2:
            report.best_test_rel_l2 = metrics["rel_l2"]
            report.best_epoch = epoch + 1
            if checkpoint_path is not None:
                save_checkpoint(m, checkpoint_path)
    return report
