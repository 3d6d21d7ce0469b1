"""Command-line surface: data generation, training, evaluation, sweeps, bench.

Every run config can come from a JSON file (``--config``) with CLI flags
winning on conflict; unknown JSON keys are rejected. Commands that emit a CSV
also write a ``<name>.config.json`` sidecar with the fully resolved config.
Exit codes: 0 success, 1 runtime failure, 2 usage or config error.
"""

from __future__ import annotations

import argparse
import json
import sys
import traceback
from contextlib import contextmanager
from dataclasses import MISSING, asdict, fields
from pathlib import Path

import numpy as np

from . import bench as bench_mod
from . import data as data_mod
from .model import (CheckpointError, ModelConfig, init_model, load_checkpoint,
                    mask_trajectory, save_checkpoint)
from .tensor import TensorError
from .training import (TrainConfig, TrainingError, check_compatible, evaluate,
                       train)

__all__ = ["main", "entrypoint"]

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_USAGE = 2


class UsageError(ValueError):
    pass


# ModelConfig/TrainConfig fields that come from the dataset or from --seed;
# every other field is a config key. The dataclasses hold all defaults.
DERIVED_KEYS = ("in_channels", "coord_channels", "out_channels", "seed")
MODEL_KEYS = tuple(f.name for f in fields(ModelConfig) if f.name not in DERIVED_KEYS)
TRAIN_KEYS = tuple(f.name for f in fields(TrainConfig) if f.name not in DERIVED_KEYS)

# Field annotations are strings (postponed evaluation); each maps to the flag
# converter. Config-file values are checked by the dataclasses themselves.
FIELD_TYPES = {"int": int, "float": float, "int | None": int}
# Flag help where the field name alone does not say it.
FLAG_HELP = {"k": "neighbor patch size", "layers": "block count L",
             "hidden": "hidden width C", "alpha": "mask sharpness",
             "ff_hidden": "feed-forward width (2C when unset)",
             "heads": "attention heads", "lr": "peak learning rate",
             "lr_min": "final learning rate"}


def _load_config_file(path) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise UsageError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise UsageError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise UsageError(f"config {path} must be a JSON object")
    known = set(MODEL_KEYS) | set(TRAIN_KEYS)
    unknown = sorted(set(cfg) - known)
    if unknown:
        raise UsageError(f"unknown config keys: {', '.join(unknown)}")
    return cfg


def _resolved(args, keys) -> dict:
    """File config overridden by explicitly supplied flags."""
    cfg = dict(args.file_config)
    for key in keys:
        flag = getattr(args, key, None)
        if flag is not None:
            cfg[key] = flag
    return cfg


@contextmanager
def _running(errors=(TensorError, TrainingError)):
    """Numeric failures inside, `errors`, are runtime failures (exit 1), not
    usage errors."""
    try:
        yield
    except errors as exc:
        raise RuntimeError(f"run failed: {exc}") from exc


def _write_sidecar(csv_path: Path, config: dict) -> None:
    side = csv_path.with_suffix(csv_path.suffix + ".config.json")
    with open(side, "w", encoding="utf-8") as fh:
        json.dump(config, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _build(cls, cfg: dict, **fixed):
    """`cls` from the config keys in `cfg`; the dataclass supplies the rest
    and rejects a value of the wrong type. An int for a float field widens."""
    kwargs = dict(fixed)
    for f in fields(cls):
        if f.name in cfg and f.name not in fixed:
            value = cfg[f.name]
            widen = f.type == "float" and type(value) is int
            kwargs[f.name] = float(value) if widen else value
    try:
        return cls(**kwargs)
    except (TypeError, ValueError, TrainingError) as exc:
        raise UsageError(str(exc)) from exc


def _model_config(ds: data_mod.Dataset, cfg: dict, seed: int) -> ModelConfig:
    mcfg = _build(ModelConfig, cfg, in_channels=ds.inputs.shape[2],
                  coord_channels=ds.geometry.coords.shape[1],
                  out_channels=ds.outputs.shape[2], seed=seed)
    check_compatible(mcfg, ds)
    return mcfg


def _train_config(args) -> TrainConfig:
    cfg = {"epochs": args.default_epochs, **_resolved(args, TRAIN_KEYS)}
    return _build(TrainConfig, cfg, seed=args.seed)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_generate(args) -> int:
    out = Path(args.out)
    if args.task == "darcy":
        ds = data_mod.generate_darcy(args.n, args.grid, args.seed)
    else:
        ds = data_mod.generate_pointcloud_task(args.n, args.points, args.seed)
    data_mod.write_dataset(ds, out)
    print(f"wrote {ds.manifest['name']}: N={ds.n}, M={ds.geometry.m} -> {out}")
    return EXIT_OK


def cmd_train(args) -> int:
    ds = data_mod.read_dataset(args.data)
    mcfg = _model_config(ds, _resolved(args, MODEL_KEYS), args.seed)
    tcfg = _train_config(args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    model = init_model(mcfg)
    with _running():
        report = train(model, ds, tcfg, checkpoint_path=out / "best.la2c")
    csv_path = out / "report.csv"
    report.write_csv(csv_path)
    save_checkpoint(model, out / "final.la2c")
    _write_sidecar(csv_path, {"model": asdict(mcfg), "train": asdict(tcfg),
                              "data": str(args.data)})
    print(f"final test rel L2: {report.test_rel_l2[-1]:.6f} "
          f"(best {report.best_test_rel_l2:.6f} at epoch {report.best_epoch})")
    return EXIT_OK


def cmd_eval(args) -> int:
    ds = data_mod.read_dataset(args.data)
    model = load_checkpoint(args.checkpoint)
    check_compatible(model.config, ds)
    if args.split != "all" and len(getattr(ds, f"{args.split}_indices")) == 0:
        raise UsageError(f"dataset has an empty {args.split} split")
    # evaluate raises TrainingError only for its input, such as a target
    # field of zero norm: a usage error.
    with _running(TensorError):
        metrics = evaluate(model, ds, args.split)
    print(f"{args.split} rel L2: {metrics['rel_l2']:.6f} over {metrics['n']} samples "
          f"(normalized-space {metrics['rel_l2_normalized']:.6f})")
    return EXIT_OK


def _sweep(args, name: str, columns: tuple[str, ...], runs: list[dict]) -> int:
    """Train once per run (model config overrides plus label keys), after
    validating every run's config, and write ``<name>.csv`` with a sidecar.
    A row holds each of `columns` from the run or its model config, the final
    test metric, each layer's final sigma(s) as in ``report.csv`` (blank past
    the run's depth) and the mean epoch seconds."""
    ds = data_mod.read_dataset(args.data)
    base = _resolved(args, MODEL_KEYS)
    tcfg = _train_config(args)
    configs = [_model_config(ds, {**base, **run}, args.seed) for run in runs]
    depth = max(mcfg.layers for mcfg in configs)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    rows = []
    for run, mcfg in zip(runs, configs):
        with _running():
            report = train(init_model(mcfg), ds, tcfg)
        labels = [str({**asdict(mcfg), **run}[c]) for c in columns]
        err, sec = report.test_rel_l2[-1], float(np.mean(report.epoch_seconds))
        sigma = [repr(s) for s in report.mask_sigma[-1]] + [""] * (depth - mcfg.layers)
        rows.append(",".join([*labels, repr(err), *sigma, f"{sec:.6f}"]))
        print(" ".join(f"{c}={v}" for c, v in zip(columns, labels))
              + f": test rel L2 {err:.6f}, epoch {sec:.3f}s")
    csv_path = out / f"{name}.csv"
    sigma_cols = [f"sigma_s_{i + 1}" for i in range(depth)]
    with open(csv_path, "w", encoding="utf-8") as fh:
        fh.write(",".join([*columns, "test_rel_l2", *sigma_cols, "epoch_seconds"]) + "\n")
        fh.writelines(row + "\n" for row in rows)
    _write_sidecar(csv_path, {
        "data": str(args.data),
        "runs": [{"model": asdict(mcfg), "train": asdict(tcfg)}
                 for mcfg in configs]})
    return EXIT_OK


def cmd_ablate_window(args) -> int:
    return _sweep(args, "ablate_window", ("k",),
                  [{"k": k} for k in args.k_values])


def cmd_scale_study(args) -> int:
    if not args.widths and not args.depths:
        raise UsageError("need --widths and/or --depths")
    runs = [{"sweep": "width", "hidden": w} for w in args.widths or []]
    runs += [{"sweep": "depth", "layers": d} for d in args.depths or []]
    return _sweep(args, "scale_study", ("sweep", "layers", "hidden"), runs)


def cmd_bench(args) -> int:
    ModelConfig(1, 2, 1, hidden=args.hidden)        # every kind's width, checked once
    kinds = ("global", "local", "pairwise") if args.kind == "all" else (args.kind,)
    cases = []                                      # (kind, M, K); K is 0 unless local
    for kind in kinds:
        cases += ([(kind, args.local_m, k) for k in args.k_values] if kind == "local"
                  else [(kind, m, 0) for m in args.sizes])
    for case in cases:                              # every case, before any timing
        bench_mod.check_case(*case, args.hidden)
    times = [bench_mod.bench_case(*case, args.hidden, args.repeats) for case in cases]
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    csv_path = out / "bench.csv"
    with open(csv_path, "w", encoding="utf-8") as fh:
        fh.write("kind,m,k,hidden,seconds\n")
        for (kind, m, k), t in zip(cases, times):
            k = k if kind == "local" else ""
            fh.write(f"{kind},{m},{k},{args.hidden},{t:.6e}\n")
            print(f"{kind:9s} M={m:<6} K={k or '-':<4} "
                  f"C={args.hidden}: {t * 1e3:.3f} ms")
    _write_sidecar(csv_path, {"kind": args.kind, "sizes": args.sizes,
                              "k_values": args.k_values, "local_m": args.local_m,
                              "hidden": args.hidden, "repeats": args.repeats})
    return EXIT_OK


def cmd_dump_mask(args) -> int:
    model = load_checkpoint(args.checkpoint)
    for i, sig in enumerate(mask_trajectory(model)):
        print(f"layer {i + 1}: sigma(s) = {sig:.6f}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def _positive_int(text: str) -> int:
    if not text.strip().isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"not a positive integer: {text}")
    return int(text)


def _int_list(text: str) -> list[int]:
    values = [_positive_int(v) for v in text.split(",") if v.strip()]
    if not values:
        raise argparse.ArgumentTypeError(f"no values in list: {text!r}")
    return values


def _run_parser(sub, name: str, text: str, func, *, epochs: int):
    """A command that trains on --data and writes to --out. Its config flags
    come from the ModelConfig/TrainConfig config keys; `epochs` is the
    command's fallback epoch count."""
    p = sub.add_parser(name, help=text)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--config", default=None, help="JSON run config; flags override it")
    p.add_argument("--seed", type=int, default=0, help="RNG seed")
    for title, cls, keys in (("model", ModelConfig, MODEL_KEYS),
                             ("training", TrainConfig, TRAIN_KEYS)):
        g = p.add_argument_group(title)
        for f in fields(cls):
            if f.name not in keys:
                continue
            names = ["-K", "--k"] if f.name == "k" else ["--" + f.name.replace("_", "-")]
            default = epochs if f.default is MISSING else f.default
            g.add_argument(*names, dest=f.name, type=FIELD_TYPES[f.type], default=None,
                           help=FLAG_HELP.get(f.name, f.name.replace("_", " ")) + (
                               "" if default is None else f" (default {default})"))
    p.set_defaults(func=func, needs_config=True, default_epochs=epochs)
    return p


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="la2",
        description="Neural operator with fused global/local attention: "
                    "data generation, training, sweeps, and benchmarks.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write a synthetic dataset directory")
    p.add_argument("--task", choices=("darcy", "pointcloud"), required=True)
    p.add_argument("--n", type=int, required=True, help="sample count")
    p.add_argument("--grid", type=int, default=16, help="darcy grid side (>= 8)")
    p.add_argument("--points", type=int, default=512, help="pointcloud size (>= 16)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_generate)

    _run_parser(sub, "train", "train a model on a dataset directory", cmd_train,
                epochs=50)

    p = sub.add_parser("eval", help="evaluate a checkpoint")
    p.add_argument("--data", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--split", choices=("train", "test", "all"), default="test")
    p.set_defaults(func=cmd_eval)

    p = _run_parser(sub, "ablate-window", "train once per window size K",
                    cmd_ablate_window, epochs=10)
    p.add_argument("--k-values", dest="k_values", type=_int_list,
                   default=[4, 8, 16, 32])

    p = _run_parser(sub, "scale-study", "train across widths and/or depths",
                    cmd_scale_study, epochs=10)
    p.add_argument("--widths", type=_int_list, default=None)
    p.add_argument("--depths", type=_int_list, default=None)

    p = sub.add_parser("bench", help="time attention kinds over sizes")
    p.add_argument("--out", required=True)
    p.add_argument("--kind", choices=("global", "local", "pairwise", "all"),
                   default="all")
    p.add_argument("--sizes", type=_int_list, default=[1024, 2048, 4096],
                   help="M values for global/pairwise")
    p.add_argument("--k-values", dest="k_values", type=_int_list,
                   default=[8, 16, 32], help="K values for local")
    p.add_argument("--local-m", dest="local_m", type=_positive_int, default=2048)
    p.add_argument("--hidden", type=int, default=ModelConfig.hidden)
    p.add_argument("--repeats", type=_positive_int, default=5)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("dump-mask", help="print per-layer mask fractions")
    p.add_argument("--checkpoint", required=True)
    p.set_defaults(func=cmd_dump_mask)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else EXIT_USAGE
    try:
        if getattr(args, "needs_config", False):
            args.file_config = _load_config_file(args.config) if args.config else {}
        return args.func(args)
    except (UsageError, TrainingError, TensorError, CheckpointError,
            data_mod.FormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # noqa: BLE001 - last-resort runtime failure
        traceback.print_exc()
        print(f"runtime failure: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
