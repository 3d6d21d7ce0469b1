"""The benchmark's workloads: one la2 user session each, timed from outside.

Every workload runs the same session on its own inputs, with the quick-start
model (L=4, C=64, K=8, alpha=10) and batch 8. The run is cut into equal
rounds, so that every metric samples the whole run and not one moment of a
host whose speed drifts. Each round does, in order:

1. one set-up pass: generate the dataset, ``write_dataset``/``read_dataset``,
   ``init_model``, ``save_checkpoint``/``load_checkpoint``;
2. training, if the run's steps so far leave room in its training share for
   one more (the first round always trains): one
   ``train(..., checkpoint_path=...)`` call on the model of the first round,
   stopped at the end of the first step after which another step would pass
   the round's training share;
3. ``evaluate`` on the test split, then ``save_checkpoint`` and
   ``load_checkpoint`` of the trained model;
4. serving: a closed loop with one client sends requests until the round's
   time is up. A request is one ``evaluate(model, ds, indices)`` call on
   test samples that carry 4096 points in all: one sample at M=4096,
   sixteen at M=256. Between requests, further set-up passes run whenever
   set-up has had less than its share of the run so far.

Output checks run after the last round and are not timed. Only the
generated inputs reach the program; the seed picks them.
"""

from __future__ import annotations

import functools
import math
import resource
import time
from dataclasses import dataclass
from pathlib import Path
from statistics import median

import numpy as np

from la2 import attention, data, geometry, model, training
from la2.tensor import Tensor, TensorError
from la2.training import TrainingError

from tracer import Tracer, layer_metrics

REQUEST_POINTS = 4096             # points per request, summed over its samples
EQUIVARIANCE_RTOL = 1e-8          # max |f(Px) - P f(x)| / max(1, max |f(x)|)
RESIDUAL_LIMIT = 1e-10


@dataclass(frozen=True)
class Workload:
    name: str
    task: str            # "darcy" or "cloud"
    n: int               # samples
    size: int            # grid side (darcy) or point count (cloud)
    rounds: int
    train_share: float   # share of the run, and of each round, for whole steps
    setup_share: float   # share of the run for set-up passes

    def generate(self, seed: int) -> data.Dataset:
        if self.task == "darcy":
            return data.generate_darcy(n=self.n, g=self.size, seed=seed)
        return data.generate_pointcloud_task(n=self.n, m=self.size, seed=seed)


WORKLOADS = {w.name: w for w in (
    Workload("darcy16-train", "darcy", 200, 16, rounds=8, train_share=0.5,
             setup_share=0.08),
    Workload("darcy64-train", "darcy", 10, 64, rounds=3, train_share=0.9,
             setup_share=0.05),
    Workload("cloud4096-infer", "cloud", 2, 4096, rounds=6, train_share=0.1,
             setup_share=0.03),
)}


class PhaseOver(Exception):
    """Raised from the step clock to end the training phase."""


class Ops:
    """Operations attempted and failed, with the first failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def record(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.errors) < 20:
                self.errors.append(what)


class StepClock:
    """Timestamp hooks on the functions ``train`` calls through ``la2.training``.

    A step runs from the previous boundary (train's KNN build, the previous
    step, an evaluate or a checkpoint save) to the end of ``adam_step``. The
    hooks only read the clock and record no spans; traced and untraced runs
    install them alike.
    """

    def __init__(self, tracer: Tracer, ops: Ops, tracing: bool):
        self.tracer = tracer
        self.ops = ops
        self.tracing = tracing
        self.deadline = math.inf
        self.boundary = 0.0
        self.samples = 0
        self.steps: list[tuple[float, float, int, bool]] = []   # start, end, samples, traced
        self.losses: list[float] = []
        self.evals: list[tuple[float, dict]] = []               # seconds, result
        self.record_evals = False
        self._originals = {}

    def install(self) -> None:
        hooks = {"knn_indices_accelerated": self._boundary_after,
                 "save_checkpoint": self._boundary_after,
                 "evaluate": self._evaluate, "relative_l2_loss": self._loss,
                 "adam_step": self._adam_step}
        for name, make in hooks.items():
            fn = getattr(training, name)
            self._originals[name] = fn
            setattr(training, name, functools.wraps(fn)(make(fn)))

    def uninstall(self) -> None:
        for name, fn in self._originals.items():
            setattr(training, name, fn)

    def _boundary_after(self, fn):
        def hook(*args, **kwargs):
            out = fn(*args, **kwargs)
            self.boundary = time.perf_counter()
            return out
        return hook

    def _evaluate(self, fn):
        def hook(*args, **kwargs):
            t0 = time.perf_counter()
            out = fn(*args, **kwargs)
            self.boundary = time.perf_counter()
            if self.record_evals:
                self.evals.append((self.boundary - t0, out))
            return out
        return hook

    def _loss(self, fn):
        def hook(*args, **kwargs):
            loss = fn(*args, **kwargs)
            value = loss.item()
            self.losses.append(value)
            self.samples += 1
            self.ops.record(math.isfinite(value), f"non-finite training loss {value}")
            return loss
        return hook

    def _adam_step(self, fn):
        def hook(*args, **kwargs):
            fn(*args, **kwargs)
            now = time.perf_counter()
            self.steps.append((self.boundary, now, self.samples, self.tracer.on))
            self.boundary = now
            self.samples = 0
            self.tracer.on = self.step_traced()
            if now + self.typical_step() > self.deadline:
                raise PhaseOver
        return hook

    def typical_step(self) -> float:
        return median(end - start for start, end, _, _ in self.steps)

    def step_time(self) -> float:
        return sum(end - start for start, end, _, _ in self.steps)

    def step_traced(self) -> bool:
        """Whether the next step runs traced: every second one in a traced run."""
        return self.tracing and len(self.steps) % 2 == 1


def _model_config(ds: data.Dataset, seed: int) -> model.ModelConfig:
    return model.ModelConfig(
        in_channels=ds.inputs.shape[2], coord_channels=ds.geometry.coords.shape[1],
        out_channels=ds.outputs.shape[2], k=8, layers=4, hidden=64, alpha=10.0,
        seed=seed)


def _same_params(a: model.OperatorModel, b: model.OperatorModel) -> bool:
    pa, pb = dict(a.named_parameters()), dict(b.named_parameters())
    return (a.config == b.config and pa.keys() == pb.keys()
            and all(pa[k].data.dtype == pb[k].data.dtype
                    and np.array_equal(pa[k].data, pb[k].data) for k in pa))


def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.iterdir() if p.is_file())


def run(workload: Workload, seed: int, seconds: float, trace: bool,
        import_s: float, workdir: Path) -> dict:
    """Run one session; return metrics, op counts and diagnostics."""
    tracer = Tracer()
    ops = Ops()
    clock = StepClock(tracer, ops, trace)
    clock.install()
    if trace:
        tracer.install((training, model, attention, geometry, data))
    try:
        return _session(workload, seed, seconds, trace, import_s, workdir,
                        tracer, ops, clock)
    finally:
        tracer.on = False
        tracer.uninstall()
        clock.uninstall()


def _session(workload, seed, seconds, trace, import_s, workdir, tracer, ops, clock):
    """Run the rounds; in a traced run every second set-up pass, step, round
    and request is traced, so traced and untraced work interleave."""
    workdir.mkdir(parents=True, exist_ok=True)
    data_dir = workdir / "data"
    ckpt0 = workdir / "init.la2c"
    ckpt = workdir / "final.la2c"
    tcfg = training.TrainConfig(epochs=50, batch_size=8, seed=seed)
    passes, gens = [], []
    latencies: list[tuple[float, bool]] = []
    net = served = None
    length = seconds / workload.rounds

    def setup_pass():
        tracer.on = trace and len(passes) % 2 == 1
        t0 = time.perf_counter()
        ds = workload.generate(seed)
        t1 = time.perf_counter()
        data.write_dataset(ds, data_dir)
        ds = data.read_dataset(data_dir)
        initial = model.init_model(_model_config(ds, seed))
        model.save_checkpoint(initial, ckpt0)
        loaded = model.load_checkpoint(ckpt0)
        passes.append(time.perf_counter() - t0)
        gens.append((t1 - t0, ds.n))
        tracer.on = False
        return ds, initial, loaded

    t_start = time.perf_counter()
    for r in range(workload.rounds):
        round_start = t_start + r * length
        round_end = round_start + length

        # -- 1. set-up -------------------------------------------------
        ds, initial, loaded = setup_pass()
        if net is None:
            net = loaded
            ops.record(_same_params(initial, net),
                       "initial checkpoint did not round-trip bit-exactly")

        # -- 2. training ---------------------------------------------------
        clock.deadline = round_start + workload.train_share * length
        clock.record_evals = True
        if not clock.steps or clock.typical_step() <= (
                workload.train_share * (round_end - t_start) - clock.step_time()):
            tracer.on = clock.step_traced()
            try:
                training.train(net, ds, tcfg, checkpoint_path=workdir / "best.la2c")
            except PhaseOver:
                pass
            except (TensorError, TrainingError) as exc:
                ops.record(False, f"train: {exc}")

        # -- 3. evaluate, checkpoint -----------------------------------------
        tracer.on = trace and r % 2 == 1
        try:
            training.evaluate(net, ds, "test")
        except (TensorError, TrainingError) as exc:
            ops.record(False, f"evaluate: {exc}")
        model.save_checkpoint(net, ckpt)
        served = model.load_checkpoint(ckpt)
        tracer.on = clock.record_evals = False

        # -- 4. serving: closed loop, one client -----------------------------
        test = ds.test_indices
        per_request = max(1, REQUEST_POINTS // ds.geometry.m)
        while time.perf_counter() < round_end or not latencies:
            if sum(passes) < workload.setup_share * (time.perf_counter() - t_start):
                setup_pass()
                continue
            first = len(latencies) * per_request
            idx = [int(test[j % len(test)]) for j in range(first, first + per_request)]
            traced = trace and len(latencies) % 2 == 1
            tracer.on = traced
            t0 = time.perf_counter()
            sid = tracer.open("bench.request") if traced else None
            try:
                res = training.evaluate(served, ds, idx)
                ok = res["n"] == per_request and math.isfinite(res["rel_l2"])
            except (TensorError, TrainingError):
                ok = False
            finally:
                if sid is not None:
                    tracer.close(sid)
            latencies.append((time.perf_counter() - t0, traced))
            ops.record(ok, f"request for samples {idx} failed")
        tracer.on = False
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # -- output checks, untimed ----------------------------------------------
    for _, result in clock.evals:
        ops.record(math.isfinite(result["rel_l2"]), "non-finite evaluate result")
    ops.record(_same_params(net, served), "trained checkpoint did not round-trip bit-exactly")
    _check_knn(ds, served.config.k, ops)
    if workload.task == "darcy":
        _check_darcy(ds, workload.size, ops)
    else:
        _check_equivariance(served, ds, seed, ops)

    steps = clock.steps
    step_time = clock.step_time()
    eval_time = sum(s for s, _ in clock.evals)
    eval_samples = sum(result["n"] for _, result in clock.evals)
    lat_ms = sorted(1e3 * s for s, _ in latencies)
    p90 = float(np.percentile(lat_ms, 90))
    metrics = {
        "train_samples_per_s": (sum(n for _, _, n, _ in steps) / step_time
                                if step_time else 0.0),
        "eval_ms_per_sample": 1e3 * eval_time / eval_samples if eval_samples else 0.0,
        "request_ms.p50": float(np.percentile(lat_ms, 50)),
        "request_ms.p90": p90,
        "gen_ms_per_sample": 1e3 * sum(s for s, _ in gens) / sum(n for _, n in gens),
        "setup_s": import_s + sum(passes) / len(passes),
        "peak_rss_mib": peak_rss_mib,
    }
    n_train = len(ds.train_indices)
    diagnostics = {
        "setup_passes": len(passes),
        "import_s": import_s,
        "steps": len(steps),
        "train_samples": sum(n for _, _, n, _ in steps),
        "evaluate_calls": len(clock.evals),
        "requests": len(lat_ms),
        "requests_beyond_p90": sum(1 for x in lat_ms if x > p90),
        "final_train_loss": (float(np.mean(clock.losses[-n_train:]))
                             if clock.losses else None),
        "test_rel_l2": clock.evals[-1][1]["rel_l2"] if clock.evals else None,
        "errors": ops.errors,
    }
    layers = None
    if trace:
        traced_steps = [(a, b) for a, b, _, t in steps if t]
        layers = layer_metrics(tracer.spans, tracer.tape_lengths, traced_steps)
        layers["data.dataset_bytes"] = float(_dir_bytes(data_dir))
        layers["model.ckpt_bytes"] = float(ckpt.stat().st_size)
        layers["trace.overhead_pct.step"] = _overhead(
            [(b - a, t) for a, b, _, t in steps])
        layers["trace.overhead_pct.request"] = _overhead(latencies)
    return {"metrics": metrics, "layers": layers, "ops": ops,
            "diagnostics": diagnostics, "tracer": tracer}


def _overhead(samples) -> float:
    """Traced minus untraced median, as a percentage of the untraced one."""
    on = [s for s, t in samples if t]
    off = [s for s, t in samples if not t]
    if not on or not off:
        return 0.0
    return 100.0 * (median(on) - median(off)) / median(off)


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------

def _check_knn(ds, k: int, ops: Ops) -> None:
    try:
        fast = geometry.knn_indices_accelerated(ds.geometry, k)
        brute = geometry.knn_indices(ds.geometry, k)
        ok = fast.idx.dtype == brute.idx.dtype and np.array_equal(fast.idx, brute.idx)
    except TensorError:
        ok = False
    ops.record(ok, "accelerated KNN differs from brute force")


def _check_darcy(ds, g: int, ops: Ops) -> None:
    f = Tensor(np.ones((g, g)))
    for i in range(ds.n):
        a = Tensor(ds.inputs.data[i, :, 0].reshape(g, g))
        u = Tensor(ds.outputs.data[i, :, 0].reshape(g, g))
        res = data.darcy_residual(a, f, u)
        ops.record(res <= RESIDUAL_LIMIT, f"sample {i}: Darcy residual {res:.3e}")


def _check_equivariance(m, ds, seed: int, ops: Ops) -> None:
    try:
        knn = geometry.knn_indices_accelerated(ds.geometry, m.config.k)
        x = ds.inputs.data[0]
        y = model.forward(m, Tensor(x), ds.geometry, knn).data
        perm = np.random.default_rng([seed, 1]).permutation(ds.geometry.m)
        moved = geometry.PointSet(Tensor(ds.geometry.coords.data[perm]))
        yp = model.forward(m, Tensor(x[perm]), moved,
                           geometry.relabel_knn(knn, perm)).data
        err = float(np.abs(yp - y[perm]).max())
        ok = err <= EQUIVARIANCE_RTOL * max(1.0, float(np.abs(y).max()))
    except TensorError as exc:
        err, ok = str(exc), False
    ops.record(ok, f"permutation equivariance error {err}")
