"""Span tracer that times la2's public functions from outside the program.

`Tracer.install` replaces every public function that the la2 modules call
through a module namespace (``la2.training.forward``, ``la2.attention.matmul``,
``la2.data.solve_darcy_fd``, ...) with a wrapper. While ``tracer.on`` is set,
each call records a span ``[id, parent, name, group, start, end]``; while it
is clear, the wrapper only forwards the call. Spans stay in memory and are
written out once, when the run ends.

A span's name is the defining function (``la2.tensor.matmul``), whichever
namespace it was called through. Spans are grouped per sample or request: a
group starts at each model forward pass and at each benchmark request, and
the loss and backward pass that follow a forward pass stay in its group.

Run as a script, it prints the self-time table of a trace file::

    python3 perfbench/tracer.py .perfbench/traces/<file>.json
"""

from __future__ import annotations

import functools
import json
import sys
import time
import types
from collections import defaultdict
from statistics import median

# Spans that open a new group unless one is already open.
GROUP_ROOTS = ("la2.model.forward", "bench.request")

# Per-sample forward self time is reported for these tape ops...
TIMED_OPS = ("matmul", "mul", "add", "div", "gather_rows", "layer_norm",
             "gelu", "softmax_lastdim", "l1_lastdim", "concat_lastdim")
# ...and calls per sample for these.
COUNTED_OPS = TIMED_OPS + ("sub", "scale", "reshape", "transpose", "sigmoid",
                           "reduce_sum")

# Children of a block's `gla` span that make up the gather+mask stage.
GATHER_MASK = ("la2.tensor.gather_rows", "la2.attention.soft_mask",
               "la2.attention.weighted_knn_features")

ID, PARENT, NAME, GROUP, START, END = range(6)


class Tracer:
    def __init__(self):
        self.on = False
        self.spans: list[list] = []
        self.tape_lengths: list[int] = []
        self._stack: list[int] = []
        self._roots_open = 0
        self._group = 0
        self._installed: list[tuple] = []

    # -- wrapping ---------------------------------------------------------

    def install(self, modules) -> None:
        """Wrap the public functions bound in each module's namespace."""
        for mod in modules:
            for attr, fn in list(vars(mod).items()):
                if (attr.startswith("_") or not isinstance(fn, types.FunctionType)
                        or not fn.__module__.startswith("la2")):
                    continue
                setattr(mod, attr, self._wrap(fn, f"{fn.__module__}.{fn.__name__}"))
                self._installed.append((mod, attr, fn))

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._installed):
            setattr(mod, attr, fn)
        self._installed.clear()

    def _wrap(self, fn, name: str):
        tracer = self
        is_backward = name == "la2.tensor.backward"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            if is_backward:
                tracer.tape_lengths.append(len(args[1]))
            sid = tracer.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(sid)

        return traced

    # -- spans ------------------------------------------------------------

    def open(self, name: str) -> int:
        root = name in GROUP_ROOTS
        if root:
            if self._roots_open == 0:
                self._group += 1
            self._roots_open += 1
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([sid, parent, name, self._group, time.perf_counter(), 0.0])
        self._stack.append(sid)
        return sid

    def close(self, sid: int) -> None:
        span = self.spans[sid]
        span[END] = time.perf_counter()
        self._stack.pop()
        if span[NAME] in GROUP_ROOTS:
            self._roots_open -= 1

    def dump(self, path, extra: dict) -> None:
        """Write spans (times in microseconds from the first span) as JSON."""
        names = sorted({s[NAME] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        t0 = self.spans[0][START] if self.spans else 0.0
        rows = [[s[ID], s[PARENT], index[s[NAME]], s[GROUP],
                 round((s[START] - t0) * 1e6, 1), round((s[END] - t0) * 1e6, 1)]
                for s in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({**extra, "columns": ["id", "parent", "name", "group",
                                            "start_us", "end_us"],
                       "names": names, "spans": rows}, fh)


# ---------------------------------------------------------------------------
# Analysis
# ---------------------------------------------------------------------------

def self_times(spans) -> list[float]:
    """Span duration minus the time its child spans cover (one thread, so
    children never overlap)."""
    child = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child[s[PARENT]] += s[END] - s[START]
    return [s[END] - s[START] - c for s, c in zip(spans, child)]


def _mean_ms(values) -> float:
    return 1e3 * sum(values) / len(values) if values else 0.0


def layer_metrics(spans, tape_lengths, steps) -> dict[str, float]:
    """Per-layer metrics from the traced spans.

    `steps` holds ``(start, end)`` of every traced optimisation step. Per-sample
    figures divide by the number of model forward passes traced.
    """
    selfs = self_times(spans)
    dur = [s[END] - s[START] for s in spans]
    by_name: dict[str, list[int]] = defaultdict(list)
    children: dict[int, list[int]] = defaultdict(list)
    for s in spans:
        by_name[s[NAME]].append(s[ID])
        if s[PARENT] >= 0:
            children[s[PARENT]].append(s[ID])

    def durs(name, where=None):
        return [dur[i] for i in by_name[name] if where is None or where(spans[i])]

    def parent_name(s):
        return spans[s[PARENT]][NAME] if s[PARENT] >= 0 else ""

    n_fwd = max(1, len(by_name["la2.model.forward"]))
    out: dict[str, float] = {}

    out["tensor.tape_entries_per_sample"] = (
        sum(tape_lengths) / len(tape_lengths) if tape_lengths else 0.0)
    out["tensor.backward_ms"] = _mean_ms(durs("la2.tensor.backward"))
    for op in TIMED_OPS:
        ids = by_name[f"la2.tensor.{op}"]
        out[f"tensor.op_ms.{op}"] = 1e3 * sum(selfs[i] for i in ids) / n_fwd
    for op in COUNTED_OPS:
        out[f"tensor.op_calls.{op}"] = len(by_name[f"la2.tensor.{op}"]) / n_fwd

    stage = dict.fromkeys(("prenorm", "gather_mask", "global", "local",
                           "fusion", "ffn"), 0.0)
    for i in by_name["la2.attention.la2_layer"]:
        norms = sum(dur[c] for c in children[i]
                    if spans[c][NAME] == "la2.tensor.layer_norm")
        glas = sum(dur[c] for c in children[i]
                   if spans[c][NAME] == "la2.attention.gla")
        stage["prenorm"] += norms
        stage["ffn"] += dur[i] - norms - glas
    for i in by_name["la2.attention.gla"]:
        parts = {"gather_mask": 0.0, "global": 0.0, "local": 0.0}
        for c in children[i]:
            name = spans[c][NAME]
            if name in GATHER_MASK:
                parts["gather_mask"] += dur[c]
            elif name == "la2.attention.global_attention":
                parts["global"] += dur[c]
            elif name == "la2.attention.local_attention":
                parts["local"] += dur[c]
        for key, value in parts.items():
            stage[key] += value
        stage["fusion"] += dur[i] - sum(parts.values())
    for key, value in stage.items():
        out[f"attention.{key}_ms"] = 1e3 * value / n_fwd

    evals = by_name["la2.training.evaluate"]
    out["geometry.knn_build_ms"] = _mean_ms(durs("la2.geometry.knn_indices_accelerated"))
    out["geometry.knn_calls"] = (
        sum(1 for i in by_name["la2.geometry.knn_indices_accelerated"]
            if parent_name(spans[i]) == "la2.training.evaluate") / max(1, len(evals)))

    out["data.solve_darcy_ms"] = _mean_ms(durs("la2.data.solve_darcy_fd"))
    out["data.residual_ms"] = _mean_ms(durs("la2.data.darcy_residual"))
    out["data.write_dataset_ms"] = _mean_ms(durs("la2.data.write_dataset"))
    out["data.read_dataset_ms"] = _mean_ms(durs("la2.data.read_dataset"))

    def in_eval(s):
        return parent_name(s) == "la2.training.evaluate"

    out["model.forward_ms.training"] = _mean_ms(
        durs("la2.model.forward", lambda s: not in_eval(s)))
    out["model.forward_ms.evaluate"] = _mean_ms(durs("la2.model.forward", in_eval))
    out["model.encode_ms"] = _mean_ms(durs("la2.model.encode"))
    out["model.ckpt_save_ms"] = _mean_ms(durs("la2.model.save_checkpoint"))
    out["model.ckpt_load_ms"] = _mean_ms(durs("la2.model.load_checkpoint"))

    out["training.step_ms"] = 1e3 * median(b - a for a, b in steps) if steps else 0.0
    out["training.loss_ms"] = _mean_ms(durs("la2.training.relative_l2_loss"))
    out["training.clip_ms"] = _mean_ms(durs("la2.training.clip_gradients"))
    out["training.adam_ms"] = _mean_ms(durs("la2.training.adam_step"))
    out["training.evaluate_ms"] = _mean_ms(
        durs("la2.training.evaluate", lambda s: parent_name(s) != "bench.request"))
    # train()'s self time in a step is the step's length minus the spans that
    # train calls and that start inside it; train itself may be untraced.
    tops = [(s[START], d) for s, d in zip(spans, dur)
            if s[NAME] != "la2.training.train"
            and parent_name(s) in ("", "la2.training.train")]
    accumulate = []
    for a, b in steps:
        covered = sum(d for t, d in tops if a <= t < b)
        accumulate.append(b - a - covered)
    out["training.accumulate_self_ms"] = _mean_ms(accumulate)
    return out


def self_time_table(spans) -> list[tuple[str, int, float]]:
    """(name, calls, total self seconds) rows, largest self time first."""
    totals: dict[str, list] = defaultdict(lambda: [0, 0.0])
    for s, st in zip(spans, self_times(spans)):
        totals[s[NAME]][0] += 1
        totals[s[NAME]][1] += st
    return sorted(((n, c, t) for n, (c, t) in totals.items()),
                  key=lambda row: -row[2])


def main(argv) -> int:
    if len(argv) != 1:
        print("usage: tracer.py TRACE_FILE", file=sys.stderr)
        return 2
    with open(argv[0], encoding="utf-8") as fh:
        doc = json.load(fh)
    names = doc["names"]
    spans = [[r[0], r[1], names[r[2]], r[3], r[4] * 1e-6, r[5] * 1e-6]
             for r in doc["spans"]]
    total = sum(st for _, _, st in self_time_table(spans)) or 1.0
    print(f"{'span':48s} {'calls':>8s} {'self_s':>10s} {'share':>7s}")
    for name, calls, st in self_time_table(spans):
        print(f"{name:48s} {calls:8d} {st:10.4f} {100 * st / total:6.1f}%")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
