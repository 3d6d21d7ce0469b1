"""Run one la2 benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload darcy16-train --seed 1 --seconds 40 --trace 0

The process pins OpenBLAS and OpenMP to one thread before numpy loads, runs
the workload's session (see workloads.py) and prints, in order: the
environment, ungated diagnostics, a metric table, and as the last line one
JSON object ``{"correct", "attempted", "failed", "metrics"}``. With
``--trace 0`` the metrics are the end-to-end metrics of BENCHMARK.json; with
``--trace 1`` they are its per-layer metrics, and the spans are written to
``.perfbench/traces/``. la2 is imported from ``./src``; without it the run
exits with status 2 and prints no result.
"""

import time

T_START = time.perf_counter()

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import shutil
import sys
import threading
from pathlib import Path

ROOT = Path.cwd()


def _environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
        "OMP_NUM_THREADS": os.environ["OMP_NUM_THREADS"],
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "threads": threading.active_count(),
    }


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=names)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "la2" / "__init__.py").is_file():
        print(f"error: la2 sources not found in {src}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import workloads  # imports numpy, scipy and la2

    import la2
    if src.resolve() not in Path(la2.__file__).resolve().parents:
        print(f"error: la2 was imported from {la2.__file__}, not {src}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - T_START

    out_dir = ROOT / ".perfbench"
    workdir = out_dir / f"work-{os.getpid()}"
    try:
        result = workloads.run(workloads.WORKLOADS[args.workload], args.seed,
                               args.seconds, bool(args.trace), import_s, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    env = _environment()
    print("env " + json.dumps(env), flush=True)
    print("diagnostics " + json.dumps(result["diagnostics"]), flush=True)
    if args.trace:
        declared, values = spec["per_layer"], result["layers"]
        trace_dir = out_dir / "traces"
        trace_dir.mkdir(parents=True, exist_ok=True)
        path = trace_dir / f"{args.workload}-seed{args.seed}.json"
        result["tracer"].dump(path, {"workload": args.workload, "seed": args.seed,
                                     "env": env, "layers": values})
        print(f"trace written to {path.relative_to(ROOT)}", flush=True)
    else:
        declared, values = spec["end_to_end"], result["metrics"]
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        print(f"error: metrics not measured: {', '.join(missing)}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared}
    for name, m in metrics.items():
        print(f"  {name:36s} {m['value']:14.6g} {m['unit']}")
    ops = result["ops"]
    print(json.dumps({"correct": ops.failed == 0, "attempted": ops.attempted,
                      "failed": ops.failed, "metrics": metrics}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
