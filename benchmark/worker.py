"""One workload process: set up, warm up, run timed rounds, check them.

Started by run.py with the thread variables already in its environment.
Prints "@@ready" when set-up ends and, unless --setup-only, one
"@@result <json>" line at the end.  Everything else it prints goes to
stderr.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path
from types import SimpleNamespace

from run import THREAD_VARS

ROOT = Path(__file__).resolve().parent.parent
MODULES = ("cli", "kernel", "matrixlab", "colorsolve", "moments", "combinat",
           "algebra")


def load_program():
    """The package under src/ of this checkout, and nothing installed."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    fs = SimpleNamespace(**{m: importlib.import_module(f"filtered_spectra.{m}")
                            for m in MODULES})
    origin = Path(fs.cli.__file__).resolve()
    if src.resolve() not in origin.parents:
        raise SystemExit(f"filtered_spectra imported from {origin}, not {src}")
    return fs


def environment() -> dict:
    import numpy as np
    import scipy

    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__,
            "numpy_blas": deps.get("blas", {}),
            "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
            "FS_THREADS": os.environ.get("FS_THREADS")}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "tiny"), default="full")
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    fs = load_program()
    from workloads import WORKLOADS
    from tracing import Tracer, layer_metrics, trace_points

    workdir = Path(args.workdir)
    cls = WORKLOADS[args.workload]
    warm = cls(fs, args.seed, "tiny", workdir)
    warm.prepare()
    warm.clear()
    warm_fails = warm.check(warm.round())
    if warm.failed or warm_fails:
        raise SystemExit(f"warm-up round failed: {warm.errors + warm_fails}")
    wl = cls(fs, args.seed, args.scale, workdir)
    wl.prepare()
    print("@@ready", flush=True)
    if args.setup_only:
        return 0

    points = trace_points(fs)
    times = {False: [], True: []}         # round seconds, untraced and traced
    layers, failures = [], []
    start = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(times[False]) > len(times[True])
        tracer = Tracer()
        gc.collect()
        with tracer.installed(points if traced else []):
            t0 = time.perf_counter()
            out = wl.round()
            times[traced].append(time.perf_counter() - t0)
        if traced:
            layers.append(layer_metrics(tracer))
        failures += wl.check(out)
        if (time.perf_counter() - start >= args.seconds
                and (times[True] or not args.trace)):
            break

    result = {
        "workload": args.workload, "seed": args.seed, "scale": args.scale,
        "trace": args.trace, "attempted": wl.attempted, "failed": wl.failed,
        "errors": wl.errors, "check_failures": failures[:50],
        "round_s": times[False], "traced_round_s": times[True],
        "round_median_s": statistics.median(times[False]),
        "layers": layers,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "sympy_cases": wl.sympy_cases(),
        "environment": environment(),
    }
    print("@@result " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
