"""Benchmark of filtered-spectra: one workload per run, in fresh processes.

    python3 benchmark/run.py --workload {montecarlo,density,exact} \
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout.  The program is imported from src/ of
that checkout.  Set-up is measured in separate processes (each one
imports, builds and validates the inputs and runs a small warm-up round),
then one more process measures whole rounds for S seconds.  The last
line of stdout is the result, as JSON; a full record goes to
benchmark/results/.  See benchmark/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from datetime import datetime, timezone
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
SETUP_SAMPLES = 3          # set-up processes per run, the measuring one included
GRACE_S = 145              # a run ends within --seconds plus this
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")


def child_env() -> dict:
    """One BLAS/OpenMP thread, no FS_THREADS, the checkout's src/ first."""
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = "1"
    env.pop("FS_THREADS", None)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def host() -> dict:
    model = ""
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), "")
    except OSError:
        pass
    return {"nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "loadavg_start": os.getloadavg(), "cpu_model": model}


def run_worker(args, workdir, deadline, setup_only) -> tuple:
    """Start one workload process; return (set-up seconds, result or None)."""
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--scale", args.scale, "--workdir", str(workdir)]
    if setup_only:
        cmd.append("--setup-only")
    setup, result = None, None
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(),
                            stdout=subprocess.PIPE, text=True)
    timer = threading.Timer(max(deadline - time.monotonic(), 1.0), proc.kill)
    timer.start()
    try:
        for line in proc.stdout:
            if line.startswith("@@ready"):
                setup = time.perf_counter() - t0
            elif line.startswith("@@result "):
                result = json.loads(line[len("@@result "):])
        rc = proc.wait()
    finally:
        timer.cancel()
        proc.kill()
        proc.wait()
    if rc != 0 or setup is None or (result is None and not setup_only):
        raise SystemExit(f"workload process failed (exit {rc})")
    return setup, result


def sympy_failures(cases) -> list:
    """The exact workload's piecewise curves, checked against sympy."""
    import checks

    fails, refs = [], {}
    for case in cases:
        key = tuple(case["profile"])
        if key not in refs:
            curve = checks.sympy_curve([Fraction(p) for p in key])
            refs[key] = (curve, checks.sympy_discriminant(curve))
        curve, disc = refs[key]
        found = (checks.curve_matches(case["curve"], curve)
                 + checks.discriminant_matches(case["discriminant"], disc)
                 + checks.roots_match(case["roots"], disc))
        fails += [f"profile {list(key)}: {f}" for f in found]
    return fails


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("montecarlo", "density", "exact"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "tiny"), default="full",
                    help="tiny: the warm-up sizes, for the benchmark's tests")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "filtered_spectra" / "cli.py").is_file():
        print(f"no filtered_spectra package under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    if args.workload == "exact":
        try:
            import sympy  # noqa: F401  (the exact checks need it)
        except ImportError:
            print("the exact workload's checks need sympy", file=sys.stderr)
            return 2

    machine = host()
    deadline = time.monotonic() + args.seconds + GRACE_S
    stamp = datetime.now(timezone.utc).strftime("%Y%m%dT%H%M%S")
    tag = f"{args.workload}-s{args.seed}-t{args.trace}-{stamp}-{os.getpid()}"
    workdir = RESULTS / ("work-" + tag)
    try:
        setups = [run_worker(args, workdir, deadline, True)[0]
                  for _ in range(SETUP_SAMPLES - 1)]
        setup, res = run_worker(args, workdir, deadline, False)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    setups.append(setup)

    failures = res["check_failures"] + sympy_failures(res["sympy_cases"])
    if args.trace:
        from tracing import median_metrics
        metrics = median_metrics(res["layers"])
        metrics["trace.overhead_s"] = (statistics.median(res["traced_round_s"])
                                       - res["round_median_s"])
    else:
        metrics = {"setup_s": statistics.median(setups),
                   "round_s": res["round_median_s"],
                   "peak_rss_mb": res["peak_rss_mb"]}
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    unit_of = {m["name"]: m["unit"]
               for m in spec["end_to_end"] + spec["per_layer"]}
    line = {"correct": not failures, "attempted": res["attempted"],
            "failed": res["failed"],
            "metrics": {k: {"value": v, "unit": unit_of[k]}
                        for k, v in metrics.items()}}

    RESULTS.mkdir(exist_ok=True)
    record = dict(line, workload=args.workload, seed=args.seed,
                  seconds=args.seconds, scale=args.scale, host=machine,
                  setup_samples_s=setups, failures=failures, worker=res)
    (RESULTS / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")

    for f in failures:
        print("CHECK FAILED:", f, file=sys.stderr)
    for e in res["errors"]:
        print("OPERATION FAILED:", e, file=sys.stderr)
    print(f"{args.workload} seed {args.seed}: {len(res['round_s'])} untraced "
          f"and {len(res['traced_round_s'])} traced rounds, "
          f"{res['attempted']} operations attempted, {res['failed']} failed")
    for k, m in line["metrics"].items():
        print(f"  {k} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
