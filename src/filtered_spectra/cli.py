"""Command-line front end: one executable, JSON configs, CSV outputs.

    filtered-spectra <command> [--config cfg.json] [flags]

Commands: moments, density, solve, simulate, eliminate, verify,
crosscheck.  Kernel/filter inputs are JSON documents (inline
or a path); every run writes its outputs plus a manifest.json recording
the command, a config hash, the seed, library versions (scipy's where
the process loaded its LAPACK), wall time, the BLAS thread variables,
and a sha256 per output file — identical config
and seed reproduce identical hashes for the deterministic commands.

crosscheck holds the exact moments to the solver's contour moments
(within their bound tol_k) and to Monte Carlo (within 3 standard errors).

Flag precedence: command line > config file > defaults.  Floats are
written with 17 significant digits so CSV round-trips are lossless.
"""

from __future__ import annotations

import argparse
import cmath
import hashlib
import json
import math
import os
import sys
import time
from dataclasses import dataclass, field, asdict
from functools import cache, partial

import numpy as np

from . import __version__
from .kernel import (read_color_document, json_document, as_kernel,
                     validate_kernel, Filter, _field)
from .moments import theoretical_moments
from .combinat import KMAX_GUARD, moments_by_enumeration
from .colorsolve import (stieltjes_path, density_profile, solver_moments,
                         circle_points, angular_fold, CONTOUR_RADIUS,
                         CONTOUR_POINTS)
from .algebra import (BivariatePolynomial, CERTIFICATE_TOL,
                      certificate_radius, checked_relation,
                      rank_one_eliminate, scored_curve, verify_curve)
from .matrixlab import (COLORED_N_MAX, ESD_KMAX, SampleConfig,
                        sample_filtered_wigner, sample_colored_gaussian,
                        esd_statistics)

FMT = "%.17g"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")


def _jsonable(obj):
    """Coerce numpy scalars (and anything float-like) for json.dump."""
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    return str(obj)


@dataclass
class RunManifest:
    command: str
    config_hash: str
    seed: int | None
    versions: dict
    wall_time_s: float
    blas_threads: dict      # the thread variables in effect, None if unset
    outputs: list = field(default_factory=list)  # [{"path":..., "sha256":...}]


class _Run:
    """Output directory plus the bookkeeping every command shares."""

    def __init__(self, command: str, cfg: dict, outdir: str):
        self.command = command
        self.cfg = cfg
        self.outdir = outdir
        self.t0 = time.time()
        self.paths: list[str] = []
        os.makedirs(outdir, exist_ok=True)

    def path(self, name: str) -> str:
        p = os.path.join(self.outdir, name)
        self.paths.append(p)
        return p

    def write_csv(self, name: str, header, rows) -> str:
        """Write header and rows as csv.writer would, floats as FMT.

        Each row is formatted by one % template, made once per sequence
        of value types: a float takes FMT, anything else str.  No value
        here holds a comma, a quote or a line break, so csv would quote
        none of them.
        """
        p = self.path(name)
        templates = {}
        lines = [",".join(header) + "\r\n"]
        for row in rows:
            kinds = tuple(map(type, row))
            if kinds not in templates:
                templates[kinds] = ",".join(
                    FMT if issubclass(k, float) else "%s" for k in kinds
                ) + "\r\n"
            lines.append(templates[kinds] % tuple(row))
        with open(p, "w", newline="") as fh:
            fh.write("".join(lines))
        return p

    def write_json(self, name: str, payload) -> str:
        p = self.path(name)
        with open(p, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True,
                      default=_jsonable)
            fh.write("\n")
        return p

    def finish(self) -> None:
        # the inputs alone: the same run into another --out hashes alike
        inputs = {k: v for k, v in self.cfg.items() if k != "out"}
        digest = hashlib.sha256(
            json.dumps(inputs, sort_keys=True, default=str).encode()
        ).hexdigest()
        outputs = []
        for p in self.paths:
            with open(p, "rb") as fh:
                outputs.append({"path": os.path.basename(p),
                                "sha256": hashlib.sha256(fh.read()).hexdigest()})
        versions = {"filtered-spectra": __version__,
                    "numpy": np.__version__,
                    "python": sys.version.split()[0]}
        if "scipy.linalg" in sys.modules:   # loaded by the eigensolve only
            versions["scipy"] = sys.modules["scipy"].__version__
        man = RunManifest(command=self.command, config_hash=digest,
                          seed=self.cfg.get("seed"), versions=versions,
                          wall_time_s=time.time() - self.t0,
                          blas_threads={v: os.environ.get(v)
                                        for v in BLAS_THREAD_VARS},
                          outputs=outputs)
        with open(os.path.join(self.outdir, "manifest.json"), "w") as fh:
            json.dump(asdict(man), fh, indent=2)
            fh.write("\n")


# ---------------------------------------------------------------------------
# config plumbing
# ---------------------------------------------------------------------------

def _load_cfg(ns: argparse.Namespace) -> dict:
    cfg = {}
    if ns.config:
        with open(ns.config) as fh:
            cfg = json.load(fh)
    for key, val in vars(ns).items():
        if key in ("config", "func") or val is None:
            continue
        cfg[key] = val
    cfg.setdefault("seed", 42)
    cfg.setdefault("out", "fs-out")
    return cfg


def _integer(value) -> int | None:
    """An int (not a bool) or a string of decimal digits as an int, else
    None: 2.5, "2.5" and true are not truncated."""
    if isinstance(value, str) and value.isascii() and value.isdigit():
        return int(value)
    return value if type(value) is int else None


def _count(cfg: dict, key: str, default: int, cap: int | None = None) -> int:
    """cfg[key] (or the default) as an int >= 1, and <= cap if given.

    Only an _integer is a count.  Anything else raises ValueError naming
    --key and the value, so main exits 2; commands read their inputs
    before making the output directory.
    """
    value = cfg.get(key, default)
    count = _integer(value)
    if count is None or count < 1:
        raise ValueError(f"--{key} must be an integer >= 1, got {value!r}")
    if cap is not None and count > cap:
        raise ValueError(f"--{key} must be <= {cap}, got {value!r}")
    return count


def _seed(cfg: dict) -> int:
    """cfg["seed"] as an _integer Philox key in 0..2^64 - 1, raising like
    _count; it replaces cfg["seed"], so the manifest records the seed used."""
    value = cfg["seed"]
    seed = _integer(value)
    if seed is None or not 0 <= seed < 2 ** 64:
        raise ValueError(f"--seed must be an integer in 0..2**64 - 1, "
                         f"got {value!r}")
    cfg["seed"] = seed
    return seed


def _real(cfg: dict, key: str, default: float) -> float:
    """cfg[key] (or the default) as a finite float, raising like _count."""
    value = cfg.get(key, default)
    try:
        x = float(value)
    except (TypeError, ValueError):
        x = math.nan
    if not math.isfinite(x):
        raise ValueError(f"--{key} must be a finite number, got {value!r}")
    return x


def _document(flag: str, value, read=json_document):
    """read(value) for the document given to --flag.

    A value that is not a readable document raises ValueError naming
    the flag and the value, so main exits 2 instead of a traceback.
    """
    try:
        return read(value)
    except (OSError, ValueError) as exc:
        raise ValueError(f"--{flag} {value!r} is not a valid document "
                         f"({exc})") from None


def _get_filter(cfg: dict) -> Filter:
    if "filter" not in cfg:
        raise ValueError("this command needs --filter (or a config entry)")
    obj = _document("filter", cfg["filter"], read_color_document)
    if not isinstance(obj, Filter):
        raise ValueError(f"--filter {cfg['filter']!r} is not a filter "
                         "document")
    return obj


def _get_kernel(cfg: dict):
    if "kernel" in cfg:
        return as_kernel(
            _document("kernel", cfg["kernel"], read_color_document))
    if "filter" in cfg:
        return as_kernel(_get_filter(cfg))
    raise ValueError("this command needs --kernel or --filter")


def _get_lambda(cfg: dict) -> complex:
    """--lambda "re,im" (or "re") as a finite complex number."""
    text = str(cfg.get("lam", cfg.get("lambda", "4,1")))
    re_s, _, im_s = text.partition(",")
    try:
        lam = complex(float(re_s), float(im_s) if im_s else 0.0)
    except ValueError:
        lam = complex(math.nan)
    if not cmath.isfinite(lam):
        raise ValueError(f"--lambda must be finite re[,im], got {text!r}")
    return lam


def _get_curve(cfg: dict, flag: str,
               check=lambda curve: curve) -> BivariatePolynomial:
    """check(the curve document {"coeffs": [[i, j, "value"], ...]} of
    --flag); a ValueError from reading or checking names --flag."""
    if flag not in cfg:
        raise ValueError(f"this command needs --{flag} (JSON curve document)")

    def read(value):
        return check(BivariatePolynomial.from_entries(
            _field(json_document(value), "coeffs", 3)))
    return _document(flag, cfg[flag], read)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_moments(cfg: dict) -> int:
    kern = _get_kernel(cfg)
    kmax = _count(cfg, "kmax", 8)
    run = _Run("moments", cfg, cfg["out"])
    exact = theoretical_moments(kern, kmax)
    ms = [float(v) for v in exact]
    rows = [[k + 1, ms[k]] for k in range(kmax)]
    header = ["k", "moment"]
    status = 0
    worst = 0.0
    cap = min(kmax, KMAX_GUARD)
    if cfg.get("oracle"):
        oracle = moments_by_enumeration(kern, cap)
        for k in range(kmax):
            rows[k].append(float(oracle[k]) if k < cap else "")
        worst = max(abs(ms[k] - float(oracle[k])) for k in range(cap))
        header.append("enumeration")
        if oracle != exact[:cap]:   # both routes are exact Fractions
            status = 2
    run.write_csv("moments.csv", header, rows)
    run.write_json("report.json", {"kmax": kmax,
                                   "moments": ms,
                                   "oracle_kmax": cap
                                   if cfg.get("oracle") else None,
                                   "oracle_max_abs_diff": worst
                                   if cfg.get("oracle") else None,
                                   "pass": status == 0})
    run.finish()
    print(f"moments 1..{kmax} written"
          + (f"; oracle max diff {worst:.3e}" if cfg.get("oracle") else ""))
    return status


def _grid(xmin: float, xmax: float, n: int) -> np.ndarray:
    """np.linspace(xmin, xmax, n), made a bitwise mirror when xmin = -xmax.

    Node n-1-i is then exactly -(node i) and an odd n's middle node is
    0.0, so density_profile's fold onto |x| solves each pair once.  The
    ends stay exactly xmin and xmax; every node moves by at most an ulp.
    """
    xs = np.linspace(xmin, xmax, n)
    if n > 1 and xmax and xmin == -xmax:       # xmax = 0: all nodes 0.0
        half = n // 2
        xs[n - half:] = -xs[:half][::-1]
        if n % 2:
            xs[half] = 0.0
    return xs


def cmd_density(cfg: dict) -> int:
    kern = _get_kernel(cfg)
    xmin = _real(cfg, "xmin", -3.0)
    xmax = _real(cfg, "xmax", 3.0)
    n = _count(cfg, "n", 241)
    eps1 = _real(cfg, "eps1", 1e-2)
    eps2 = _real(cfg, "eps2", 5e-3)
    if not 0 < eps2 < eps1:
        raise ValueError(f"--eps1 {eps1!r} and --eps2 {eps2!r} must satisfy "
                         "0 < eps2 < eps1")
    run = _Run("density", cfg, cfg["out"])
    grid = density_profile(kern, _grid(xmin, xmax, n), eps_pair=(eps1, eps2))
    rows = [[x, d, 0 if f else 1]
            for x, d, f in zip(grid.xs, grid.density, grid.flags)]
    run.write_csv("density.csv", ["x", "density", "residual_flag"], rows)
    lo, hi = grid.support_estimate
    q, _, nodes, reflected = angular_fold(kern)
    run.write_json("report.json", {
        "support_estimate": [lo, hi], "eps_pair": [eps1, eps2],
        "failed_points": int(sum(not f for f in grid.flags)),
        "fold": q, "angular_nodes": nodes, "reflected": reflected})
    run.finish()
    print(f"density on [{xmin}, {xmax}] ({n} pts); "
          f"support approx [{lo:.4f}, {hi:.4f}]")
    return 0 if all(grid.flags) else 1


def cmd_solve(cfg: dict) -> int:
    kern = _get_kernel(cfg)
    lam = _get_lambda(cfg)
    run = _Run("solve", cfg, cfg["out"])
    sol = stieltjes_path(kern, [lam])[0]
    run.write_csv("solve.csv", ["re_lambda", "im_lambda", "re_S", "im_S",
                                "residual"],
                  [[lam.real, lam.imag, sol.stieltjes.real,
                    sol.stieltjes.imag, sol.residual]])
    q, _, nodes, reflected = angular_fold(kern)
    run.write_json("report.json", {
        "lambda": [lam.real, lam.imag],
        "S": [sol.stieltjes.real, sol.stieltjes.imag],
        "residual": sol.residual, "fold": q, "angular_nodes": nodes,
        "reflected": reflected})
    run.finish()
    print(f"S({lam}) = {sol.stieltjes} (residual {sol.residual:.2e})")
    return 0


def cmd_simulate(cfg: dict) -> int:
    model = cfg.get("model", "filtered")
    seed = _seed(cfg)
    trials = _count(cfg, "trials", 5)
    kmax = _count(cfg, "kmax", 6, ESD_KMAX)
    if model == "filtered":
        N = _count(cfg, "N", 1000)
        scfg = SampleConfig(N=N, seed=seed,
                            entry_law=cfg.get("entry_law", "gaussian"),
                            trials=trials)
        sample = partial(sample_filtered_wigner, scfg, _get_filter(cfg))
    elif model == "colored":
        N = _count(cfg, "N", 40, COLORED_N_MAX)
        sample = partial(sample_colored_gaussian, _get_kernel(cfg), N, seed)
    else:
        raise ValueError(f"--model {model!r} is not 'filtered' or 'colored'")
    run = _Run("simulate", cfg, cfg["out"])
    hashes = []

    def hashed(trial):
        m = sample(trial=trial)
        hashes.append(hashlib.sha256(m).hexdigest())
        return m

    # one matrix alive at a time: drawn, hashed, eigensolved, released
    summary = esd_statistics(map(hashed, range(trials)), kmax=kmax)
    run.write_csv("moments.csv", ["k", "mean", "stderr"],
                  [[k + 1, summary.moment_mean[k], summary.moment_stderr[k]]
                   for k in range(kmax)])
    run.write_csv("hist.csv", ["bin_lo", "bin_hi", "mass"],
                  [[summary.hist_edges[i], summary.hist_edges[i + 1],
                    summary.hist_mass[i]]
                   for i in range(len(summary.hist_mass))])
    run.write_json("report.json", {
        "model": model, "N": N, "trials": trials,
        "matrix_sha256": hashes,
        "moment_mean": summary.moment_mean,
        "moment_stderr": summary.moment_stderr,
        "eigenpair_residual_max": max(e.eigenpair_residual
                                      for e in summary.esds)})
    run.finish()
    pairs = ", ".join(f"m{k + 1}={summary.moment_mean[k]:.4f}"
                      for k in range(kmax))
    print(f"{model} model, N={N}, {trials} trials: {pairs}")
    return 0


def cmd_eliminate(cfg: dict) -> int:
    rel = _get_curve(cfg, "relation", checked_relation)
    kern = _get_kernel(cfg)
    run = _Run("eliminate", cfg, cfg["out"])
    cert = {}
    curve = rank_one_eliminate(rel, kern, certificate=cert)
    resid = cert["residual"]
    run.write_json("curve.json", {"coeffs": curve.to_entries()})
    run.write_json("report.json", {"curve": curve.pretty("X", "Y"),
                                   "verify_residual": resid,
                                   "samples": cert["samples"],
                                   "radius": cert["radius"]})
    run.finish()
    print(f"curve: {curve.pretty('X', 'Y')}  (verify residual {resid:.2e})")
    return 0


def cmd_verify(cfg: dict) -> int:
    curve = _get_curve(cfg, "curve", scored_curve)
    kern = _get_kernel(cfg)
    count = _count(cfg, "samples", 20)
    radius = _real(cfg, "radius", certificate_radius(kern))
    if radius <= 0:
        raise ValueError(f"--radius must be > 0, got {radius!r}")
    tol = _real(cfg, "tol", CERTIFICATE_TOL)
    if tol <= 0:
        raise ValueError(f"--tol must be > 0, got {tol!r}")
    run = _Run("verify", cfg, cfg["out"])
    resid = verify_curve(curve, kern, circle_points(radius, count))
    ok = resid < tol
    run.write_json("report.json", {"residual": resid, "tolerance": tol,
                                   "samples": count, "radius": radius,
                                   "pass": ok})
    run.finish()
    print(f"max residual {resid:.3e} at {count} points |lambda|={radius:g}: "
          + ("PASS" if ok else "FAIL"))
    return 0 if ok else 1


def cmd_crosscheck(cfg: dict) -> int:
    kern = _get_kernel(cfg)
    kmax = _count(cfg, "kmax", 6, ESD_KMAX)
    seed = _seed(cfg)
    trials = _count(cfg, "trials", 4)
    h = _get_filter(cfg) if "filter" in cfg else None
    N = (_count(cfg, "N", 24, COLORED_N_MAX) if h is None
         else _count(cfg, "N", 400))
    run = _Run("crosscheck", cfg, cfg["out"])

    report = validate_kernel(kern)
    if not report.ok:
        run.write_json("report.json", {"kernel_valid": False,
                                       "failures": report.messages})
        run.finish()
        print("kernel failed validation:", "; ".join(report.messages))
        return 1

    exact = [float(v) for v in theoretical_moments(kern, kmax)]
    solver, solver_tol = solver_moments(kern, kmax)

    if h is not None:
        sample = partial(sample_filtered_wigner,
                         SampleConfig(N=N, seed=seed, trials=trials), h)
    else:
        sample = partial(sample_colored_gaussian, kern, N, seed)
    summary = esd_statistics(map(sample, range(trials)), kmax=kmax)

    rows, all_ok = [], True
    for k in range(kmax):
        se = summary.moment_stderr[k]
        d_sim = abs(summary.moment_mean[k] - exact[k])
        ok_solver = abs(solver[k] - exact[k]) <= solver_tol[k]
        ok_sim = d_sim <= 3.0 * se + 1e-12
        all_ok &= ok_solver and ok_sim
        rows.append({"k": k + 1, "exact": exact[k], "solver": solver[k],
                     "solver_tol": solver_tol[k],
                     "simulation": summary.moment_mean[k], "sim_stderr": se,
                     "solver_ok": ok_solver, "sim_ok": ok_sim})
    run.write_csv("crosscheck.csv",
                  ["k", "exact", "solver", "simulation", "sim_stderr",
                   "solver_ok", "sim_ok"],
                  [[r["k"], r["exact"], r["solver"], r["simulation"],
                    r["sim_stderr"], int(r["solver_ok"]), int(r["sim_ok"])]
                   for r in rows])
    run.write_json("report.json", {
        "kernel_valid": True, "rows": rows, "pass": bool(all_ok),
        "contour": {"radius": CONTOUR_RADIUS * kern.amplitude(),
                    "points": CONTOUR_POINTS}})
    run.finish()
    for r in rows:
        flag = "" if r["solver_ok"] and r["sim_ok"] else "   <-- MISMATCH"
        print(f"  m{r['k']}: exact={r['exact']:+.6f}  "
              f"solver={r['solver']:+.6f}  "
              f"sim={r['simulation']:+.6f} (se {r['sim_stderr']:.1e}){flag}")
    print("crosscheck:", "PASS" if all_ok else "FAIL")
    return 0 if all_ok else 1


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

@cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process and reused by main."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON config file")
    common.add_argument("--seed", type=int)
    common.add_argument("--out", help="output directory (default fs-out)")
    common.add_argument("--kernel", help="kernel JSON (path or inline)")
    common.add_argument("--filter", help="filter JSON (path or inline)")

    top = argparse.ArgumentParser(
        prog="filtered-spectra",
        description="limit spectra of finite-range-correlated random "
                    "matrices: exact moments, fixed-point densities, "
                    "simulation, and curve certification")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("moments", parents=[common],
                       help="limit moments via the recursion")
    p.add_argument("--kmax", type=int)
    p.add_argument("--oracle", action="store_true", default=None,
                   help="cross-check against the tree sum (k <= 16)")
    p.set_defaults(func=cmd_moments)

    p = sub.add_parser("density", parents=[common],
                       help="spectral density on a grid")
    for flag, typ in (("--xmin", float), ("--xmax", float), ("--n", int),
                      ("--eps1", float), ("--eps2", float)):
        p.add_argument(flag, type=typ)
    p.set_defaults(func=cmd_density)

    p = sub.add_parser("solve", parents=[common],
                       help="Stieltjes transform at one point")
    p.add_argument("--lambda", dest="lam", help="complex as re,im")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("simulate", parents=[common],
                       help="sample matrices and empirical moments")
    p.add_argument("--model", choices=["filtered", "colored"])
    p.add_argument("--N", type=int)
    p.add_argument("--trials", type=int)
    p.add_argument("--kmax", type=int)
    p.add_argument("--entry-law", dest="entry_law",
                   choices=["gaussian", "rademacher"])
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("eliminate", parents=[common],
                       help="eliminate w from a rank-one relation")
    p.add_argument("--relation", help="relation JSON (path or inline)")
    p.set_defaults(func=cmd_eliminate)

    p = sub.add_parser("verify", parents=[common],
                       help="check a curve against the solver")
    p.add_argument("--curve", help="curve JSON (path or inline)")
    p.add_argument("--samples", type=int)
    p.add_argument("--radius", type=float)
    p.add_argument("--tol")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("crosscheck", parents=[common],
                       help="three-way moment consistency table")
    p.add_argument("--kmax", type=int)
    p.add_argument("--N", type=int)
    p.add_argument("--trials", type=int)
    p.set_defaults(func=cmd_crosscheck)

    return top


def main(argv=None) -> int:
    ns = _build_parser().parse_args(argv)
    cfg = _load_cfg(ns)
    try:
        return ns.func(cfg)
    except (ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
