"""The three workloads: inputs made from the seed, one round, its checks.

A round is a fixed list of operations: in-process command-line runs
(``filtered_spectra.cli.main(argv)``) and library calls, each counted as
attempted and, when it raises or exits nonzero, as failed.  ``round()``
is the timed part; ``check()`` reads the outputs afterwards, untimed,
and returns failure messages.
"""

from __future__ import annotations

import csv
import io
import json
import random
import shutil
from contextlib import redirect_stdout
from fractions import Fraction

import checks

COMPASS_TAPS = ((1, -1), (1, 1), (-1, 1), (-1, -1))      # each tap 1/2
COMPASS_RELATION = [[2, 2, "1"], [1, 2, "-2"], [0, 0, "-1"]]  # v^2 m(m-2) = 1
DENSITY_PROFILE = ("1/2", "1", "3/2")

# "full" is what the benchmark measures; "tiny" is the warm-up round of
# every set-up and the size of the benchmark's own quick tests.
SIZES = {
    "montecarlo": {
        "full": {"filtered_N": 640, "colored_N": 24, "trials": 2},
        "tiny": {"filtered_N": 48, "colored_N": 6, "trials": 2},
    },
    "density": {  # per kernel: (half-width of the grid, points)
        "full": {"compass": (2.7, 181), "semicircle": (2.2, 89),
                 "piecewise": (2.4, 161)},
        "tiny": {"compass": (2.7, 9), "semicircle": (2.2, 9),
                 "piecewise": (2.4, 9)},
    },
    "exact": {
        "full": {"oracle_kmax": 12, "kmax": 32, "catalan_kmax": 24,
                 "profiles": (("1/2", "1", "3/2"), ("1/4", "1", "7/4"),
                              ("2/5", "1", "8/5"))},
        "tiny": {"oracle_kmax": 6, "kmax": 8, "catalan_kmax": 6,
                 "profiles": (("1/2", "3/2"),)},
    },
}


def filter_doc() -> str:
    return json.dumps({"type": "filter",
                       "entries": [[i, j, "1/2"] for i, j in COMPASS_TAPS]})


def rank_one_doc(profile) -> str:
    """Kernel s = f(x) f(y), f piecewise constant on equal intervals, band 0."""
    n = len(profile)
    return json.dumps({
        "type": "kernel",
        "breakpoints": [str(Fraction(a, n)) for a in range(n + 1)],
        "coeffs": [[0, 0, a, b, str(profile[a] * profile[b]), "0"]
                   for a in range(n) for b in range(n)]})


def _poly_mul(p, q):
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def profile_relation(profile) -> str:
    """v den(m) - num(m) = 0 for S_f(m) = mean of 1/(m - f_i), as a document."""
    n = len(profile)
    den = [Fraction(1)]
    for f in profile:
        den = _poly_mul(den, [-f, Fraction(1)])
    num = [Fraction(0)] * n
    for i in range(n):
        term = [Fraction(1)]
        for j, f in enumerate(profile):
            if j != i:
                term = _poly_mul(term, [-f, Fraction(1)])
        for d, c in enumerate(term):
            num[d] += c / n
    coeffs = [[d, 1, str(c)] for d, c in enumerate(den) if c] + \
        [[d, 0, str(-c)] for d, c in enumerate(num) if c]
    return json.dumps({"coeffs": coeffs})


def read_csv(path) -> list:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


class Workload:
    name = ""

    def __init__(self, fs, seed: int, scale: str, workdir):
        self.fs = fs
        self.rnd = random.Random(f"{self.name}:{seed}")
        self.sizes = SIZES[self.name][scale]
        self.workdir = workdir
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def _fail(self, label, why):
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(f"{label}: {why}")

    def cli(self, *argv) -> bool:
        """One command-line run; its stdout is discarded."""
        self.attempted += 1
        argv = [str(a) for a in argv]
        try:
            with redirect_stdout(io.StringIO()):
                rc = self.fs.cli.main(argv)
        except (Exception, SystemExit) as exc:   # counted, not fatal
            rc = repr(exc)
        if rc != 0:
            self._fail(argv[0], f"exit {rc}")
        return rc == 0

    def call(self, label, fn):
        """One library call; returns None when it raised."""
        self.attempted += 1
        try:
            return fn()
        except Exception as exc:                 # counted, not fatal
            self._fail(label, repr(exc))
            return None

    def clear(self):
        """Drop the round's output files, so the next round starts empty."""
        shutil.rmtree(self.workdir, ignore_errors=True)
        self.workdir.mkdir(parents=True)

    def validated_kernel(self, doc):
        kern = self.fs.kernel.as_kernel(self.fs.kernel.read_color_document(doc))
        report = self.fs.kernel.validate_kernel(kern)
        if not report.ok:
            raise ValueError(f"benchmark input kernel invalid: {report.messages}")
        return kern

    def permuted(self, profile):
        """The profile's pieces in a seed-chosen order (same law, same curve)."""
        pieces = [Fraction(p) for p in profile]
        self.rnd.shuffle(pieces)
        return pieces

    def sympy_cases(self) -> list:
        return []


class MonteCarlo(Workload):
    """simulate on the filtered and the colored compass model."""

    name = "montecarlo"

    def prepare(self):
        self.filter = filter_doc()
        self.filt = self.fs.kernel.read_color_document(self.filter)
        self.kern = self.validated_kernel(self.filter)

    def round(self):
        s = self.sizes
        runs = []
        for model, N in (("filtered", s["filtered_N"]),
                         ("colored", s["colored_N"])):
            seed = self.rnd.randrange(1, 2 ** 31)
            ok = self.cli("simulate", "--filter", self.filter, "--model", model,
                          "--N", N, "--trials", s["trials"], "--kmax", 6,
                          "--seed", seed, "--out", self.workdir / model)
            runs.append((model, N, seed, ok))
        return runs

    def regenerated(self, model, N, seed):
        """The round's matrices, drawn again: the RNG is counter-based."""
        ml = self.fs.matrixlab
        if model == "filtered":
            cfg = ml.SampleConfig(N=N, seed=seed, trials=self.sizes["trials"])
            return [ml.sample_filtered_wigner(cfg, self.filt, trial=t)
                    for t in range(self.sizes["trials"])]
        return [ml.sample_colored_gaussian(self.kern, N, seed, trial=t)
                for t in range(self.sizes["trials"])]

    def check(self, runs):
        fails = []
        for model, N, seed, ok in runs:
            if not ok:
                continue
            rows = read_csv(self.workdir / model / "moments.csv")
            means = [float(r["mean"]) for r in rows]
            stderrs = [float(r["stderr"]) for r in rows]
            masses = [float(r["mass"])
                      for r in read_csv(self.workdir / model / "hist.csv")]
            mats = self.regenerated(model, N, seed)
            dim = mats[0].shape[0]
            want_m1 = sum(float(m.trace()) for m in mats) / len(mats) / dim ** 1.5
            want_m2 = sum(float((m * m).sum()) for m in mats) / len(mats) / dim ** 2
            found = (checks.histogram(masses)
                     + checks.trace_moments(means[0], means[1], want_m1, want_m2)
                     + checks.compass_statistics(means, stderrs, dim))
            fails += [f"{model} seed {seed}: {f}" for f in found]
        self.clear()
        return fails


class Density(Workload):
    """density on the compass, the semicircle and a 3-piece rank-one kernel."""

    name = "density"

    def prepare(self):
        profile = self.permuted(DENSITY_PROFILE)
        self.cases = [
            ("compass", ["--filter", filter_doc()], checks.COMPASS_MOMENTS),
            ("semicircle", ["--kernel", rank_one_doc([Fraction(1)])], None),
            ("piecewise", ["--kernel", rank_one_doc(profile)],
             checks.profile_moments(profile)),
        ]
        for _, (_, doc), _ in self.cases:
            self.validated_kernel(doc)

    def round(self):
        done = []
        for name, source, _ in self.cases:
            half, n = self.sizes[name]
            done.append(self.cli("density", *source, "--xmin", -half,
                                 "--xmax", half, "--n", n,
                                 "--out", self.workdir / name))
        return done

    def check(self, done):
        fails = []
        for (name, _, moments), ok in zip(self.cases, done):
            if not ok:
                continue
            rows = read_csv(self.workdir / name / "density.csv")
            xs = [float(r["x"]) for r in rows]
            dens = [float(r["density"]) for r in rows]
            report = read_json(self.workdir / name / "report.json")
            found = checks.no_failed_points(
                report["failed_points"], [int(r["residual_flag"]) for r in rows])
            if name == "semicircle":
                found += checks.semicircle_density(xs, dens)
            elif xs[1] - xs[0] <= checks.MOMENT_GRID_STEP:
                want = {k: moments[k] for k in (2, 4)}
                found += checks.density_moments(xs, dens, want)
            fails += [f"{name}: {f}" for f in found]
        self.clear()
        return fails


class Exact(Workload):
    """moments, eliminate and verify, then discriminant and real_roots."""

    name = "exact"

    def prepare(self):
        self.filter = filter_doc()
        self.semicircle = rank_one_doc([Fraction(1)])
        self.curves = [("compass", ["--filter", self.filter],
                        json.dumps({"coeffs": COMPASS_RELATION}), None)]
        for i, profile in enumerate(self.sizes["profiles"]):
            pieces = self.permuted(profile)
            self.curves.append((f"piecewise{i}", ["--kernel", rank_one_doc(pieces)],
                                profile_relation(pieces), pieces))
        for _, (_, doc), _, _ in self.curves:
            self.validated_kernel(doc)
        self.validated_kernel(self.semicircle)
        self.seen = set()

    def round(self):
        s, al = self.sizes, self.fs.algebra
        ok = {
            "oracle": self.cli("moments", "--filter", self.filter, "--kmax",
                               s["oracle_kmax"], "--oracle",
                               "--out", self.workdir / "oracle"),
            "moments": self.cli("moments", "--filter", self.filter, "--kmax",
                                s["kmax"], "--out", self.workdir / "moments"),
            "catalan": self.cli("moments", "--kernel", self.semicircle,
                                "--kmax", s["catalan_kmax"], "--oracle",
                                "--out", self.workdir / "catalan"),
        }
        edges = {}
        for label, source, relation, _ in self.curves:
            curve_file = self.workdir / label / "curve.json"
            ok[label] = self.cli("eliminate", *source, "--relation", relation,
                                 "--out", self.workdir / label)
            ok[label + "/verify"] = self.cli(
                "verify", *source, "--curve", curve_file,
                "--out", self.workdir / f"{label}-verify")
            disc = self.call(label + "/discriminant", lambda: al.discriminant(
                al.BivariatePolynomial.from_entries(
                    read_json(curve_file)["coeffs"]), "y"))
            roots = self.call(label + "/real_roots",
                              lambda: al.real_roots(disc))
            edges[label] = (disc, roots)
        return ok, edges

    def check(self, result):
        ok, edges = result
        fails = []

        def moment_columns(name):
            rows = read_csv(self.workdir / name / "moments.csv")
            return ([float(r["moment"]) for r in rows],
                    [float(r["enumeration"]) if r.get("enumeration") else None
                     for r in rows])

        if ok["oracle"]:
            m, e = moment_columns("oracle")
            fails += checks.recursion_equals_enumeration(m, e)
            fails += checks.compass_moments(m)
            if ok["moments"]:
                fails += checks.recursion_equals_enumeration(
                    moment_columns("moments")[0], e)
        if ok["moments"]:
            fails += checks.compass_moments(moment_columns("moments")[0])
        if ok["catalan"]:
            m, e = moment_columns("catalan")
            fails += checks.recursion_equals_enumeration(m, e)
            fails += checks.semicircle_moments(m)
        cap = min(self.sizes["oracle_kmax"], 12)
        fails += checks.partition_counts({
            k: len(self.fs.combinat.enumerate_wigner_partitions(k))
            for k in range(2, cap + 1, 2)})

        for label, _, _, profile in self.curves:
            disc, roots = edges[label]
            if ok[label + "/verify"]:
                report = read_json(self.workdir / f"{label}-verify" / "report.json")
                fails += [f"{label}: {f}" for f in checks.certified(report)]
            if not ok[label] or roots is None:
                continue
            entries = read_json(self.workdir / label / "curve.json")["coeffs"]
            intervals = [[str(r.lo), str(r.hi)] for r in roots]
            if profile is None:
                curve = {(a, b): Fraction(c) for a, b, c in entries}
                fails += checks.compass_curve(curve)
                fails += checks.compass_discriminant(disc)
                fails += checks.compass_edge(intervals)
            else:
                # checked against sympy by the parent process, once per output
                case = json.dumps({"profile": [str(p) for p in profile],
                                   "curve": entries,
                                   "discriminant": [str(c) for c in disc],
                                   "roots": intervals}, sort_keys=True)
                self.seen.add(case)
        self.clear()
        return fails

    def sympy_cases(self) -> list:
        return [json.loads(case) for case in sorted(self.seen)]


WORKLOADS = {w.name: w for w in (MonteCarlo, Density, Exact)}
