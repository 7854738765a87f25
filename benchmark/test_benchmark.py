"""The benchmark's own tests: each check against a corrupted value, the
tracer's self-time rule, and every workload once at the tiny size.

    python3 -m pytest -q benchmark
"""

import json
import math
import shutil
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

import checks
import tracing
from tracing import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


# ---------------------------------------------------------------------------
# negative controls: a right value passes, a corrupted one is rejected
# ---------------------------------------------------------------------------

def test_histogram():
    assert checks.histogram([0.25, 0.5, 0.25]) == []
    assert checks.histogram([0.25, 0.5, 0.26])
    assert checks.histogram([])


def test_trace_moments():
    assert checks.trace_moments(0.01, 1.0, 0.01, 1.0) == []
    assert checks.trace_moments(0.01, 1.0 + 1e-8, 0.01, 1.0)
    assert checks.trace_moments(0.02, 1.0, 0.01, 1.0)


def test_compass_statistics():
    exact = [0, 1, 0, 3, 0, 11.75]
    se = [0.001, 0.004, 0.02, 0.03, 0.1, 0.2]
    assert checks.compass_statistics(exact, se, 640) == []
    scaled = [m * 2 ** (k / 2) for k, m in enumerate(exact, start=1)]  # M*sqrt2
    assert checks.compass_statistics(scaled, se, 640)
    wrong_m4 = exact[:3] + [3.6] + exact[4:]
    assert checks.compass_statistics(wrong_m4, se, 640)
    semicircle = [0, 1, 0, 2, 0, 5]
    assert checks.compass_statistics(semicircle, se, 576)


def semicircle_grid(n=401, half=2.2, shift=0.0, scale=1.0):
    xs = [-half + 2 * half * i / (n - 1) for i in range(n)]
    dens = [scale * math.sqrt(max(4 - (x - shift) ** 2, 0)) / (2 * math.pi)
            for x in xs]
    return xs, dens


def test_no_failed_points():
    assert checks.no_failed_points(0, [0, 0, 0]) == []
    assert checks.no_failed_points(1, [0, 1, 0])
    assert checks.no_failed_points(0, [0, 1, 0])


def test_semicircle_density():
    assert checks.semicircle_density(*semicircle_grid()) == []
    assert checks.semicircle_density(*semicircle_grid(shift=0.05))
    assert checks.semicircle_density(*semicircle_grid(scale=1.001))
    xs, dens = semicircle_grid()
    dens[len(dens) // 2] = math.nan
    assert checks.semicircle_density(xs, dens)


def test_density_moments():
    want = {2: Fraction(1), 4: Fraction(2)}
    assert checks.density_moments(*semicircle_grid(n=4001), want) == []
    assert checks.density_moments(*semicircle_grid(n=4001, shift=0.05), want)
    assert checks.density_moments(*semicircle_grid(n=4001, scale=1.01), want)


def test_profile_moments():
    half = Fraction(1, 2)
    assert checks.profile_moments([half, 1, 3 * half]) == \
        {2: 1, 4: Fraction(7, 3)}
    assert checks.profile_moments([Fraction(1)]) == {2: 1, 4: 2}


def test_exact_moment_checks():
    compass = [0, 1, 0, 3, 0, 11.75, 0, 52.25]
    assert checks.compass_moments(compass) == []
    assert checks.compass_moments(compass[:5] + [11.5] + compass[6:])
    assert checks.compass_moments([1e-300] + compass[1:])
    catalan = [0 if k % 2 else checks.catalan(k // 2) for k in range(1, 25)]
    assert catalan[23] == 208012
    assert checks.semicircle_moments(catalan) == []
    assert checks.semicircle_moments(catalan[:11] + [133] + catalan[12:])
    enum = compass[:6] + [None] * 2
    assert checks.recursion_equals_enumeration(compass, enum) == []
    assert checks.recursion_equals_enumeration(compass, [0, 1, 0, 3.0000001])


def test_partition_counts():
    assert checks.partition_counts({2: 1, 4: 2, 6: 5, 12: 132}) == []
    assert checks.partition_counts({6: 4})


def test_compass_curve_and_discriminant():
    scaled = {k: -3 * v for k, v in checks.COMPASS_CURVE.items()}
    assert checks.compass_curve(scaled) == []
    assert checks.compass_curve({**scaled, (1, 1): -4})
    assert checks.compass_curve({**scaled, (0, 1): 1})
    disc = [Fraction(c, 7) for c in checks.COMPASS_DISCRIMINANT]
    assert checks.compass_discriminant(disc) == []
    assert checks.compass_discriminant(disc[:8] + [disc[8] + 1] + disc[9:])


def test_compass_edge():
    x0 = math.sqrt(51 * math.sqrt(17) - 107) / 4
    iv = [str(Fraction(x0 - 1e-12)), str(Fraction(x0 + 1e-12))]
    assert checks.compass_edge([["0", "0"], iv]) == []
    off = [str(Fraction(x0 + 1e-9)), str(Fraction(x0 + 2e-9))]
    assert checks.compass_edge([["0", "0"], off])
    assert checks.compass_edge([])


@pytest.fixture(scope="module")
def piecewise():
    """A 3-piece curve from the program, with sympy's reference."""
    sys.path.insert(0, str(ROOT / "src"))
    from filtered_spectra import algebra
    from filtered_spectra.kernel import as_kernel
    import workloads

    profile = [Fraction(1, 2), Fraction(1), Fraction(3, 2)]
    kern = as_kernel(workloads.rank_one_doc(profile))
    rel = algebra.BivariatePolynomial.from_entries(
        json.loads(workloads.profile_relation(profile))["coeffs"])
    curve = algebra.rank_one_eliminate(rel, kern)
    disc = algebra.discriminant(curve, "y")
    roots = [[str(r.lo), str(r.hi)] for r in algebra.real_roots(disc)]
    ref = checks.sympy_curve(profile)
    return curve.to_entries(), [str(c) for c in disc], roots, ref, \
        checks.sympy_discriminant(ref)


def test_sympy_checks(piecewise):
    entries, disc, roots, ref, ref_disc = piecewise
    assert checks.curve_matches(entries, ref) == []
    assert checks.discriminant_matches(disc, ref_disc) == []
    assert checks.roots_match(roots, ref_disc) == []
    bad = [[a, b, str(Fraction(c) + 1)] if (a, b) == (0, 0) else [a, b, c]
           for a, b, c in entries]
    assert checks.curve_matches(bad, ref)
    assert checks.discriminant_matches(disc[:-1] + ["0", "1"], ref_disc)
    assert checks.roots_match(roots[1:], ref_disc)
    lo, hi = roots[-1]
    shifted = roots[:-1] + [[str(Fraction(lo) + 1), str(Fraction(hi) + 1)]]
    assert checks.roots_match(shifted, ref_disc)


# ---------------------------------------------------------------------------
# tracer
# ---------------------------------------------------------------------------

def test_self_time_excludes_nested_spans():
    mod = SimpleNamespace()
    mod.inner = lambda: time.sleep(0.05)

    def outer():
        time.sleep(0.02)
        mod.inner()
    mod.outer = outer
    tr = Tracer()
    with tr.installed([(mod, "outer", "a.outer", None),
                       (mod, "inner", "b.inner", None)]):
        mod.outer()
    assert mod.outer is outer                     # originals restored
    inclusive, own = tr.times()
    assert inclusive["a.outer"] >= 0.07
    assert 0.02 <= own["a.outer"] < 0.045
    assert own["b.inner"] == inclusive["b.inner"] >= 0.05
    assert tr.counts["b.inner.calls"] == 1


def test_worker_thread_spans_belong_to_the_waiting_span():
    mod = SimpleNamespace(inner=lambda: time.sleep(0.05))

    def outer():
        with ThreadPoolExecutor(max_workers=2) as pool:
            list(pool.map(lambda _: mod.inner(), range(2)))
    mod.outer = outer
    tr = Tracer()
    with tr.installed([(mod, "outer", "a.outer", None),
                       (mod, "inner", "b.inner", None)]):
        mod.outer()
    inclusive, own = tr.times()
    assert inclusive["b.inner"] >= 0.1            # busy time, both threads
    assert 0 <= own["a.outer"] < 0.02             # overlapping children once
    assert tr.counts["b.inner.calls"] == 2


def test_covered():
    assert tracing.covered([]) == 0
    assert tracing.covered([(0, 2), (1, 3), (5, 6)]) == 4
    assert tracing.covered([(0, 4), (1, 2)]) == 4


# ---------------------------------------------------------------------------
# whole runs at the tiny size
# ---------------------------------------------------------------------------

def run(cwd, *args):
    return subprocess.run(
        [sys.executable, "benchmark/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run(workload, trace):
    proc = run(ROOT, "--workload", workload, "--seed", "7", "--seconds", "1",
               "--trace", str(trace), "--scale", "tiny")
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0, proc.stderr
    assert line["attempted"] >= 1
    listed = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in line["metrics"].items()} == \
        {m["name"]: m["unit"] for m in listed}
    if not trace:
        assert all(v["value"] > 0 for v in line["metrics"].values())


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmark",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = run(tmp_path, "--workload", "exact", "--seed", "1",
               "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
