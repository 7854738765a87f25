"""End-to-end runs of the command-line interface, one tmp dir per run."""

import argparse
import csv
import hashlib
import json
import math
import os
import re
import shlex
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import filtered_spectra
from filtered_spectra import cli
from filtered_spectra.cli import main
from filtered_spectra.colorsolve import SpectralGrid, solver_moments
from filtered_spectra.kernel import compass_filter, kernel_from_filter
from filtered_spectra.matrixlab import (SampleConfig, sample_colored_gaussian,
                                        sample_filtered_wigner)
from conftest import (reference_colored_gaussian, reference_filtered_wigner,
                      seeded_two_interval_kernel)

COMPASS = json.dumps({
    "type": "filter",
    "entries": [[1, -1, "1/2"], [1, 1, "1/2"], [-1, 1, "1/2"],
                [-1, -1, "1/2"]]})
UNIT_KERNEL = json.dumps({
    "type": "kernel", "breakpoints": ["0", "1"],
    "coeffs": [[0, 0, 0, 0, "1", "0"]]})


def _rows(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


def _report(outdir):
    with open(outdir / "report.json") as fh:
        return json.load(fh)


def _manifest(outdir):
    with open(outdir / "manifest.json") as fh:
        return json.load(fh)


def test_moments_with_oracle(tmp_path):
    out = tmp_path / "m"
    rc = main(["moments", "--filter", COMPASS, "--kmax", "8", "--oracle",
               "--out", str(out)])
    assert rc == 0
    rows = _rows(out / "moments.csv")
    assert [r["moment"] for r in rows] == \
        ["0", "1", "0", "3", "0", "11.75", "0", "52.25"]
    assert all(r["moment"] == r["enumeration"] for r in rows)
    assert _report(out)["oracle_kmax"] == 8
    man = _manifest(out)
    assert man["command"] == "moments"
    assert {o["path"] for o in man["outputs"]} == \
        {"moments.csv", "report.json"}
    # the oracle sums up to k = KMAX_GUARD = 16 and says so
    out = tmp_path / "m18"
    rc = main(["moments", "--filter", COMPASS, "--kmax", "18", "--oracle",
               "--out", str(out)])
    assert rc == 0
    assert _report(out)["oracle_kmax"] == 16
    rows = _rows(out / "moments.csv")
    assert all(r["moment"] == r["enumeration"] for r in rows[:16])
    assert [r["enumeration"] for r in rows[16:]] == ["", ""]
    rc = main(["moments", "--filter", COMPASS, "--kmax", "4",
               "--out", str(tmp_path / "plain")])
    assert rc == 0 and _report(tmp_path / "plain")["oracle_kmax"] is None


# seeded_two_interval_kernel(2): cut at 1/4, band 1
TWO_INTERVAL = json.dumps({
    "type": "kernel", "breakpoints": ["0", "1/4", "1"],
    "coeffs": [[*key, f"{x}/{kern.den}", f"{y}/{kern.den}"]
               for kern in [seeded_two_interval_kernel(2)]
               for key, (x, y) in kern.coeffs.items()]})


def test_moments_oracle_on_a_two_interval_kernel(tmp_path, monkeypatch):
    out = tmp_path / "m"
    rc = main(["moments", "--kernel", TWO_INTERVAL, "--kmax", "12",
               "--oracle", "--out", str(out)])
    assert rc == 0
    rows = _rows(out / "moments.csv")
    assert float(rows[1]["moment"]) == 265 / 1024
    assert all(r["moment"] == r["enumeration"] for r in rows)
    assert _report(out)["oracle_max_abs_diff"] == 0.0
    # the routes are compared as Fractions: a difference no float shows fails
    exact = cli.moments_by_enumeration
    monkeypatch.setattr(cli, "moments_by_enumeration", lambda kern, k: [
        m * (1 + Fraction(1, 10 ** 40)) for m in exact(kern, k)])
    out = tmp_path / "off"
    rc = main(["moments", "--kernel", TWO_INTERVAL, "--kmax", "4",
               "--oracle", "--out", str(out)])
    assert rc == 2
    assert _report(out)["pass"] is False
    assert _report(out)["oracle_max_abs_diff"] == 0.0


BAD_DOCUMENTS = [  # command, flag, value, what stderr names besides them
    ("density", "--kernel", '{"type": "kernel", bad', None),
    ("moments", "--filter", "no-such-document.json", None),
    ("verify", "--curve", "no-such-document.json", None),
    ("eliminate", "--relation", '{"coeffs": [[0, 0, "1"]', None),
    ("moments", "--kernel", "[1, 2]", None),
    ("moments", "--kernel", '{"type": "kernel"}', "'breakpoints'"),
    ("moments", "--kernel", '{"type": "kernel", "breakpoints": [0, 1]}',
     "'coeffs'"),
    ("moments", "--kernel", '{"breakpoints": [0, 1], "coeffs": []}',
     "'type'"),
    ("simulate", "--filter", '{"type": "filter"}', "'entries'"),
    ("density", "--filter", '{"type": "filter", "entries": [[1, 1]]}',
     "entries[0]"),
    ("verify", "--curve", '{"x": 1}', "'coeffs'"),
    ("verify", "--curve", '{"coeffs": [[0, 0]]}', "coeffs[0]"),
    ("eliminate", "--relation", '{"coeffs": 3}', "coeffs"),
    ("simulate", "--filter", UNIT_KERNEL, "not a filter document"),
    # these exited 0 with an aliased interval, or 1 with a traceback
    ("moments", "--kernel", json.dumps({
        "type": "kernel", "breakpoints": [0, "1/2", 1],
        "coeffs": [[0, 0, 0, 0, 1, 0], [0, 0, 1, 1, 1, 0],
                   [0, 0, -1, -1, 2, 0]]}), "interval index outside 0..1"),
    ("moments", "--filter", '{"type": "filter", "entries": [[0, 0, null]]}',
     "None is not a rational value"),
    ("verify", "--curve", '{"coeffs": [[0, 0, null], [0, 2, "1"]]}',
     "None is not a rational value"),
    ("verify", "--curve", '{"coeffs": [[true, 0, "1"], [0, 2, "1"]]}',
     "degree True")]


@pytest.mark.parametrize("command, flag, value, key", BAD_DOCUMENTS,
                         ids=[f"{c}-{f}-{v}" for c, f, v, _ in BAD_DOCUMENTS])
def test_bad_documents_exit_with_usage_error(tmp_path, capsys, command, flag,
                                            value, key):
    args = [command, flag, value, "--out", str(tmp_path / "bad")]
    if flag in ("--curve", "--relation"):
        args += ["--filter", COMPASS]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert flag in err and repr(value) in err
    assert key is None or key in err


def test_solve_reports_golden_value(tmp_path):
    out = tmp_path / "s"
    rc = main(["solve", "--kernel", UNIT_KERNEL, "--lambda", "3,0",
               "--out", str(out)])
    assert rc == 0
    rep = _report(out)
    golden = (3.0 - math.sqrt(5.0)) / 2.0
    assert rep["S"][0] == pytest.approx(golden, abs=1e-10)
    assert abs(rep["S"][1]) < 1e-12
    assert rep["residual"] < 1e-12
    assert (rep["fold"], rep["angular_nodes"]) == (1, 1)
    # the compass table holds modes -2, 0 and 2: folded by 2, on 64 nodes
    rc = main(["solve", "--filter", COMPASS, "--lambda", "3,1",
               "--out", str(out)])
    assert rc == 0
    assert (_report(out)["fold"], _report(out)["angular_nodes"]) == (2, 64)


def test_density_csv_columns(tmp_path):
    out = tmp_path / "d"
    rc = main(["density", "--kernel", UNIT_KERNEL, "--xmin", "-1",
               "--xmax", "1", "--n", "5", "--out", str(out)])
    assert rc == 0
    rows = _rows(out / "density.csv")
    assert len(rows) == 5
    assert set(rows[0]) == {"x", "density", "residual_flag"}
    mid = rows[2]
    assert float(mid["x"]) == 0.0
    assert float(mid["density"]) == pytest.approx(1 / math.pi, abs=1e-3)
    assert all(r["residual_flag"] == "0" for r in rows)
    assert len(_report(out)["support_estimate"]) == 2
    assert (_report(out)["fold"], _report(out)["angular_nodes"]) == (1, 1)
    rc = main(["density", "--filter", COMPASS, "--n", "5", "--out", str(out)])
    assert rc == 0
    assert (_report(out)["fold"], _report(out)["angular_nodes"]) == (2, 64)


# s = 1 - (sin theta + sin phi) / 4 >= 1/2: a complex table, as
# conj(s_10) = s_-10 = -i/8, so the solver takes no reflection
SINE_KERNEL = json.dumps({
    "type": "kernel", "breakpoints": ["0", "1"],
    "coeffs": [[0, 0, 0, 0, "1", "0"],
               [1, 0, 0, 0, "0", "1/8"], [-1, 0, 0, 0, "0", "-1/8"],
               [0, 1, 0, 0, "0", "1/8"], [0, -1, 0, 0, "0", "-1/8"]]})


@pytest.mark.parametrize("command", [
    ["density", "--n", "5"], ["solve", "--lambda", "0.5,0.1"]])
def test_reports_say_whether_the_solver_reflects(tmp_path, command):
    # angular_nodes stays T; reflected says g is taken on its distinct
    # nodes, floor(T/2) + 1 of them, the table being real
    cases = ((["--kernel", UNIT_KERNEL], 1, 1, True),
             (["--filter", COMPASS], 2, 64, True),
             (["--kernel", SINE_KERNEL], 1, 128, False))
    for source, fold, nodes, reflected in cases:
        out = tmp_path / str(nodes)
        assert main(command + source + ["--out", str(out)]) == 0
        rep = _report(out)
        assert (rep["fold"], rep["angular_nodes"], rep["reflected"]) == (
            fold, nodes, reflected)


def test_config_hash_ignores_the_output_directory(tmp_path):
    args = ["moments", "--kernel", UNIT_KERNEL, "--kmax", "4"]
    for name in ("a", "b"):
        assert main(args + ["--out", str(tmp_path / name)]) == 0
    assert main(args[:-1] + ["5", "--out", str(tmp_path / "c")]) == 0
    a, b, c = (_manifest(tmp_path / name)["config_hash"] for name in "abc")
    assert a == b != c


def test_only_the_drawing_commands_record_and_hash_a_seed(tmp_path):
    # density draws nothing: --seed 9 changes no output, so it records
    # seed null and hashes alike; simulate records its default seed 42
    args = ["density", "--kernel", UNIT_KERNEL, "--n", "5"]
    assert main(args + ["--out", str(tmp_path / "a")]) == 0
    assert main(args + ["--seed", "9", "--out", str(tmp_path / "b")]) == 0
    a, b = _manifest(tmp_path / "a"), _manifest(tmp_path / "b")
    assert a["seed"] is None and b["seed"] is None
    assert a["config_hash"] == b["config_hash"]
    assert a["outputs"] == b["outputs"]
    sim = ["simulate", "--model", "colored", "--filter", COMPASS, "--N", "4",
           "--trials", "1", "--kmax", "2"]
    assert main(sim + ["--out", str(tmp_path / "c")]) == 0
    assert main(sim + ["--seed", "42", "--out", str(tmp_path / "d")]) == 0
    c, d = _manifest(tmp_path / "c"), _manifest(tmp_path / "d")
    assert c["seed"] == d["seed"] == 42
    assert c["config_hash"] == d["config_hash"]


def test_write_csv_writes_what_csv_writer_wrote(tmp_path):
    # one % template per sequence of types, against csv.writer fed the
    # floats as FMT and everything else as is
    header = ["k", "x", "y", "flag"]
    rows = [[1, 0.1, -0.0, 0], [np.int64(2), np.float64(1 / 3), 1e300, 1],
            [3, math.nan, -math.inf, ""], [4, 2.0, 5e-324, True],
            [5, "", 7, ""]]
    run = cli._Run("test", {}, str(tmp_path))
    got = Path(run.write_csv("t.csv", header, rows)).read_bytes()
    want = tmp_path / "want.csv"
    with open(want, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow([cli.FMT % v if isinstance(v, float) else v
                        for v in row])
    assert got == want.read_bytes()


@pytest.mark.parametrize("n", [1, 2, 9, 181])
@pytest.mark.parametrize("a", ["2.7", "3", "0.1", "-2.7"])
def test_symmetric_density_grid_is_a_bitwise_mirror(tmp_path, monkeypatch,
                                                     a, n):
    # --xmin -a --xmax a: node n-1-i is exactly -(node i), the ends are
    # exact and odd n has 0.0 in the middle; n = 1 stays [xmin]
    monkeypatch.setattr(cli, "density_profile", _flat_density)
    out = tmp_path / "d"
    lo = a[1:] if a.startswith("-") else "-" + a
    assert main(["density", "--kernel", UNIT_KERNEL, "--xmin=" + lo,
                 "--xmax=" + a, "--n", str(n), "--out", str(out)]) == 0
    xs = np.array([float(r["x"]) for r in _rows(out / "density.csv")])
    ref = np.linspace(float(lo), float(a), n)
    assert np.max(np.abs(xs - ref)) <= 1e-15
    assert xs[0] == float(lo)
    if n == 1:
        return
    assert xs[-1] == float(a)
    assert np.array_equal(xs, -xs[::-1])
    assert not np.signbit(xs[xs == 0]).any()
    assert (0.0 in xs) == (n % 2 == 1)


@pytest.mark.parametrize("lo, hi", [("-2.7", "2.5"), ("-1", "3"),
                                    ("0.5", "2.5"), ("2.5", "-2.7")])
def test_asymmetric_density_grid_is_linspace(tmp_path, monkeypatch, lo, hi):
    monkeypatch.setattr(cli, "density_profile", _flat_density)
    out = tmp_path / "d"
    assert main(["density", "--kernel", UNIT_KERNEL, "--xmin=" + lo,
                 "--xmax=" + hi, "--n", "181", "--out", str(out)]) == 0
    xs = [float(r["x"]) for r in _rows(out / "density.csv")]
    assert xs == np.linspace(float(lo), float(hi), 181).tolist()


def _flat_density(kern, xs, eps_pair=(1e-2, 5e-3)):
    """A density_profile stand-in that skips the solve: these tests read x."""
    xs = [float(x) for x in xs]
    return SpectralGrid(xs=xs, density=[0.0] * len(xs),
                        support_estimate=(min(xs), max(xs)),
                        flags=[True] * len(xs), eps_pair=eps_pair)


def test_parser_is_built_once(tmp_path, monkeypatch):
    cli._build_parser.cache_clear()
    made = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        made.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    for name in ("a", "b"):
        assert main(["solve", "--kernel", UNIT_KERNEL, "--lambda", "3,0",
                     "--out", str(tmp_path / name)]) == 0
    assert made.count("filtered-spectra") == 1


def test_eliminate_then_verify(tmp_path):
    elim = tmp_path / "e"
    relation = json.dumps(
        {"coeffs": [[2, 2, "1"], [1, 2, "-2"], [0, 0, "-1"]]})
    rc = main(["eliminate", "--relation", relation, "--filter", COMPASS,
               "--out", str(elim)])
    assert rc == 0
    curve_path = elim / "curve.json"
    assert curve_path.exists()
    assert _report(elim)["verify_residual"] < 1e-10
    assert _report(elim)["samples"] == 20
    assert _report(elim)["radius"] == 10.0

    ver = tmp_path / "v"
    rc = main(["verify", "--curve", str(curve_path), "--filter", COMPASS,
               "--out", str(ver)])
    assert rc == 0
    assert _report(ver)["pass"] is True
    # both score the curve on one circle: the same residual, bit for bit
    assert _report(ver)["residual"] == _report(elim)["verify_residual"]
    assert {k: _report(ver)[k] for k in ("samples", "radius")} == \
        {k: _report(elim)[k] for k in ("samples", "radius")}


def test_verify_rejects_wrong_curve(tmp_path):
    wrong = json.dumps({"coeffs": [[0, 0, "2"], [1, 1, "-1"], [0, 2, "1"]]})
    out = tmp_path / "vw"
    rc = main(["verify", "--curve", wrong, "--kernel", UNIT_KERNEL,
               "--out", str(out)])
    assert rc == 1
    assert _report(out)["pass"] is False


@pytest.mark.parametrize("bad", [[-1, 0, "1"], [1.5, 1, "1"],
                                 [0, 1000000, "1"]])
@pytest.mark.parametrize("command, flag", [("verify", "--curve"),
                                           ("eliminate", "--relation")])
def test_malformed_degrees_exit_with_usage_error(tmp_path, capsys, command,
                                                 flag, bad):
    doc = json.dumps({"coeffs": [bad, [0, 2, "1"]]})
    rc = main([command, flag, doc, "--filter", COMPASS,
               "--out", str(tmp_path / "bad")])
    assert rc == 2
    assert repr(bad) in capsys.readouterr().err


def test_crosscheck_passes(tmp_path):
    out = tmp_path / "cc"
    rc = main(["crosscheck", "--filter", COMPASS, "--out", str(out)])
    assert rc == 0
    rows = _rows(out / "crosscheck.csv")
    assert len(rows) == 6
    assert all(r["solver_ok"] == "1" and r["sim_ok"] == "1" for r in rows)
    assert _report(out)["pass"] is True
    assert "scipy" in _manifest(out)["versions"]      # it eigensolved


@pytest.mark.parametrize("shift, flagged", [(0.5, False), (2.0, True)])
def test_crosscheck_holds_solver_to_its_bound(tmp_path, monkeypatch, shift,
                                              flagged):
    # m_2 from the solver moved by shift * tol_2 is flagged only past tol_2;
    # report.json records the contour and every row's tol_k
    def shifted(kern, kmax):
        moments, bounds = solver_moments(kern, kmax)
        moments[1] += shift * bounds[1]
        return moments, bounds

    monkeypatch.setattr("filtered_spectra.cli.solver_moments", shifted)
    out = tmp_path / "cc"
    rc = main(["crosscheck", "--filter", COMPASS, "--kmax", "4",
               "--out", str(out)])
    assert rc == (1 if flagged else 0)
    assert [r["solver_ok"] for r in _rows(out / "crosscheck.csv")] == \
        ["1", "0" if flagged else "1", "1", "1"]
    rep = _report(out)
    assert rep["contour"] == {"radius": 6.0, "points": 64}   # 1.5 A, A = 4
    _, bounds = solver_moments(kernel_from_filter(compass_filter()), 4)
    assert [r["solver_tol"] for r in rep["rows"]] == bounds


def test_crosscheck_flags_corrupted_kernel(tmp_path):
    # all invariants hold, but the scale is double the filter's kernel:
    # the exact/solver columns disagree with the simulation => flagged rows
    kern = kernel_from_filter(compass_filter())
    doubled = {
        "type": "kernel",
        "breakpoints": ["0", "1"],
        "coeffs": [[i, j, a, b, f"{2 * x}/{kern.den}", f"{2 * y}/{kern.den}"]
                   for (i, j, a, b), (x, y) in kern.coeffs.items()]}
    out = tmp_path / "bad"
    rc = main(["crosscheck", "--kernel", json.dumps(doubled),
               "--filter", COMPASS, "--kmax", "4", "--N", "120",
               "--trials", "3", "--seed", "5", "--out", str(out)])
    assert rc == 1
    rows = _rows(out / "crosscheck.csv")
    assert any(r["sim_ok"] == "0" for r in rows)       # the flagged rows
    assert _report(out)["pass"] is False


def test_crosscheck_rejects_invalid_kernel(tmp_path):
    negative = json.dumps({
        "type": "kernel", "breakpoints": ["0", "1"],
        "coeffs": [[0, 0, 0, 0, "-1", "0"]]})
    out = tmp_path / "neg"
    rc = main(["crosscheck", "--kernel", negative, "--out", str(out)])
    assert rc == 1
    rep = _report(out)
    assert rep["kernel_valid"] is False
    assert rep["failures"]
    assert "scipy" not in _manifest(out)["versions"]  # it never sampled


def test_simulate_reproducible_hashes(tmp_path):
    args = ["simulate", "--model", "filtered", "--filter", COMPASS,
            "--N", "80", "--trials", "2", "--seed", "13", "--kmax", "4"]
    assert main(args + ["--out", str(tmp_path / "a")]) == 0
    assert main(args + ["--out", str(tmp_path / "b")]) == 0
    ha = {o["path"]: o["sha256"] for o in _manifest(tmp_path / "a")["outputs"]}
    hb = {o["path"]: o["sha256"] for o in _manifest(tmp_path / "b")["outputs"]}
    assert ha == hb

    assert main(args + ["--seed", "14", "--out", str(tmp_path / "c")]) == 0
    hc = {o["path"]: o["sha256"] for o in _manifest(tmp_path / "c")["outputs"]}
    assert hc["moments.csv"] != ha["moments.csv"]


def test_simulate_records_matrix_hashes_and_blas_threads(tmp_path,
                                                        monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.setenv("OMP_NUM_THREADS", "2")
    monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
    for model, N, sample in (
            ("filtered", 30, lambda t: sample_filtered_wigner(
                SampleConfig(N=30, seed=13), compass_filter(), trial=t)),
            ("colored", 5, lambda t: sample_colored_gaussian(
                kernel_from_filter(compass_filter()), 5, 13, trial=t))):
        out = tmp_path / model
        assert main(["simulate", "--model", model, "--filter", COMPASS,
                     "--N", str(N), "--trials", "2", "--seed", "13",
                     "--kmax", "2", "--out", str(out)]) == 0
        assert _report(out)["matrix_sha256"] == [
            hashlib.sha256(sample(t)).hexdigest() for t in range(2)]
        assert _manifest(out)["blas_threads"] == {
            "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "2",
            "MKL_NUM_THREADS": None}


@pytest.mark.parametrize("model, N", [("filtered", 60), ("colored", 6)])
def test_simulate_reports_the_worst_eigenpair_residual(tmp_path, model, N):
    out = tmp_path / model
    assert main(["simulate", "--model", model, "--filter", COMPASS,
                 "--N", str(N), "--trials", "3", "--seed", "7",
                 "--kmax", "2", "--out", str(out)]) == 0
    assert 0.0 < _report(out)["eigenpair_residual_max"] < 1e-8


@pytest.mark.parametrize("model, N", [("filtered", 200), ("colored", 12)])
def test_simulate_outputs_match_the_reference_sampler(tmp_path, monkeypatch,
                                                      model, N):
    args = ["simulate", "--model", model, "--filter", COMPASS, "--N", str(N),
            "--trials", "3", "--seed", "29"]
    assert main(args + ["--out", str(tmp_path / "a")]) == 0
    monkeypatch.setattr(cli, "sample_filtered_wigner",
                        reference_filtered_wigner)
    monkeypatch.setattr(cli, "sample_colored_gaussian",
                        reference_colored_gaussian)
    assert main(args + ["--out", str(tmp_path / "b")]) == 0
    for name in ("report.json", "moments.csv", "hist.csv"):
        assert (tmp_path / "a" / name).read_bytes() == \
            (tmp_path / "b" / name).read_bytes()


def test_simulate_holds_one_trial_at_a_time(tmp_path):
    # each trial is drawn, hashed and eigensolved before the next is
    # drawn, so the traced peak does not grow with --trials (measured:
    # +0.03 matrix from 1 to 4 trials, the eigenvalue lists; +3 matrices
    # when every trial's matrix was kept until the end)
    N = 400
    args = ["simulate", "--filter", COMPASS, "--N", str(N), "--seed", "5"]
    assert main(args + ["--N", "8", "--out", str(tmp_path / "w")]) == 0
    peaks = {}
    for trials in (1, 4):
        tracemalloc.start()
        try:
            assert main(args + ["--trials", str(trials),
                                "--out", str(tmp_path / str(trials))]) == 0
            peaks[trials] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[4] - peaks[1] <= 0.5 * N * N * 8


def test_simulate_colored_model(tmp_path):
    out = tmp_path / "col"
    rc = main(["simulate", "--model", "colored", "--filter", COMPASS,
               "--N", "10", "--trials", "2", "--seed", "3", "--kmax", "2",
               "--out", str(out)])
    assert rc == 0
    rows = _rows(out / "moments.csv")
    assert float(rows[1]["mean"]) == pytest.approx(1.0, abs=0.3)
    assert (out / "hist.csv").exists()


def test_config_file_and_flag_precedence(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "filter": json.loads(COMPASS), "kmax": 4,
        "out": str(tmp_path / "from_config")}))
    assert main(["moments", "--config", str(cfg)]) == 0
    assert len(_rows(tmp_path / "from_config" / "moments.csv")) == 4

    assert main(["moments", "--config", str(cfg), "--kmax", "6",
                 "--out", str(tmp_path / "override")]) == 0
    assert len(_rows(tmp_path / "override" / "moments.csv")) == 6


BAD_COUNTS = [  # command and its required input, the bad flag, its value
    (["simulate", "--model", "colored", "--filter", COMPASS], "trials", 0),
    (["crosscheck", "--kernel", UNIT_KERNEL], "trials", 0),
    (["moments", "--filter", COMPASS, "--oracle"], "kmax", 0),
    (["moments", "--filter", COMPASS], "kmax", -2),
    (["moments", "--filter", COMPASS], "kmax", 0),
    (["simulate", "--filter", COMPASS], "kmax", 0),
    (["simulate", "--filter", COMPASS], "N", 0),
    (["crosscheck", "--filter", COMPASS], "N", 0),
    (["density", "--kernel", UNIT_KERNEL], "n", 0),
    (["moments", "--filter", COMPASS], "kmax", 2.5),  # not truncated to 2
    (["moments", "--filter", COMPASS], "kmax", "2.5"),
    (["moments", "--filter", COMPASS], "kmax", True)]


@pytest.mark.parametrize("via_config", [False, True], ids=["flag", "config"])
@pytest.mark.parametrize("args, key, value", BAD_COUNTS,
                         ids=[f"{a[0]}-{k}={v!r}" for a, k, v in BAD_COUNTS])
def test_counts_below_one_exit_with_usage_error(tmp_path, capsys, args, key,
                                               value, via_config):
    # exit 2 naming the flag and the value, before any output
    if via_config:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: value}))
        args = args + ["--config", str(cfg)]
    else:
        args = args + [f"--{key}", str(value)]
    out = tmp_path / "out"
    if via_config or type(value) is int:
        assert main(args + ["--out", str(out)]) == 2
        assert f"--{key} must be an integer >= 1, got {value!r}" in \
            capsys.readouterr().err
    else:  # argparse itself rejects a flag that is not an integer
        with pytest.raises(SystemExit) as exc:
            main(args + ["--out", str(out)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"--{key}" in err and str(value) in err
    assert not out.exists()


SEMICIRCLE_CURVE = json.dumps(  # S^2 - lambda S + 1 = 0
    {"coeffs": [[0, 0, "1"], [1, 1, "-1"], [0, 2, "1"]]})
VERIFY = ["verify", "--kernel", UNIT_KERNEL, "--curve", SEMICIRCLE_CURVE]
BAD_INPUTS = [  # arguments, the flag named, its value as the message shows it
    (["simulate", "--filter", COMPASS, "--kmax", "11"], "--kmax", "11"),
    (["crosscheck", "--filter", COMPASS, "--kmax", "11"], "--kmax", "11"),
    (["simulate", "--model", "colored", "--filter", COMPASS, "--N", "65"],
     "--N", "65"),
    (["crosscheck", "--kernel", UNIT_KERNEL, "--N", "65"], "--N", "65"),
    (["density", "--kernel", UNIT_KERNEL, "--xmin", "nan"], "--xmin", "nan"),
    (["solve", "--kernel", UNIT_KERNEL, "--lambda", "nan,0"], "--lambda",
     "'nan,0'"),
    (["solve", "--kernel", UNIT_KERNEL, "--lambda", "abc"], "--lambda",
     "'abc'"),
    (["simulate", "--filter", COMPASS, "--seed", "-1"], "--seed", "-1"),
    (["crosscheck", "--kernel", UNIT_KERNEL, "--seed", str(2 ** 64)],
     "--seed", str(2 ** 64))]
# curves that normalize to no S: the first, second and fourth passed,
# with residual 0, 2e-12 and ~1e-35, and the third failed at 2.0
BAD_INPUTS += [(VERIFY[:3] + ["--curve", curve], "--curve",
                "which does not involve S") for curve in (
    '{"coeffs": []}', '{"coeffs": [[0, 2, "1e-12"], [0, 0, "-2e-12"]]}',
    '{"coeffs": [[0, 2, "1"], [0, 0, "-2"]]}',
    '{"coeffs": [[3, 0, "1e-38"]]}')]
# a relation without S_f exited 2 only after making --out, not naming
# --relation
BAD_INPUTS += [(["eliminate", "--filter", COMPASS, "--relation",
                 '{"coeffs": [[1, 0, "1"]]}'], "--relation",
                "the relation does not involve S_f")]
# kernels Kernel refuses, under every command that reads one: these
# exited 0 (crosscheck 1 on the first two) and wrote outputs
NON_KERNELS = [  # a kernel document, what stderr names
    (json.dumps({"type": "kernel", "breakpoints": [0, 1],
                 "coeffs": [[1, 0, 0, 0, "1", "0"], [0, 0, 0, 0, "2", "0"]]}),
     "entry (1, 0, 0, 0) breaks conj(s_ij) = s_(-i,-j)"),
    (json.dumps({"type": "kernel", "breakpoints": [0, "1/2", 1],
                 "coeffs": [[0, 0, 0, 0, 3, 0], [0, 0, 0, 1, 1, 0],
                            [0, 0, 1, 0, 2, 0], [0, 0, 1, 1, 3, 0]]}),
     "entry (0, 0, 0, 1) breaks s_ji(b, a) = s_ij(a, b)"),
    (json.dumps({"type": "kernel", "breakpoints": [0, 1], "coeffs": []}),
     "kernel is identically zero")]
BAD_INPUTS += [(command + ["--kernel", doc], "--kernel", named)
               for doc, named in NON_KERNELS for command in (
    ["density"], ["moments"], ["solve"], ["simulate", "--model", "colored"],
    ["eliminate", "--relation",
     '{"coeffs": [[2, 2, "1"], [1, 2, "-2"], [0, 0, "-1"]]}'],
    ["verify", "--curve", SEMICIRCLE_CURVE], ["crosscheck"])]

# a p/0 value exited 1 with a ZeroDivisionError traceback, wherever it
# stood: a kernel value, a breakpoint, a filter tap, a curve or a
# relation coefficient
BAD_INPUTS += [(args, flag, "'1/0' has a zero denominator") for args, flag in (
    (["moments", "--kernel", json.dumps({
        "type": "kernel", "breakpoints": [0, 1],
        "coeffs": [[0, 0, 0, 0, "1/0", "0"]]})], "--kernel"),
    (["moments", "--kernel", json.dumps({
        "type": "kernel", "breakpoints": [0, "1/0", 1],
        "coeffs": [[0, 0, 0, 0, "1", "0"]]})], "--kernel"),
    (["moments", "--filter", '{"type": "filter", "entries": [[0, 0, "1/0"]]}'],
     "--filter"),
    (VERIFY[:3] + ["--curve", '{"coeffs": [[0, 2, "1/0"]]}'], "--curve"),
    (["eliminate", "--filter", COMPASS, "--relation",
      '{"coeffs": [[2, 2, "1"], [1, 2, "1/0"]]}'], "--relation"))]
# a value past float64 exited 1 with an OverflowError traceback, after
# making --out
HUGE = {  # the flag, its document, and the entry as the message names it
    "--kernel": (json.dumps({"type": "kernel", "breakpoints": [0, 1],
                             "coeffs": [[0, 0, 0, 0, "1e999", "0"]]}),
                 "entry (0, 0, 0, 0)"),
    "--filter": ('{"type": "filter", "entries": [[0, 0, "1e999"]]}',
                 "entry (0, 0)")}
BAD_INPUTS += [(command + [flag, HUGE[flag][0]], flag,
                f"{HUGE[flag][1]} has value '1e999', which does not fit "
                "a float64") for flag, command in (
    ("--kernel", ["moments"]), ("--kernel", ["density"]),
    ("--kernel", ["solve"]), ("--kernel", ["simulate", "--model", "colored"]),
    ("--kernel", ["crosscheck"]),
    ("--kernel", ["verify", "--curve", SEMICIRCLE_CURVE]),
    ("--kernel", ["eliminate", "--relation",
                  '{"coeffs": [[2, 2, "1"], [1, 2, "-2"], [0, 0, "-1"]]}']),
    ("--filter", ["moments"]), ("--filter", ["simulate"]))]
# m_4 = 2e600 of a kernel s = 1e300 exited 1 after making --out
BIG_KERNEL = json.dumps({"type": "kernel", "breakpoints": [0, 1],
                         "coeffs": [[0, 0, 0, 0, "1e300", "0"]]})
BAD_INPUTS += [([command, "--kernel", BIG_KERNEL, "--kmax", "4"], "--kmax",
                "moment m_4 of this kernel does not fit a float64")
               for command in ("moments", "crosscheck")]


@pytest.mark.parametrize("args, flag, value", BAD_INPUTS,
                         ids=[f"{a[0]}{f}={v}" for a, f, v in BAD_INPUTS])
def test_bad_values_exit_with_usage_error(tmp_path, capsys, args, flag,
                                          value):
    # caps, non-finite numbers, out-of-range heights, empty curves and
    # non-kernels: exit 2 naming the flag and the value, before any output
    out = tmp_path / "out"
    assert main(args + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert flag in err and value in err
    assert not out.exists()


# a flag no command has any more, a value for it, and that value as the
# flag's own range check printed it (the test id)
REMOVED_FLAGS = [(["density", "--kernel", UNIT_KERNEL], flag, value, shown)
                 for flag, value, shown in (("--eps1", "0.001", "0.001"),
                                            ("--eps2", "0.01", "0.01"))]
REMOVED_FLAGS += [(VERIFY, flag, value, shown) for flag, value, shown in (
    ("--samples", "0", "0"), ("--samples", "-3", "-3"),
    ("--radius", "0", "0.0"), ("--tol", "nan", "'nan'"),
    ("--tol", "0", "0.0"), ("--tol", "-1", "-1.0"),
    ("--tol", "abc", "'abc'"))]


@pytest.mark.parametrize("args, flag, value",
                         [r[:3] for r in REMOVED_FLAGS], ids=[
                             f"{a[0]}{f}={s}" for a, f, _, s in REMOVED_FLAGS])
def test_removed_flags_are_unrecognized(tmp_path, capsys, args, flag, value):
    # density runs its one eps pair and verify certifies on eliminate's
    # circle, so these flags are gone: argparse exits 2 naming them
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(args + [flag, value, "--out", str(out)])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag} {value}" in \
        capsys.readouterr().err
    assert not out.exists()


BAD_CONFIGS = [  # the command, its config text (None: no file), what is named
    (["moments", "--filter", COMPASS], None, "No such file"),
    (["moments", "--filter", COMPASS], '{"kmax": ', "is not a valid document"),
    (["moments", "--filter", COMPASS], "[1, 2]", "not a JSON object"),
    (["density", "--kernel", UNIT_KERNEL], '{"eps1": 0.5, "bogus": 3}',
     "has the key 'eps1', which is not a flag of density"),
    (["verify", "--kernel", UNIT_KERNEL, "--curve", SEMICIRCLE_CURVE],
     '{"samples": 20}',
     "has the key 'samples', which is not a flag of verify"),
    (["moments", "--filter", COMPASS], '{"bogus": 3}',
     "has the key 'bogus', which is not a flag of moments"),
    (["moments", "--filter", COMPASS], '{"lambda": "3,0"}',
     "has the key 'lambda', which is not a flag of moments")]


@pytest.mark.parametrize("args, text, named", BAD_CONFIGS,
                         ids=[n.split(",")[0] for _, _, n in BAD_CONFIGS])
def test_bad_configs_exit_with_usage_error(tmp_path, capsys, args, text,
                                           named):
    # a missing, malformed or non-object file raised a traceback (exit 1),
    # and an unknown key was ignored yet hashed into config_hash
    cfg = tmp_path / "cfg.json"
    if text is not None:
        cfg.write_text(text)
    out = tmp_path / "out"
    assert main(args + ["--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"--config {str(cfg)!r}" in err and named in err
    assert not out.exists()


def test_config_lambda_is_the_lambda_flag(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"lambda": "3,0"}')
    for name, args in (("a", ["--config", str(cfg)]),
                       ("b", ["--lambda", "3,0"])):
        assert main(["solve", "--kernel", UNIT_KERNEL, *args, "--out",
                     str(tmp_path / name)]) == 0
    assert _report(tmp_path / "a")["S"] == _report(tmp_path / "b")["S"]


@pytest.mark.parametrize("command", [
    ["simulate", "--model", "colored", "--filter", COMPASS],
    ["crosscheck", "--kernel", UNIT_KERNEL]], ids=lambda c: c[0])
@pytest.mark.parametrize("value", [1.5, True, "x", -1, 2 ** 64, "-1"],
                         ids=repr)
def test_bad_config_seeds_exit_with_usage_error(tmp_path, capsys, command,
                                                value):
    # a seed is not truncated or wrapped into the 64-bit key: exit 2
    # naming --seed and the value, before any output
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": value}))
    out = tmp_path / "out"
    assert main(command + ["--config", str(cfg), "--out", str(out)]) == 2
    assert f"--seed must be an integer in 0..2**64 - 1, got {value!r}" in \
        capsys.readouterr().err
    assert not out.exists()


def test_config_seed_string_is_the_seed_used(tmp_path):
    # "7" in a config runs as seed 7, and the manifest records 7
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": "7"}))
    args = ["simulate", "--model", "colored", "--filter", COMPASS,
            "--N", "8", "--trials", "1", "--kmax", "2"]
    assert main(args + ["--config", str(cfg), "--out",
                        str(tmp_path / "a")]) == 0
    assert main(args + ["--seed", "7", "--out", str(tmp_path / "b")]) == 0
    for name in ("a", "b"):
        man = json.loads((tmp_path / name / "manifest.json").read_text())
        assert man["seed"] == 7
    assert _report(tmp_path / "a")["matrix_sha256"] == \
        _report(tmp_path / "b")["matrix_sha256"]


def test_missing_inputs_exit_with_usage_error(tmp_path, capsys):
    # exit 2 naming the missing flag or the bad value, before any output
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"model": "bogus"}))
    for args, named in [
            (["verify", "--filter", COMPASS], "--curve"),
            (["eliminate", "--filter", COMPASS], "--relation"),
            (["moments"], "--kernel or --filter"),
            (["simulate", "--model", "filtered"], "--filter"),
            (["simulate", "--filter", COMPASS, "--config", str(cfg)],
             "--model 'bogus'")]:
        out = tmp_path / args[0]
        assert main(args + ["--out", str(out)]) == 2, args
        assert named in capsys.readouterr().err
        assert not out.exists()
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def _readme_commands():
    """argv lists of the filtered-spectra lines in the README's
    "Command line" section (its sh blocks, continuation lines joined)."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = text.split("## Command line", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```sh\n(.*?)```", section, flags=re.S)
    commands = []
    for block in blocks:
        for token in shlex.split(block.replace("\\\n", " "), comments=True):
            if token == "filtered-spectra":
                commands.append([])
            elif commands:
                commands[-1].append(token)
    return commands


def test_readme_command_lines_match_the_parser():
    parser = cli._build_parser()
    listed = _readme_commands()
    for argv in listed:
        try:
            parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"README line does not parse: {argv}")
    sub = next(a for a in parser._actions
               if isinstance(a, argparse._SubParsersAction))
    assert {argv[0] for argv in listed} == set(sub.choices)


def test_readme_names_every_flag():
    # every option of the parser and its subcommands appears in README.md
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    parser = cli._build_parser()
    sub = next(a for a in parser._actions
               if isinstance(a, argparse._SubParsersAction))
    flags = {opt for p in sub.choices.values() for a in p._actions
             for opt in a.option_strings if opt.startswith("--")}
    flags.discard("--help")
    missing = sorted(f for f in flags
                     if not re.search(rf"(?<![\w-]){f}(?![\w-])", text))
    assert not missing


def _fresh_python(script, *args):
    """The last stdout line of script, run as JSON in a fresh interpreter
    (so the suite's own imports hide nothing) with this package on the
    path; the script gets args as sys.argv[1:]."""
    src = os.path.dirname(os.path.dirname(filtered_spectra.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    run = subprocess.run([sys.executable, "-c", script, *map(str, args)],
                         env=env, capture_output=True, text=True,
                         timeout=120)
    assert run.returncode == 0, run.stderr
    return json.loads(run.stdout.splitlines()[-1])


_IMPORT_BOUNDARY_SCRIPT = """
import json, sys
from pathlib import Path
import filtered_spectra
seen = {"import": "scipy" in sys.modules}
from filtered_spectra.cli import main
out, compass = Path(sys.argv[1]), sys.argv[2]
relation = json.dumps({"coeffs": [[2, 2, "1"], [1, 2, "-2"], [0, 0, "-1"]]})
codes = [main(argv + ["--out", str(out / argv[0])]) for argv in (
    ["moments", "--filter", compass, "--kmax", "6", "--oracle"],
    ["density", "--filter", compass, "--n", "9"],
    ["solve", "--filter", compass, "--lambda", "3,1"],
    ["eliminate", "--filter", compass, "--relation", relation],
    ["verify", "--filter", compass, "--curve",
     str(out / "eliminate" / "curve.json")])]
seen["commands"] = "scipy" in sys.modules
codes.append(main(["simulate", "--filter", compass, "--N", "20",
                   "--kmax", "2", "--out", str(out / "simulate")]))
seen["simulate"] = {name: name in sys.modules for name in (
    "scipy", "scipy.linalg", "scipy._lib._array_api", "numpy.f2py")}
print(json.dumps({"codes": codes, "seen": seen}))
"""


def test_simulate_loads_lapack_but_not_scipy_linalg(tmp_path):
    # no scipy at all before simulate; simulate loads scipy's top-level
    # package and LAPACK extensions only, not scipy.linalg's package and
    # the array-API and f2py modules it drags in
    got = _fresh_python(_IMPORT_BOUNDARY_SCRIPT, tmp_path, COMPASS)
    assert got["codes"] == [0] * 6
    assert got["seen"] == {"import": False, "commands": False,
                           "simulate": {"scipy": True, "scipy.linalg": False,
                                        "scipy._lib._array_api": False,
                                        "numpy.f2py": False}}


_MANIFEST_VERSIONS_SCRIPT = """
import json, sys
from pathlib import Path
from filtered_spectra.cli import main
out, compass = Path(sys.argv[1]), sys.argv[2]
runs = (["density", "--n", "9"], ["simulate", "--N", "20", "--kmax", "2"],
        ["density", "--n", "9"])
codes = [main(argv + ["--filter", compass, "--out", str(out / str(i))])
         for i, argv in enumerate(runs)]
print(json.dumps({"codes": codes, "versions": [
    json.loads((out / str(i) / "manifest.json").read_text())["versions"]
    for i in range(len(runs))]}))
"""


def test_only_a_run_that_eigensolves_records_scipy(tmp_path):
    # density, simulate, density in one process: the second density run
    # comes after scipy is loaded and still records no scipy version
    got = _fresh_python(_MANIFEST_VERSIONS_SCRIPT, tmp_path, COMPASS)
    assert got["codes"] == [0, 0, 0]
    import scipy
    assert ["scipy" in v for v in got["versions"]] == [False, True, False]
    assert got["versions"][1]["scipy"] == scipy.__version__
