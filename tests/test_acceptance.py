"""Acceptance checks: one test per shipping criterion, one verdict line each.

Run with plain pytest; each test prints its PASS/FAIL verdict through
capsys.disabled() so the lines show up even under output capture.
Budgets are wall-clock assertions, generous enough for a loaded CI box
but tight enough to catch an algorithmic regression.
"""

import math
import time
from fractions import Fraction

import numpy as np

from conftest import (filtered_covariance, seeded_two_interval_kernel,
                      two_point_kernel)
from filtered_spectra.algebra import (BivariatePolynomial,
                                      rank_one_eliminate, discriminant,
                                      real_roots, verify_curve, resultant)
from filtered_spectra.colorsolve import density_profile, stieltjes_path
from filtered_spectra.combinat import (enumerate_wigner_partitions,
                                       moments_by_enumeration)
from filtered_spectra.kernel import (kernel_from_filter, validate_kernel,
                                     read_color_document)
from filtered_spectra.matrixlab import (SampleConfig, sample_filtered_wigner,
                                        sample_colored_gaussian,
                                        esd_statistics)
from filtered_spectra.moments import theoretical_moments

SEED_FILTERED = 2026
SEED_COLORED = 1         # fixed seeds; margins were checked against the
                         # oracle targets before freezing

QUARTIC = BivariatePolynomial({(2, 4): Fraction(4), (3, 3): Fraction(-1),
                               (2, 2): Fraction(-1), (1, 1): Fraction(1),
                               (0, 0): Fraction(1)})
RELATION = BivariatePolynomial({(2, 2): Fraction(1), (1, 2): Fraction(-2),
                                (0, 0): Fraction(-1)})


def _verdict(capsys, label: str, ok: bool, detail: str = "") -> None:
    with capsys.disabled():
        tail = f"  ({detail})" if detail else ""
        print(f"\nACCEPTANCE {label}: {'PASS' if ok else 'FAIL'}{tail}")


def _proportional(xs, ys) -> bool:
    """xs == c * ys for a single nonzero constant c (exact lists)."""
    if len(xs) != len(ys):
        return False
    c = None
    for a, b in zip(xs, ys):
        if (a == 0) != (b == 0):
            return False
        if b != 0:
            r = Fraction(a) / Fraction(b)
            if c is None:
                c = r
            elif r != c:
                return False
    return c is not None and c != 0


def _edge_windows(center: float):
    w = np.arange(center - 0.12, center + 0.1201, 0.005)
    return np.concatenate([-w[::-1], w])


def test_criterion_1_partition_counts(capsys):
    t0 = time.monotonic()
    counts = [len(enumerate_wigner_partitions(2 * ell))
              for ell in range(1, 9)]
    odd_empty = all(enumerate_wigner_partitions(k) == []
                    for k in range(1, 16, 2))
    elapsed = time.monotonic() - t0
    ok = (counts == [1, 2, 5, 14, 42, 132, 429, 1430] and odd_empty
          and elapsed < 5.0)
    _verdict(capsys, "1 partition counts", ok,
             f"counts={counts}, {elapsed:.2f}s")
    assert counts == [1, 2, 5, 14, 42, 132, 429, 1430]
    assert odd_empty
    assert elapsed < 5.0


def test_criterion_2_dual_route_moments(capsys, semicircle, compass_kernel):
    t0 = time.monotonic()
    exact_ok = True
    for kern in (semicircle, compass_kernel):
        th = theoretical_moments(kern, 12)
        en = moments_by_enumeration(kern, 12)
        exact_ok &= list(th) == list(en)
    rand = seeded_two_interval_kernel()
    th = theoretical_moments(rand, 12)
    en = moments_by_enumeration(rand, 12)
    random_ok = th == en
    elapsed = time.monotonic() - t0
    ok = exact_ok and random_ok and elapsed < 60.0
    _verdict(capsys, "2 recursion == enumeration (k<=12)", ok,
             f"random kernel exact={random_ok}, {elapsed:.1f}s")
    assert exact_ok
    assert th == en
    assert elapsed < 60.0


def test_criterion_3_semicircle_recovery(capsys, semicircle):
    ms = theoretical_moments(semicircle, 10)
    moments_ok = list(ms) == [0, 1, 0, 2, 0, 5, 0, 14, 0, 42]

    sol = stieltjes_path(semicircle, [3.0])[0]
    golden = (3.0 - math.sqrt(5.0)) / 2.0
    s_ok = abs(sol.stieltjes - golden) <= 1e-10

    dens0 = density_profile(semicircle, np.array([0.0])).density[0]
    dens_ok = abs(dens0 - 1.0 / math.pi) <= 1e-3

    grid = density_profile(semicircle, _edge_windows(2.0),
                           eps_pair=(1e-3, 5e-4))
    lo, hi = grid.support_estimate
    supp_ok = abs(lo + 2.0) <= 1e-2 and abs(hi - 2.0) <= 1e-2

    ok = moments_ok and s_ok and dens_ok and supp_ok
    _verdict(capsys, "3 constant kernel semicircle", ok,
             f"S(3) err={abs(sol.stieltjes - golden):.1e}, "
             f"support=[{lo:.4f},{hi:.4f}]")
    assert moments_ok
    assert s_ok
    assert dens_ok
    assert supp_ok


def test_criterion_4_worked_example(capsys, compass_kernel):
    t0 = time.monotonic()
    curve = rank_one_eliminate(RELATION, compass_kernel)
    quartic_ok = curve.proportional_to(QUARTIC)

    disc = discriminant(QUARTIC, "y")
    disc_ok = _proportional(disc, [0] * 6 + [16384, 0, -1712, 0, -128])

    surd = 0.25 * math.sqrt(-107.0 + 51.0 * math.sqrt(17.0))
    edge = max(r.midpoint for r in real_roots(disc))
    edge_ok = abs(edge - surd) <= 1e-10

    grid = density_profile(compass_kernel, _edge_windows(surd),
                           eps_pair=(1e-3, 5e-4))
    lo, hi = grid.support_estimate
    supp_ok = abs(lo + surd) <= 1e-2 and abs(hi - surd) <= 1e-2

    lams = [10.0 * complex(math.cos(a), math.sin(a))
            for a in (math.pi * (2 * k + 1) / 40 for k in range(20))]
    resid = verify_curve(QUARTIC, compass_kernel, lams)
    curve_ok = resid < 1e-8

    xs = np.array([-0.04, -0.02, -0.01, 0.01, 0.02, 0.04])
    prof = density_profile(compass_kernel, xs, eps_pair=(1e-3, 5e-4))
    scaled = [d * math.sqrt(abs(x)) for x, d in zip(prof.xs, prof.density)]
    blowup_ok = max(scaled) <= 1.2 * min(scaled)

    elapsed = time.monotonic() - t0
    ok = (quartic_ok and disc_ok and edge_ok and supp_ok and curve_ok
          and blowup_ok and elapsed < 300.0)
    _verdict(capsys, "4 worked example (quartic/disc/edges/blowup)", ok,
             f"edge={edge:.6f}, support=[{lo:.4f},{hi:.4f}], "
             f"residual={resid:.1e}, {elapsed:.1f}s")
    assert quartic_ok
    assert disc_ok
    assert edge_ok
    assert supp_ok
    assert curve_ok
    assert blowup_ok
    assert elapsed < 300.0


def test_criterion_5_monte_carlo_consistency(capsys, compass, compass_kernel):
    t0 = time.monotonic()
    # oracle first: the k=6 target comes out of the recursion, exactly
    oracle = theoretical_moments(compass_kernel, 6)
    assert oracle[5] == Fraction(47, 4)
    targets = {2: 1.0, 4: 3.0, 6: float(oracle[5])}

    def within_3se(summary):
        rows = []
        for k, tgt in targets.items():
            m = summary.moment_mean[k - 1]
            se = summary.moment_stderr[k - 1]
            rows.append((k, abs(m - tgt) <= 3.0 * se,
                         abs(m - tgt) / se if se else math.inf))
        return rows

    cfg = SampleConfig(N=1000, seed=SEED_FILTERED, trials=5)
    filt = esd_statistics(
        [sample_filtered_wigner(cfg, compass, trial=t) for t in range(5)],
        kmax=6)
    filt_rows = within_3se(filt)

    col = esd_statistics(
        [sample_colored_gaussian(compass_kernel, 40, SEED_COLORED, trial=t)
         for t in range(5)],
        kmax=6)
    col_rows = within_3se(col)

    elapsed = time.monotonic() - t0
    ok = (all(r[1] for r in filt_rows) and all(r[1] for r in col_rows)
          and elapsed < 600.0)
    detail = ("filtered z=" + "/".join(f"{r[2]:.1f}" for r in filt_rows)
              + ", colored z=" + "/".join(f"{r[2]:.1f}" for r in col_rows)
              + f", {elapsed:.0f}s")
    _verdict(capsys, "5 two-model Monte Carlo vs theory", ok, detail)
    for k, good, z in filt_rows + col_rows:
        assert good, f"moment {k} off by {z:.2f} standard errors"
    assert elapsed < 600.0


def test_criterion_6_covariance_identity(capsys, compass):
    """E[X_ij X_kl] = s_{i-k, l-j} in general position, exactly, from the
    sampler's own derivatives in the draws (conftest.filtered_covariance).
    Near the boundary it fails: X_{1,20} loses the taps that reach row 0,
    so its variance is 1/2, not s_00 = 1."""
    t0 = time.monotonic()
    quads = [(10, 20, 12, 22), (10, 20, 10, 22), (10, 20, 12, 20),
             (10, 20, 10, 20), (10, 20, 12, 24), (8, 30, 10, 32),
             (5, 15, 5, 17), (20, 30, 22, 28), (10, 20, 13, 23),
             (15, 25, 15, 24), (10, 20, 12, 30)]
    kern = kernel_from_filter(compass)

    def s(i, j, k, l):
        re, im = kern.coeffs.get((i - k, l - j, 0, 0), (0, 0))
        assert im == 0, "a filter's kernel has real coefficients"
        return Fraction(re, kern.den)

    got = {q: filtered_covariance(compass, 48, q) for q in quads}
    wrong = {q: str(v) for q, v in got.items() if v != s(*q)}
    edge = filtered_covariance(compass, 48, (1, 20, 1, 20))
    elapsed = time.monotonic() - t0
    ok = not wrong and edge == Fraction(1, 2) != s(1, 20, 1, 20) \
        and elapsed < 120.0
    _verdict(capsys, f"6 covariance identity ({len(quads)} quads, exact)", ok,
             f"mismatches={wrong}, boundary {edge} vs {s(1, 20, 1, 20)}, "
             f"{elapsed:.2f}s")
    assert not wrong
    assert edge == Fraction(1, 2) and s(1, 20, 1, 20) == 1
    assert elapsed < 120.0


def test_criterion_7_invariants(capsys, compass_kernel, semicircle):
    lams = [6.0, 2 + 0.5j, -1 + 0.25j, 0.3 + 1j]
    resid_ok = True
    sign_ok = True
    for kern in (compass_kernel, two_point_kernel()):
        for sol in stieltjes_path(kern, lams):
            resid_ok &= sol.residual < 1e-12
    for kern in (compass_kernel, semicircle):
        up = stieltjes_path(kern, [1.3 + 0.7j])[0]
        dn = stieltjes_path(kern, [1.3 - 0.7j])[0]
        sign_ok &= up.stieltjes.imag < 0 < dn.stieltjes.imag
        sign_ok &= abs(up.stieltjes - dn.stieltjes.conjugate()) < 1e-11

    hankel_ok = True
    for kern in (compass_kernel, seeded_two_interval_kernel()):
        ms = [1.0] + [float(v) for v in theoretical_moments(kern, 10)]
        H = np.array([[ms[i + j] for j in range(6)] for i in range(6)])
        hankel_ok &= float(np.linalg.eigvalsh(H).min()) >= -1e-8

    p = BivariatePolynomial({(0, 1): Fraction(1), (1, 0): Fraction(1)})
    q = BivariatePolynomial({(0, 0): Fraction(2), (1, 1): Fraction(-1)})
    r = BivariatePolynomial({(2, 0): Fraction(1), (0, 1): Fraction(3)})
    lhs = resultant(p * q, r, "y")
    ra, rb = resultant(p, r, "y"), resultant(q, r, "y")
    rhs = [Fraction(0)] * (len(ra) + len(rb) - 1)
    for i, a in enumerate(ra):
        for j, b in enumerate(rb):
            rhs[i + j] += a * b
    mult_ok = list(lhs) == rhs

    ok = resid_ok and sign_ok and hankel_ok and mult_ok
    _verdict(capsys, "7 invariant suite", ok,
             f"residual/sign/hankel/resultant = "
             f"{resid_ok}/{sign_ok}/{hankel_ok}/{mult_ok}")
    assert resid_ok
    assert sign_ok
    assert hankel_ok
    assert mult_ok


def test_criterion_8_negative_controls(capsys, semicircle):
    bad = read_color_document({
        "type": "kernel", "breakpoints": ["0", "1"],
        "coeffs": [[0, 0, 0, 0, "-1", "0"]]})
    rep = validate_kernel(bad)
    corrupt_ok = not rep.ok and len(rep.messages) > 0

    try:
        read_color_document({
            "type": "kernel", "breakpoints": ["0", "1"],
            "coeffs": [[1, 0, 0, 0, "1", "0"], [0, 0, 0, 0, "2", "0"]]})
        corrupt_ok = False
    except ValueError as exc:
        corrupt_ok &= "(1, 0, 0, 0)" in str(exc)

    wrong = BivariatePolynomial({(0, 2): Fraction(1), (1, 1): Fraction(-1),
                                 (0, 0): Fraction(2)})
    resid = verify_curve(wrong, semicircle, [3.0])
    wrong_ok = resid >= 0.5

    ok = corrupt_ok and wrong_ok
    _verdict(capsys, "8 negative controls", ok,
             f"validator rejects corrupted kernels={corrupt_ok}, "
             f"wrong-curve residual={resid:.3f}")
    assert corrupt_ok
    assert wrong_ok
