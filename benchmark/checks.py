"""Output checks for the benchmark workloads.

Every check returns a list of failure messages, empty when the output
passes.  The references are closed forms, exact Fraction arithmetic done
here, sympy (only in the functions at the end, which run in the parent
process outside every timed phase), or properties the method must have.
No check compares against a stored copy of an earlier output, and none
compares hashes or the bits of numbers derived from eigenvalues: those
change with the LAPACK driver and the BLAS thread count.
"""

from __future__ import annotations

import math
from fractions import Fraction

# Compass kernel s = 4 cos^2(t1) cos^2(t2): exact limit moments, the
# quartic curve in (L, S) = (lambda, Stieltjes transform) and its
# discriminant -16 L^6 (8 L^4 + 107 L^2 - 1024), expanded.
COMPASS_MOMENTS = {2: Fraction(1), 4: Fraction(3), 6: Fraction(47, 4),
                   8: Fraction(209, 4)}
COMPASS_CURVE = {(2, 4): 4, (3, 3): -1, (2, 2): -1, (1, 1): 1, (0, 0): 1}
COMPASS_DISCRIMINANT = [0] * 6 + [16384, 0, -1712, 0, -128]

# Monte Carlo tolerance: |m_k - exact| <= Z * stderr + C * k^2 * m_k / d.
# At the benchmark's sizes both the finite-N bias and the trial-to-trial
# spread of m_k scale as 1/d; C = 5 covers the bias plus five standard
# deviations of a 2-trial mean even when the reported stderr comes out
# small by chance (see README).
STAT_Z = 3.0
STAT_C = 5.0

SEMICIRCLE_TOL = 1e-4       # interior density error, measured 2.4e-5
DENSITY_MOMENT_TOL = 1e-3   # relative, trapezoid rule on the solver density
MOMENT_GRID_STEP = 0.03     # coarser grids skip the moment checks


def catalan(j: int) -> int:
    return math.comb(2 * j, j) // (j + 1)


def proportional(got: dict, want: dict) -> bool:
    """True when got = c * want for one nonzero rational c (zeros dropped)."""
    got = {k: Fraction(v) for k, v in got.items() if Fraction(v) != 0}
    want = {k: Fraction(v) for k, v in want.items() if Fraction(v) != 0}
    if set(got) != set(want) or not got:
        return False
    key = next(iter(want))
    ratio = got[key] / want[key]
    return all(got[k] == ratio * want[k] for k in want)


def as_dict(coeffs) -> dict:
    """Ascending coefficient list -> {degree: value}."""
    return dict(enumerate(coeffs))


# ---------------------------------------------------------------------------
# montecarlo
# ---------------------------------------------------------------------------

def histogram(masses) -> list:
    total = math.fsum(masses)
    if not masses or abs(total - 1.0) > 1e-12 or min(masses) < 0:
        return [f"histogram masses sum to {total!r}, not 1"]
    return []


def trace_moments(m1, m2, want_m1, want_m2) -> list:
    """Reported m1, m2 against tr M / d^1.5 and ||M||_F^2 / d^2."""
    tol = 1e-10 * abs(want_m2)
    out = []
    if not abs(m1 - want_m1) <= tol:
        out.append(f"m1 = {m1!r} but tr M / d^1.5 averages {want_m1!r}")
    if not abs(m2 - want_m2) <= tol:
        out.append(f"m2 = {m2!r} but ||M||_F^2 / d^2 averages {want_m2!r}")
    return out


def compass_statistics(means, stderrs, dim: int) -> list:
    """m2, m4, m6 against 1, 3, 47/4 within Z stderr plus C k^2 m_k / d."""
    out = []
    for k in (2, 4, 6):
        exact = float(COMPASS_MOMENTS[k])
        tol = STAT_Z * stderrs[k - 1] + STAT_C * k * k * exact / dim
        if not abs(means[k - 1] - exact) <= tol:
            out.append(f"m{k} = {means[k - 1]:.6g} is not within {tol:.3g} "
                       f"of {exact} (stderr {stderrs[k - 1]:.3g}, d = {dim})")
    return out


# ---------------------------------------------------------------------------
# density
# ---------------------------------------------------------------------------

def no_failed_points(failed_points: int, flags) -> list:
    bad = sum(1 for f in flags if f != 0)
    if failed_points != 0 or bad:
        return [f"{failed_points} failed points in the report, "
                f"{bad} flagged in the csv"]
    return []


def semicircle_density(xs, dens) -> list:
    """Interior density against sqrt(4 - x^2) / (2 pi) at |x| < 1.8."""
    errs = [abs(d - math.sqrt(4.0 - x * x) / (2.0 * math.pi))
            for x, d in zip(xs, dens) if abs(x) < 1.8]
    if not errs or not all(e <= SEMICIRCLE_TOL for e in errs):
        return [f"semicircle interior density error up to {max(errs):.3g} "
                f"> {SEMICIRCLE_TOL}" if errs else "no interior points"]
    return []


def trapezoid(xs, ys) -> float:
    return math.fsum((xs[i + 1] - xs[i]) * (ys[i] + ys[i + 1]) / 2
                     for i in range(len(xs) - 1))


def density_moments(xs, dens, want: dict) -> list:
    """Trapezoid moments of the density against exact values, relative."""
    out = []
    for k, exact in want.items():
        got = trapezoid(xs, [d * x ** k for x, d in zip(xs, dens)])
        rel = abs(got - float(exact)) / abs(float(exact))
        if not rel <= DENSITY_MOMENT_TOL:
            out.append(f"m{k} from the density is {got:.6g}, exact {exact}: "
                       f"relative error {rel:.3g} > {DENSITY_MOMENT_TOL}")
    return out


def profile_moments(profile) -> dict:
    """m2 and m4 of a rank-one kernel s = f(x) f(y), in Fractions.

    m2 is the integral of s, mean(f)^2; both k = 4 Wigner partitions are
    paths of two edges, each worth mean(f)^2 mean(f^2).
    """
    n = len(profile)
    mean = sum(profile, Fraction(0)) / n
    mean_sq = sum((f * f for f in profile), Fraction(0)) / n
    return {2: mean * mean, 4: 2 * mean * mean * mean_sq}


# ---------------------------------------------------------------------------
# exact
# ---------------------------------------------------------------------------

def recursion_equals_enumeration(moments, enumeration) -> list:
    out = []
    for k, (m, e) in enumerate(zip(moments, enumeration), start=1):
        if e is not None and m != e:
            out.append(f"m{k}: recursion {m!r} != enumeration {e!r}")
    return out


def compass_moments(moments) -> list:
    out = []
    for k, m in enumerate(moments, start=1):
        want = COMPASS_MOMENTS.get(k, 0 if k % 2 else None)
        if want is not None and m != float(want):
            out.append(f"compass m{k} = {m!r}, exact {want}")
    return out


def semicircle_moments(moments) -> list:
    out = []
    for k, m in enumerate(moments, start=1):
        want = 0 if k % 2 else catalan(k // 2)
        if m != want:
            out.append(f"semicircle m{k} = {m!r}, Catalan value {want}")
    return out


def partition_counts(counts: dict) -> list:
    return [f"{n} Wigner partitions of {k} steps, Catalan({k // 2}) = "
            f"{catalan(k // 2)}" for k, n in counts.items()
            if n != catalan(k // 2)]


def compass_curve(curve: dict) -> list:
    if not proportional(curve, COMPASS_CURVE):
        return [f"compass curve {curve} is not proportional to "
                "4L^2S^4 - L^3S^3 - L^2S^2 + LS + 1"]
    return []


def compass_discriminant(coeffs) -> list:
    if not proportional(as_dict(coeffs), as_dict(COMPASS_DISCRIMINANT)):
        return [f"compass discriminant {coeffs} is not proportional to "
                "-16 L^6 (8 L^4 + 107 L^2 - 1024)"]
    return []


def compass_edge(intervals) -> list:
    """The largest isolating interval holds x0 = sqrt(51 sqrt(17) - 107) / 4.

    lo <= x0 <= hi for lo, hi > 0 is (16 lo^2 + 107)^2 <= 51^2 * 17 <=
    (16 hi^2 + 107)^2, all in exact rationals.
    """
    if not intervals:
        return ["no real roots isolated for the compass discriminant"]
    lo, hi = (Fraction(v) for v in max(intervals, key=lambda iv: iv[0]))
    target = 51 * 51 * 17
    if not (lo > 0 and (16 * lo * lo + 107) ** 2 <= target
            <= (16 * hi * hi + 107) ** 2):
        return [f"largest isolating interval [{float(lo)}, {float(hi)}] "
                "misses sqrt(51 sqrt(17) - 107) / 4 = 2.5406494"]
    return []


def certified(report: dict) -> list:
    if report.get("pass") is not True:
        return [f"verify did not pass: residual {report.get('residual')}"]
    return []


# ---------------------------------------------------------------------------
# sympy references (parent process only, outside the timed phase)
# ---------------------------------------------------------------------------

def sympy_curve(profile):
    """The curve of s = f(x) f(y) for a piecewise-constant profile f.

    S_f(m) = mean over the pieces of 1/(m - f_i) gives the relation
    v * den(m) - num(m) = 0; the master identity m = L/w, v = S w turns
    it into G(L, S, w), and the curve is the squarefree part of
    res_w(1 + w^2 - L S, G) with the factors L S - 1, L and S divided
    out.  Returns the curve as a sympy Poly in (L, S).
    """
    import sympy as sp

    L, S, w, m, v = sp.symbols("L S w m v")
    pieces = [sp.Rational(f.numerator, f.denominator) for f in profile]
    num, den = sp.fraction(sp.together(
        sum(1 / (m - f) for f in pieces) / len(pieces)))
    rel = sp.expand(v * den - num)
    deg = sp.degree(rel, m)
    g = sp.expand(rel.subs({m: L / w, v: S * w}, simultaneous=True) * w ** deg)
    res = sp.resultant(1 + w ** 2 - L * S, g, w)
    curve = sp.Poly(sp.sqf_part(sp.Poly(res, L, S)), L, S)
    for factor in (L * S - 1, L, S):
        while True:
            q, r = sp.div(curve, sp.Poly(factor, L, S))
            if not r.is_zero:
                break
            curve = q
    return curve


def sympy_discriminant(curve):
    """Discriminant in S of a sympy curve, as a Poly in L."""
    import sympy as sp

    L, S = curve.gens
    return sp.Poly(sp.discriminant(curve.as_expr(), S), L)


def curve_matches(entries, curve) -> list:
    got = {(int(a), int(b)): Fraction(c) for a, b, c in entries}
    want = {k: Fraction(int(c.p), int(c.q)) for k, c in curve.terms()}
    if not proportional(got, want):
        return [f"curve {got} is not proportional to sympy's {curve.as_expr()}"]
    return []


def discriminant_matches(coeffs, disc) -> list:
    want = {k[0]: Fraction(int(c.p), int(c.q)) for k, c in disc.terms()}
    if not proportional(as_dict(Fraction(c) for c in coeffs), want):
        return [f"discriminant {coeffs} is not proportional to sympy's "
                f"{disc.as_expr()}"]
    return []


def roots_match(intervals, disc) -> list:
    """One isolating interval per distinct real root, each holding one."""
    import sympy as sp

    sqf = sp.Poly(sp.sqf_part(disc), disc.gens[0])
    out = []
    total = sqf.count_roots()
    if total != len(intervals):
        out.append(f"{len(intervals)} isolating intervals for {total} "
                   "distinct real roots")
    for lo, hi in intervals:
        lo_q, hi_q = (sp.Rational(Fraction(s).numerator, Fraction(s).denominator)
                      for s in (lo, hi))
        if sqf.count_roots(lo_q, hi_q) != 1:
            out.append(f"interval [{lo}, {hi}] does not hold exactly one root")
    return out
