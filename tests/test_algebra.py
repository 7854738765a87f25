"""Resultants, discriminants, Sturm roots, elimination, curve certificates."""

import math
import re
import time
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import assume, given, settings, strategies as st

from filtered_spectra import algebra
from filtered_spectra.algebra import (BivariatePolynomial, RootInterval,
                                      _bisect_root, _norm_over_w,
                                      _squarefree_factors, discriminant,
                                      rank_one_eliminate, real_roots,
                                      resultant, verify_curve)
from filtered_spectra import colorsolve
from filtered_spectra.kernel import IntervalPartition, Kernel, \
    compass_filter, constant_kernel, kernel_from_filter
from conftest import rank_two_kernel, two_point_kernel

BP = BivariatePolynomial

COMPASS_RELATION = BP({(2, 2): 1, (1, 2): -2, (0, 0): -1})  # v^2 m(m-2) = 1
COMPASS_QUARTIC = BP({(2, 4): 4, (3, 3): -1, (2, 2): -1, (1, 1): 1, (0, 0): 1})
SEMICIRCLE_RELATION = BP({(1, 1): 1, (0, 1): -1, (0, 0): -1})  # S_f = 1/(m-1)


def test_entries_round_trip():
    q = BP.from_entries([[2, 4, "4"], [3, 3, -1], [2, 2, "-1"],
                         [1, 1, 1], [0, 0, 1]])
    assert q == COMPASS_QUARTIC
    assert BP.from_entries(q.to_entries()) == q
    assert q.pretty("L", "S") == \
        "4*L^2S^4 - L^3S^3 - L^2S^2 + LS + 1"
    assert q.degree("x") == 3 and q.degree("y") == 4
    assert q.evaluate(Fraction(1), Fraction(1)) == 4


@pytest.mark.parametrize("entry", [[-1, 0, "1"], [0, -2, "1"], [1.5, 1, "1"],
                                   ["2", 0, "1"], [0, 1000000, "1"]])
def test_entries_reject_malformed_degrees(entry):
    with pytest.raises(ValueError, match=re.escape(repr(entry))):
        BP.from_entries([[0, 2, "1"], entry])
    with pytest.raises(ValueError, match=re.escape(repr(entry))):
        BP({(0, 2): 1, tuple(entry[:2]): entry[2]})


def test_resultant_linear_pair():
    p = BP({(0, 1): 1, (1, 0): -1})       # y - x
    q = BP({(0, 1): 1, (1, 0): -2})       # y - 2x
    assert resultant(p, q, "y") == [0, -1]
    assert resultant(p, q, "x") == [0, 1]


def test_resultant_quadratic_pair():
    p = BP({(0, 2): 1, (1, 0): -1})       # y^2 - x
    q = BP({(0, 2): 1, (1, 0): 1})        # y^2 + x
    assert resultant(p, q, "y") == [0, 0, 4]


def test_resultant_shared_root_vanishes():
    # both vanish on y = x
    p = BP({(0, 1): 1, (1, 0): -1}) * BP({(0, 1): 1, (0, 0): 3})
    q = BP({(0, 1): 1, (1, 0): -1}) * BP({(0, 1): 1, (1, 0): 5})
    assert resultant(p, q, "y") == []


def test_discriminant_classics():
    assert discriminant(BP({(0, 2): 1, (1, 0): -1})) == [0, 4]     # y^2 - x
    assert discriminant(BP({(0, 2): 1, (0, 1): -3, (0, 0): 1})) == [5]
    # cubic y^3 + py + q: disc = -4p^3 - 27q^2, here p = x, q = 1
    got = discriminant(BP({(0, 3): 1, (1, 1): 1, (0, 0): 1}))
    assert got == [-27, 0, 0, -4]
    with pytest.raises(ValueError):
        discriminant(BP({(1, 0): 1}))


def test_compass_discriminant():
    d = discriminant(COMPASS_QUARTIC, "y")
    # -16 x^6 (8 x^4 + 107 x^2 - 1024), up to a nonzero rational constant
    want = [0] * 6 + [1024 * 16, 0, -107 * 16, 0, -8 * 16]
    ratio = Fraction(d[6]) / want[6]
    assert ratio != 0
    assert d == [c * ratio for c in want]


def test_real_roots_basics():
    r = real_roots([-2, 0, 1])            # x^2 - 2
    assert len(r) == 2
    assert r[0].midpoint == pytest.approx(-math.sqrt(2), abs=1e-11)
    assert r[1].midpoint == pytest.approx(math.sqrt(2), abs=1e-11)
    assert all(iv.width <= 1e-12 for iv in r)
    assert real_roots([1, 0, 1]) == []    # x^2 + 1
    assert [iv.midpoint for iv in real_roots([0, -1, 1])] == [0.0, 1.0]


def test_real_roots_multiplicity_once():
    # (x^2 - 2)^2: each root reported once
    assert len(real_roots([4, 0, -4, 0, 1])) == 2
    with pytest.raises(ValueError):
        real_roots([])


def test_compass_support_endpoints():
    d = discriminant(COMPASS_QUARTIC, "y")
    edge = max(iv.midpoint for iv in real_roots(d))
    surd = 0.25 * math.sqrt(-107.0 + 51.0 * math.sqrt(17.0))
    assert edge == pytest.approx(surd, abs=1e-10)


def test_norm_over_w_worked_example():
    # G = 2 - 2 lambda w + 4 w^2 - lambda w^3 + 2 w^4, eliminated against
    # 1 - lambda S + w^2: the compass quartic times lambda^2
    one, lam = BP({(0, 0): 1}), BP({(1, 0): 1})
    g = [(one * 2).rows, (lam * -2).rows, (one * 4).rows, (-lam).rows,
         (one * 2).rows]
    res = BP._of_rows(_norm_over_w(g))
    assert res.proportional_to(COMPASS_QUARTIC * BP({(2, 0): 1}))


small_terms = st.dictionaries(st.tuples(st.integers(0, 2), st.integers(0, 2)),
                              st.integers(-3, 3), max_size=4)


@settings(max_examples=60, deadline=None)
@given(st.lists(small_terms, min_size=1, max_size=5))
def test_norm_over_w_is_the_resultant(g_terms):
    # G = sum_k g_k(lambda, S) w^k; at each integer lambda = t the norm is
    # res_w(1 + w^2 - t S, G(t, S, w)), taken in (x, y) = (S, w)
    norm = _norm_over_w([BP(terms).rows for terms in g_terms])
    for t in range(-2, 3):
        g_t = {}
        for k, terms in enumerate(g_terms):
            for (a, b), c in terms.items():
                g_t[b, k] = g_t.get((b, k), 0) + c * t ** a
        G_t = BP(g_t)
        if G_t.is_zero:
            assert all(algebra._peval(r, t, 1) == 0 for r in norm)
            continue
        E_t = BP({(0, 0): 1, (0, 2): 1, (1, 0): -t})
        at_t = algebra._pnorm([algebra._peval(r, t, 1) for r in norm])
        assert at_t == resultant(E_t, G_t, "y")


def test_eliminate_semicircle():
    curve = rank_one_eliminate(SEMICIRCLE_RELATION, constant_kernel())
    assert curve == BP({(0, 2): 1, (1, 1): -1, (0, 0): 1})


def test_eliminate_two_point():
    # S_f = (m-1)/(m(m-2)) for the profile (delta_0 + delta_2)/2,
    # as the relation v m(m-2) - (m-1) = 0
    sf = BP({(2, 1): 1, (1, 1): -2, (1, 0): -1, (0, 0): 1})
    curve = rank_one_eliminate(sf, two_point_kernel())
    want = BP({(2, 2): 4, (3, 1): -1, (1, 1): -4, (2, 0): 1, (0, 0): 1})
    assert curve.proportional_to(want)


def test_eliminate_compass_quartic():
    curve = rank_one_eliminate(COMPASS_RELATION,
                               kernel_from_filter(compass_filter()))
    assert curve.proportional_to(COMPASS_QUARTIC)


def test_eliminate_solves_once_and_returns_its_certificate(monkeypatch):
    kern = kernel_from_filter(compass_filter())
    sizes = []
    path = colorsolve.stieltjes_path

    def spy(kern, lams):
        sizes.append(len(lams))
        return path(kern, lams)

    monkeypatch.setattr(colorsolve, "stieltjes_path", spy)
    cert = {}
    curve = rank_one_eliminate(COMPASS_RELATION, kern, certificate=cert)
    assert sizes == [12]
    assert cert["samples"] == 12 and cert["radius"] == 10.0
    assert cert["residual"] < 1e-10
    monkeypatch.undo()
    samples = colorsolve.circle_points(10.0, 12)
    assert cert["residual"] == verify_curve(curve, kern, samples)


def test_eliminate_interface_errors():
    with pytest.raises(TypeError):
        rank_one_eliminate("not a relation", constant_kernel())
    with pytest.raises(ValueError):
        rank_one_eliminate(BP({(2, 0): 1, (0, 0): -1}), constant_kernel())


def test_eliminate_wrong_kernel_rejected():
    # the semicircle relation cannot certify against the compass kernel
    with pytest.raises(RuntimeError):
        rank_one_eliminate(SEMICIRCLE_RELATION,
                           kernel_from_filter(compass_filter()))


@pytest.mark.parametrize("relation, named", [
    (BP({(1, 1): 1, (0, 0): -1}), "(lambdaS - 1)^1"),
    (BP({(2, 2): 1, (1, 1): -4, (0, 0): 1}),
     "(lambda^2S^2 - 4*lambdaS + 1)^2")])
def test_eliminate_single_power_of_w(relation, named):
    # v m - 1 and v^2 m^2 - 4 v m + 1 put every term on one power of w, so
    # G = g0 and the norm is g0^2: the w = 0 branch divides out all but
    # one copy of lambda S - 1, and any other factor is named squared
    with pytest.raises(RuntimeError, match=re.escape(named)):
        rank_one_eliminate(relation, constant_kernel())


def piecewise_rank_one_kernel(profile) -> Kernel:
    """s = f(x) f(y), f piecewise constant on equal intervals, band 0."""
    n = len(profile)
    part = IntervalPartition(tuple(Fraction(a, n) for a in range(n + 1)))
    return Kernel(part, 0, {(0, 0, a, b): profile[a] * profile[b]
                            for a in range(n) for b in range(n)})


def profile_relation(profile) -> BivariatePolynomial:
    """v den(m) - num(m) = 0 for S_f(m) = mean of 1/(m - f_i)."""
    one = BP({(0, 0): 1})
    lin = [BP({(1, 0): 1, (0, 0): -f}) for f in profile]
    den = math.prod(lin, start=one)
    num = sum((math.prod(lin[:i] + lin[i + 1:], start=one)
               for i in range(len(lin))), BP({}))
    return BP({(0, 1): 1}) * den - num * Fraction(1, len(lin))


def test_eliminate_four_valued_profile():
    sp = pytest.importorskip("sympy")
    profile = [Fraction(1, 2), Fraction(3, 4), Fraction(5, 4), Fraction(3, 2)]
    rel = profile_relation(profile)
    t0 = time.monotonic()
    curve = rank_one_eliminate(rel, piecewise_rank_one_kernel(profile))
    elapsed = time.monotonic() - t0
    assert curve.degree("y") == 5

    # sympy: the resultant in w of 1 + w^2 - lam*S and R(lam/w, S*w) w^deg_m R,
    # then its squarefree part over Q(lam), less the factor lam*S - 1 that
    # the point w = 0, S = 1/lam puts into every such resultant.
    lam, S, w, m, v = sp.symbols("lam S w m v")
    R = _sympy_expr(rel, m, v)
    G = sp.expand(R.subs({m: lam / w, v: S * w}) * w ** rel.degree("x"))
    res = sp.resultant(1 + w ** 2 - lam * S, G, w)
    field = sp.QQ.frac_field(lam)
    part, rem = sp.Poly(res, S, domain=field).sqf_part().div(
        sp.Poly(lam * S - 1, S, domain=field))
    assert rem.is_zero
    want = sp.Poly(sp.numer(sp.together(part.as_expr())), S).primitive()[1]
    got = _sympy_expr(curve, lam, S)
    ratio = sp.cancel(want.as_expr() / got)
    assert ratio.is_Rational and ratio != 0
    assert elapsed < 10.0


def test_verify_curve_accepts_right_curve():
    kern = kernel_from_filter(compass_filter())
    lams = [complex(10 * math.cos(a), 10 * math.sin(a))
            for a in (0.3, 1.1, 2.0, 4.2)]
    assert verify_curve(COMPASS_QUARTIC, kern, lams) < 1e-10


def test_verify_curve_flags_wrong_curve():
    wrong = BP({(0, 2): 1, (1, 1): -1, (0, 0): 2})    # S^2 - lam S + 2
    resid = verify_curve(wrong, constant_kernel(), [3.0])
    assert resid >= 0.5
    with pytest.raises(ValueError):
        verify_curve(wrong, constant_kernel(), [])


@pytest.mark.parametrize("scale", [Fraction(1, 10 ** 12), -3, 10 ** 20])
def test_verify_curve_scores_the_normalized_curve(scale):
    # the residual |F| / max(1, |lc_y F|) moves with F's scale; a scaled
    # curve is the same curve and scores the same
    wrong = BP({(0, 2): 1, (1, 1): -1, (0, 0): 2})
    lams = [3.0, 2 + 1j]
    assert verify_curve(wrong * scale, constant_kernel(), lams) == \
        verify_curve(wrong, constant_kernel(), lams)


@pytest.mark.parametrize("curve, normal", [
    (BP({}), "0"),
    (BP({(0, 2): Fraction(1, 10 ** 12), (0, 0): Fraction(-2, 10 ** 12)}), "1"),
    (BP({(0, 2): 1, (0, 0): -2}), "1"),
    (BP({(3, 0): Fraction(1, 10 ** 38)}), "1")])
def test_verify_curve_refuses_a_curve_that_does_not_involve_S(curve, normal):
    # these passed with residuals 0, 2e-12 and ~1e-35; S^2 - 2 unscaled
    # failed at 2.0: none of them says anything about S
    with pytest.raises(ValueError, match=re.escape(
            f"normalizes to {normal!r}, which does not involve S")):
        verify_curve(curve, constant_kernel(), [3.0])


def _convolve(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, u in enumerate(a):
        for j, v in enumerate(b):
            out[i + j] += u * v
    while out and out[-1] == 0:
        out.pop()
    return out


@st.composite
def y_polys(draw, max_dy=2):
    dy = draw(st.integers(1, max_dy))
    lead = draw(st.sampled_from([1, 2, -1]))
    coeffs = {(0, dy): Fraction(lead)}
    for _ in range(draw(st.integers(0, 4))):
        dx = draw(st.integers(0, 2))
        d = draw(st.integers(0, dy - 1))
        coeffs[(dx, d)] = coeffs.get((dx, d), Fraction(0)) + \
            draw(st.fractions(min_value=Fraction(-3), max_value=Fraction(3),
                              max_denominator=2))
    return BP(coeffs)


@settings(max_examples=60, deadline=None)
@given(y_polys(), y_polys(), y_polys())
def test_resultant_multiplicative(p, q, r):
    lhs = resultant(p * q, r, "y")
    rhs = _convolve(resultant(p, r, "y") or [Fraction(0)],
                    resultant(q, r, "y") or [Fraction(0)])
    assert lhs == rhs


@settings(max_examples=40, deadline=None)
@given(y_polys(max_dy=1), y_polys(), y_polys())
def test_resultant_shared_factor_vanishes(shared, p, q):
    assert resultant(p * shared, q * shared, "y") == []


def _sympy_expr(f, x, y):
    return sum((v * x ** i * y ** j for (i, j), v in f.terms().items()), 0)


def _to_bp(sp, expr, x, y):
    """A sympy polynomial in x, y with rational coefficients, as a BP."""
    poly = sp.Poly(sp.numer(sp.together(expr)), x, y)
    return BP({k: Fraction(int(c.p), int(c.q)) for k, c in poly.terms()})


@settings(max_examples=30, deadline=None)
@given(y_polys(), y_polys(), y_polys())
def test_squarefree_factors_match_sympy(a, b, c):
    sp = pytest.importorskip("sympy")
    x, y = sp.symbols("x y")
    f = a * b * b * c * c * c
    expr = _sympy_expr(f, x, y)
    _, want = sp.Poly(expr, y, domain=sp.QQ.frac_field(x)).sqf_list()
    want = sorted((k, _to_bp(sp, g.as_expr(), x, y).normalized().to_entries())
                  for g, k in want)
    got = sorted((k, g.normalized().to_entries())
                 for g, k in _squarefree_factors(f))
    assert got == want


fractions = st.fractions(min_value=Fraction(-3), max_value=Fraction(3),
                         max_denominator=3)


@st.composite
def bivariates(draw, max_deg=3):
    degree = st.integers(0, max_deg)
    terms = draw(st.lists(st.tuples(degree, degree, fractions),
                          min_size=1, max_size=6))
    return BP.from_entries(terms)


def _sympy_coeffs(sp, expr, var):
    """Ascending Fraction coefficients of a sympy polynomial in var."""
    coeffs = sp.Poly(expr, var).all_coeffs()[::-1]
    out = [Fraction(int(c.p), int(c.q)) for c in coeffs]
    while out and out[-1] == 0:
        out.pop()
    return out


@settings(max_examples=40, deadline=None)
@given(bivariates(), bivariates(), st.sampled_from("xy"))
def test_resultant_matches_sympy(p, q, var):
    sp = pytest.importorskip("sympy")
    assume(not p.is_zero and not q.is_zero)
    assume(max(p.degree(var), q.degree(var)) >= 1)
    x, y = sp.symbols("x y")
    elim, other = (x, y) if var == "x" else (y, x)
    P, Q = _sympy_expr(p, x, y), _sympy_expr(q, x, y)
    m, n = p.degree(var), q.degree(var)
    # sympy's resultant(P, Q) with deg P < deg Q is the Sylvester
    # determinant of (Q, P): res(y - 2, y^3 + 1) comes out as -9, not 9
    want = sp.resultant(P, Q, elim) if m >= n else \
        (-1) ** (m * n) * sp.resultant(Q, P, elim)
    assert resultant(p, q, var) == _sympy_coeffs(sp, want, other)


@settings(max_examples=40, deadline=None)
@given(bivariates(), st.sampled_from("xy"))
def test_discriminant_matches_sympy(f, var):
    sp = pytest.importorskip("sympy")
    assume(f.degree(var) >= 1)
    x, y = sp.symbols("x y")
    elim, other = (x, y) if var == "x" else (y, x)
    want = sp.discriminant(_sympy_expr(f, x, y), elim)
    assert discriminant(f, var) == _sympy_coeffs(sp, want, other)


# leading coefficients of the drawn factors: negative and non-integer ones
# too, so a Sturm chain that flips signs with lc^k shows
leads = st.sampled_from([Fraction(1), Fraction(-1), Fraction(3),
                         Fraction(-5, 2), Fraction(2, 3)])
scales = st.sampled_from([Fraction(-1), Fraction(-3, 2), Fraction(7, 5),
                          Fraction(-2, 9)])


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.lists(fractions, min_size=1, max_size=4), leads),
                min_size=1, max_size=3), st.booleans())
def test_real_roots_match_sympy(factors, repeat):
    """Factors with any leading coefficient, the first one squared when
    repeat is drawn."""
    sp = pytest.importorskip("sympy")
    p = [Fraction(1)]
    for f, lead in factors + factors[:repeat]:
        p = _convolve(p, f + [lead])
    x = sp.symbols("x")
    poly = sp.Poly([sp.Rational(c.numerator, c.denominator)
                    for c in reversed(p)], x).sqf_part()
    intervals = real_roots(p)
    assert len(intervals) == poly.count_roots()
    for iv in intervals:
        lo = sp.Rational(iv.lo.numerator, iv.lo.denominator)
        hi = sp.Rational(iv.hi.numerator, iv.hi.denominator)
        assert poly.count_roots(lo, hi) == 1


def _fraction_bisect_root(pf, lo, hi):
    """algebra._bisect_root as first written, on Fractions: the reference."""
    def sign(x):
        v = sum(c * x ** i for i, c in enumerate(pf))
        return (v > 0) - (v < 0)

    slo = sign(lo)
    while hi - lo > Fraction(1, 10 ** 12):
        mid = (lo + hi) / 2
        s = sign(mid)
        if s == 0:
            return RootInterval(mid, mid)
        lo, hi = (mid, hi) if s == slo else (lo, mid)
    return RootInterval(lo, hi)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.fractions(min_value=Fraction(-4), max_value=Fraction(4),
                             max_denominator=8), max_size=5, unique=True),
       st.integers(-12, 12))
def test_real_roots_match_the_fraction_bisection(roots, d):
    """Distinct rational roots, times x^2 - d unless d is a square: a
    squarefree polynomial.  Roots with a power-of-two denominator land
    on a midpoint, so the exact-root exit runs too."""
    p = [Fraction(1)]
    for r in roots:
        p = _convolve(p, [-r, Fraction(1)])
    if d < 0 or math.isqrt(d) ** 2 != d:
        p = _convolve(p, [Fraction(-d), Fraction(0), Fraction(1)])
    assume(len(p) > 1)
    with mock.patch.object(algebra, "_bisect_root", _fraction_bisect_root):
        want = real_roots(p)
    assert real_roots(p) == want


@pytest.mark.parametrize("pf, lo, hi, root", [
    ([-1, 2], Fraction(0), Fraction(1), Fraction(1, 2)),       # first midpoint
    ([-3, 8], Fraction(0), Fraction(1), Fraction(3, 8)),       # third
    ([-5, 12], Fraction(1, 3), Fraction(1, 2), Fraction(5, 12)),   # q = 6
    ([-1, 12], Fraction(0), Fraction(1, 3), Fraction(1, 12)),  # q = 3, second
])
def test_bisection_stops_on_an_exact_root(pf, lo, hi, root):
    got = _bisect_root(pf, lo, hi)
    assert got == RootInterval(root, root)
    assert got == _fraction_bisect_root(pf, lo, hi)


@settings(max_examples=40, deadline=None)
@given(st.lists(fractions, min_size=2, max_size=7),
       st.sampled_from([Fraction(-1), Fraction(-3, 2), Fraction(7, 5)]))
def test_real_roots_ignore_a_constant_factor(p, c):
    assume(any(p))
    assert real_roots([c * v for v in p]) == real_roots(p)


@settings(max_examples=40, deadline=None)
@given(bivariates(), bivariates(), st.sampled_from("xy"), scales, scales)
def test_resultant_and_discriminant_scale(p, q, var, a, b):
    """res(aP, bQ) = a^deg Q b^deg P res(P, Q), disc(aP) = a^(2n-2) disc(P)."""
    assume(not p.is_zero and not q.is_zero)
    m, n = p.degree(var), q.degree(var)
    assume(max(m, n) >= 1)
    assert resultant(p * a, q * b, var) == \
        [a ** n * b ** m * c for c in resultant(p, q, var)]
    if m >= 1:
        assert discriminant(p * a, var) == \
            [a ** (2 * m - 2) * c for c in discriminant(p, var)]


@settings(max_examples=60, deadline=None)
@given(y_polys(), st.integers(1, 2), st.integers(0, 3), fractions)
def test_cancelled_top_terms_are_canonical(p, dx, dy, c):
    assume(c != 0)
    top = BP({(p.degree("x") + dx, dy): c})
    q = (p + top) - top
    assert q == p and hash(q) == hash(p)
    assert q.degree("x") == p.degree("x") and q.degree("y") == p.degree("y")
    entries = p.to_entries()
    assert BP.from_entries(entries) == p
    cancelled = BP.from_entries(
        entries + [[p.degree("x") + dx, dy, c], [p.degree("x") + dx, dy, -c]])
    assert cancelled == p and hash(cancelled) == hash(p)
    assert cancelled.degree("x") == p.degree("x")
