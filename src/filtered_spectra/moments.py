"""Fast moments via the Phi/Psi generating-function recursion.

The k-th moment of the limit law is <P, Phi_{k+1}> where the functions
Phi_n, Psi_n on color space satisfy

    Phi_1 = 1,
    Psi_n(c) = integral of s(c, c') Phi_n(c') P(dc'),
    Phi_n   = [n = 1] + sum over j + m = n - 1, j, m >= 1 of Psi_j * Phi_m,

with the bounds 0 <= Phi_n <= A^(n-1) and 0 <= Psi_n <= A^(n+1)/4 for
A = 2 ||s||_inf^(1/2).  Everything in sight is "nice": constant in the
spatial coordinate on each partition interval and a trigonometric
polynomial in the circle coordinate, so the recursion closes over an
exact finite representation.  (The a.e./null-set caveats that come with
defining Phi_n, Psi_n as elements of function spaces are invisible
here: we only ever touch the nice representatives.)

The pairing with s keeps Psi_n's Fourier degree at the kernel band K;
Phi degrees grow additively, and the recursion refuses (with an error,
never silent truncation) to exceed DEGREE_CAP.

Scaling.  The kernel's table is Gaussian integers (re, im) over one
denominator den, and W_b = D len_b is an int for D the lcm of the
interval lengths' denominators (IntervalPartition.weights).  Let L be
the lcm of the reduced denominators of every len_b * s_ij(a, b) =
W_b (re, im) / (D den).  Phi_n vanishes for even n, and for odd n
Phi'_n = L^((n-1)/2) Phi_n and Psi'_n = L^((n+1)/2) Psi_n have Gaussian
integer coefficients and satisfy the same recursion with the integer
table L * len_b * s_ij.  So the recursion runs on rows of Python ints,
and so does the mean: D <P, f> is an int, and theoretical_moments
builds one Fraction per moment, over D L^(k/2).  Phi and Psi are
internal: they exist only as these scaled rows, and theoretical_moments
is the module's one public operation.  The partition oracle (combinat)
evaluates each tree with the same product, pairing and mean.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .kernel import Kernel

__all__ = ["theoretical_moments"]

DEGREE_CAP = 256


# ---------------------------------------------------------------------------
# the scaled recursion over Gaussian integers
# ---------------------------------------------------------------------------
#
# A scaled function is (degree, re_rows, im_rows): rows of Python ints,
# one row of 2 * degree + 1 coefficients per interval.  Rows are never
# changed after they are made, so functions may share them.

def _scaled_table(kern: Kernel) -> tuple:
    """L and the pairing table L * len_b * s_ij(a, b) over Gaussian integers.

    With g the gcd of D den and every W_b re and W_b im, L = D den / g
    and the entry is W_b (re, im) / g; terms[a] lists (i, j, b, re, im).
    """
    D, W = kern.partition.weights
    M = D * kern.den
    g = math.gcd(M, *(W[key[3]] * x for key, v in kern.coeffs.items()
                      for x in v))
    terms = [[] for _ in range(kern.partition.n)]
    for (i, j, a, b), (re, im) in kern.coeffs.items():
        terms[a].append((i, j, b, W[b] * re // g, W[b] * im // g))
    return M // g, terms


def _trim(d: int, re_rows: list, im_rows: list) -> tuple:
    """Drop the outer coefficient pairs that are zero on every row."""
    rows = re_rows + im_rows
    cut = 0
    while cut < d and not any(r[cut] or r[-1 - cut] for r in rows):
        cut += 1
    if cut:
        re_rows = [r[cut:-cut] for r in re_rows]
        im_rows = [r[cut:-cut] for r in im_rows]
    return d - cut, re_rows, im_rows


def _conv_add(out: list, u: list, v: list, sign: int):
    """out += sign * (u convolved with v); u is the short factor."""
    if not any(v):
        return
    n = len(v)
    for t, x in enumerate(u):
        if x:
            x *= sign
            out[t:t + n] = [o + x * y for o, y in zip(out[t:t + n], v)]


def _mul(f: tuple, g: tuple) -> tuple:
    """Pointwise product: per-interval convolution, then trimmed."""
    (df, fre, fim), (dg, gre, gim) = f, g
    width = 2 * (df + dg) + 1
    re_rows, im_rows = [], []
    for ur, ui, vr, vi in zip(fre, fim, gre, gim):
        re, im = [0] * width, [0] * width
        _conv_add(re, ur, vr, 1)
        _conv_add(re, ui, vi, -1)
        _conv_add(im, ur, vi, 1)
        _conv_add(im, ui, vr, 1)
        re_rows.append(re)
        im_rows.append(im)
    return _trim(df + dg, re_rows, im_rows)


def _pair(terms: list, K: int, f: tuple) -> tuple:
    """c |-> sum over (i, j, b) of the table entry times f_b's coefficient -j.

    Circle integration picks out matching Fourier indices, so the result
    has degree at most the kernel band whatever deg(f).
    """
    d, fre, fim = f
    re_rows, im_rows = [], []
    for row_terms in terms:
        re, im = [0] * (2 * K + 1), [0] * (2 * K + 1)
        for i, j, b, sr, si in row_terms:
            if abs(j) <= d:
                vr, vi = fre[b][d - j], fim[b][d - j]
                re[i + K] += sr * vr - si * vi
                im[i + K] += sr * vi + si * vr
        re_rows.append(re)
        im_rows.append(im)
    return _trim(K, re_rows, im_rows)


def _sum(fs: list, d: int) -> tuple:
    """The sum at degree d, the largest of the terms' degrees (not trimmed)."""
    sums = []
    for part in (1, 2):
        rows = [[0] * (2 * d + 1) for _ in fs[0][part]]
        for f in fs:
            lo, hi = d - f[0], d + f[0] + 1
            for row, frow in zip(rows, f[part]):
                row[lo:hi] = [x + y for x, y in zip(row[lo:hi], frow)]
        sums.append(rows)
    return d, sums[0], sums[1]


def _scaled_recursion(kern: Kernel, nmax: int, degree_cap: int) -> tuple:
    """L, then Phi'_n = L^((n-1)/2) Phi_n and Psi'_n = L^((n+1)/2) Psi_n.

    Phi_n vanishes for even n: Phi_2 is an empty sum, and every term
    Psi_j Phi_m of a later even one has j or m even.  So only odd n are
    computed, and the exponents are whole.  Scaled, Phi'_n is the sum of
    Psi'_j Phi'_m over odd j + m = n - 1, and Psi'_n pairs Phi'_n with the
    table L * len_b * s_ij: no division anywhere.
    """
    if nmax < 1:
        raise ValueError("nmax must be >= 1")
    L, terms = _scaled_table(kern)
    nI = kern.partition.n
    zero = (0, [[0]] * nI, [[0]] * nI)
    phis, psis = [None, (0, [[1]] * nI, [[0]] * nI)], [None]
    for n in range(1, nmax + 1):
        if n % 2 == 0:
            phis.append(zero)
            psis.append(zero)
            continue
        if n > 1:
            prods = [_mul(psis[j], phis[n - 1 - j]) for j in range(1, n - 1, 2)]
            d = max(p[0] for p in prods)
            if d > degree_cap:
                raise ValueError(
                    f"Phi_{n} would have degree {d} > cap {degree_cap}")
            phis.append(_sum(prods, d))
        psis.append(_pair(terms, kern.band, phis[n]))
    return L, phis[1:], psis[1:]


def _mean(weights: list, f: tuple, what: str) -> int:
    """D <P, f>: the sum over intervals a of W_a times f_a's coefficient 0.

    Integrating the angle keeps only the constant Fourier mode.  Raises
    ValueError naming `what` unless the imaginary part cancels exactly:
    an int sum over the weights W_a = D len_a is zero exactly when the
    sum over the lengths is.  A Kernel is real and symmetric by
    construction, so its moments and tree integrals are real and this
    guard is an internal invariant, not an input check.
    """
    d, re_rows, im_rows = f
    if sum(w * row[d] for w, row in zip(weights, im_rows)):
        raise ValueError(f"{what} has an imaginary part")
    return sum(w * row[d] for w, row in zip(weights, re_rows))


def theoretical_moments(kern: Kernel, kmax: int) -> list:
    """m_k = <P, Phi_{k+1}> for k = 1..kmax, as exact Fractions.

    Every imaginary part cancels identically, as _mean checks.
    """
    L, phis, _ = _scaled_recursion(kern, kmax + 1, DEGREE_CAP)
    D, weights = kern.partition.weights
    # phis[k] is Phi'_{k+1} = L^(k/2) Phi_{k+1}, and zero for odd k
    return [Fraction(_mean(weights, phis[k], f"moment m_{k}"), D * L ** (k // 2))
            for k in range(1, kmax + 1)]
