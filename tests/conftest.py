"""Shared fixtures: the kernels and filters every suite leans on."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import strategies as st

from filtered_spectra.kernel import (Filter, IntervalPartition, Kernel,
                                     compass_filter, constant_kernel,
                                     kernel_from_filter, kernel_grid_matrix,
                                     unit_partition)
from filtered_spectra.matrixlab import _draw, _site_cells
from filtered_spectra.rng import gaussian_entries


def pair_product(z, w):
    """The product of two complex numbers given as (re, im) pairs."""
    return z[0] * w[0] - z[1] * w[1], z[0] * w[1] + z[1] * w[0]


@pytest.fixture(scope="session")
def compass():
    return compass_filter()


@pytest.fixture(scope="session")
def compass_kernel():
    return kernel_from_filter(compass_filter())


@pytest.fixture(scope="session")
def semicircle():
    return constant_kernel()


def rank_two_kernel() -> Kernel:
    """s(c,c') = f(c)f(c') + g(c)g(c') on two intervals, band 1.

    f(x,t) = a(x)(1 + cos t) with a = (1/2, 1/4); g(x,t) = b(x) with
    b = (1/3, 1).  Nonnegative by construction and genuinely rank two,
    so it exercises every code path the factorized kernels skip.
    """
    part = IntervalPartition((Fraction(0), Fraction(1, 3), Fraction(1)))
    a = (Fraction(1, 2), Fraction(1, 4))
    b = (Fraction(1, 3), Fraction(1))
    cos = {-1: Fraction(1, 2), 0: Fraction(1), 1: Fraction(1, 2)}
    coeffs = {}
    for ia in range(2):
        for ib in range(2):
            for i, ci in cos.items():
                for j, cj in cos.items():
                    coeffs[(i, j, ia, ib)] = a[ia] * a[ib] * ci * cj
            coeffs[(0, 0, ia, ib)] += b[ia] * b[ib]
    return Kernel(part, 1, {key: (v, 0) for key, v in coeffs.items()})


def two_point_kernel() -> Kernel:
    """s(c,c') = f(x)f(x') with f = 0 on [0,1/2), 2 on [1/2,1]; band 0.

    The profile distribution of f is (delta_0 + delta_2)/2.
    """
    part = IntervalPartition((Fraction(0), Fraction(1, 2), Fraction(1)))
    f = (Fraction(0), Fraction(2))
    coeffs = {}
    for ia in range(2):
        for ib in range(2):
            v = f[ia] * f[ib]
            if v:
                coeffs[(0, 0, ia, ib)] = (v, 0)
    return Kernel(part, 0, coeffs)


def seeded_two_interval_kernel(seed: int = 20260819) -> Kernel:
    """A randomized valid two-interval kernel; fixed seed => deterministic.

    Built as f (x) f + g (x) g with f(x,t) = a(x)(1 + alpha cos t) and
    |alpha| <= 1, so every draw is exchange/conjugate symmetric and
    pointwise nonnegative whatever the dice say.
    """
    rng = random.Random(seed)

    def frac(lo_eighths, hi_eighths):
        return Fraction(rng.randint(lo_eighths, hi_eighths), 8)

    t = rng.choice([Fraction(1, 4), Fraction(1, 3), Fraction(2, 5),
                    Fraction(1, 2)])
    part = IntervalPartition((Fraction(0), t, Fraction(1)))
    a = (frac(1, 16), frac(1, 16))
    b = (frac(0, 12), frac(0, 12))
    alpha = frac(-8, 8)
    cos = {-1: alpha / 2, 0: Fraction(1), 1: alpha / 2}
    coeffs = {}
    for ia in range(2):
        for ib in range(2):
            for i, ci in cos.items():
                for j, cj in cos.items():
                    key = (i, j, ia, ib)
                    coeffs[key] = coeffs.get(key, 0) + a[ia] * a[ib] * ci * cj
            coeffs[(0, 0, ia, ib)] += b[ia] * b[ib]
    return Kernel(part, 1, {key: (v, 0) for key, v in coeffs.items()})


def tilted_circle_kernel() -> Kernel:
    """s = f (x) f on one interval, f(t) = 1 + Re((1+i) exp(it)) / 4.

    f is positive and neither even nor odd in t, so s_10 = (1+i)/8 is
    not real: the exact routes carry imaginary parts that must cancel.
    """
    f = {0: (1, 0), 1: (Fraction(1, 8), Fraction(1, 8)),
         -1: (Fraction(1, 8), Fraction(-1, 8))}
    return Kernel(unit_partition(), 1, {(i, j, 0, 0): pair_product(f[i], f[j])
                                        for i in f for j in f})


def coprime_kernel() -> Kernel:
    """s = 1/3 + (2/7) cos(t1 - t2): coefficient denominators 3 and 7."""
    return Kernel(unit_partition(), 1, {
        (0, 0, 0, 0): (Fraction(1, 3), 0),
        (1, -1, 0, 0): (Fraction(1, 7), 0),
        (-1, 1, 0, 0): (Fraction(1, 7), 0)})


# the kernels the solver's branch test and the moment routes' integer
# tests run on: real and complex coefficients, one to three intervals,
# equal and unequal lengths, bands 0 to 2
BRANCH_KERNELS = {
    "compass": lambda: kernel_from_filter(compass_filter()),
    "constant": constant_kernel, "rank-two": rank_two_kernel,
    "two-point": two_point_kernel, "tilted": tilted_circle_kernel,
    "coprime": coprime_kernel, "seeded": seeded_two_interval_kernel,
    **{f"seeded-{seed}": (lambda seed=seed: seeded_two_interval_kernel(seed))
       for seed in (0, 1, 2, 3, 7)},
}


@st.composite
def small_filters(draw):
    """A random filter with taps in [-1, 1]^2 and values of denominator <= 3."""
    pairs = draw(st.lists(
        st.tuples(st.integers(-1, 1), st.integers(-1, 1),
                  st.fractions(min_value=Fraction(-1), max_value=Fraction(1),
                               max_denominator=3)),
        min_size=1, max_size=3))
    taps = {}
    for i, j, v in pairs:
        taps[(i, j)] = v
        taps[(-j, -i)] = v
    if all(v == 0 for v in taps.values()):
        taps[(1, 1)] = Fraction(1, 2)
        taps[(-1, -1)] = Fraction(1, 2)
    return Filter(taps)


# The two samplers as first written: whole-triangle index arrays, a full
# Y field, one full-size temporary per tap and mirrors by addition.  The
# library's samplers must match them bit for bit.

def reference_filtered_wigner(cfg, h, trial=0):
    N = cfg.N
    r, c = np.triu_indices(N, 1)
    Y = np.zeros((N, N))
    Y[r, c] = Y[c, r] = _draw(cfg, trial, r + 1, c + 1)
    X = np.zeros((N, N))
    for (a, b), weight in sorted(h.taps.items()):
        r0, r1 = max(a, 0), N + min(a, 0)
        c0, c1 = max(-b, 0), N + min(-b, 0)
        if r0 < r1 and c0 < c1:
            X[r0:r1, c0:c1] += float(weight) * Y[r0 - a:r1 - a,
                                                 c0 + b:c1 + b]
    return np.triu(X) + np.triu(X, 1).T


def reference_colored_gaussian(kern, N, seed, trial=0):
    n2 = N * N
    ps, qs = np.divmod(np.arange(n2), N)
    site = _site_cells(kern.partition, ps, N) * N + qs
    smat = kernel_grid_matrix(kern, N)[np.ix_(site, site)]
    sup = float(np.max(np.abs(smat)))
    if sup > 0:
        smat[np.abs(smat) < 1e-12 * sup] = 0.0
    smat[smat < 0] = 0.0
    amp = np.sqrt(smat)
    r, c = np.triu_indices(n2)
    M = np.zeros((n2, n2))
    M[r, c] = amp[r, c] * gaussian_entries(seed, trial, r, c, 1)
    M[np.diag_indices(n2)] *= math.sqrt(2.0)
    return M + np.triu(M, 1).T
