"""Moment recursion against the enumeration oracle and pinned values."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from filtered_spectra import moments
from filtered_spectra.combinat import _forests, moments_by_enumeration
from filtered_spectra.kernel import (IntervalPartition, Kernel,
                                     compass_filter, constant_kernel,
                                     kernel_from_filter, unit_partition)
from filtered_spectra.moments import theoretical_moments
from conftest import BRANCH_KERNELS, coprime_kernel, rank_two_kernel, \
    seeded_two_interval_kernel, small_filters, tilted_circle_kernel, \
    two_point_kernel


def _phi_psi(kern, nmax):
    """Phi_1..Phi_nmax and Psi_1..Psi_nmax, each as (degree, rows).

    rows[a][d + degree] is the coefficient of xi^d on interval a, an
    (re, im) pair of Fractions: the recursion's rows Phi'_n and Psi'_n
    divided by L^((n-1)/2) and L^((n+1)/2).
    """
    L, phis, psis = moments._scaled_recursion(kern, nmax, moments.DEGREE_CAP)

    def unscale(f, scale):
        d, re_rows, im_rows = f
        return d, [[(Fraction(x, scale), Fraction(y, scale))
                     for x, y in zip(rr, ir)]
                   for rr, ir in zip(re_rows, im_rows)]

    return ([unscale(f, L ** ((n - 1) // 2))
             for n, f in enumerate(phis, start=1)],
            [unscale(f, L ** ((n + 1) // 2))
             for n, f in enumerate(psis, start=1)])


def _mean(kern, f):
    """<P, f>: the constant coefficients weighted by interval length, as
    an (re, im) pair."""
    d, rows = f
    return tuple(sum(w * row[d][part]
                     for w, row in zip(kern.partition.lengths, rows))
                 for part in (0, 1))


def test_semicircle_moments_exact():
    ms = theoretical_moments(constant_kernel(), 12)
    assert ms == [0, 1, 0, 2, 0, 5, 0, 14, 0, 42, 0, 132]
    assert all(isinstance(m, Fraction) for m in ms)


def test_compass_moments_exact():
    ms = theoretical_moments(kernel_from_filter(compass_filter()), 8)
    assert ms == [0, 1, 0, 3, 0, Fraction(47, 4), 0, Fraction(209, 4)]


def test_two_point_moments_exact():
    # profile (delta_0 + delta_2)/2: m_2k = 2^k Catalan(k) / 2
    ms = theoretical_moments(two_point_kernel(), 8)
    assert ms == [0, 1, 0, 4, 0, 20, 0, 112]


def test_recursion_matches_enumeration_rank_two():
    kern = rank_two_kernel()
    assert theoretical_moments(kern, 8) == moments_by_enumeration(kern, 8)


def test_recursion_matches_enumeration_seeded():
    kern = seeded_two_interval_kernel()
    assert theoretical_moments(kern, 8) == moments_by_enumeration(kern, 8)


@pytest.mark.parametrize("seed", range(8))
def test_recursion_matches_enumeration_seeded_kernels(seed):
    kern = seeded_two_interval_kernel(seed)
    assert theoretical_moments(kern, 10) == moments_by_enumeration(kern, 10)


def test_even_moments_positive_odd_zero():
    for kern in (rank_two_kernel(), two_point_kernel()):
        ms = theoretical_moments(kern, 10)
        assert all(ms[k] == 0 for k in range(0, 10, 2))   # m_1, m_3, ...
        assert all(ms[k] > 0 for k in range(1, 10, 2))


def test_phi_psi_shapes_and_bounds():
    kern = kernel_from_filter(compass_filter())
    phis, psis = _phi_psi(kern, 6)
    assert _mean(kern, phis[0]) == (1, 0)               # Phi_1 = 1
    assert _mean(kern, psis[0]) == (kern.l1_norm(), 0)  # integral of s
    A = kern.amplitude()
    for n, phi in enumerate(phis, start=1):
        assert 0 <= float(_mean(kern, phi)[0]) <= A ** (n - 1)
    for degree, _ in psis:
        assert degree <= kern.band


def test_nice_function_algebra():
    """Products, sums and pairings as the recursion forms them, on the compass.

    s = (xi^2 + 2 + conj xi^2)(eta^2 + 2 + conj eta^2) / 4.
    """
    phis, psis = _phi_psi(kernel_from_filter(compass_filter()), 5)
    half, quarter = Fraction(1, 2), Fraction(1, 4)
    assert all(y == 0 for f in phis + psis for row in f[1] for _, y in row)
    phis, psis = ([(d, [[x for x, _ in row] for row in rows])
                   for d, rows in fs] for fs in (phis, psis))
    assert [d for d, _ in phis] == [0, 0, 2, 0, 4]
    assert phis[0][1] == [[1]] and phis[1][1] == [[0]]
    assert psis[0][1] == [[half, 0, 1, 0, half]]             # s_{i,0}
    assert phis[2][1] == psis[0][1]                          # Psi_1 Phi_1
    assert psis[2][1] == [[3 * quarter, 0, 3 * half, 0, 3 * quarter]]
    # Phi_5 = Psi_1^2 + Psi_3, whose mean is m_4 = 3
    assert phis[4][1] == [[quarter, 0, 7 * quarter, 0, 3, 0,
                           7 * quarter, 0, quarter]]


def test_pair_with_kernel_semicircle():
    """s = 1 pairs every Phi_n to its mean: Psi_n = Phi_n = Catalan."""
    kern = constant_kernel()
    phis, psis = _phi_psi(kern, 7)
    assert [d for d, _ in phis + psis] == [0] * 14
    catalan = [(m, 0) for m in (1, 0, 1, 0, 2, 0, 5)]
    assert [_mean(kern, f) for f in phis] == catalan
    assert [_mean(kern, f) for f in psis] == catalan


def test_degree_cap_refuses():
    kern = kernel_from_filter(compass_filter())
    with pytest.raises(ValueError,
                       match=r"^Phi_11 would have degree 10 > cap 8$"):
        moments._scaled_recursion(kern, 12, 8)
    _, phis, _ = moments._scaled_recursion(kern, 11, 10)    # at the cap
    assert phis[-1][0] == 10


def test_nonreal_moment_refused():
    # s = 1 + i is not a real kernel (it would give m_2 = s_00 = 1 + i):
    # Kernel refuses it, so no moment is ever non-real
    with pytest.raises(ValueError, match="not its conjugate"):
        Kernel(unit_partition(), {(0, 0, 0, 0): (1, 1)})


def test_mean_guard_fires_on_an_imaginary_part():
    # a valid kernel cannot reach the guard; it stays as an internal
    # invariant: on two intervals, imaginary parts +1 and -1 weighted
    # 1 and 2 do not cancel, and weighted 1 and 1 they do
    f = (0, [[3], [0]], [[1], [-1]])
    with pytest.raises(ValueError, match="^m_2 has an imaginary part$"):
        moments._mean([1, 2], f, "m_2")
    assert moments._mean([1, 1], f, "m_2") == 3


def _fraction_mean(kern, f):
    """moments._mean as first written, over the Fraction lengths: the
    reference for the integer weights."""
    d, re_rows, im_rows = f
    re, im = (sum((w * row[d] for w, row in
                   zip(kern.partition.lengths, rows)), Fraction(0))
              for rows in (re_rows, im_rows))
    if im != 0:
        raise ValueError("imaginary part")
    return re


@pytest.mark.parametrize("name", list(BRANCH_KERNELS))
def test_integer_means_match_the_fraction_means(name):
    kern = BRANCH_KERNELS[name]()
    L, phis, _ = moments._scaled_recursion(kern, 13, moments.DEGREE_CAP)
    assert theoretical_moments(kern, 12) == [
        _fraction_mean(kern, phis[k]) / L ** (k // 2) for k in range(1, 13)]
    L, table = _forests(kern, 4)
    assert moments_by_enumeration(kern, 8) == [
        0 if k % 2 else sum(n * _fraction_mean(kern, phi)
                            for n, phi in table[k // 2].values()) / L ** (k // 2)
        for k in range(1, 9)]


def _fraction_table(kern):
    """moments._scaled_table as first written, over Fractions: L is the
    lcm of the denominators of every len_b * s_ij(a, b), real and
    imaginary parts, and the table holds L times each."""
    w = kern.partition.lengths
    scaled = [(key, w[key[3]] * Fraction(re, kern.den),
               w[key[3]] * Fraction(im, kern.den))
              for key, (re, im) in kern.coeffs.items()]
    L = math.lcm(*(x.denominator for _, re, im in scaled for x in (re, im)))
    terms = [[] for _ in range(kern.partition.n)]
    for (i, j, a, b), re, im in scaled:
        terms[a].append((i, j, b, L * re, L * im))
    return L, terms


def _check_table(kern):
    L, terms = moments._scaled_table(kern)
    assert (L, terms) == _fraction_table(kern)
    assert all(type(x) is int for row in terms for t in row for x in t)


@pytest.mark.parametrize("name", list(BRANCH_KERNELS))
def test_integer_table_matches_the_fraction_table(name):
    _check_table(BRANCH_KERNELS[name]())


@st.composite
def unlike_tables(draw):
    """Complex tables with unlike denominators on up to four intervals of
    unlike lengths, each drawn entry closed under both symmetries, and
    s_00 = 1 on the first cell when every drawn entry is zero."""
    cuts = draw(st.sets(st.fractions(Fraction(1, 12), Fraction(11, 12),
                                     max_denominator=12), max_size=3))
    part = IntervalPartition((0, *sorted(cuts), 1))
    value = st.fractions(-2, 2, max_denominator=30)
    index = st.integers(0, part.n - 1)
    table = {}
    for (i, j, a, b), (re, im) in draw(st.dictionaries(
            st.tuples(st.integers(-2, 2), st.integers(-2, 2), index, index),
            st.tuples(value, value), max_size=8)).items():
        same = {(i, j, a, b), (j, i, b, a)}
        conj = {(-i, -j, a, b), (-j, -i, b, a)}
        if same & conj:             # an entry its own conjugate is real
            im = 0
        table |= dict.fromkeys(same, (re, im)) | dict.fromkeys(conj, (re, -im))
    if not any(re or im for re, im in table.values()):
        table[0, 0, 0, 0] = (1, 0)
    return Kernel(part, table)


@settings(max_examples=200, deadline=None)
@given(unlike_tables())
def test_integer_table_matches_the_fraction_table_on_unlike_denominators(kern):
    _check_table(kern)


def test_each_tree_must_be_real_not_only_its_level():
    # band 0 on two halves, s = [[0, 1+i], [2-i, 0]], neither real nor
    # symmetric.  At k = 4 the path's imaginary part (1/4) and the
    # cherry's (-1/4) would cancel, so the recursion, which sums the
    # level before it pairs, would accept m_4 = 9/8, and only the
    # oracle's per-tree check would refuse it.  Kernel refuses the table
    # first, and test_mean_guard_fires_on_an_imaginary_part keeps the
    # per-tree check honest
    part = IntervalPartition((Fraction(0), Fraction(1, 2), Fraction(1)))
    with pytest.raises(ValueError, match=r"entry \(0, 0, 0, 1\) breaks"):
        Kernel(part, {(0, 0, 0, 1): (1, 1), (0, 0, 1, 0): (2, -1)})


def test_recursion_matches_enumeration_nonreal_coefficients():
    kern = tilted_circle_kernel()
    assert any(im != 0 for _, im in kern.coeffs.values())
    fast = theoretical_moments(kern, 10)
    assert fast == moments_by_enumeration(kern, 10)
    assert all(isinstance(m, Fraction) for m in fast)


def test_recursion_matches_enumeration_coprime_denominators():
    kern = coprime_kernel()
    assert moments._scaled_table(kern)[0] == 21              # L = lcm(3, 7)
    fast = theoretical_moments(kern, 10)
    assert fast == moments_by_enumeration(kern, 10)
    assert fast[1] == Fraction(1, 3)                          # m_2 = s_00


def test_unequal_intervals_pinned():
    # seeded_two_interval_kernel(2) cuts [0, 1] at 1/4
    kern = seeded_two_interval_kernel(2)
    assert kern.partition.breakpoints[1] == Fraction(1, 4)
    assert theoretical_moments(kern, 10) == [
        0, Fraction(265, 1024), 0, Fraction(36827, 262144),
        0, Fraction(418595051, 4294967296),
        0, Fraction(674051491825, 8796093022208),
        0, Fraction(18736661697015885, 288230376151711744)]


@settings(max_examples=40, deadline=None)
@given(small_filters())
def test_moment_hankel_matrices_psd(h):
    kern = kernel_from_filter(h)
    ms = [Fraction(1)] + theoretical_moments(kern, 6)
    H = np.array([[float(ms[i + j]) for j in range(4)] for i in range(4)])
    eigs = np.linalg.eigvalsh(H)
    assert eigs.min() >= -1e-8


@settings(max_examples=15, deadline=None)
@given(small_filters())
def test_recursion_matches_enumeration_random_filters(h):
    kern = kernel_from_filter(h)
    assert theoretical_moments(kern, 6) == moments_by_enumeration(kern, 6)
