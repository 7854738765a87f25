"""Moment recursion against the enumeration oracle; NiceFunction algebra."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from filtered_spectra.combinat import moments_by_enumeration
from filtered_spectra.kernel import (Filter, compass_filter, constant_kernel,
                                     kernel_from_filter, unit_partition)
from filtered_spectra.moments import (NiceFunction, phi_psi_recursion,
                                      theoretical_moments)
from conftest import rank_two_kernel, seeded_two_interval_kernel, \
    two_point_kernel


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
    fast = theoretical_moments(kern, 8)
    slow = moments_by_enumeration(kern, 8)
    for a, b in zip(fast, slow):
        assert a == pytest.approx(b, abs=1e-12)


def test_recursion_matches_enumeration_seeded():
    kern = seeded_two_interval_kernel()
    fast = theoretical_moments(kern, 8)
    slow = moments_by_enumeration(kern, 8)
    for a, b in zip(fast, slow):
        assert a == pytest.approx(b, abs=1e-11, rel=1e-11)


def test_even_moments_positive_odd_zero():
    for kern in (rank_two_kernel(), two_point_kernel()):
        ms = theoretical_moments(kern, 10)
        assert all(ms[k] == 0 for k in range(0, 10, 2))   # m_1, m_3, ...
        assert all(ms[k] > 0 for k in range(1, 10, 2))


def test_phi_psi_shapes_and_bounds():
    kern = kernel_from_filter(compass_filter())
    phis, psis = phi_psi_recursion(kern, 6)
    assert phis[0].mean() == 1                # Phi_1 = 1
    assert psis[0].mean() == kern.l1_norm()   # <P, Psi_1> = integral of s
    A = kern.amplitude()
    for n, phi in enumerate(phis, start=1):
        val = phi.mean()
        assert 0 <= float(val.re if hasattr(val, "re") else val) <= A ** (n - 1)
    for psi in psis:
        assert psi.degree <= kern.band


def test_nice_function_algebra():
    part = unit_partition()
    one = NiceFunction.constant(part, Fraction(1))
    two = NiceFunction.constant(part, Fraction(2))
    assert (one + two).mean() == 3
    assert (one * two).mean() == 2
    # xi + conj(xi) = 2 cos(theta): mean 0, square has mean 2
    f = NiceFunction(part, 1, [[Fraction(1), 0, Fraction(1)]])
    assert f.mean() == 0
    assert (f * f).mean() == 2
    grid = f.on_grid(8)
    assert grid.shape == (1, 8)
    assert grid[0, 0] == pytest.approx(2.0)
    assert np.max(np.abs(grid.imag)) < 1e-12


def test_nice_function_trim():
    part = unit_partition()
    f = NiceFunction(part, 2, [[0, Fraction(1), Fraction(1), Fraction(1), 0]])
    assert f.trim().degree == 1
    g = NiceFunction(part, 1, [[0, Fraction(5), 0]])
    assert g.trim().degree == 0
    assert g.values == [[Fraction(5)]]


def test_pair_with_kernel_semicircle():
    k1 = constant_kernel()
    one = NiceFunction.constant(k1.partition, Fraction(1))
    paired = one.pair_with_kernel(k1)
    assert paired.degree == 0
    assert paired.mean() == 1


def test_degree_cap_refuses():
    kern = kernel_from_filter(compass_filter())
    with pytest.raises(ValueError, match="degree"):
        phi_psi_recursion(kern, 12, degree_cap=8)


@st.composite
def small_filters(draw):
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
    assert theoretical_moments(kern, 6) == \
        moments_by_enumeration(kern, 6, exact=True)
