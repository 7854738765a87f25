"""Partition enumeration and the two tree-integral evaluators."""

from fractions import Fraction

import math

import pytest
from hypothesis import given, settings

from filtered_spectra.combinat import (enumerate_wigner_partitions,
                                       moments_by_enumeration, tree_integral)
from filtered_spectra.kernel import compass_filter, constant_kernel, \
    kernel_from_filter
from conftest import coprime_kernel, rank_two_kernel, small_filters, \
    tilted_circle_kernel, two_point_kernel

CATALAN = [1, 2, 5, 14, 42, 132, 429, 1430]


def test_counts_match_catalan():
    for ell, want in enumerate(CATALAN, start=1):
        assert len(enumerate_wigner_partitions(2 * ell)) == want


def test_odd_sizes_are_empty():
    for k in (1, 3, 5, 7, 9, 11, 13, 15):
        assert enumerate_wigner_partitions(k) == []


def test_partition_structure():
    for w in enumerate_wigner_partitions(8):
        assert w.k == 8
        assert len(w.edges) == len(w.parts) - 1       # tree on the parts
        assert sorted(x for p in w.parts for x in p) == list(range(1, 9))
        for i in range(1, 9):                         # pairing involution
            assert w.sigma[i] != i
            assert w.sigma[w.sigma[i]] == i


def test_partitions_all_distinct():
    seen = {w.part_of for w in enumerate_wigner_partitions(10)}
    assert len(seen) == CATALAN[4]


def test_tree_integrals_semicircle():
    k1 = constant_kernel()
    for w in enumerate_wigner_partitions(6):
        assert tree_integral(k1, w, mode="fourier-lattice", exact=True) == 1
        assert tree_integral(k1, w, mode="quadrature") == pytest.approx(1.0)


def test_tree_integral_modes_agree_on_compass():
    kc = kernel_from_filter(compass_filter())
    for k in (2, 4, 6):
        for w in enumerate_wigner_partitions(k):
            lat = tree_integral(kc, w, mode="fourier-lattice")
            quad = tree_integral(kc, w, mode="quadrature")
            assert quad == pytest.approx(lat, abs=1e-12)


def test_exact_mode_requires_lattice():
    w = enumerate_wigner_partitions(2)[0]
    with pytest.raises(ValueError):
        tree_integral(constant_kernel(), w, mode="quadrature", exact=True)
    with pytest.raises(ValueError):
        tree_integral(rank_two_kernel(), w, mode="fourier-lattice")
    with pytest.raises(ValueError):
        tree_integral(constant_kernel(), w, mode="simpson")


def test_enumeration_moments_semicircle():
    ms = moments_by_enumeration(constant_kernel(), 10, exact=True)
    assert ms == [0, 1, 0, 2, 0, 5, 0, 14, 0, 42]


def test_enumeration_moments_compass():
    ms = moments_by_enumeration(kernel_from_filter(compass_filter()), 8,
                                exact=True)
    assert ms == [0, 1, 0, 3, 0, Fraction(47, 4), 0, Fraction(209, 4)]


def test_kmax_guard():
    with pytest.raises(ValueError, match="desk-scale"):
        moments_by_enumeration(constant_kernel(), 40)


def _per_partition_moments(kern, kmax, mode, exact=False):
    """Each tree integral on its own (no shared messages), then summed."""
    out = []
    for k in range(1, kmax + 1):
        vals = [tree_integral(kern, w, mode=mode, exact=exact)
                for w in enumerate_wigner_partitions(k)]
        out.append(sum(vals, Fraction(0)) if exact else math.fsum(vals))
    return out


@pytest.mark.parametrize("kern", [
    constant_kernel(), kernel_from_filter(compass_filter()),
    tilted_circle_kernel(), coprime_kernel()],
    ids=["constant", "compass", "tilted", "coprime"])
def test_shared_messages_equal_per_partition_sum(kern):
    shared = moments_by_enumeration(kern, 10, exact=True)
    assert shared == _per_partition_moments(kern, 10, "fourier-lattice",
                                            exact=True)
    assert all(isinstance(m, Fraction) for m in shared)
    # the float path sums the same per-partition values, so it is bit-equal
    assert moments_by_enumeration(kern, 10) == \
        _per_partition_moments(kern, 10, "fourier-lattice")


def test_two_point_kernel_uses_quadrature():
    # two intervals: the lattice route (and so exact mode) does not apply
    kern = two_point_kernel()
    assert moments_by_enumeration(kern, 10) == \
        _per_partition_moments(kern, 10, "quadrature")
    with pytest.raises(ValueError, match="fourier-lattice"):
        moments_by_enumeration(kern, 4, exact=True)


@settings(max_examples=15, deadline=None)
@given(small_filters())
def test_shared_messages_equal_per_partition_sum_random_filters(h):
    kern = kernel_from_filter(h)
    assert moments_by_enumeration(kern, 10, exact=True) == \
        _per_partition_moments(kern, 10, "fourier-lattice", exact=True)
