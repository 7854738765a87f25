"""Partition enumeration and the exact tree-integral evaluator."""

from collections import Counter
from fractions import Fraction
from itertools import product
from math import prod

import pytest
from hypothesis import given, settings

from filtered_spectra.combinat import (KMAX_GUARD, _dyck_paths, _forests,
                                       _partition_from_path, _plane_shape,
                                       enumerate_wigner_partitions,
                                       moments_by_enumeration, tree_integral)
from filtered_spectra.kernel import IntervalPartition, Kernel, \
    compass_filter, constant_kernel, kernel_from_filter
from conftest import coprime_kernel, pair_product, rank_two_kernel, \
    seeded_two_interval_kernel, small_filters, tilted_circle_kernel, \
    two_point_kernel

CATALAN = [1, 2, 5, 14, 42, 132, 429, 1430]


def test_counts_match_catalan():
    for ell, want in enumerate(CATALAN, start=1):
        assert len(enumerate_wigner_partitions(2 * ell)) == want


def test_odd_sizes_are_empty():
    for k in (1, 3, 5, 7, 9, 11, 13, 15):
        assert enumerate_wigner_partitions(k) == []


def test_partition_structure():
    """The Dyck-path bijection's invariants, on every partition served.

    Step i walks from part_of[i] to part_of[i + 1] (cyclically), so a
    walk over k/2 + 1 nonempty parts along k/2 edges is a tree tour.
    """
    for k in range(2, KMAX_GUARD + 1, 2):
        for w in enumerate_wigner_partitions(k):
            po = w.part_of
            assert w.k == k
            assert len(w.parts) == k // 2 + 1 and len(w.edges) == k // 2
            assert all(w.parts)
            assert sorted(x for p in w.parts for x in p) == \
                list(range(1, k + 1))
            steps = [(po[i], po[i % k + 1]) for i in range(1, k + 1)]
            assert all(a != b for a, b in steps)
            for i in range(1, k + 1):             # pairing involution
                assert w.sigma[i] != i
                assert w.sigma[w.sigma[i]] == i
            # each edge is crossed twice, by sigma-paired steps, once
            # each way
            crossings = {frozenset(e): [] for e in w.edges}
            assert len(crossings) == k // 2
            for i, step in enumerate(steps, start=1):
                assert frozenset(step) in crossings
                crossings[frozenset(step)].append(i)
            for pair in crossings.values():
                assert len(pair) == 2
                i, j = pair
                assert w.sigma[i] == j
                assert steps[j - 1] == steps[i - 1][::-1]


def test_forest_counts_are_the_partitions_per_shape():
    # n of a canonical tree with k/2 edges is the number of Wigner
    # partitions of k steps whose tree it is, so the n sum to Catalan(k/2)
    _, table = _forests(constant_kernel(), KMAX_GUARD // 2)
    for k in range(2, KMAX_GUARD + 1, 2):
        counts = {shape: n for shape, (n, _) in table[k // 2].items()}
        assert sum(counts.values()) == CATALAN[k // 2 - 1]
        assert Counter(_plane_shape(w)
                       for w in enumerate_wigner_partitions(k)) == counts


def test_partitions_all_distinct():
    seen = {w.part_of for w in enumerate_wigner_partitions(10)}
    assert len(seen) == CATALAN[4]


def test_tree_integrals_semicircle():
    k1 = constant_kernel()
    for w in enumerate_wigner_partitions(6):
        assert tree_integral(k1, w) == 1


def test_mirror_image_partitions_share_their_integral():
    # the Dyck path reversed and negated mirrors every vertex's children;
    # s(c, c') = s(c', c), so the integral is the same
    kern = tilted_circle_kernel()
    mirrored = 0
    for k in range(2, 11, 2):
        for path in _dyck_paths(k // 2):
            w = _partition_from_path(path)
            mirror = _partition_from_path(tuple(-u for u in reversed(path)))
            mirrored += w.part_of != mirror.part_of
            assert tree_integral(kern, w) == tree_integral(kern, mirror)
    assert mirrored > 0


def test_enumeration_moments_semicircle():
    ms = moments_by_enumeration(constant_kernel(), 10)
    assert ms == [0, 1, 0, 2, 0, 5, 0, 14, 0, 42]


def test_enumeration_moments_compass():
    ms = moments_by_enumeration(kernel_from_filter(compass_filter()), 8)
    assert ms == [0, 1, 0, 3, 0, Fraction(47, 4), 0, Fraction(209, 4)]


def test_kmax_guard():
    with pytest.raises(ValueError, match="desk-scale"):
        moments_by_enumeration(constant_kernel(), 40)


def _per_partition_moments(kern, kmax):
    """Each tree integral on its own (no shared memo), then summed."""
    return [sum((tree_integral(kern, w)
                 for w in enumerate_wigner_partitions(k)), Fraction(0))
            for k in range(1, kmax + 1)]


@pytest.mark.parametrize("kern", [
    constant_kernel(), kernel_from_filter(compass_filter()),
    tilted_circle_kernel(), coprime_kernel(), two_point_kernel(),
    seeded_two_interval_kernel()],
    ids=["constant", "compass", "tilted", "coprime", "two_point", "seeded"])
def test_shared_messages_equal_per_partition_sum(kern):
    shared = moments_by_enumeration(kern, 10)
    assert shared == _per_partition_moments(kern, 10)
    assert all(isinstance(m, Fraction) for m in shared)


def test_two_point_kernel_moments_exact():
    # two intervals, profile (delta_0 + delta_2)/2: m_2k = 2^k Catalan(k) / 2
    ms = moments_by_enumeration(two_point_kernel(), 10)
    assert ms == [0, 1, 0, 4, 0, 20, 0, 112, 0, 672]
    assert all(isinstance(m, Fraction) for m in ms)


@settings(max_examples=15, deadline=None)
@given(small_filters())
def test_shared_messages_equal_per_partition_sum_random_filters(h):
    kern = kernel_from_filter(h)
    assert moments_by_enumeration(kern, 10) == _per_partition_moments(kern, 10)


# ---------------------------------------------------------------------------
# the tree integral against its definition, with no shared arithmetic
# ---------------------------------------------------------------------------

def _labelled_sum(kern, w):
    """The module docstring's definition, term by term.

    Every interval of each part, weighted by its length, and every label
    f in [-K, K]^k with zero sum on each part, times the product over
    i < sigma(i) of s_{f(i), f(sigma(i))}(a_part(i), a_part(sigma(i))).
    """
    K, po, lengths = kern.band, w.part_of, kern.partition.lengths
    pairs = [(i, w.sigma[i]) for i in range(1, w.k + 1) if i < w.sigma[i]]
    labels = [f for f in product(range(-K, K + 1), repeat=w.k)
              if not any(sum(f[i - 1] for i in part) for part in w.parts)]
    s = {key: (Fraction(re, kern.den), Fraction(im, kern.den))
         for key, (re, im) in kern.coeffs.items()}
    re = im = 0
    for cells in product(range(kern.partition.n), repeat=len(w.parts)):
        weight = prod(lengths[a] for a in cells)
        for f in labels:
            term = (weight, 0)
            for i, j in pairs:
                term = pair_product(term, s.get(
                    (f[i - 1], f[j - 1], cells[po[i]], cells[po[j]]), (0, 0)))
            re, im = re + term[0], im + term[1]
    assert im == 0
    return re


def _rank_one(breakpoints, f) -> Kernel:
    """s(c, c') = f(c) f(c'), f[a] the Fourier coefficients on interval a."""
    part = IntervalPartition(tuple(Fraction(x) for x in breakpoints))
    band = max(abs(i) for fa in f for i in fa)
    return Kernel(part, band, {(i, j, a, b): (fa[i] * fb[j], 0)
                               for a, fa in enumerate(f) for i in fa
                               for b, fb in enumerate(f) for j in fb})


def cosine_step_kernel() -> Kernel:
    """f = 1 on [0, 1/2) and 1 + cos t on [1/2, 1]: s_01(0, 1) = 1/2 while
    s_10(0, 1) = 0, so swapping the table's two indices shows."""
    half = Fraction(1, 2)
    return _rank_one((0, half, 1), [{0: 1}, {-1: half, 0: 1, 1: half}])


@pytest.mark.parametrize("kern, kmax", [
    (tilted_circle_kernel(), 8), (coprime_kernel(), 8),
    (two_point_kernel(), 8), (seeded_two_interval_kernel(), 6),
    (rank_two_kernel(), 6), (cosine_step_kernel(), 6)],
    ids=["tilted", "coprime", "two_point", "seeded", "rank_two",
         "cosine_step"])
def test_tree_integral_is_the_labelled_sum(kern, kmax):
    for k in range(2, kmax + 1, 2):
        for w in enumerate_wigner_partitions(k):
            assert tree_integral(kern, w) == _labelled_sum(kern, w)


@pytest.mark.parametrize("breakpoints, profile", [
    ((0, Fraction(1, 2), 1), (0, 2)),
    ((0, Fraction(1, 3), Fraction(1, 2), 1), (Fraction(1, 2), 3, 1))],
    ids=["two_point", "three_piece"])
def test_band_zero_rank_one_integrals_factor_over_vertices(breakpoints,
                                                           profile):
    # s = f(x) f(x') puts one factor f per edge end on each vertex, and the
    # vertices' colors are independent: E M_pi = prod_v E f^deg(v)
    kern = _rank_one(breakpoints, [{0: v} for v in profile])
    lengths = kern.partition.lengths
    for k in range(2, 13, 2):
        for w in enumerate_wigner_partitions(k):
            degree = [0] * len(w.parts)
            for a, b in w.edges:
                degree[a] += 1
                degree[b] += 1
            assert tree_integral(kern, w) == prod(
                sum(ell * Fraction(v) ** d for ell, v in zip(lengths, profile))
                for d in degree)
