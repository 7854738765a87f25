"""Counter-based sampling, the two matrix models, and spectral statistics."""

import hashlib
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg

import filtered_spectra
from filtered_spectra import rng
from filtered_spectra.kernel import Filter, IntervalPartition, Kernel, \
    compass_filter, constant_kernel, kernel_from_filter
from filtered_spectra.matrixlab import (ESD, SampleConfig, _draw,
                                        _lapack_modules, _site_cells,
                                        eigenvalues_symmetric, esd_statistics,
                                        sample_colored_gaussian,
                                        sample_filtered_wigner)
from filtered_spectra.rng import (gaussian_entries, philox4x32_10,
                                  rademacher_entries, uniform_pair)
from conftest import (reference_colored_gaussian, reference_filtered_wigner,
                      tap_derivatives)


# Known-answer vectors for Philox4x32-10 (Random123's kat_vectors).
def test_philox_kat_zeros():
    out = philox4x32_10(0, 0, 0, 0, 0)
    assert [int(w) for w in out] == [0x6627e8d5, 0xe169c58d,
                                     0xbc57ac4c, 0x9b00dbd8]


def test_philox_kat_pi_digits():
    seed = (0x299f31d0 << 32) | 0xa4093822
    out = philox4x32_10(0x243f6a88, 0x85a308d3, 0x13198a2e, 0x03707344, seed)
    assert [int(w) for w in out] == [0xd16cfe09, 0x94fdcceb,
                                     0x5001e420, 0x24126ea1]


def test_philox_kat_all_ones():
    want = [0x408f276d, 0x41c83b0e, 0xa20bc7c6, 0x6d5451fd]
    ones = 0xffffffff
    out = philox4x32_10(ones, ones, ones, ones, 2 ** 64 - 1)
    assert [int(w) for w in out] == want
    # counters are taken mod 2^32
    assert [int(w) for w in philox4x32_10(-1, -1, -1, -1, 2 ** 64 - 1)] == want


def test_philox_broadcasts():
    c0 = np.array([0, 1, 2, 3])
    vec = philox4x32_10(c0, 5, 6, 7, 99)
    for t in range(4):
        one = philox4x32_10(t, 5, 6, 7, 99)
        assert all(int(vec[w][t]) == int(one[w]) for w in range(4))


def test_blocks_agree_with_small_calls():
    # a 2-D broadcast counter array that spans several blocks, against
    # one call per row, each well inside one block
    rows = np.arange(-3, 200)[:, None]
    cols = np.arange(0, 7 * 250, 7)[None, :]
    assert rows.size * cols.size > 3 * rng._BLOCK
    g = gaussian_entries(3, 1, rows, cols, 2)
    s = rademacher_entries(3, 1, rows, cols, 2)
    u1, u2 = uniform_pair(3, 1, rows, cols, 2)
    words = philox4x32_10(rows, cols, 2, -1, 2 ** 64 - 5)
    assert g.shape == s.shape == u1.shape == words[0].shape == (203, 250)
    for i in range(0, 203, 29):
        a = rows[i, 0]
        assert np.array_equal(g[i], gaussian_entries(3, 1, a, cols[0], 2))
        assert np.array_equal(s[i], rademacher_entries(3, 1, a, cols[0], 2))
        assert np.array_equal(u2[i], uniform_pair(3, 1, a, cols[0], 2)[1])
        row = philox4x32_10(a, cols[0], 2, -1, 2 ** 64 - 5)
        assert all(np.array_equal(w[i], v) for w, v in zip(words, row))


def _reference_words(c0, c1, c2, c3, seed):
    """Philox4x32-10 as first written: the ten rounds on whole uint64
    arrays, with fresh temporaries in every round."""
    c = np.broadcast_arrays(*(np.asarray(x, dtype=np.int64) & 0xFFFFFFFF
                              for x in (c0, c1, c2, c3)))
    c0, c1, c2, c3 = (x.astype(np.uint64) for x in c)
    k0, k1 = seed & 0xFFFFFFFF, (seed >> 32) & 0xFFFFFFFF
    m0, m1 = np.uint64(0xD2511F53), np.uint64(0xCD9E8D57)
    lo, sh = np.uint64(0xFFFFFFFF), np.uint64(32)
    for _ in range(10):
        p0, p1 = m0 * c0, m1 * c2
        c0, c1, c2, c3 = ((p1 >> sh) ^ c1 ^ np.uint64(k0), p1 & lo,
                          (p0 >> sh) ^ c3 ^ np.uint64(k1), p0 & lo)
        k0 = (k0 + 0x9E3779B9) & 0xFFFFFFFF
        k1 = (k1 + 0xBB67AE85) & 0xFFFFFFFF
    return c0, c1, c2, c3


def _reference_unit(hi, lo):
    x = (hi << np.uint64(32)) | lo
    return ((x >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0 ** -53


def _sha(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        a = np.asarray(a)
        h.update(f"{a.dtype} {a.shape}".encode())
        h.update(a.tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("seed", [0, 99, 2 ** 32 + 5, 2 ** 64 - 1])
@pytest.mark.parametrize("counters", [
    (3, 7, 11, 0),                                          # one counter
    (1, np.arange(-40, 9)[:, None], np.arange(60)[None, :], 2),  # broadcast
    (-2, np.arange(-3 * (1 << 14) - 5, 0), 5, -1),          # negative, ragged
    (np.arange(2), 1, np.arange((1 << 14) + 1)[:, None], 0),  # 2-D, ragged
])
def test_block_buffers_reproduce_the_whole_array_rounds(seed, counters):
    # the in-place rounds on reused block buffers against the rounds on
    # whole arrays with fresh temporaries, bit for bit; the second and
    # last cases cover sizes that are not a multiple of the block
    t, a, b, s = counters
    w = _reference_words(t, a, b, s, seed)
    u1, u2 = _reference_unit(w[0], w[1]), _reference_unit(w[2], w[3])
    gauss = np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * np.pi * u2)
    signs = (w[0] & np.uint64(1)).astype(np.float64) * 2.0 - 1.0
    assert _sha(*philox4x32_10(t, a, b, s, seed)) == \
        _sha(*(x.astype(np.uint32) for x in w))
    assert _sha(*uniform_pair(seed, t, a, b, s)) == _sha(u1, u2)
    assert _sha(gaussian_entries(seed, t, a, b, s)) == _sha(gauss)
    assert _sha(rademacher_entries(seed, t, a, b, s)) == _sha(signs)


def test_uniforms_strictly_inside_unit_interval():
    idx = np.arange(20000)
    u1, u2 = uniform_pair(7, 0, idx, idx + 1)
    for u in (u1, u2):
        assert u.min() > 0.0
        assert u.max() < 1.0


def test_gaussian_field_statistics():
    idx = np.arange(100000)
    g = gaussian_entries(123, 0, idx, idx + 1)
    assert abs(g.mean()) < 0.02
    assert abs(g.std() - 1.0) < 0.02
    # determinism and trial/stream separation
    again = gaussian_entries(123, 0, idx, idx + 1)
    assert np.array_equal(g, again)
    assert not np.array_equal(g, gaussian_entries(123, 1, idx, idx + 1))
    assert not np.array_equal(g, gaussian_entries(123, 0, idx, idx + 1,
                                                  stream=1))
    assert not np.array_equal(g, gaussian_entries(124, 0, idx, idx + 1))


def test_rademacher_values():
    idx = np.arange(4000)
    r = rademacher_entries(5, 2, idx, 2 * idx + 1)
    assert set(np.unique(r)) == {-1.0, 1.0}
    assert abs(r.mean()) < 0.08


def test_filtered_sample_symmetric_and_deterministic(compass):
    cfg = SampleConfig(N=40, seed=11)
    X = sample_filtered_wigner(cfg, compass)
    assert np.array_equal(X, X.T)
    assert np.array_equal(X, sample_filtered_wigner(cfg, compass))
    assert not np.array_equal(X, sample_filtered_wigner(cfg, compass,
                                                        trial=1))


def test_filtered_entry_is_the_windowed_convolution(compass):
    # X_{2,4} = (Y_{1,3} + Y_{1,5} + Y_{3,5} + Y_{3,3}) / 2 and Y_{3,3} = 0
    cfg = SampleConfig(N=6, seed=3)
    X = sample_filtered_wigner(cfg, compass)
    y13 = float(gaussian_entries(3, 0, 1, 3))
    y15 = float(gaussian_entries(3, 0, 1, 5))
    y35 = float(gaussian_entries(3, 0, 3, 5))
    assert X[1, 3] == pytest.approx(0.5 * (y13 + y15 + y35), rel=1e-14)


def test_filtered_boundary_rows_lose_taps(compass):
    # row 1 has no sites above it: X_{1,j} only sees the k = 2 taps
    cfg = SampleConfig(N=6, seed=9)
    X = sample_filtered_wigner(cfg, compass)
    y23 = float(gaussian_entries(9, 0, 2, 3))
    y25 = float(gaussian_entries(9, 0, 2, 5))
    assert X[0, 3] == pytest.approx(0.5 * (y23 + y25), rel=1e-14)


def test_rademacher_model_runs(compass):
    cfg = SampleConfig(N=30, seed=4, entry_law="rademacher")
    X = sample_filtered_wigner(cfg, compass)
    assert np.array_equal(X, X.T)
    vals = np.unique(np.abs(np.round(X * 2).astype(int)))
    assert vals.max() <= 8          # at most 4 taps of 1/2 each, signed


def test_sample_config_validation():
    with pytest.raises(ValueError):
        SampleConfig(N=0, seed=1)
    with pytest.raises(ValueError):
        SampleConfig(N=10, seed=1, trials=0)
    with pytest.raises(ValueError):
        SampleConfig(N=10, seed=1, entry_law="uniform")


def test_filtered_sample_is_linear_in_its_draws(compass):
    # X = sum over p < q of Y_pq dX/dY_pq, the fact criterion 6's exact
    # covariance rests on; Rademacher draws and dyadic taps sum exactly
    cfg = SampleConfig(N=9, seed=21, entry_law="rademacher")
    parts = tap_derivatives(compass, 9, [(i, j) for i in range(1, 10)
                                         for j in range(1, 10)])
    lo, hi = (np.array(v) for v in zip(*parts))
    draws = _draw(cfg, 0, lo, hi)
    want = sum(y * d for y, d in zip(draws, parts.values()))
    assert np.array_equal(sample_filtered_wigner(cfg, compass), want)


def test_colored_sample_shape_and_symmetry():
    kern = kernel_from_filter(compass_filter())
    M = sample_colored_gaussian(kern, 12, seed=8)
    assert M.shape == (144, 144)
    assert np.array_equal(M, M.T)
    assert np.array_equal(M, sample_colored_gaussian(kern, 12, seed=8))
    assert not np.array_equal(M, sample_colored_gaussian(kern, 12, seed=8,
                                                         trial=1))
    with pytest.raises(ValueError):
        sample_colored_gaussian(kern, 65, seed=8)


def test_colored_second_moment_near_limit():
    kern = kernel_from_filter(compass_filter())
    M = sample_colored_gaussian(kern, 20, seed=15)
    esd = ESD.from_matrix(M, kmax=2)
    assert esd.empirical_moments[1] == pytest.approx(1.0, abs=0.15)


def test_colored_semicircle_variance_profile():
    # s = 1: entries are plain N(0,1) with sqrt(2) diagonal
    M = sample_colored_gaussian(constant_kernel(), 10, seed=2)
    off = M[np.triu_indices(100, 1)]
    assert abs(off.std() - 1.0) < 0.05
    assert abs(np.diag(M).std() - math.sqrt(2.0)) < 0.35


def test_eigenvalues_match_lapack_reference():
    rng = np.random.default_rng(7)
    A = rng.standard_normal((40, 40))
    S = (A + A.T) / 2.0
    got = eigenvalues_symmetric(S)
    want = np.linalg.eigvalsh(S)
    assert np.max(np.abs(got - want)) < 1e-10
    with pytest.raises(AssertionError):
        eigenvalues_symmetric(A)


def test_esd_from_diagonal_matrix():
    esd = ESD.from_matrix(np.diag([1.0, 2.0, 3.0]), kmax=3)
    lam = np.array([1.0, 2.0, 3.0]) / math.sqrt(3.0)
    for k in (1, 2, 3):
        assert esd.empirical_moments[k - 1] == pytest.approx(
            np.mean(lam ** k))


def test_esd_statistics_aggregation(compass):
    cfg = SampleConfig(N=60, seed=31)
    mats = [sample_filtered_wigner(cfg, compass, trial=t) for t in range(3)]
    summary = esd_statistics(mats, kmax=4)
    assert len(summary.moment_mean) == 4
    assert all(se > 0 for se in summary.moment_stderr)
    assert sum(summary.hist_mass) == pytest.approx(1.0)
    single = esd_statistics(mats[:1], kmax=4)
    assert all(se > 0 for se in single.moment_stderr)
    with pytest.raises(ValueError):
        esd_statistics(mats, kmax=11)


def test_moment_fluctuations_shrink_with_n(compass):
    def m4_samples(N, trials=6):
        cfg = SampleConfig(N=N, seed=77)
        out = []
        for t in range(trials):
            X = sample_filtered_wigner(cfg, compass, trial=t)
            out.append(ESD.from_matrix(X, kmax=4).empirical_moments[3])
        return np.array(out)

    v_small = m4_samples(150).var(ddof=1)
    v_large = m4_samples(600).var(ddof=1)
    assert v_small > 2.0 * v_large


def _piecewise_kernel(profile) -> Kernel:
    """Rank-one band-0 kernel s = f(x) f(y), f constant on equal intervals."""
    n = len(profile)
    part = IntervalPartition(tuple(Fraction(a, n) for a in range(n + 1)))
    return Kernel(part, {(0, 0, a, b): (profile[a] * profile[b], 0)
                         for a in range(n) for b in range(n)})


@pytest.mark.parametrize("breakpoints", [
    (0, Fraction(1, 3), Fraction(2, 3), 1),
    (0, Fraction(1, 4), Fraction(1, 2), Fraction(5, 6), 1),
    (0, 1),
])
def test_site_cells_match_locate(breakpoints):
    # sites p/N land exactly on breakpoints at N = 3, 6, 9 (thirds) and
    # N = 4, 8, 12 (quarters, halves, sixths)
    part = IntervalPartition(breakpoints)
    for N in (1, 2, 3, 4, 6, 8, 9, 12, 64):
        ps = np.arange(N)
        want = [part.locate(Fraction(p, N)) for p in range(N)]
        assert _site_cells(part, ps, N).tolist() == want


def _pairs(N, count, rng):
    """Random (i, j) with i <= j, three on the diagonal, and their mirrors."""
    i = rng.integers(0, N, size=count)
    j = rng.integers(0, N, size=count)
    lo, hi = np.minimum(i, j), np.maximum(i, j)
    lo[:3] = hi[:3]
    return [(int(a), int(b)) for a, b in zip(lo, hi)] \
        + [(int(b), int(a)) for a, b in zip(lo, hi)]


@pytest.mark.parametrize("law", ["gaussian", "rademacher"])
def test_filtered_entries_are_single_counter_values(law, compass):
    # X_ij = sum over taps of h(a, b) Y_{i-a, j+b} (1-based, inside the
    # window), Y_kl drawn from the one counter (min(k,l), max(k,l))
    N, seed, trial = 13, 41, 1
    draw = {"gaussian": gaussian_entries,
            "rademacher": rademacher_entries}[law]
    X = sample_filtered_wigner(SampleConfig(N=N, seed=seed, entry_law=law),
                               compass, trial=trial)

    def y(k, l):
        if k == l:
            return 0.0
        return float(draw(seed, trial, min(k, l), max(k, l)))

    for i, j in _pairs(N, 25, np.random.default_rng(5)):
        want = sum(float(w) * y(i + 1 - a, j + 1 + b)
                   for (a, b), w in compass.taps.items()
                   if 1 <= i + 1 - a <= N and 1 <= j + 1 + b <= N)
        assert X[i, j] == pytest.approx(want, rel=1e-14, abs=1e-15)


def test_taps_beyond_the_window_contribute_nothing():
    # taps three rows or columns away reach outside an N = 2 window
    h = Filter({(0, 0): Fraction(1), (-2, 1): Fraction(-1, 3),
                (-1, 2): Fraction(-1, 3), (0, 3): Fraction(1, 4),
                (-3, 0): Fraction(1, 4)})
    N, seed = 2, 8
    X = sample_filtered_wigner(SampleConfig(N=N, seed=seed), h)
    y = float(gaussian_entries(seed, 0, 1, 2))     # Y_12 = Y_21, Y_ii = 0
    # X_ij = sum of h(a, b) Y_{i-a, j+b} over taps landing in the window
    want = np.array([[sum(float(w) * (y if {i - a, j + b} == {1, 2} else 0.0)
                          for (a, b), w in h.taps.items())
                      for j in (1, 2)] for i in (1, 2)])
    assert np.array_equal(X, X.T)
    assert np.allclose(X, want, rtol=1e-15, atol=0.0)


def test_colored_entries_are_single_counter_values():
    profile = (Fraction(1, 2), Fraction(1), Fraction(3, 2))
    N, seed, trial = 6, 17, 2
    M = sample_colored_gaussian(_piecewise_kernel(profile), N, seed,
                                trial=trial)
    f = [float(profile[p * 3 // N]) for p in range(N)]    # site m = p*N + q
    for m, k in _pairs(N * N, 25, np.random.default_rng(6)):
        amp = math.sqrt(f[m // N] * f[k // N])
        g = float(gaussian_entries(seed, trial, min(m, k), max(m, k), 1))
        want = amp * g * (math.sqrt(2.0) if m == k else 1.0)
        assert M[m, k] == pytest.approx(want, rel=1e-15)


@pytest.mark.parametrize("law", ["gaussian", "rademacher"])
@pytest.mark.parametrize("N", [1, 2, 5, 13, 48, 200, 640])
def test_filtered_sample_matches_the_whole_triangle_reference(compass, N,
                                                              law):
    cfg = SampleConfig(N=N, seed=N + 3, entry_law=law)
    for trial in range(3):
        got = sample_filtered_wigner(cfg, compass, trial=trial)
        want = reference_filtered_wigner(cfg, compass, trial=trial)
        assert got.tobytes() == want.tobytes()


def test_wide_filter_sample_matches_the_whole_triangle_reference():
    # taps up to 7 away, negative weights: blocks where a tap reaches
    # only part of the window, and windows it misses entirely
    h = Filter({(0, 0): 1, (1, 0): "1/3", (0, -1): "1/3", (-2, 1): "-1/3",
                (-1, 2): "-1/3", (3, -2): "1/5", (2, -3): "1/5",
                (7, 0): "1/7", (0, -7): "1/7"})
    for N in (1, 2, 3, 8, 9, 90, 300):
        cfg = SampleConfig(N=N, seed=N)
        assert sample_filtered_wigner(cfg, h, trial=1).tobytes() == \
            reference_filtered_wigner(cfg, h, trial=1).tobytes()


@pytest.mark.parametrize("N", [1, 2, 6, 24])
@pytest.mark.parametrize("kernel", ["compass", "constant", "piecewise"])
def test_colored_sample_matches_the_whole_triangle_reference(kernel, N):
    # the compass's amplitude is zero at 16 % of the site pairs, where a
    # negative draw gives -0.0 before the mirror; the output holds +0.0
    kern = {"compass": lambda: kernel_from_filter(compass_filter()),
            "constant": constant_kernel,
            "piecewise": lambda: _piecewise_kernel(
                (Fraction(1, 2), Fraction(1), Fraction(3, 2)))}[kernel]()
    for trial in range(2):
        got = sample_colored_gaussian(kern, N, 40 + N, trial=trial)
        want = reference_colored_gaussian(kern, N, 40 + N, trial=trial)
        assert got.tobytes() == want.tobytes()
        assert not np.signbit(got[got == 0.0]).any()


def _traced_peak(fn):
    """fn's result and the peak of memory it allocated, by tracemalloc."""
    tracemalloc.start()
    try:
        out = fn()
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_samplers_allocate_little_beyond_their_matrix(compass):
    # Y, X and block buffers (measured 2.12 X.nbytes; whole-triangle
    # index arrays and a temporary per tap took 5.12), and amplitudes, M
    # and block buffers (measured 2.97; 6.56 before)
    X, peak = _traced_peak(lambda: sample_filtered_wigner(
        SampleConfig(N=640, seed=4), compass))
    assert peak <= 2.5 * X.nbytes
    M, peak = _traced_peak(lambda: sample_colored_gaussian(
        kernel_from_filter(compass), 24, 4))
    assert peak <= 3.5 * M.nbytes


def test_residual_check_catches_a_bad_eigenvector(monkeypatch):
    lapack, _ = _lapack_modules()
    real_dstein = lapack.dstein
    calls = []

    def perturbed(d, e, w, iblock, isplit):
        calls.append(len(w))
        z, info = real_dstein(d, e, w, iblock, isplit)
        z[0, 2] += 1e-3     # columns follow the indices 0, 10, 20, 30, 39
        return z, info

    monkeypatch.setattr(lapack, "dstein", perturbed)
    rng = np.random.default_rng(3)
    A = rng.standard_normal((40, 40))
    with pytest.raises(RuntimeError, match="eigenpair 20 residual"):
        eigenvalues_symmetric(A + A.T)
    assert calls == [5]


@pytest.mark.parametrize("n", [17, 64, 640])
def test_back_transform_reads_the_reflectors_in_place(monkeypatch, n):
    # dormqr gets dsytrd's own buffer, leading dimension n, not a copy of
    # the reflector block, and its vectors match the copying route's
    lapack, _ = _lapack_modules()
    real_dormqr = lapack.dormqr
    gaps = []

    def spy(side, trans, a, tau, c, lwork):
        out = real_dormqr(side, trans, a, tau, c, lwork=lwork)
        if lwork > 0:
            assert a.shape == (n, n - 1) and a.base is not None
            assert not a[-1].any()
            ref = real_dormqr(side, trans, np.asfortranarray(a[:-1]), tau, c,
                              lwork=lwork)
            gaps.append(np.max(np.abs(out[0] - ref[0])))
        return out

    monkeypatch.setattr(lapack, "dormqr", spy)
    rng = np.random.default_rng(n)
    m = rng.standard_normal((n, n))
    cert = {}
    eigenvalues_symmetric(m + m.T, certificate=cert)
    assert len(gaps) == 1 and gaps[0] <= 4 * np.finfo(float).eps
    assert cert["residual"] <= 1e-13


@pytest.mark.parametrize("n", [2, 17, 640])
def test_loaded_lapack_is_scipy_linalgs(n):
    # the eigensolve's wrappers, loaded without scipy.linalg's package,
    # are scipy.linalg's own: the same file, the same bits out
    from scipy.linalg import _flapack
    loaded, _ = _lapack_modules()
    assert loaded.__file__ == _flapack.__file__
    rng = np.random.default_rng(n)
    a = rng.standard_normal((n, n))
    a = np.asfortranarray(a + a.T)
    isplit = np.zeros(n, dtype=np.int32)
    isplit[0] = n
    outs = []
    for mod in (loaded, _flapack):
        lwork = mod.dsytrd_lwork(n, lower=1)[0]
        c, d, e, tau, _info = mod.dsytrd(a, lower=1, lwork=int(lwork))
        w, _info = mod.dsterf(d, e)
        z, _info = mod.dstein(d, e, w[[0, n - 1]],
                              np.ones(n, dtype=np.int32), isplit)
        q, _work, _info = mod.dormqr("L", "N", np.asfortranarray(
            c[1:, :n - 1]), tau, z[1:], lwork=n)
        outs.append([c, d, e, tau, w, z, q])
    for one, two in zip(*outs):
        assert one.tobytes() == two.tobytes()


def test_a_missing_extension_names_the_directory(monkeypatch, tmp_path):
    monkeypatch.setattr(scipy, "__path__", [str(tmp_path)])
    folder = re.escape(str(tmp_path / "linalg"))
    with pytest.raises(ImportError, match=folder):
        _lapack_modules.__wrapped__()


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_a_non_finite_entry_is_refused_by_name(monkeypatch, bad):
    # refused before the symmetry test and before dsytrd runs
    lapack, _ = _lapack_modules()
    monkeypatch.setattr(lapack, "dsytrd", None)
    m = np.ones((6, 6))
    m[4, 2] = bad
    with pytest.raises(ValueError,
                       match=rf"entry \(4, 2\) is {bad}, not finite"):
        eigenvalues_symmetric(m)


def test_an_overflowing_norm_is_refused_by_name(monkeypatch):
    # every entry finite, ||m||_F past 1.8e308: refused before dsytrd runs
    lapack, _ = _lapack_modules()
    monkeypatch.setattr(lapack, "dsytrd", None)
    m = np.array([[1e308, 1e308, 0], [1e308, -1e308, 1], [0, 1, 1e308]])
    with pytest.raises(ValueError, match=r"Frobenius norm \|\|m\|\|_F "
                       r"overflows float64 \(largest entry 1e\+308\)"):
        eigenvalues_symmetric(m)


def test_an_asymmetric_pair_is_named_with_both_values():
    m = np.eye(5)
    m[1, 3], m[3, 1] = 0.25, 0.5
    m[2, 4] = 7.0
    with pytest.raises(AssertionError, match=r"not symmetric: entry "
                       r"\(1, 3\) is 0.25 but \(3, 1\) is 0.5$"):
        eigenvalues_symmetric(m)


def test_an_empty_sample_stream_is_refused():
    with pytest.raises(ValueError, match="at least one sample"):
        esd_statistics(iter([]))


def _agrees_with_references(m, cert=None):
    # eigvalsh runs the same reduction and QR iteration; eigh with
    # vectors runs divide and conquer, an independent algorithm
    got = eigenvalues_symmetric(m, certificate=cert)
    for want in (np.linalg.eigvalsh(m), scipy.linalg.eigh(m, driver="evd")[0]):
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-12 * np.linalg.norm(m, 2)


@pytest.mark.parametrize("m", [
    np.array([[-2.5]]),
    np.array([[1.0, 2.0], [2.0, -3.0]]),
    np.diag([3.0, -1.0, 0.0, 7.5, -1.0, 2.0]),
    np.zeros((5, 5)),
    np.kron(np.eye(3), [[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]]),
    np.kron(np.eye(4), np.ones((5, 5))),
], ids=["1x1", "2x2", "diagonal", "zero", "block-diagonal", "kron-ones"])
def test_small_and_structured_spectra(m):
    cert = {}
    _agrees_with_references(m, cert)
    assert 0.0 <= cert["residual"] <= 1e-14


@pytest.mark.parametrize("scale", [1e-300, 1e250])
def test_spectra_far_from_unit_scale(scale):
    rng = np.random.default_rng(4)
    A = rng.standard_normal((30, 30))
    _agrees_with_references(scale * (A + A.T))


def test_empty_matrix_is_refused():
    with pytest.raises(ValueError, match=r"\(0, 0\)"):
        eigenvalues_symmetric(np.zeros((0, 0)))


def test_sampled_spectra_agree_with_references(compass):
    filtered = sample_filtered_wigner(SampleConfig(N=640, seed=21), compass)
    colored = sample_colored_gaussian(kernel_from_filter(compass), 24, 21)
    for m in (filtered, colored):
        cert = {}
        _agrees_with_references(m, cert)
        assert cert["residual"] <= 1e-14


_SAMPLE_SCRIPT = """
import hashlib, json
from filtered_spectra.kernel import compass_filter, kernel_from_filter
from filtered_spectra.matrixlab import (SampleConfig, eigenvalues_symmetric,
                                        sample_colored_gaussian,
                                        sample_filtered_wigner)
h = compass_filter()
mats = [sample_filtered_wigner(SampleConfig(N=600, seed=3), h),
        sample_colored_gaussian(kernel_from_filter(h), 16, 3)]
print(json.dumps([{"sha256": hashlib.sha256(m).hexdigest(),
                   "eigenvalues": eigenvalues_symmetric(m).tolist()}
                  for m in mats]))
"""


def test_samples_do_not_depend_on_blas_threads():
    # matrices must be bit-identical; LAPACK eigenvalues may move in the
    # last bits with the thread count, so they get a backward-error
    # tolerance of 1e-12 * ||M||_2 (measured: 4.2e-13 at N = 600 and
    # 2.9e-13 at N^2 = 256, where ||M||_2 is 62 and 40)
    src = os.path.dirname(os.path.dirname(filtered_spectra.__file__))
    runs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(
                       filter(None, [src, os.environ.get("PYTHONPATH")])))
        out = subprocess.run([sys.executable, "-c", _SAMPLE_SCRIPT], env=env,
                             capture_output=True, text=True, check=True)
        runs.append(json.loads(out.stdout))
    for one, two in zip(*runs):
        assert one["sha256"] == two["sha256"]
        a, b = np.array(one["eigenvalues"]), np.array(two["eigenvalues"])
        assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(a))
