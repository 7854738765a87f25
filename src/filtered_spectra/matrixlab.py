"""Matrix sampling and empirical spectra at desk scale.

Two random-matrix models share the same limit law and are sampled
here against the same counter-based random source (see rng):

* the filtered model: X_ij = sum over the N-by-N window of
  Y_kl * h(i-k, l-j), built from a symmetric i.i.d. field Y with a
  zero diagonal — X is real symmetric because h(-i,-j) = h(j,i);
* the colored Gaussian model on N^2 sites (x_p, xi_q) with independent
  entries 2^(d_ij/2) * sqrt(s(c_i, c_j)) * g_{i,j}.

Empirical spectral statistics normalize eigenvalues by sqrt(dimension)
and report moments m_k = dim^(-k/2-1) * trace(M^k) with per-trial
standard errors.

Both samplers draw one Philox counter per unordered index pair, keyed
by the sorted pair.  One routine fills the upper triangle straight into
the matrix, a block of rows (about 2^15 pairs) at a time, and the lower
triangle is copied from it in place.  A sample so holds its matrix, one
more of its size (the filtered model's Y field, the colored model's
amplitudes) and block buffers: the traced peak is 2.1 times the
returned matrix for a filtered N = 640 sample and 3.0 times for a
colored N = 24 one.

Eigenvalues come without eigenvectors: LAPACK's Householder
tridiagonalization T = Q^T M Q (dsytrd), then the Pal-Walker-Kahan QR
iteration for the eigenvalues of T alone (dsterf).  The input is
asserted symmetric, and five eigenpairs spread across the spectrum are
checked on M itself: their vectors come from inverse iteration on T
(dstein) and the back-transform by Q (dormqr on the reflectors dsytrd
left, read in place in its output), and each must satisfy
||M v - lambda v|| <= 1e-8 ||M||_F.  Reading the reflectors in place,
not from a Fortran copy of their block, takes the traced peak of an
N = 640 eigensolve from 2.05 to 1.06 matrices.  The vectors, and so
eigenpair_residual, may move by a few eps against the copy (bit for
bit at N = 17-640 with OpenBLAS 0.3.31, up to 1.7e-16 in an earlier
measurement); the tests allow 4 eps.  The LAPACK and BLAS wrappers are
loaded at the first eigensolve, straight from scipy's two extension
files: scipy.linalg itself is never imported (see _lapack_modules).
"""

from __future__ import annotations

import importlib.util
import math
import os
from dataclasses import dataclass, field
from functools import cache
from importlib.machinery import PathFinder

import numpy as np

from .kernel import Filter, IntervalPartition, Kernel, kernel_grid_matrix
from .rng import gaussian_entries, rademacher_entries

ESD_KMAX = 10          # highest empirical moment esd_statistics reports
COLORED_N_MAX = 64     # colored model size guard: N^2 <= 4096 sites

__all__ = [
    "SampleConfig",
    "ESD",
    "EsdSummary",
    "sample_filtered_wigner",
    "sample_colored_gaussian",
    "eigenvalues_symmetric",
    "esd_statistics",
]

_Y_STREAM = 0        # substream for the filtered model's Y field
_COLOR_STREAM = 1    # substream for the colored Gaussian field
# Pairs per block of the upper-triangle fill, and cells per block of the
# filtered model's tap sums.  Median time of a filtered N = 640 and of a
# colored N = 24 sample, then the traced peak as a multiple of the
# returned matrix (2-core shared Xeon, numpy 2.4, two runs of 15 calls):
# 2^13: 22-27 and 16 ms, 2.06 and 2.35; 2^14: 20 and 15 ms, 2.08 and 2.68;
# 2^15: 19-20 and 14-15 ms, 2.12 and 2.97; 2^16: 19-20 and 15 ms, 2.58
# and 3.56; 2^17: 24-34 and 17 ms, 3.54 and 4.35.
_FILL_PAIRS = 1 << 15


@dataclass(frozen=True)
class SampleConfig:
    N: int
    seed: int
    entry_law: str = "gaussian"
    trials: int = 1

    def __post_init__(self):
        if self.N < 1:
            raise ValueError("N must be >= 1")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.entry_law not in ("gaussian", "rademacher"):
            raise ValueError(f"unknown entry law {self.entry_law!r}")


def _draw(cfg: SampleConfig, trial: int, lo, hi):
    """The entry law's Y-field variates at the sorted index pairs (lo, hi)."""
    draw = rademacher_entries if cfg.entry_law == "rademacher" \
        else gaussian_entries
    return draw(cfg.seed, trial, lo, hi, _Y_STREAM)


def _fill_upper(M: np.ndarray, draw, k: int) -> None:
    """M[i, j] = draw(i, j) for j >= i + k (k = 0 or 1), in place, a
    block of rows of about _FILL_PAIRS pairs at a time; the rest of M is
    left alone.

    draw takes the flat 0-based row and column indices of a block and
    returns one value per pair, in that order.
    """
    n = M.shape[0]
    start = 0
    while start < n:
        stop, pairs = start + 1, n - k - start
        while stop < n and pairs + n - k - stop <= _FILL_PAIRS:
            pairs += n - k - stop
            stop += 1
        rows = np.arange(start, stop)
        width = n - k - rows                    # pairs in each row
        first = np.cumsum(width) - width        # each row's offset in vals
        vals = draw(np.repeat(rows, width),
                    np.arange(pairs) + np.repeat(rows + k - first, width))
        for i, at in zip(range(start, stop), first.tolist()):
            M[i, i + k:] = vals[at:at + n - k - i]
        start = stop


def _mirror_upper(M: np.ndarray) -> None:
    """M[j, i] = M[i, j] for j > i, in place: the strict lower triangle
    becomes the transpose of the upper one."""
    for i in range(1, M.shape[0]):
        M[i, :i] = M[:i, i]


def sample_filtered_wigner(cfg: SampleConfig, h: Filter,
                           trial: int = 0) -> np.ndarray:
    """One sample of the (unnormalized) filtered matrix X.

    The convolution X_ij = sum_{k,l in {1..N}} Y_kl h(i-k, l-j) runs
    over the matrix window only; taps reaching outside contribute
    nothing.  Y's upper triangle is drawn with 1-based counters and
    mirrored in place; X is summed tap by tap, in sorted tap order, on
    its upper triangle only, a block of rows at a time through one
    scratch block.  Its lower triangle is mirrored from the upper one,
    which by h(-i,-j) = h(j,i) and the symmetry of Y is a reordering of
    the same sum, so the output is symmetric to the bit.  Peak memory is
    Y, X and the block buffers: about 2.1 times X at N = 640.
    """
    N = cfg.N
    Y = np.zeros((N, N))
    _fill_upper(Y, lambda r, c: _draw(cfg, trial, r + 1, c + 1), 1)
    _mirror_upper(Y)
    X = np.zeros((N, N))
    taps = [(a, b, float(w)) for (a, b), w in sorted(h.taps.items())]
    rows = max(1, _FILL_PAIRS // N)
    scratch = np.empty(rows * N)
    for i0 in range(0, N, rows):
        i1 = min(i0 + rows, N)
        for a, b, weight in taps:
            # term Y[i - a, j + b]: rows shift by a, cols by -b; the block
            # needs rows i0..i1-1 and cols j >= i0 only
            r0, r1 = max(a, i0), min(N + min(a, 0), i1)
            c0, c1 = max(-b, i0), N + min(-b, 0)
            if r0 < r1 and c0 < c1:              # the tap reaches the block
                term = scratch[:(r1 - r0) * (c1 - c0)].reshape(r1 - r0,
                                                                c1 - c0)
                np.multiply(Y[r0 - a:r1 - a, c0 + b:c1 + b], weight,
                            out=term)
                X[r0:r1, c0:c1] += term
    _mirror_upper(X)
    return X


def _site_cells(part: IntervalPartition, ps: np.ndarray,
                N: int) -> np.ndarray:
    """Interval index of each x = p/N, as IntervalPartition.locate gives it."""
    edges = np.array([float(b) for b in part.breakpoints])
    cells = np.searchsorted(edges, ps / N, side="right") - 1
    return np.clip(cells, 0, part.n - 1)


def sample_colored_gaussian(kern: Kernel, N: int, seed: int,
                            trial: int = 0) -> np.ndarray:
    """The N^2-by-N^2 Gaussian model on the discretized color space.

    Colors enumerate (p/N, exp(2*pi*i*q/N)) for p, q in {0..N-1}, site
    index m = p*N + q.  Entry (m, m') is 2^(d/2) * sqrt(s(c_m, c_m'))
    times one standard Gaussian per unordered site pair (d = 1 on the
    diagonal).  Values of s below 1e-12 * ||s||_inf are snapped to
    exact zeros (they are zeros of s hit by roundoff), and tiny
    negative values with them.  The draws fill the upper triangle with
    0-based counters, the amplitudes multiply it in place, and the
    lower triangle is mirrored from it in place: s is real and symmetric
    by construction of Kernel, so the upper amplitudes are all of them.
    """
    if N > COLORED_N_MAX:
        raise ValueError(f"N = {N} exceeds the size guard {COLORED_N_MAX} "
                         f"(N^2 <= {COLORED_N_MAX ** 2})")
    n2 = N * N
    ps, qs = np.divmod(np.arange(n2), N)
    # s on the (interval, angle) product grid, gathered at each site
    site = _site_cells(kern.partition, ps, N) * N + qs
    smat = kernel_grid_matrix(kern, N)[np.ix_(site, site)]
    sup = float(np.max(np.abs(smat)))
    if sup > 0:
        smat[np.abs(smat) < 1e-12 * sup] = 0.0
    if smat.min() < 0:
        worst = float(smat.min())
        if worst < -1e-9 * max(sup, 1.0):
            raise ValueError(f"kernel evaluated negative: {worst}")
        smat[smat < 0] = 0.0
    amp = np.sqrt(smat, out=smat)

    M = np.zeros((n2, n2))
    _fill_upper(M, lambda r, c: gaussian_entries(seed, trial, r, c,
                                                 _COLOR_STREAM), 0)
    M *= amp                            # the lower triangle stays 0.0
    M.reshape(-1)[::n2 + 1] *= math.sqrt(2.0)
    _mirror_upper(M)
    # a zero amplitude times a negative draw is -0.0; adding +0.0 turns
    # every zero into +0.0, so a sample's bytes do not carry the draw's sign
    M += 0.0
    return M


def _lapack(name, *outputs):
    """The outputs of a LAPACK call, whose info must be 0."""
    *values, info = outputs
    if info != 0:
        raise RuntimeError(f"LAPACK {name} failed with info = {info}")
    return values[0] if len(values) == 1 else values


@cache
def _lapack_modules():
    """scipy's f2py wrappers of LAPACK and BLAS, the extension modules
    scipy.linalg._flapack and scipy.linalg._fblas, loaded from their
    files without running scipy.linalg's package.

    Importing anything under scipy.linalg first runs its __init__, which
    imports the whole of scipy.linalg and, through scipy._lib._array_api,
    numpy.f2py and numpy.testing: about 320 modules and 0.2 s, of which
    the eigensolve calls five Fortran wrappers.  A bare `import scipy`
    (about 12 ms) gives the directory; each extension is then loaded
    under its own name, so its wrappers are the objects that
    scipy.linalg.lapack and scipy.linalg.blas hand out, and a later
    import of scipy.linalg takes these modules as its own.  A missing
    file raises ImportError naming the directory searched.
    """
    import scipy
    folder = os.path.join(scipy.__path__[0], "linalg")
    modules = []
    for name in ("_flapack", "_fblas"):
        spec = PathFinder.find_spec(f"scipy.linalg.{name}", [folder])
        if spec is None:
            raise ImportError(f"scipy.linalg.{name} is not in {folder}")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        modules.append(module)
    return tuple(modules)


def eigenvalues_symmetric(m: np.ndarray, certificate=None) -> np.ndarray:
    """Full spectrum of a symmetric matrix, ascending, with a residual check.

    The eigenpairs at indices 0, n/4, n/2, 3n/4 and n-1 are checked on
    m itself.  If certificate is a dict, "residual" is set to the worst
    ||m v - lambda v|| / ||m||_F of those pairs.  dsytrd works on its own
    copy of m, never with overwrite_a: the check reads m @ z after it, so
    overwriting the sample would destroy what the check is made against.
    A non-finite entry raises ValueError and an asymmetric pair
    AssertionError, each naming the entry; finite entries whose ||m||_F
    overflows raise ValueError naming the norm.
    """
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("input is not square")
    n = m.shape[0]
    if n == 0:
        raise ValueError(f"input has shape {m.shape}: no eigenvalues")
    lapack, blas = _lapack_modules()
    scale = float(blas.dnrm2(m.ravel()))   # ||m||_F, free of over/underflow
    if not math.isfinite(scale):    # NaN or inf in m, or a norm past 1.8e308
        bad = np.argwhere(~np.isfinite(m))
        if len(bad):
            i, j = bad[0]
            raise ValueError(f"input entry ({i}, {j}) is {m[i, j]}, "
                             "not finite")
        raise ValueError("input's Frobenius norm ||m||_F overflows float64 "
                         f"(largest entry {float(np.max(np.abs(m)))!r}): "
                         "scale the matrix down")
    if not np.array_equal(m, m.T):
        i, j = np.argwhere(m != m.T)[0]
        raise AssertionError(
            f"input matrix is not symmetric: entry ({i}, {j}) is "
            f"{float(m[i, j])!r} but ({j}, {i}) is {float(m[j, i])!r}")
    if n == 1 or scale == 0.0:  # already diagonal (and dsterf refuses n = 1)
        if certificate is not None:
            certificate["residual"] = 0.0
        return np.diag(m).copy()

    lwork = _lapack("dsytrd_lwork", *lapack.dsytrd_lwork(n, lower=1))
    # m.T is m, in the Fortran order LAPACK reads
    a, d, e, tau = _lapack("dsytrd", *lapack.dsytrd(m.T, lower=1,
                                                    lwork=int(lwork)))
    vals = _lapack("dsterf", *lapack.dsterf(d, e))

    idx = sorted({0, n // 4, n // 2, (3 * n) // 4, n - 1})
    isplit = np.zeros(n, dtype=np.int32)
    isplit[0] = n                       # T as one block
    # inverse iteration on T scaled by a power of two near 1/||T||_F,
    # which is exact and keeps dstein clear of overflow and underflow
    shift = -math.frexp(scale)[1]
    z = _lapack("dstein", *lapack.dstein(
        np.ldexp(d, shift), np.ldexp(e, shift), np.ldexp(vals[idx], shift),
        np.ones(n, dtype=np.int32), isplit))
    # lower storage: Q = diag(1, Q'), Q' the QR-form product of the
    # reflectors held below the subdiagonal.  dormqr reads them in place:
    # columns 0..n-2 of the Fortran buffer from offset 1, with leading
    # dimension n, are a[1:, :n-1] over a last row a[0, 1:], which dsytrd
    # (lower) never read and which is zeroed; no copy of the block
    a[0, 1:] = 0.0
    v = a.reshape(-1, order="F")[1:1 + n * (n - 1)].reshape((n, n - 1),
                                                            order="F")
    _, work = _lapack("dormqr", *lapack.dormqr("L", "N", v, tau, z[1:],
                                               lwork=-1))
    z[1:], _ = _lapack("dormqr", *lapack.dormqr("L", "N", v, tau, z[1:],
                                                lwork=int(work[0])))

    resid = [float(blas.dnrm2(r)) for r in (m @ z - z * vals[idx]).T]
    for i, r in zip(idx, resid):
        if not r <= 1e-8 * scale:       # a NaN residual fails too
            raise RuntimeError(
                f"eigenpair {i} residual {r:.3e} exceeds 1e-8 * ||m||")
    if certificate is not None:
        certificate["residual"] = max(resid) / scale
    return vals


@dataclass
class ESD:
    """Empirical spectral data of one sample (eigenvalues of M/sqrt(dim))."""

    eigenvalues: list
    empirical_moments: list     # m_k for k = 1..kmax
    eigenpair_residual: float   # worst checked ||M v - lambda v|| / ||M||_F

    @classmethod
    def from_matrix(cls, m: np.ndarray, kmax: int) -> "ESD":
        n = m.shape[0]
        cert = {}
        lam = eigenvalues_symmetric(m, certificate=cert) / math.sqrt(n)
        moments = [float(np.mean(lam ** k)) for k in range(1, kmax + 1)]
        return cls(eigenvalues=[float(v) for v in lam],
                   empirical_moments=moments,
                   eigenpair_residual=cert["residual"])


@dataclass
class EsdSummary:
    kmax: int
    moment_mean: list
    moment_stderr: list
    hist_edges: list
    hist_mass: list
    esds: list = field(repr=False, default_factory=list)


def esd_statistics(samples, kmax: int = 6) -> EsdSummary:
    """Aggregate empirical moments (with standard errors) and a histogram.

    samples: any nonempty iterable of symmetric matrices (possibly of
    different sizes), read once, in order; each matrix is released before
    the next is drawn, so a generator keeps one sample alive at a time.
    Moments are averaged across samples; the standard error is the
    across-sample deviation of the per-sample moment (for a single
    sample, a within-sample plug-in estimate so z-scores stay usable).
    Histogram bins are Freedman-Diaconis on the pooled normalized
    eigenvalues.
    """
    if kmax > ESD_KMAX:
        raise ValueError(f"kmax must be <= {ESD_KMAX}")
    esds = []
    for m in samples:
        esds.append(ESD.from_matrix(np.asarray(m), kmax))
        del m
    if not esds:
        raise ValueError("esd_statistics needs at least one sample")
    per_k = np.array([e.empirical_moments for e in esds])  # (trials, kmax)
    mean = per_k.mean(axis=0)
    t = len(esds)
    if t > 1:
        stderr = per_k.std(axis=0, ddof=1) / math.sqrt(t)
    else:
        lam = np.array(esds[0].eigenvalues)
        n = len(lam)
        stderr = np.array([
            float(np.std(lam ** k, ddof=1)) / math.sqrt(n)
            for k in range(1, kmax + 1)])
    pooled = np.concatenate([e.eigenvalues for e in esds])
    counts, edges = np.histogram(pooled, bins="fd")
    mass = counts / counts.sum() if counts.sum() else counts.astype(float)
    return EsdSummary(kmax=kmax,
                      moment_mean=[float(v) for v in mean],
                      moment_stderr=[float(v) for v in stderr],
                      hist_edges=[float(v) for v in edges],
                      hist_mass=[float(v) for v in mass],
                      esds=esds)
