"""Color space, covariance kernels, and filters.

Color space is C = [0,1] x S^1 carrying the uniform probability measure P
(Lebesgue on the interval times normalized Haar on the circle).  A kernel
is a nonnegative symmetric function

    s(c, c') = sum_{i,j} s_ij(x, y) xi^i eta^j,      c = (x, xi), c' = (y, eta),

with finitely many coefficient functions s_ij, each constant on the cells
of a fixed interval partition of [0,1].  The Fourier basis is exactly
xi^i eta^j — no 2*pi normalization anywhere.  s is real and symmetric,
as Kernel enforces, exactly when the coefficients satisfy

    conj(s_ij) = s_{-i,-j}           and           s_ji(y, x) = s_ij(x, y).

A filter is a finitely supported h: Z^2 -> R with h(-i,-j) = h(j,i);
its Fourier transform H gives the pure-Fourier kernel s = |H|^2, the
covariance profile of the corresponding filtered Wigner matrix.

A kernel's coefficients are stored exactly, as Gaussian integers over
one denominator, so everything built on top can run on ints; rat parses
rationals where they come in.  Kernel and Filter are immutable after
construction.
"""

from __future__ import annotations

import json
import math
import numbers
from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

import numpy as np

__all__ = [
    "IntervalPartition",
    "Filter",
    "Kernel",
    "KernelReport",
    "validate_kernel",
    "kernel_from_filter",
    "json_document",
    "read_color_document",
    "unit_partition",
    "constant_kernel",
    "compass_filter",
    "angular_grid",
    "phases",
    "kernel_grid_matrix",
    "as_kernel",
]


def rat(x) -> Fraction:
    """Coerce x to an exact Fraction.

    Accepts int, Fraction, finite float (converted exactly, bit for bit),
    and strings in either 'p/q' or decimal form ('0.25', '-3', '1/3').
    Anything else, bool and None included, raises ValueError naming it.
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, str):
        return Fraction(x.strip())
    if isinstance(x, (int, float)) and not isinstance(x, bool) \
            and math.isfinite(x):
        return Fraction(x)
    raise ValueError(f"{x!r} is not a rational value")


def _checked_key(key, size, intervals=None) -> tuple:
    """key as a tuple of size ints; a key of another length, a bool or
    non-integer index, or an interval index (the last two) outside
    0..intervals - 1, raises ValueError naming key."""
    if not isinstance(key, tuple) or len(key) != size:
        raise ValueError(f"entry {key!r} is not a tuple of {size} indices")
    if any(isinstance(x, bool) or not isinstance(x, numbers.Integral)
           for x in key):
        raise ValueError(f"entry {key!r} has an index that is not an integer")
    if intervals is not None and not all(0 <= a < intervals for a in key[2:]):
        raise ValueError(f"entry {key!r} has an interval index outside "
                         f"0..{intervals - 1}")
    return tuple(int(x) for x in key)


# ---------------------------------------------------------------------------
# interval partitions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IntervalPartition:
    """Partition of [0,1] into consecutive intervals with rational endpoints.

    breakpoints must be strictly increasing, start at 0 and end at 1.
    Interval a is [b_a, b_{a+1}) except the last, which is closed.
    """

    breakpoints: tuple

    def __post_init__(self):
        pts = tuple(rat(b) for b in self.breakpoints)
        if len(pts) < 2:
            raise ValueError("need at least two breakpoints")
        if pts[0] != 0 or pts[-1] != 1:
            raise ValueError("breakpoints must start at 0 and end at 1")
        if any(a >= b for a, b in zip(pts, pts[1:])):
            raise ValueError("breakpoints must be strictly increasing")
        object.__setattr__(self, "breakpoints", pts)

    @property
    def n(self) -> int:
        return len(self.breakpoints) - 1

    @cached_property
    def lengths(self) -> tuple:
        """Interval lengths, computed once per partition; equality, hash
        and repr read breakpoints alone."""
        return tuple(b - a for a, b in zip(self.breakpoints, self.breakpoints[1:]))

    @cached_property
    def weights(self) -> tuple:
        """D and the ints W_a = D * len_a, D the lcm of the lengths'
        denominators: integrals over the intervals, scaled by D."""
        D = math.lcm(*(w.denominator for w in self.lengths))
        return D, tuple(w.numerator * (D // w.denominator)
                        for w in self.lengths)

    def locate(self, x) -> int:
        """Index of the interval containing x in [0,1]."""
        if x < 0 or x > 1:
            raise ValueError(f"spatial coordinate {x} outside [0,1]")
        fx = [float(b) for b in self.breakpoints]
        a = bisect_right(fx, float(x)) - 1
        return min(max(a, 0), self.n - 1)


def unit_partition() -> IntervalPartition:
    return IntervalPartition((0, 1))


# ---------------------------------------------------------------------------
# filters
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Filter:
    """Finitely supported real function h on Z^2 with h(-i,-j) = h(j,i).

    taps maps integer indices (i, j) -> Fraction; zero taps are dropped.
    The support bound K is the even integer 2 * max(|i|, |j|), so taps
    live in the square |i|, |j| <= K/2 and the kernel |H|^2 has Fourier
    support in [-K, K]^2.
    """

    taps: dict = field(compare=False)

    def __post_init__(self):
        clean = {}
        for key, v in self.taps.items():
            key = _checked_key(key, 2)
            v = rat(v)
            if v != 0:
                clean[key] = v
        if not clean:
            raise ValueError("filter is identically zero")
        for (i, j), v in clean.items():
            # h(-i,-j) = h(j,i) for all (i,j) <=> h(-j,-i) = h(i,j) on taps
            if clean.get((-j, -i)) != v:
                raise ValueError(
                    f"filter symmetry h(-i,-j) = h(j,i) fails at ({-j},{-i})")
        object.__setattr__(self, "taps", clean)

    @property
    def K(self) -> int:
        return 2 * max(max(abs(i), abs(j)) for i, j in self.taps)

    def l2_norm_sq(self) -> Fraction:
        return sum((v * v for v in self.taps.values()), Fraction(0))

    def __call__(self, i: int, j: int) -> Fraction:
        return self.taps.get((i, j), Fraction(0))


def compass_filter() -> Filter:
    """h = (1/2) * indicator of the four diagonal neighbors.

    Filtering a Wigner matrix with this h replaces each entry by the
    average of the four entries to its immediate NE, SE, SW and NW; the
    kernel is s = 4 cos^2(theta1) cos^2(theta2).
    """
    half = Fraction(1, 2)
    return Filter({(1, -1): half, (1, 1): half, (-1, 1): half, (-1, -1): half})


# ---------------------------------------------------------------------------
# kernels
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class Kernel:
    """Covariance kernel on color space.

    partition: the interval partition of [0,1];
    band:      Fourier support bound K >= 0;
    coeffs:    dict (i, j, a, b) -> (re, im) ints with |i|,|j| <= band
               and a, b interval indices: s_ij on I_a x I_b is
               (re + i im) / den, den > 0 in lowest terms, zero entries
               dropped, so equal kernels have equal tables.

    Each given value is a rational or an (re, im) pair of rationals.  A
    bad key or value, an index outside the band, an entry that breaks
    either symmetry (named with it), or a zero table raises ValueError:
    s is real, symmetric and nonzero by construction.  Treated as
    immutable.
    """

    partition: IntervalPartition
    band: int
    coeffs: dict
    den: int = field(init=False)

    def __post_init__(self):
        self.band = int(self.band)
        if self.band < 0:
            raise ValueError("band must be >= 0")
        n, K = self.partition.n, self.band
        pairs = {}
        for key, v in self.coeffs.items():
            i, j, a, b = _checked_key(key, 4, n)
            if isinstance(v, tuple) and len(v) != 2:
                raise ValueError(f"entry {key!r} has value {v!r}, not a "
                                 "rational or an (re, im) pair")
            re, im = v if isinstance(v, tuple) else (v, 0)
            if abs(i) > K or abs(j) > K:
                raise ValueError(f"entry {key!r} lies outside the band {K}")
            pairs[i, j, a, b] = (rat(re), rat(im))
        # the lcm of reduced denominators is already in lowest terms
        den = math.lcm(*(x.denominator for v in pairs.values() for x in v))
        self.coeffs = {key: (re.numerator * (den // re.denominator),
                             im.numerator * (den // im.denominator))
                       for key, (re, im) in pairs.items() if re or im}
        self.den = den
        if not self.coeffs:
            raise ValueError("kernel is identically zero")
        for (i, j, a, b), (re, im) in self.coeffs.items():
            if self.coeffs.get((-i, -j, a, b)) != (re, -im):
                raise ValueError(
                    f"entry {(i, j, a, b)!r} breaks conj(s_ij) = s_(-i,-j): "
                    f"entry {(-i, -j, a, b)!r} is not its conjugate")
            if self.coeffs.get((j, i, b, a)) != (re, im):
                raise ValueError(
                    f"entry {(i, j, a, b)!r} breaks s_ji(b, a) = s_ij(a, b): "
                    f"entry {(j, i, b, a)!r} is not equal to it")

    def l1_norm(self) -> Fraction:
        """Exact L1 norm of s (s is nonnegative, so this is its integral):
        the sum of W_a W_b s_00(a, b) over D^2, one int sum (s_00 is real)."""
        D, W = self.partition.weights
        re = sum(W[a] * W[b] * v[0] for (i, j, a, b), v in self.coeffs.items()
                 if i == j == 0)
        return Fraction(re, D * D * self.den)

    def coeff_array(self) -> np.ndarray:
        """Dense complex table, shape (2K+1, 2K+1, nI, nI); index [i+K, j+K, a, b].

        int / int is correctly rounded, so each part is its nearest float."""
        K, nI, den = self.band, self.partition.n, self.den
        arr = np.zeros((2 * K + 1, 2 * K + 1, nI, nI), dtype=complex)
        for (i, j, a, b), (re, im) in self.coeffs.items():
            arr[i + K, j + K, a, b] = complex(re / den, im / den)
        return arr

    def sup_norm(self) -> float:
        """Upper bound of ||s||_inf: the max over cell pairs of sum |s_ij|.

        |xi^i eta^j| = 1, so no angle makes |s| exceed that sum; a kernel
        whose modes all peak at one angle (every house kernel) attains it.
        """
        return float(np.abs(self.coeff_array()).sum(axis=(0, 1)).max())

    def amplitude(self) -> float:
        """A = 2 * sup_norm^(1/2): the spectrum lies in [-A, A]."""
        return 2.0 * math.sqrt(self.sup_norm())


def constant_kernel() -> Kernel:
    """s = 1: the plain Wigner/semicircle case."""
    return Kernel(unit_partition(), 0, {(0, 0, 0, 0): 1})


# ---------------------------------------------------------------------------
# construction and evaluation
# ---------------------------------------------------------------------------

def kernel_from_filter(h: Filter) -> Kernel:
    """The pure-Fourier kernel s = |H|^2 of a filter.

    s_ij = sum_{c,d} h(i+c, j+d) h(c, d): the taps are ints over their
    one denominator q, so s_ij is an int over q^2, and
    ||s||_L1 = ||h||_L2^2 by construction.
    """
    q = math.lcm(*(v.denominator for v in h.taps.values()))
    taps = [(c, d, v.numerator * (q // v.denominator))
            for (c, d), v in h.taps.items()]
    table = {}
    for c, d, v in taps:
        for e, f_, w in taps:
            key = (e - c, f_ - d, 0, 0)
            table[key] = table.get(key, 0) + w * v
    kern = Kernel(unit_partition(), h.K,
                  {key: Fraction(s, q * q) for key, s in table.items()})
    assert kern.l1_norm() == h.l2_norm_sq()
    return kern


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

@dataclass
class KernelReport:
    ok: bool
    checks: dict
    messages: list


def validate_kernel(kern: Kernel) -> KernelReport:
    """Sample s >= 0, the one invariant Kernel cannot settle cheaply.

    Kernel owns the band, both symmetries and nonzeroness.  s is sampled
    on T = max(4K + 1, 8) angles per circle, which integrate its degree
    exactly but can miss its minimum between the nodes: a kernel that
    dips below 0 only there passes.  Nonnegativity is sampled, not
    certified.  The slack, 1e-12 min(1, sup_norm), is roundoff at a zero
    of s; a kernel a hair below 0 everywhere fails.  Nondegeneracy
    follows: the samples' mean is the integral of s, so a nonzero table
    with integral 0 and every sample >= 0 would vanish at all T >= 2K + 1
    nodes, and so would every coefficient of its degree-K polynomial.
    """
    T = max(4 * kern.band + 1, 8)
    grid = kernel_grid_matrix(kern, T)
    mn = float(np.min(grid))
    checks = {"nonnegative": mn >= -1e-12 * min(1.0, kern.sup_norm())}
    messages = []
    if not checks["nonnegative"]:
        p, q = np.unravel_index(int(np.argmin(grid)), grid.shape)
        aa, tt = divmod(int(p), T)
        bb, ss = divmod(int(q), T)
        messages.append(
            f"s < 0 (= {mn:.3e}) at interval cell ({aa},{bb}), "
            f"angles ({2 * math.pi * tt / T:.4f}, {2 * math.pi * ss / T:.4f})")
    return KernelReport(ok=checks["nonnegative"], checks=checks,
                        messages=messages)


# ---------------------------------------------------------------------------
# grids
# ---------------------------------------------------------------------------

def angular_grid(T: int) -> np.ndarray:
    """T equispaced angles on the circle; integrates trig degree < T exactly."""
    return 2.0 * math.pi * np.arange(T) / T


def phases(K: int, T: int) -> np.ndarray:
    """exp(i d theta_t) for d = -K..K on the T-node angular grid, (2K+1, T)."""
    return np.exp(1j * np.outer(np.arange(-K, K + 1), angular_grid(T)))


def kernel_grid_matrix(kern: Kernel, T: int) -> np.ndarray:
    """s evaluated on the product grid, shape (nI*T, nI*T), row index a*T + t.

    One spatial node per interval suffices (s is constant per cell).  s
    is real by construction, so the imaginary part is roundoff, dropped.
    """
    K, nI = kern.band, kern.partition.n
    phase = phases(K, T)
    arr = kern.coeff_array()  # (2K+1, 2K+1, nI, nI)
    g = np.einsum("ijab,it,js->atbs", arr, phase, phase, optimize=True)
    return g.reshape(nI * T, nI * T).real


# ---------------------------------------------------------------------------
# JSON documents
# ---------------------------------------------------------------------------

def json_document(doc) -> dict:
    """A JSON object given as a dict, as inline text (text that starts
    with "{"), or as a path (any other text)."""
    if isinstance(doc, dict):
        return doc
    text = str(doc)
    if text.lstrip().startswith("{"):
        obj = json.loads(text)
    else:
        with open(text) as fd:
            obj = json.load(fd)
    if not isinstance(obj, dict):
        raise ValueError("not a JSON object")
    return obj


def _field(obj, key, fields=None):
    """obj[key]; with fields, a list of entries of that many fields."""
    if key not in obj:
        raise ValueError(f"{obj.get('type', 'the')} document has no {key!r}")
    rows = obj[key]
    if fields and not isinstance(rows, list):
        raise ValueError(f"{key} = {rows!r} is not a list of entries")
    for n, row in enumerate(rows if fields else ()):
        if not isinstance(row, list) or len(row) != fields:
            raise ValueError(
                f"{key}[{n}] = {row!r} does not have {fields} fields")
    return rows


def read_color_document(doc):
    """Read a filter or kernel from a JSON document (see json_document).

    {"type": "filter", "entries": [[i, j, value], ...]}
    {"type": "kernel", "breakpoints": [...],
     "coeffs": [[i, j, a, b, re, im], ...]}

    Values may be numbers, decimal strings, or 'p/q' rational strings.
    Returns a Filter or a Kernel accordingly.  A missing key, an entry
    with the wrong number of fields, or a bad index or value raises
    ValueError naming it.
    """
    obj = json_document(doc)
    kind = _field(obj, "type")
    if kind == "filter":
        return Filter({_checked_key((i, j), 2): v
                       for i, j, v in _field(obj, "entries", 3)})
    if kind == "kernel":
        part = IntervalPartition(
            tuple(rat(b) for b in _field(obj, "breakpoints")))
        coeffs = {_checked_key((i, j, a, b), 4, part.n): (re, im)
                  for i, j, a, b, re, im in _field(obj, "coeffs", 6)}
        band = max((max(abs(i), abs(j)) for i, j, _, _ in coeffs), default=0)
        return Kernel(part, band, coeffs)
    raise ValueError(f"unknown color document type {kind!r}")


def as_kernel(obj) -> Kernel:
    """Coerce a Filter/Kernel/JSON document to a Kernel."""
    if isinstance(obj, Kernel):
        return obj
    if isinstance(obj, Filter):
        return kernel_from_filter(obj)
    thing = read_color_document(obj)
    return thing if isinstance(thing, Kernel) else kernel_from_filter(thing)
