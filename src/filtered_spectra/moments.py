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
never silent truncation) to exceed a configurable degree cap.
"""

from __future__ import annotations

import numpy as np

from .exactnum import CRat
from .kernel import Kernel, phases

__all__ = ["NiceFunction", "phi_psi_recursion", "theoretical_moments"]

DEGREE_CAP = 256


class NiceFunction:
    """Piecewise-constant-in-x trigonometric polynomial on color space.

    values[a][d + degree] is the coefficient of xi^d on interval a.
    Scalars may be exact (CRat / Fraction / int) or complex floats; a
    single instance keeps one scalar kind throughout.
    """

    __slots__ = ("partition", "degree", "values")

    def __init__(self, partition, degree, values):
        self.partition = partition
        self.degree = int(degree)
        self.values = values
        assert len(values) == partition.n
        assert all(len(row) == 2 * self.degree + 1 for row in values)

    @classmethod
    def constant(cls, partition, value=1):
        return cls(partition, 0, [[value] for _ in range(partition.n)])

    # -- algebra ---------------------------------------------------------

    def __add__(self, other):
        assert self.partition is other.partition or \
            self.partition.breakpoints == other.partition.breakpoints
        d = max(self.degree, other.degree)
        rows = []
        for a in range(self.partition.n):
            row = [0] * (2 * d + 1)
            for src in (self, other):
                off = d - src.degree
                for t, v in enumerate(src.values[a]):
                    row[off + t] = row[off + t] + v
            rows.append(row)
        return NiceFunction(self.partition, d, rows)

    def __mul__(self, other):
        """Pointwise product: per-interval convolution of Fourier coefficients."""
        d = self.degree + other.degree
        rows = []
        for a in range(self.partition.n):
            row = [0] * (2 * d + 1)
            for t, u in enumerate(self.values[a]):
                if u == 0:
                    continue
                for t2, v in enumerate(other.values[a]):
                    if v == 0:
                        continue
                    row[t + t2] = row[t + t2] + u * v
            rows.append(row)
        return NiceFunction(self.partition, d, rows).trim()

    def trim(self):
        """Drop exactly-zero leading/trailing coefficient pairs."""
        d = self.degree
        while d > 0 and all(
                row[0] == 0 and row[-1] == 0 for row in self.values):
            self.values = [row[1:-1] for row in self.values]
            d -= 1
            self.degree = d
        return self

    # -- analysis ---------------------------------------------------------

    def coeff(self, a: int, d: int):
        if abs(d) > self.degree:
            return 0
        return self.values[a][d + self.degree]

    def mean(self):
        """<P, f> — the integral against the uniform measure."""
        w = self.partition.lengths
        return sum(w[a] * self.coeff(a, 0) for a in range(self.partition.n))

    def pair_with_kernel(self, kern: Kernel):
        """c |-> integral of s(c, c') f(c') P(dc'), exactly.

        Circle integration picks out matching Fourier indices; spatial
        integration is a weighted sum over intervals.  The result has
        degree at most the kernel band regardless of deg(f).
        """
        K = kern.band
        w = kern.partition.lengths
        rows = []
        for a in range(kern.partition.n):
            row = [0] * (2 * K + 1)
            for (i, j, aa, b), sv in kern.coeffs.items():
                if aa != a:
                    continue
                fv = self.coeff(b, -j)
                if fv == 0:
                    continue
                row[i + K] = row[i + K] + w[b] * (sv * fv)
            rows.append(row)
        return NiceFunction(kern.partition, K, rows).trim()

    def on_grid(self, T: int) -> np.ndarray:
        """Complex values on the (interval, angle) grid, shape (nI, T)."""
        vals = np.array([[complex(v) for v in row] for row in self.values])
        return vals @ phases(self.degree, T)


def phi_psi_recursion(kern: Kernel, nmax: int,
                      degree_cap: int = DEGREE_CAP):
    """Phi_1..Phi_nmax and Psi_1..Psi_nmax as NiceFunctions.

    Runs over complex rationals (kernel tables are stored exactly).
    Raises if any Phi degree would exceed degree_cap — the caller asked
    for more than the representation can hold, and truncating would
    corrupt every later moment.
    """
    if nmax < 1:
        raise ValueError("nmax must be >= 1")
    one = CRat(1)
    part = kern.partition

    phis = [None, NiceFunction.constant(part, one)]
    psis = [None]
    for n in range(1, nmax + 1):
        if n >= 2:
            acc = None
            for j in range(1, n - 1):
                m = n - 1 - j
                term = psis[j] * phis[m]
                acc = term if acc is None else acc + term
            if acc is None:
                acc = NiceFunction(part, 0, [[0 * one] for _ in range(part.n)])
            if acc.degree > degree_cap:
                raise ValueError(
                    f"Phi_{n} would have degree {acc.degree} > cap {degree_cap}")
            phis.append(acc)
        psis.append(phis[n].pair_with_kernel(kern))
    return phis[1:], psis[1:]


def theoretical_moments(kern: Kernel, kmax: int) -> list:
    """m_k = <P, Phi_{k+1}> for k = 1..kmax, as exact Fractions.

    Raises ValueError unless every imaginary part cancels identically.
    """
    phis, _ = phi_psi_recursion(kern, kmax + 1)
    out = []
    for k in range(1, kmax + 1):
        # phis[k] is Phi_{k+1} (list is 1-offset); a Phi whose coefficients
        # all stayed the int 0 (odd k for even kernels) means to a Fraction
        m = CRat(0) + phis[k].mean()
        if m.im != 0:
            raise ValueError(f"moment m_{k} has an imaginary part")
        out.append(m.re)
    return out
