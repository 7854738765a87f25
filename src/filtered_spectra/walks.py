"""Self-check of the banded-walk fixed-point recursions.

A walk takes steps d in -ell..ell of weight z[d + ell] and weighs the
product of its steps.  The recursions are the "window steps vs. complete
excursions" decomposition.  (Dropping the trailing (1+U) after B — a
form that sometimes appears — fails against direct enumeration already
at walks of length two.)
"""

from __future__ import annotations

import numpy as np

from .kernel import phases

__all__ = ["random_walk_recursion_check"]


def _walk_path_sums(z, ell, t_max, lo, hi, starts, targets):
    """sum_{t=1..t_max} walk weights start->target with positions in [lo, hi].

    Exact within the truncation: the caps are chosen by callers so that
    no admissible walk of length <= t_max ever reaches them.
    """
    n = hi - lo + 1
    zker = np.asarray(z, dtype=complex)  # weight of displacement d at z[d+ell]
    out = np.zeros((len(starts), len(targets)), dtype=complex)
    tidx = [t - lo for t in targets]
    for si, s in enumerate(starts):
        vec = np.zeros(n, dtype=complex)
        vec[s - lo] = 1.0
        acc = np.zeros(len(targets), dtype=complex)
        for _ in range(t_max):
            vec = np.convolve(vec, zker)[ell:ell + n]
            acc += vec[tidx]
        out[si] = acc
    return out


def _iterate(update, size):
    """Fixed point of update by plain iteration from 0, to 1e-14.

    The n-th iterate sums the walks the recursion has built in n rounds,
    a growing set whose terms the series of |z| bounds one by one, so
    the iterates converge whenever sum |z| < 1.
    """
    x = np.zeros((size, size), dtype=complex)
    for _ in range(100000):
        t = update(x)
        if not x.size or float(np.max(np.abs(t - x))) <= 1e-14:
            return t
        x = t
    raise RuntimeError("walk fixed-point iteration did not converge")


def random_walk_recursion_check(z, ell: int, t_max: int = 60) -> float:
    """Fixed-point recursions for banded-walk sums vs. direct series.

    z: the L = 2*ell + 1 step weights (weight of displacement d is
    z[d + ell]); requires sum |z| < 1.  Solves

        U = (B + A(1+U)C)(1+U)     (walks staying >= 1, endpoints 1..ell)
        V = (B + C(1+V)A)(1+V)     (walks staying <= ell, same endpoints)
        W = (D + blockdiag(C(1+V)A, 0, A(1+U)C))(1+W)
                                   (unconstrained walks, endpoints -ell..ell)

    U and V by plain iteration from 0, W, which is linear in W, by one
    linear solve.  Then compares every entry against truncated path
    sums (tail below (sum|z|)^(t_max+1) / (1 - sum|z|)) and the central
    W row against contour-quadrature transforms of the step
    distribution.  Returns the largest absolute discrepancy.
    """
    z = [complex(v) for v in z]
    L = 2 * ell + 1
    if len(z) != L:
        raise ValueError(f"need {L} step weights for ell={ell}")
    if sum(abs(v) for v in z) >= 1:
        raise ValueError("sum |z| must be < 1 for the walk sums to converge")

    def step_matrix(src, dst):
        m = np.zeros((len(src), len(dst)), dtype=complex)
        for i, a in enumerate(src):
            for j, b in enumerate(dst):
                if abs(b - a) <= ell:
                    m[i, j] = z[b - a + ell]
        return m

    low = list(range(1, ell + 1))           # positions 1..ell
    high = [p + ell for p in low]           # positions ell+1..2*ell
    window = list(range(-ell, ell + 1))     # positions -ell..ell

    A = step_matrix(low, high)
    B = step_matrix(low, low)
    C = step_matrix(high, low)
    D = step_matrix(window, window)
    eye_l = np.eye(ell)

    U = _iterate(lambda u: (B + A @ (eye_l + u) @ C) @ (eye_l + u), ell)
    V = _iterate(lambda v: (B + C @ (eye_l + v) @ A) @ (eye_l + v), ell)
    M = D.copy()
    if ell:
        M[:ell, :ell] += C @ (eye_l + V) @ A
        M[ell + 1:, ell + 1:] += A @ (eye_l + U) @ C
    W = np.linalg.solve(np.eye(L) - M, M)

    cap = ell * (t_max + 1) + 1
    U_dp = _walk_path_sums(z, ell, t_max, 1, cap, low, low)
    V_dp = _walk_path_sums(z, ell, t_max, -cap, ell, low, low)
    W_dp = _walk_path_sums(z, ell, t_max, -cap, cap, window, window)

    worst = 0.0
    for got, want in ((U, U_dp), (V, V_dp), (W, W_dp)):
        if got.size:
            worst = max(worst, float(np.max(np.abs(got - want))))

    # central row of W against the contour integral of 1/(1 - zhat);
    # row ell - pos of the phase grid is exp(-i pos x)
    phase = phases(ell, 4096)
    integrand = 1.0 / (1.0 - np.asarray(z) @ phase)
    theta = (phase[::-1] * integrand).mean(axis=1) - np.eye(L)[ell]
    worst = max(worst, float(np.max(np.abs(theta - W[ell]))))
    return worst
