"""Color fixed point: known values, symmetries, densities, continuation."""

import cmath
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from filtered_spectra import colorsolve
from filtered_spectra.algebra import certificate_radius
from filtered_spectra.colorsolve import (_GridOps, _continue_batch,
                                         circle_points, density_profile,
                                         solver_moments, stieltjes_path)
from filtered_spectra.kernel import (IntervalPartition, Kernel, compass_filter,
                                     constant_kernel, kernel_from_filter,
                                     phases)
from filtered_spectra.moments import theoretical_moments
from conftest import BRANCH_KERNELS, pair_product, rank_two_kernel, \
    seeded_two_interval_kernel, tilted_circle_kernel, two_point_kernel

GOLDEN = (3.0 - math.sqrt(5.0)) / 2.0      # S(3) for the semicircle law


def _semicircle_S(lam: complex) -> complex:
    root = cmath.sqrt(lam * lam - 4.0)
    a, b = (lam + root) / 2.0, (lam - root) / 2.0
    if lam.imag != 0:
        return a if a.imag * lam.imag < 0 else b   # Im S opposes Im lambda
    return min(a, b, key=abs)                      # S ~ 1/lambda at infinity


def _tilted_factor() -> dict:
    """f(x, t) = a(x) + b(x) Re((1+i) exp(it)) / 2 on the cells [0, 1/3)
    and [1/3, 1]: f[(i, x)] is the coefficient of exp(i i t) on cell x."""
    a, b = (Fraction(1), Fraction(1, 2)), (Fraction(1, 4), Fraction(1, 2))
    f = {(0, x): (a[x], 0) for x in range(2)}
    for x in range(2):
        f[(1, x)] = (b[x] / 4, b[x] / 4)
        f[(-1, x)] = (b[x] / 4, -b[x] / 4)
    return f


def _tilted_kernel() -> Kernel:
    """s = f (x) f with f = _tilted_factor().

    f is positive, neither even nor odd in t, and its mode profiles a, b
    differ across the two cells, so s_ij(x, y) != s_ji(x, y).  A
    Jacobian that confuses the modes j + m and j - m, or the indices
    i and j, is wrong here, unlike on the kernels of conftest.
    """
    part = IntervalPartition((Fraction(0), Fraction(1, 3), Fraction(1)))
    f = _tilted_factor()
    return Kernel(part, 1, {(i, j, x, y): pair_product(f[(i, x)], f[(j, y)])
                            for i in (-1, 0, 1) for j in (-1, 0, 1)
                            for x in range(2) for y in range(2)})


def _three_interval_kernel() -> Kernel:
    """s = f (x) f on three intervals, band 3 with q = 1:
    f(x, t) = a(x) (1 + cos(t) / 2 + cos(3t) / 4) >= a(x) / 4 > 0."""
    part = IntervalPartition((Fraction(0), Fraction(1, 4), Fraction(3, 5),
                              Fraction(1)))
    a = (Fraction(1), Fraction(3, 2), Fraction(1, 2))
    f = {0: Fraction(1), 1: Fraction(1, 4), -1: Fraction(1, 4),
         3: Fraction(1, 8), -3: Fraction(1, 8)}
    return Kernel(part, 3, {(i, j, x, y): a[x] * a[y] * f[i] * f[j]
                            for i in f for j in f
                            for x in range(3) for y in range(3)})


def test_semicircle_value_at_three(semicircle):
    sol = stieltjes_path(semicircle, [3.0])[0]
    assert sol.stieltjes.real == pytest.approx(GOLDEN, abs=1e-10)
    assert abs(sol.stieltjes.imag) < 1e-12
    assert sol.residual < 1e-12


def test_semicircle_closed_form(semicircle):
    for lam in (2j, 1.0 + 1.0j, -2.5 + 0.3j, 0.5 + 2.0j, -3.2 + 0.0j):
        sol = stieltjes_path(semicircle, [lam])[0]
        assert sol.stieltjes == pytest.approx(_semicircle_S(complex(lam)),
                                              abs=1e-10)


def test_residuals_on_accepted_solutions(compass_kernel):
    lams = [6.0 + 0.0j, 2.0 + 0.5j, -1.0 + 0.25j, 0.3 + 1.0j]
    for kern in (compass_kernel, rank_two_kernel(), two_point_kernel(),
                 _tilted_kernel()):
        for sol in stieltjes_path(kern, lams):
            assert sol.residual < 1e-12


def test_imaginary_sign_and_conjugation(compass_kernel):
    # 2.5 + 0.001i sits near the axis, where Newton from Psi = 0 lands on
    # a non-Herglotz branch of the two-interval kernel
    for kern, lam in ((compass_kernel, 1.3 + 0.7j),
                      (seeded_two_interval_kernel(), 1.3 + 0.7j),
                      (seeded_two_interval_kernel(), 2.5 + 0.001j)):
        up = stieltjes_path(kern, [lam])[0]
        dn = stieltjes_path(kern, [lam.conjugate()])[0]
        assert up.stieltjes.imag < 0
        assert dn.stieltjes == pytest.approx(up.stieltjes.conjugate(),
                                             abs=1e-11)


def test_real_lambda_inside_support_is_boundary_value_from_above():
    # the seeded kernel's support reaches +-3.39, so lambda = 3 is inside it
    kern = seeded_two_interval_kernel()
    S = stieltjes_path(kern, [3.0])[0].stieltjes
    above = stieltjes_path(kern, [3.0 + 1e-7j])[0].stieltjes
    assert S.imag < 0
    assert S == pytest.approx(above, abs=1e-6)


def test_stieltjes_is_odd_for_symmetric_law(compass_kernel):
    # s is real and the odd moments vanish: S(-conj lam) = -conj S(lam),
    # off the axis and for the boundary values on it, for every family
    lams = np.array([3.1 + 0.4j, 0.3 + 0.05j, 1.7 + 0.01j, 0.8, 1.9, 5.0,
                     0.6 - 0.2j])
    for kern in (compass_kernel, constant_kernel(),
                 seeded_two_interval_kernel(), two_point_kernel(),
                 rank_two_kernel(), tilted_circle_kernel()):
        S = np.array([sol.stieltjes for sol in stieltjes_path(kern, lams)])
        minus = [sol.stieltjes for sol in stieltjes_path(kern, -lams.conj())]
        assert np.max(np.abs(minus + S.conj())) <= 1e-12, kern


def test_large_lambda_expansion(compass_kernel):
    # S(lambda) = 1/lambda + m_2/lambda^3 + O(lambda^-5)
    lam = 50.0 + 1.0j
    sol = stieltjes_path(compass_kernel, [lam])[0]
    want = 1 / lam + 1 / lam ** 3
    assert abs(sol.stieltjes - want) < 2e-6


@pytest.mark.parametrize("make", [
    lambda: kernel_from_filter(compass_filter()), constant_kernel,
    rank_two_kernel, seeded_two_interval_kernel, two_point_kernel],
    ids=["compass", "semicircle", "rank-two", "seeded", "two-point"])
def test_solver_moments_within_stated_bound(make):
    # tol_k = c eps R^k (roundoff, c = 3 * 256) + 2 A^k (A/R)^M (aliasing,
    # |m_n| <= A^n) on the circle R = 1.5A with M = 64 points
    kern = make()
    A, kmax = kern.amplitude(), 12
    moments, bounds = solver_moments(kern, kmax)
    ks = np.arange(1, kmax + 1)
    tol = (768 * np.finfo(float).eps * (1.5 * A) ** ks
           + 2 * A ** ks * (2 / 3) ** 64)
    assert bounds == pytest.approx(tol, rel=1e-12)
    exact = [float(m) for m in theoretical_moments(kern, kmax)]
    for k in range(kmax):
        assert abs(moments[k] - exact[k]) <= tol[k], k + 1
    with pytest.raises(ValueError, match="1..63"):
        solver_moments(kern, 64)


def _converged_descent(kern, targets):
    """The descent with Newton converged to TOL at every waypoint, for
    targets at one height h > 0: each solve warm-starts the next, and a
    point fails if any of its solves fails."""
    ops = _GridOps(kern)
    top, h = 4.0 * kern.amplitude(), targets.imag
    n2 = math.ceil(math.log(top / h.min()) / math.log(1 / 0.7))
    c = np.zeros((len(targets),) + ops.shape, dtype=complex)
    ok = np.ones(len(targets), dtype=bool)
    for k in range(n2 + 2):
        lam = (targets if k > n2
               else targets.real + 1j * top * (h / top) ** (k / n2))
        c, S, _, step_ok = colorsolve._newton(ops, lam, c, False, True)
        ok &= step_ok
    return S, ok


@pytest.mark.parametrize("height", [1e-2, 1e-5])
@pytest.mark.parametrize("name", list(BRANCH_KERNELS))
def test_one_step_descent_lands_on_the_converged_branch(name, height):
    """One Newton step per waypoint stays on the branch that converging
    at every waypoint follows, on 301 points across +-1.2A.

    Each side stops at a residual <= TOL, and its last Newton step
    squares the error before that, so the two values of S differ by the
    two stopping errors, a small multiple of TOL where I - J is well
    conditioned, plus the rounding of S = sum_b len_b mean g_b, a few
    eps |S|.  The bound is 10 TOL + 4 eps |S|; the largest differences
    are 3.8e-13 (coprime at 1e-2, near its edge) and 1.6e-13 (constant
    at 1e-2, x = 1.97).  The reference converges at every waypoint, the
    compass centre at 1e-5 (|S| = 1573) among them.
    """
    kern = BRANCH_KERNELS[name]()
    A = kern.amplitude()
    xs = np.linspace(-1.2 * A, 1.2 * A, 301)
    S, _, _, ok = _continue_batch(kern, xs + 1j * height)
    S_ref, ok_ref = _converged_descent(kern, xs + 1j * height)
    assert ok.all() and ok_ref.all()
    assert np.all(S.imag < 0) and np.all(S_ref.imag < 0)
    eps = np.finfo(float).eps
    bound = 10 * colorsolve.TOL + 4 * eps * np.abs(S)
    assert np.all(np.abs(S - S_ref) <= bound)


def test_the_sign_test_rejects_a_wrong_branch_landing(monkeypatch):
    # seeded kernel 6 at x = +-0.37125A: the jump from the cruise point
    # converges to a table with Im g > 0 somewhere, the conjugate
    # solution.  The sign test refuses it, and the point halves its jump
    # and lands on the branch of the converged descent.
    kern = seeded_two_interval_kernel(6)
    A = kern.amplitude()
    ops = _GridOps(kern)
    for height in (1e-5, 1e-8):
        targets = np.array([-0.37125 * A, 0.37125 * A]) + 1j * height
        cold = np.zeros((2,) + ops.shape, dtype=complex)
        c, _, _, ok = colorsolve._newton(
            ops, targets.real + 1j * colorsolve.CRUISE * A, cold, False, True)
        assert ok.all()
        c, S_bare, res, ok = colorsolve._newton(ops, targets, c, False, True)
        assert np.all(res <= colorsolve.TOL) and not ok.any()
        seen = _spy_residual(monkeypatch)
        S, _, _, ok = _continue_batch(kern, targets)
        monkeypatch.undo()
        assert ok.all()
        between = [lams for lams in seen
                   if height < lams.imag.max() < colorsolve.CRUISE * A]
        assert between                              # a halved jump
        S_ref, ok_ref = _converged_descent(kern, targets)
        assert ok_ref.all()
        eps = np.finfo(float).eps
        assert np.all(np.abs(S - S_ref)
                      <= 10 * colorsolve.TOL + 4 * eps * np.abs(S))
        assert np.all(S_bare.imag > 0)


@pytest.mark.parametrize("height", [1e-2, 1e-5, 1e-8])
@pytest.mark.parametrize("seed", [4, 6, 23, 31])
def test_jumps_land_on_the_converged_branch(seed, height):
    """The certified jump against the descent converged at every
    waypoint, on 161 points across +-1.1A of seeded kernels, two of
    which (6 and 31) the jump without the sign test gets wrong; the
    bound is the branch test's."""
    kern = seeded_two_interval_kernel(seed)
    A = kern.amplitude()
    xs = np.linspace(-1.1 * A, 1.1 * A, 161)
    S, _, _, ok = _continue_batch(kern, xs + 1j * height)
    S_ref, ok_ref = _converged_descent(kern, xs + 1j * height)
    assert ok.all() and ok_ref.all()
    assert np.all(S.imag < 0)
    eps = np.finfo(float).eps
    assert np.all(np.abs(S - S_ref)
                  <= 10 * colorsolve.TOL + 4 * eps * np.abs(S))


def test_psi_representation(compass_kernel):
    sol = stieltjes_path(compass_kernel, [4.0 + 1.0j])[0]
    assert sol.psi.shape == (1, 2 * compass_kernel.band + 1)
    grid = sol.psi @ phases(compass_kernel.band, 64)
    assert grid.shape == (1, 64)
    # Psi inherits the Herglotz sign on the whole color space
    assert grid.imag.max() < 1e-12


@pytest.mark.parametrize("make", [
    lambda: kernel_from_filter(compass_filter()), rank_two_kernel,
    seeded_two_interval_kernel, _three_interval_kernel],
    ids=["compass", "rank-two", "seeded", "three-interval"])
def test_a_reflected_psi_is_even(make):
    # a real table is solved on modes 0..K, and unfold mirrors them: the
    # returned psi has c_-i = c_i exactly, at every height
    kern = make()
    assert _GridOps(kern).reflected
    A = kern.amplitude()
    xs = np.linspace(-1.1 * A, 1.1 * A, 9)
    lams = list(xs + 1e-2j) + list(xs - 1e-5j) + [3 * A, 0.3 + 2j * A]
    for sol in stieltjes_path(kern, lams):
        assert np.array_equal(sol.psi, sol.psi[:, ::-1])


def test_newton_jacobian_matches_finite_differences():
    # the tilted table is complex, so its unknowns are the modes -K..K
    ops = _GridOps(_tilted_kernel())
    assert not ops.reflected and ops.shape == (2, 3)
    rng = np.random.default_rng(7)
    shape = (1,) + ops.shape
    c = 0.3 * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    v = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    lam, h = np.array([0.7 + 1.5j]), 1e-5
    g, _ = ops.residual(lam, c)
    _, r_plus = ops.residual(lam, c + h * v)
    _, r_minus = ops.residual(lam, c - h * v)
    dF = (r_plus - r_minus) / (2 * h) + v           # r = F(c) - c
    want = ops.jacobian(g)[0] @ v.reshape(-1)
    assert np.max(np.abs(dF.reshape(-1) - want)) < 1e-8 * np.max(np.abs(want))


def _folded_kernel() -> Kernel:
    """s = f (x) f on three intervals with modes 0, +-3 and +-6, real."""
    part = IntervalPartition((Fraction(0), Fraction(1, 4), Fraction(3, 5),
                              Fraction(1)))
    a = (Fraction(1), Fraction(3, 2), Fraction(1, 2))
    f = {0: Fraction(1), 3: Fraction(1, 5), -3: Fraction(1, 5),
         6: Fraction(1, 10), -6: Fraction(1, 10)}
    return Kernel(part, 6, {(i, j, x, y): a[x] * a[y] * f[i] * f[j]
                            for i in f for j in f
                            for x in range(3) for y in range(3)})


def test_the_folded_jacobian_matches_finite_differences():
    # folded by q = 3 the kernel is band 2 on 43 nodes, and its table is
    # real, so the unknowns are the modes 0..2 on the 22 distinct nodes;
    # g^2 carries modes 0..4 and J pairs every interval with every other.
    # The differences are taken in those coordinates, off any solution
    ops = _GridOps(_folded_kernel())
    assert (ops.q, ops.K, ops.T, ops.reflected) == (3, 2, 43, True)
    assert ops.shape == (3, 3) and ops.phase.shape == (3, 22)
    rng = np.random.default_rng(11)
    shape = (2,) + ops.shape
    c = 0.3 * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    v = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    lam, h = np.array([0.7 + 1.5j, -2.0 + 0.5j]), 1e-5
    g, _ = ops.residual(lam, c)
    _, r_plus = ops.residual(lam, c + h * v)
    _, r_minus = ops.residual(lam, c - h * v)
    dF = ((r_plus - r_minus) / (2 * h) + v).reshape(2, -1)
    want = (ops.jacobian(g) @ v.reshape(2, -1, 1))[:, :, 0]
    assert np.max(np.abs(dF - want)) < 1e-8 * np.max(np.abs(want))


def test_the_reflected_map_is_the_full_map_on_even_tables():
    # F on the 22 distinct nodes of phi, unfolded, against F summed on all
    # 129 nodes of theta from the kernel's own table, at even tables that
    # solve nothing
    kern = _folded_kernel()
    ops = _GridOps(kern)
    rng = np.random.default_rng(5)
    c = 0.3 * (rng.standard_normal((2,) + ops.shape)
               + 1j * rng.standard_normal((2,) + ops.shape))
    lam = np.array([0.7 + 1.5j, -2.0 + 0.5j])
    _, r = ops.residual(lam, c)
    psi, F = ops.unfold(c), ops.unfold(r + c)
    T = 3 * ops.T
    ph = phases(kern.band, T)
    s = np.einsum("ijab,it,js->atbs", kern.coeff_array(), ph, ph)
    ell = np.array([float(l) for l in kern.partition.lengths])
    for k in range(2):
        g = 1 / (lam[k] - psi[k] @ ph)
        want = np.einsum("atbs,bs->at", s, g * ell[:, None]) / T
        assert np.max(np.abs(F[k] @ ph - want)) <= 1e-14 * np.abs(want).max()


def test_path_accepts_any_iterable(semicircle):
    lams = [2j, 1.0 + 1.0j]
    from_gen = stieltjes_path(semicircle, (lam for lam in lams))
    assert [s.stieltjes for s in from_gen] == pytest.approx(
        [_semicircle_S(lam) for lam in lams], abs=1e-10)


def test_cold_start_far_from_the_imaginary_axis(semicircle):
    """Each target starts at its own cruise point, so targets far to the
    side of the spectrum, far out, below the axis, close to the axis or
    on it all reach the closed form.  A = 2: the targets at 2A <= |lam|
    < 4A, real ones and |lam| = 2A exactly among them, are solved in
    place."""
    lams = [40 + 1e-3j, -40 + 1e-3j, 1000 + 1j, -25 - 3j, 0.5 + 1e-6j,
            1.9, 3.0, 4.0, -4.5, 7.9, 5 + 3j, -1 + 4.5j, 0.5 - 7j, -3 - 3j,
            4j]
    for lam, sol in zip(lams, stieltjes_path(semicircle, lams)):
        want = (lam - cmath.sqrt(lam - 2) * cmath.sqrt(lam + 2)) / 2
        assert abs(sol.stieltjes - want) < 1e-12, lam


def test_far_targets_at_tiny_heights_keep_their_sign(semicircle,
                                                    compass_kernel):
    # solved in place, where Kantorovich certifies the branch and no sign
    # test runs: Im g = -Im lam / |lam|^2 underflows here, and at band
    # K > 0 rounding in Psi = c @ phase swamps an Im lam below about
    # eps |Psi| (rank-two at 3A + 1e-20i, compass at 8.04 + 1e-25i), so
    # S is the value at the real point, to rounding
    for kern, lams in ((semicircle, [1e200 + 1e-200j, 1e20 + 1e-300j]),
                       (rank_two_kernel(), [3 * 5 ** 0.5 + 1e-20j]),
                       (compass_kernel, [8.04 + 1e-25j])):
        S, _, _, ok = _continue_batch(kern, lams + [lam.real for lam in lams])
        assert ok.all()
        half = len(lams)
        assert np.all(np.abs(S[:half] - S[half:])
                      <= 4 * np.finfo(float).eps * np.abs(S[half:]))
        assert stieltjes_path(kern, lams)[0].stieltjes == S[0]
    lams = [1e200 + 1e-200j, 1e20 + 1e-300j]
    for lam, sol in zip(lams, stieltjes_path(semicircle, lams)):
        assert sol.stieltjes == pytest.approx(1 / lam, rel=1e-15)


@pytest.mark.parametrize("make", [
    rank_two_kernel, lambda: kernel_from_filter(compass_filter()),
    _tilted_kernel], ids=["rank-two", "compass", "tilted"])
def test_a_point_does_not_depend_on_its_batch(make):
    # a point solved alone reads, bit for bit, the S it reads in a batch:
    # every product in Newton, and S's sum over the intervals, is stacked
    # per point (one 2-D product over the batch for S moved it by an ulp
    # at 14 of these 47 rank-two points)
    kern = make()
    A = kern.amplitude()
    lams = np.concatenate([np.linspace(-1.1 * A, 1.1 * A, 37) + 1e-2j,
                           np.linspace(-3 * A, 3 * A, 10) + 1e-20j])
    S, _, _, ok = _continue_batch(kern, lams)
    assert ok.all()
    assert np.array_equal(S, [_continue_batch(kern, [lam])[0][0]
                              for lam in lams])


@pytest.mark.parametrize("height", [1e-10, -1e-12])
def test_targets_below_the_hop_are_solved_at_their_own_height(
        semicircle, compass_kernel, height):
    # below 1e-8 a target lands at 1e-8 and hops to its own height, as a
    # real target hops to the axis; S(x + 1e-8i) differs from it by
    # about 1e-8 |S'|
    xs = np.linspace(-2.5, 2.5, 11) + 0.013
    lams = xs + 1j * height
    S, _, res, ok = _continue_batch(semicircle, lams)
    want = [(lam - cmath.sqrt(lam - 2) * cmath.sqrt(lam + 2)) / 2
            for lam in lams]
    assert ok.all() and np.all(res <= colorsolve.TOL)
    assert np.max(np.abs(S - want)) <= 1e-13
    xs = np.linspace(0.06, 2.7, 23)
    S, _, _, ok = _continue_batch(compass_kernel, xs + 1j * height)
    S_ref, ok_ref = _converged_descent(compass_kernel, xs + 1j * abs(height))
    if height < 0:
        S_ref = np.conj(S_ref)
    assert ok.all() and ok_ref.all()
    eps = np.finfo(float).eps
    assert np.all(np.abs(S - S_ref)
                  <= 10 * colorsolve.TOL + 4 * eps * np.abs(S))


BAND_ZERO_CUTS = (Fraction(0), Fraction(1, 5), Fraction(1, 2), Fraction(1))
BAND_ZERO_TABLE = ((Fraction(2), Fraction(1, 2), Fraction(1, 4)),
                   (Fraction(1, 2), Fraction(1), Fraction(3, 2)),
                   (Fraction(1, 4), Fraction(3, 2), Fraction(1, 3)))


def _band_zero_kernel() -> Kernel:
    """Band 0, three unequal cells, s_ab not a product f_a f_b."""
    return Kernel(IntervalPartition(BAND_ZERO_CUTS), 0,
                  {(0, 0, a, b): BAND_ZERO_TABLE[a][b]
                   for a in range(3) for b in range(3)})


def test_grid_nodes_follow_the_band(semicircle, compass_kernel):
    # g = 1/(lam - Psi) does not depend on the angle at band 0
    for kern in (semicircle, _band_zero_kernel()):
        assert _GridOps(kern).T == 1
        assert _GridOps(kern).phase.shape == (1, 1)
    # the tilted table is complex: modes -1..1 on all T nodes
    ops = _GridOps(_tilted_kernel())
    assert (ops.q, ops.T, ops.reflected) == (1, 128, False)
    assert ops.phase.shape == (3, 128) and np.array_equal(ops.mult, [1] * 128)
    # the rank-two table is real: modes 0 and 1 on the 65 distinct nodes,
    # 0 and 64 alone and the others standing for their mirror too
    ops = _GridOps(rank_two_kernel())
    assert (ops.q, ops.T, ops.reflected) == (1, 128, True)
    assert ops.phase.shape == (2, 65)
    assert np.array_equal(ops.mult, [1] + [2] * 63 + [1])
    # the compass has modes -2, 0 and 2 alone: folded by q = 2, it is band
    # 1 on T / 2 nodes, and its real table takes it to modes 0 and 1 on 33
    ops = _GridOps(compass_kernel)
    assert (ops.q, ops.K, ops.T, ops.reflected) == (2, 1, 64, True)
    assert ops.phase.shape == (2, 33) and ops.dim == 2
    assert ops.mult.sum() == 64
    # the grid's tables depend on K, T and the mirror alone: one shared,
    # read-only copy serves every kernel with those three
    again = _GridOps(kernel_from_filter(compass_filter()))
    assert again.phase is ops.phase and again.dft2 is ops.dft2
    with pytest.raises(ValueError):
        ops.phase[0, 0] = 0


def _dilated(kern: Kernel, q: int) -> Kernel:
    """kern with each mode index i taken to q i: s(., q theta; ., q theta')."""
    return Kernel(kern.partition, q * kern.band,
                  {(q * i, q * j, a, b): (Fraction(re, kern.den),
                                          Fraction(im, kern.den))
                   for (i, j, a, b), (re, im) in kern.coeffs.items()})


def _unfolded_residual(kern: Kernel, T=128):
    """lam, psi -> max |F(Psi) - Psi| from the kernel's own modes, on T
    angles offset by half a node: s summed on the product grid, no
    _GridOps."""
    theta = 2 * math.pi * (np.arange(T) + 0.5) / T
    ph = np.exp(1j * np.outer(np.arange(-kern.band, kern.band + 1), theta))
    s = np.einsum("ijab,it,js->atbs", kern.coeff_array(), ph, ph,
                  optimize=True)
    ell = np.array([float(l) for l in kern.partition.lengths])

    def residual(lam, psi):
        g = 1 / (lam - psi @ ph)
        F = np.einsum("atbs,bs->at", s, g * ell[:, None]) / T
        return np.max(np.abs(F - psi @ ph))
    return residual


@pytest.mark.parametrize("q", [2, 4, 3])
@pytest.mark.parametrize("make", [_tilted_kernel, rank_two_kernel,
                                  seeded_two_interval_kernel],
                         ids=["tilted", "rank-two", "seeded"])
def test_a_dilated_kernel_folds_onto_the_undilated_one(make, q):
    # modes i -> q i: the solver folds the angle by q and solves the
    # undilated kernel's equations on ceil(128 / q) nodes.  At height A/4
    # and in place both node counts alias below rounding, so S agrees to
    # 4 eps |S|, for q = 3 too (43 nodes, 129 in theta).  Nearer the
    # axis the two grids differ: 32 nodes alias S(x + 0.01i) of the
    # tilted kernel by 2e-12, as 128 unfolded nodes did before the fold.
    kern, wide = make(), _dilated(make(), q)
    ops = _GridOps(wide)
    assert (ops.q, ops.K, ops.T) == (q, kern.band, -(-128 // q))
    A = kern.amplitude()
    xs = np.linspace(-1.1 * A, 1.1 * A, 23)
    lams = list(xs + 0.25j * A) + [3 * A, 2.5 * A + 0.3j, -3 * A - 1j]
    S = np.array([sol.stieltjes for sol in stieltjes_path(wide, lams)])
    S0 = np.array([sol.stieltjes for sol in stieltjes_path(kern, lams)])
    eps = np.finfo(float).eps
    assert np.all(np.abs(S - S0) <= 4 * eps * np.abs(S0))
    assert theoretical_moments(wide, 8) == theoretical_moments(kern, 8)
    # psi in the dilated kernel's layout, zero off qZ, solves the
    # unfolded equations on a grid the solver never saw
    lams += list(xs + 1e-2j) + list(xs + 1e-5j)
    off = np.arange(2 * wide.band + 1) % q != 0
    residual = _unfolded_residual(wide)
    for lam, sol in zip(lams, stieltjes_path(wide, lams)):
        assert sol.psi.shape == (wide.partition.n, 2 * wide.band + 1)
        assert not sol.psi[:, off].any()
        assert residual(lam, sol.psi) <= 10 * colorsolve.TOL, lam


def test_a_table_with_mode_zero_alone_runs_on_one_node(semicircle):
    flat = Kernel(semicircle.partition, 2, {(0, 0, 0, 0): 1})
    ops = _GridOps(flat)
    assert (ops.K, ops.T, ops.phase.shape) == (0, 1, (1, 1))
    lams = [3.0, 0.5 + 1e-2j, -1.9 + 1e-5j, 1.2]
    for sol, ref in zip(stieltjes_path(flat, lams),
                        stieltjes_path(semicircle, lams)):
        assert sol.stieltjes == ref.stieltjes
        assert np.array_equal(sol.psi, [[0, 0, ref.psi[0, 0], 0, 0]])


def test_semicircle_closed_form_near_the_axis(semicircle):
    lams = np.linspace(-2.5, 2.5, 50) + 5e-3j
    for lam, sol in zip(lams, stieltjes_path(semicircle, lams)):
        root = cmath.sqrt(lam * lam - 4.0)
        want = (lam - root) / 2.0
        if want.imag > 0:                      # the branch with Im S < 0
            want = (lam + root) / 2.0
        assert abs(sol.stieltjes - want) <= 1e-13, lam


# |P(S)| / max |term of P| for the compass's certified curve
# P = 4 lam^2 S^4 - lam^3 S^3 - lam^2 S^2 + lam S + 1 at x + 0.01i, solved
# on all 64 nodes of 2 theta before the reflection fold: aliasing near
# the density's spike at 0, rounding from x = 0.5 on
QUARTIC_ON_64_NODES = {0.05: 9.5e-7, 0.1: 4.2e-9, 0.5: 6.0e-16,
                       1.0: 2.4e-16, 2.0: 3.3e-16}


def test_the_compass_on_33_nodes_is_as_exact_as_on_64(compass_kernel):
    # the 33 distinct nodes hold the same samples of g, so the aliasing
    # error does not grow; rounding may move, within 8 eps
    lams = [x + 1e-2j for x in QUARTIC_ON_64_NODES]
    for lam, sol in zip(lams, stieltjes_path(compass_kernel, lams)):
        S = sol.stieltjes
        terms = [4 * lam**2 * S**4, -lam**3 * S**3, -lam**2 * S**2, lam * S, 1]
        rel = abs(sum(terms)) / max(map(abs, terms))
        bound = max(QUARTIC_ON_64_NODES[lam.real], 8 * np.finfo(float).eps)
        assert rel <= bound, lam


def test_band_zero_psi_solves_the_color_equations():
    # Psi_a = sum_b s_ab len_b / (lam - Psi_b) and S = sum_b len_b /
    # (lam - Psi_b), checked on the solver's own output
    kern = _band_zero_kernel()
    s = np.array(BAND_ZERO_TABLE, dtype=float)
    ell = np.diff(np.array(BAND_ZERO_CUTS, dtype=float))
    lams = [3.0 + 1.0j, 0.4 + 5e-3j, -1.1 + 1e-3j, -4.0 + 0.0j]
    for lam, sol in zip(lams, stieltjes_path(kern, lams)):
        psi = sol.psi[:, 0]
        g = 1.0 / (lam - psi)
        assert np.max(np.abs(psi - s @ (ell * g))) <= 1e-12
        assert abs(sol.stieltjes - ell @ g) <= 1e-12


def _spy_residual(monkeypatch) -> list:
    """The lambdas of every Newton evaluation, _GridOps.residual, in order."""
    seen = []
    residual = _GridOps.residual

    def spy(self, lams, c):
        seen.append(np.array(lams))
        return residual(self, lams, c)

    monkeypatch.setattr(_GridOps, "residual", spy)
    return seen


def test_conjugate_pairs_are_solved_once(compass_kernel, monkeypatch):
    # Psi(conj lam) has the coefficients conj(c_-d): the reflected
    # compass conjugates its modes 0..K in place, the tilted kernel
    # reverses its modes -K..K too
    seen = _spy_residual(monkeypatch)
    lams = circle_points(4.0, 6)
    assert np.array_equal(lams[3:], np.conj(lams[2::-1]))
    for kern in (compass_kernel, _tilted_kernel()):
        seen.clear()
        S, c, _, ok = _continue_batch(kern, list(lams) + [lams[1]])
        assert ok.all()
        assert max(len(batch) for batch in seen) == 3  # 3 pairs, one repeat
        assert np.array_equal(S[3:6], np.conj(S[2::-1]))
        assert S[6] == S[1]
        c = _GridOps(kern).unfold(c)
        assert np.array_equal(c[5], np.conj(c[0, :, ::-1]))


def test_certificate_points_are_solved_in_place(compass_kernel, monkeypatch):
    # |lam| = certificate_radius >= 2.5A: each point is its own cruise
    # point, so Newton runs only at the targets, one batch per step, with
    # no cruise batch above them and no descent waypoint
    lams = circle_points(certificate_radius(compass_kernel), 20)
    assert np.all(np.abs(lams) >= colorsolve.CRUISE
                  * compass_kernel.amplitude())
    seen = _spy_residual(monkeypatch)
    sols = stieltjes_path(compass_kernel, lams)
    upper = lams[lams.imag > 0]
    assert np.array_equal(seen[0], np.sort(upper))
    assert all(np.isin(batch, upper).all() for batch in seen)
    assert 2 <= len(seen) <= 4
    assert max(sol.residual for sol in sols) <= colorsolve.TOL


def _spy_evaluations(monkeypatch) -> list:
    """(lambdas, residual per point) of every _GridOps.residual call."""
    seen = []
    residual = _GridOps.residual

    def spy(self, lams, c):
        g, r = residual(self, lams, c)
        seen.append((np.array(lams),
                     np.max(np.abs(r @ self.phase), axis=(1, 2))))
        return g, r

    monkeypatch.setattr(_GridOps, "residual", spy)
    return seen


@pytest.mark.parametrize("height", [1e-2, 1e-5, 0.0])
def test_a_certified_target_costs_one_jump_and_one_step(
        compass_kernel, monkeypatch, height):
    # No evaluation at the cruise height: every point jumps from the far
    # field table there to its target in one solve (a real target to
    # 1e-8, then to the axis) and is evaluated exactly once more after
    # its residual reaches TOL: one Newton step past TOL at the target,
    # none at 1e-8.  Off x = 0, where the axis value is the density's
    # 1/sqrt|x| pole.
    xs = np.linspace(0.06, 2.7, 45)
    seen = _spy_evaluations(monkeypatch)
    _, _, res, ok = _continue_batch(compass_kernel, xs + 1j * height)
    assert ok.all() and np.all(res <= colorsolve.TOL)
    top = colorsolve.CRUISE * compass_kernel.amplitude()
    assert all(lams.imag.max() < top for lams, _ in seen)
    stops = [xs + 1j * height] if height else [xs + 1e-8j, xs + 0j]
    rest = seen
    for stop in stops:
        n = next((k for k, (lams, _) in enumerate(rest)
                  if not np.isin(lams, stop).all()), len(rest))
        batches, rest = rest[:n], rest[n:]
        assert np.array_equal(batches[0][0], stop)     # no halved jump
        past = stop is stops[-1]
        for x in stop:
            small = [r[lams == x][0] <= colorsolve.TOL
                     for lams, r in batches if x in lams]
            assert small == ([False] * (len(small) - 1 - past)
                             + [True] * (1 + past))
    assert not rest


def test_the_compass_benchmark_grid_costs_15_evaluations(compass_kernel,
                                                          monkeypatch):
    # np.linspace on the density workload's compass range, 133 distinct
    # |x|, all below 2A: no solve at the cruise height, so 15 residual
    # evaluations per call (19 when Newton converged there first)
    seen = _spy_residual(monkeypatch)
    grid = density_profile(compass_kernel, np.linspace(-2.7, 2.7, 181))
    assert all(grid.flags) and len(seen) == 15


def test_the_far_field_table_is_F_at_zero():
    # lam F(0)[a, i] = sum_b s_(qi,0)(a, b) len_b, with no evaluation
    kerns = [kernel_from_filter(compass_filter()), rank_two_kernel(),
             _tilted_kernel(), _three_interval_kernel()]
    eps = np.finfo(float).eps
    for kern in kerns:
        ops = _GridOps(kern)
        lams = np.array([0.3 + 2j, -1.7 + 0.01j, 5.0 + 1e-8j])
        zero = np.zeros((3,) + ops.shape, dtype=complex)
        _, F0 = ops.residual(lams, zero)
        far = ops.far / lams[:, None, None]
        assert far.shape == F0.shape and np.abs(far).max() > 0
        assert np.all(np.abs(far - F0) <= 4 * eps * np.abs(F0).max())


def test_density_descends_once_per_point(compass_kernel, monkeypatch):
    # np.linspace on the benchmark's compass range (a node at x = 0, 133
    # distinct |x|): eps1 by continuation, then one Newton solve of at
    # most 4 steps to eps2, both at the grid's distinct |x|
    xs = np.linspace(-2.7, 2.7, 181)
    e1, e2 = 1e-2, 5e-3
    calls = []
    newton = colorsolve._newton

    def spy(ops, lams, c0, polish, certify):
        out = newton(ops, lams, c0, polish, certify)
        calls.append((np.array(lams), out[1]))
        return out

    monkeypatch.setattr(colorsolve, "_newton", spy)
    monkeypatch.setattr(colorsolve, "NEWTON_STEPS", 4)
    grid = density_profile(compass_kernel, xs, eps_pair=(e1, e2))
    assert all(grid.flags)
    assert all(np.all(lams.imag >= e1) for lams, _ in calls[:-1])
    lams, S2 = calls[-1]
    assert np.array_equal(lams, np.unique(np.abs(xs)) + 1j * e2)
    monkeypatch.undo()
    ref = [sol.stieltjes for sol in stieltjes_path(compass_kernel, lams)]
    assert np.max(np.abs(S2 - ref)) <= 1e-12


def _mirror_grid(a, n):
    """n points near np.linspace(-a, a, n), node n-1-i exactly -(node i)."""
    right = np.abs(np.linspace(-a, a, n)[n // 2:])
    if n % 2:
        right[0] = 0.0
    return np.concatenate([-right[::-1][:n // 2], right])


@pytest.mark.parametrize("n", [1, 2, 9, 40, 181])
def test_density_solves_each_mirror_pair_once(compass_kernel, monkeypatch, n):
    xs = _mirror_grid(2.7, n)
    assert len(xs) == n and np.array_equal(xs, -xs[::-1])
    seen = _spy_residual(monkeypatch)
    grid = density_profile(compass_kernel, xs)
    assert max(len(batch) for batch in seen) == (n + 1) // 2
    assert all(grid.flags)
    dens = np.array(grid.density)
    assert np.array_equal(dens, dens[::-1])
    lo, hi = grid.support_estimate
    assert lo == -hi or (n == 2 and math.isnan(lo) and math.isnan(hi))


def test_density_fold_mirrors_failures(compass_kernel, monkeypatch):
    # too few Newton steps near the axis: the failures, like the values,
    # come in mirror pairs
    xs = _mirror_grid(2.7, 41)
    monkeypatch.setattr(colorsolve, "NEWTON_STEPS", 3)
    grid = density_profile(compass_kernel, xs)
    flags = np.array(grid.flags)
    assert flags.any() and not flags.all()
    assert np.array_equal(flags, flags[::-1])
    dens = np.array(grid.density)
    assert np.array_equal(np.isnan(dens), ~flags)
    assert np.array_equal(dens[flags], dens[::-1][flags])


def test_guard_failures_flag_only_their_own_points(compass_kernel,
                                                   monkeypatch):
    # |lam - Psi| >= 0.3 fails near the compass centre, where |S(x +
    # 0.01i)| is large: those points halve their jumps up to the cap and
    # fail, and every other point lands as it does unperturbed, bit for
    # bit, since a point's Newton iterates do not depend on its batch
    xs = _mirror_grid(2.7, 41)
    ref = np.array(density_profile(compass_kernel, xs).density)
    conts, newtons = [], []
    cont, newton = colorsolve._continue_batch, colorsolve._newton

    def spy_cont(kern, targets, ops):
        out = cont(kern, targets, ops)
        conts.append(out[3])
        return out

    def spy_newton(ops, lams, c0, polish, certify):
        newtons.append(np.array(lams))
        return newton(ops, lams, c0, polish, certify)

    monkeypatch.setattr(colorsolve, "_continue_batch", spy_cont)
    monkeypatch.setattr(colorsolve, "_newton", spy_newton)
    monkeypatch.setattr(colorsolve, "GUARD", 0.3)
    grid = density_profile(compass_kernel, xs)
    flags = np.array(grid.flags)
    assert flags.any() and not flags.all()
    assert np.array_equal(flags, flags[::-1])
    assert not flags[20]                        # x = 0
    dens = np.array(grid.density)
    assert np.array_equal(np.isnan(dens), ~flags)
    assert np.array_equal(dens[flags], ref[flags])
    # the eps2 solve starts only from the |x| whose eps1 target landed
    (ok1,) = conts
    fold = np.unique(np.abs(xs))
    assert not ok1.all()
    assert np.array_equal(newtons[-1], fold[ok1] + 5e-3j)


def test_density_far_out_is_solved_in_place_without_the_sign(semicircle):
    # |lam| >= 2A at both heights: Kantorovich certifies the branch, and
    # Im g underflows to -0.0 at 1e300, which a sign test would refuse
    grid = density_profile(semicircle, [1e300, -1e300])
    assert grid.flags == [True, True] and grid.density == [0.0, 0.0]


def test_empty_input_gives_empty_output(semicircle, compass_kernel):
    for kern in (semicircle, compass_kernel):
        assert stieltjes_path(kern, []) == []
        grid = density_profile(kern, [])
        assert grid.xs == grid.density == grid.flags == []
        assert all(math.isnan(v) for v in grid.support_estimate)


def test_semicircle_density_values(semicircle):
    grid = density_profile(semicircle, [0.0, 1.0, -1.0])
    assert grid.density[0] == pytest.approx(1.0 / math.pi, abs=1e-3)
    want = math.sqrt(3.0) / (2.0 * math.pi)
    assert grid.density[1] == pytest.approx(want, abs=1e-3)
    assert grid.density[2] == pytest.approx(want, abs=1e-3)
    assert all(grid.flags)


def test_semicircle_support(semicircle):
    xs = np.concatenate([np.arange(-2.12, -1.88, 0.005),
                         np.arange(1.88, 2.121, 0.005)])
    grid = density_profile(semicircle, xs, eps_pair=(1e-3, 5e-4))
    lo, hi = grid.support_estimate
    assert lo == pytest.approx(-2.0, abs=1e-2)
    assert hi == pytest.approx(2.0, abs=1e-2)


def test_semicircle_centre_close_to_the_axis(semicircle):
    start = time.perf_counter()
    grid = density_profile(semicircle, [0.0], eps_pair=(1e-3, 5e-4))
    elapsed = time.perf_counter() - start
    assert all(grid.flags)
    assert abs(grid.density[0] - 1.0 / math.pi) <= 1e-6
    assert elapsed < 10.0


def test_density_outside_support_is_tiny(semicircle):
    grid = density_profile(semicircle, [2.5, 3.0, -4.0],
                           eps_pair=(1e-3, 5e-4))
    assert all(abs(d) < 1e-6 for d in grid.density)
    assert math.isnan(grid.support_estimate[0])


def test_eps_pair_validation(semicircle):
    with pytest.raises(ValueError):
        density_profile(semicircle, [0.0], eps_pair=(5e-3, 1e-2))
    with pytest.raises(ValueError):
        density_profile(semicircle, [0.0], eps_pair=(1e-2, 0.0))


def test_master_identity_for_rank_one_kernels(semicircle, compass_kernel):
    """lambda S = 1 + w^2 for s = f (x) f, w = integral of f / (lambda - Psi).

    Each factor f is written out here, one row of Fourier modes -K..K per
    cell, and w is integrated from the solver's Psi table alone.
    """
    tilted = _tilted_factor()
    cases = (
        (semicircle, [[1]], (3.0, 1.0 + 1.0j)),
        (compass_kernel, [[0.5, 0, 1, 0, 0.5]], (4.5,)),
        (two_point_kernel(), [[0], [2]], (5.0 + 0.5j,)),
        (_tilted_kernel(), [[complex(*map(float, tilted[(i, x)]))
                             for i in (-1, 0, 1)] for x in range(2)],
         (4.0, 1.0 + 0.5j, -2.0 + 1e-3j)),
    )
    for kern, f, lams in cases:
        f = np.array(f, dtype=complex)                      # (nI, 2K+1)
        assert np.array_equal(kern.coeff_array(),
                              np.einsum("ai,bj->ijab", f, f))
        grid = phases(kern.band, 64)
        f_grid = f @ grid
        assert np.max(np.abs(f_grid.imag)) < 1e-15          # f is real
        ell = np.array([float(l) for l in kern.partition.lengths])
        for lam, sol in zip(lams, stieltjes_path(kern, lams)):
            w = (f_grid.real / (lam - sol.psi @ grid)).mean(axis=1) @ ell
            assert lam * sol.stieltjes == pytest.approx(1 + w * w, abs=1e-8)
