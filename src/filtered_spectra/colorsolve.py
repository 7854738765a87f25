"""Newton solver for the color equations and Stieltjes inversion.

The limit Stieltjes transform solves the coupled system

    Psi(c, lam) = integral of s(c, c') P(dc') / (lam - Psi(c', lam)),
    S(lam)      = integral of P(dc) / (lam - Psi(c, lam)),

with the convention S(lam) = integral mu(dx) / (lam - x), so
Im S(x + i*eps) <= 0 and density(x) = -Im S(x + i*eps) / pi.

Psi(., lam) inherits the kernel's Fourier modes: one application of the
map F pairs with s, which truncates the circle spectrum to them.  They
lie in qZ, q the gcd of the table's mode indices, so the solver folds
the angle: phi = q theta is uniform when theta is, so it solves the
kernel s(., phi/q; ., psi/q), of band K = (largest |mode|) / q, on an
(interval, Fourier mode) table c of modes -K..K.  This is a quadratic
vector equation (Ajanki-Erdos-Kruger), and Newton runs on c with the
exact dense Jacobian, solving (I - J) delta = F(c) - c.  F and J come
from g = 1/(lam - Psi) on T = ceil(128 / q) nodes phi_t = 2 pi t / T;
g is analytic, so T sets an aliasing error rho^(-T) (Trefethen-Weideman,
SIAM Review 2014).  The fold takes rho to rho^q, so T nodes of phi alias
no worse than 128 of theta; where q divides 128 the systems are the
same, each value computed once, not q times.  At band 0 g does not
depend on the angle, and one node is exact.

Where the table is real the solver folds the angle once more, by
phi -> -phi.  Kernel makes conj(s_ij) = s_(-i,-j), so a real table has
s_ij = s_(-i,-j): s(theta, phi) = s(-theta, -phi), and the node set
{phi_t} is its own mirror image (t -> T - t).  The discretized
equations are then invariant under the mirror, which keeps the
Herglotz sign, so their Herglotz solution, being unique (below), is
even: c_-i = c_i, and g takes one value on t and T - t.  F maps the
even tables to themselves, so Newton runs on them alone: c_0..c_K per
interval, K+1 unknowns, and g on the floor(T/2) + 1 distinct nodes
t = 0..floor(T/2), weighted 1 or 2 over T as they stand for one node or
two.  F, J and S there are the full system's, restricted and summed
exactly, not approximated.  The Newton system has size nI*(K+1) for a
real table and nI*(2K+1) for a complex one: 2 for the compass (modes
-2, 0, 2, so q = 2, K = 1), on 33 of its 64 nodes.  A complex table
keeps modes -K..K and all T nodes.

Newton converges only from a nearby start (from Psi = 0 near the
spectrum it can land on a non-Herglotz branch), so every solve runs
through stieltjes_path, and each target is solved where Newton from
Psi = 0 is certified or reached by a jump whose landing is certified.
Kernel.sup_norm certifies ||s||_inf <= A^2/4, with A = 2 sqrt(sup_norm)
the amplitude, and the spectrum lies in [-A, A].
When |lam| >= CRUISE * A = 2A, F maps the ball |Psi| <= A/2 into
itself, since |lam - Psi| >= 3A/2 gives |F| <= (A^2/4)/(3A/2) = A/6,
and it is a contraction there with constant at most
(A^2/4)/(3A/2)^2 = 1/9.  The Herglotz solution lies in that ball
(|Psi| <= (A^2/4)/(|lam| - A) <= A/4), and Newton from Psi = 0 meets
Kantorovich's condition with room to spare: ||(I - J(0))^-1|| <= 16/15,
the first step is at most (16/15)(A/8), and J is Lipschitz with
constant 2 (A^2/4)/(3A/2)^3 = 4/(27A) on the ball, so
h = beta L eta <= 0.022 < 1/2 (Rump, Acta Numerica 2010).  On the even
tables of a real table the argument is the same: F maps the ball's even
part into itself, and the norms and constants are those of the full
system restricted, so none grows.  So a target with |lam| >= 2A is
solved in place: Newton converges there cold, for every x.  Every
other target jumps from its cruise point x + 2A*i, and Newton does not
solve there: the jump starts from the far-field table
F(0) = <s>/lam, sum_b s_(qi,0)(a, b) len_b / lam, which costs no
evaluation.  It is the first term of Psi's large-lam expansion
Psi = <s>/lam + <s Psi>/lam^2 + ..., and misses the cruise solution by
the next, O(A^4/|lam|^3).  A start need only be good, not a solution,
since the landing is certified by its sign (below): one Newton solve
at the target.  A target below height HOP = 1e-8, a real one among
them, jumps to 1e-8 and hops from there to its own height, so a real
lam gets the boundary value from above.

A landing is certified by its sign.  At a fixed point c = F(c), Psi on
the nI*T grid nodes is the sum over nodes of g times the kernel's
values at the pair of nodes, with weights len_b / T that sum to 1: a
quadratic vector equation -1/m = lam + S m for m = -g, with S
symmetric (Kernel makes s real and symmetric).  Where s >= 0 on the
nodes and Im lam > 0, its solution with Im m > 0 is unique
(Ajanki-Erdos-Kruger, Mem. AMS 2019, Thm 2.1), so a converged table
with Im g < 0 on every node is the Herglotz solution and no other
branch.  For a real table the test reads the distinct nodes, which hold
every value g takes on the grid, since an even table gives an even g.
Nonnegativity is the kernel's to supply: validate_kernel samples it,
and Kernel does not check it.  The test runs on every
jump's landing, all at heights >= HOP, and on density_profile's second
height under the same rule.  It does not run where Kantorovich already
certifies the branch, at the targets solved in place, nor on the hop
below HOP, which starts from a certified landing: there Im lam
can be below the rounding of Psi = c @ phase, about eps |Psi| at band
K > 0, and the test would refuse the right solution (rank-two at
3A + 1e-20i, compass at 8.04 + 1e-25i).

A point whose landing fails (the division guard |lam - Psi| < 1e-14,
a non-finite value, NEWTON_STEPS steps without converging, or the
sign) halves its step in log-height and tries again from its last
accepted table; it keeps the halved step after a landing, and it
fails after HALVINGS halvings.  Each step is the whole log-height drop
over a power of two, so the landings reach the target's height
exactly.  On the benchmark's density grids and the default one every
jump lands at the first try, in 3 to 8 Newton steps from the far-field
table, plus the step past TOL.  Without the sign test the jump reached
another branch at 8 of 43 335 points tried (45 kernels, 321 x across
+-1.1A, heights 1e-2, 1e-5 and 1e-8), from the far-field table as from
a converged cruise table: the conjugate solution, Im S > 0, on seeded
kernels 6 and 31 at 1e-5 and 1e-8.  The test refuses all 8.

The solve at the target, and the hop of a target below HOP, takes one
Newton step past TOL.  A jump converges from farther away than a
descent's waypoints did, and TOL alone leaves S 5.6e-12 from the
closed form at the semicircle edge x = 2, height 1e-5; the extra step
squares that error, to 2.8e-14.  Intermediate landings and targets
solved in place take no extra step.  Lower half-plane targets fold onto
their conjugates and each distinct point is solved once, so
S(conj lam) = conj S(lam) exactly.  Everything is vectorized across
lambda points, and converged points drop out.

The law is also symmetric under x -> -x: the tree sum has no odd
moments, and since s is real (Kernel refuses a table that breaks
conj(s_ij) = s_(-i,-j)), Psi(., -conj lam) = -conj Psi(., lam) solves
the same equations with the same Herglotz sign, so by uniqueness
S(-conj lam) = -conj S(lam).  density_profile uses this: it solves only
the distinct |x| of its grid and gives -x the density of x exactly.

solver_moments reads the moments off S on a circle around the spectrum
by the trapezoid rule (Trefethen-Weideman, SIAM Review 2014).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .kernel import Kernel, phases

__all__ = [
    "ColorSolution",
    "SpectralGrid",
    "stieltjes_path",
    "density_profile",
    "solver_moments",
    "circle_points",
    "angular_fold",
]

T = 128              # angular nodes per circle at band K > 0
TOL = 1e-13          # convergence: max |F(Psi) - Psi| on the grid
NEWTON_STEPS = 30    # cap per converging solve; a jump needs at most 8
GUARD = 1e-14        # division guard on |lam - Psi|
CRUISE = 2.0         # |lam| / A from which Newton converges cold
HALVINGS = 10        # cap per point on halvings of its jump
HOP = 1e-8           # targets below this height land here, then hop down
DENSITY_FLOOR = 1e-4  # support_estimate threshold on the extrapolated density
CONTOUR_RADIUS = 1.5  # R / A in solver_moments (at 1.2, m_k loses 1.5e-6)
CONTOUR_POINTS = 64   # M, the points on that circle
ROUNDOFF = 768        # c in solver_moments' rounding bound c*eps*R^k


@dataclass
class ColorSolution:
    """One converged solve: lam, the color field, S(lam), and the residual.

    psi is the (nI, 2K+1) coefficient table of Psi(., lam): psi[a, d + K]
    is the coefficient of exp(i d theta) on interval a.
    """

    lam: complex
    psi: np.ndarray
    stieltjes: complex
    residual: float


@dataclass
class SpectralGrid:
    """Density profile on a real grid, Richardson-extrapolated in epsilon."""

    xs: list
    density: list
    support_estimate: tuple
    flags: list          # per point: True when both solves converged
    eps_pair: tuple


# ---------------------------------------------------------------------------
# batched Newton core
# ---------------------------------------------------------------------------

class _GridOps:
    """The map F and its Jacobian on (n, nI, k) tables of the folded kernel.

    A table's unknowns are the modes 0..K where the kernel is reflected
    (c_-d = c_d, k = K+1) and -K..K where it is not (k = 2K+1), and g is
    taken on the distinct nodes t = 0..floor(T/2), or on all T.  The
    orbits of the mirror d -> -d and t -> T - t are 0/1 matrices
    [member, orbit], each member its own orbit for a complex table, and
    every operator below is the full one with its inputs summed and its
    outputs read over those orbits, exact on the even tables.  mult
    counts the nodes each grid value stands for, 1 or 2.  The tables
    that depend on K, T and the mirror alone come from _angular, which
    keeps them for the last 16 such triples.

    F's DFT of g against exp(i j phi) and its pairing with s are one
    operator: F(c)[a, u] = sum_{b,t} g[b, t] op[(b, t), (a, u)], with
    op[(b, t), (a, u)] the sum of s_(qu,qj)(a,b) len_b exp(i j phi) / T
    over j and over the nodes phi of t's orbit.  Differentiating g in
    c[b, m] multiplies it by g^2 exp(i d phi) summed over the modes d of
    m's orbit, so

        J[(a,u), (b,m)] = sum_(j, d in m) s_(qu,qj)(a,b) len_b g2hat[b, j+d],

    with g2hat the coefficients of g^2 at modes -2K..2K, one per orbit
    (g^2 is even where g is), so J's operator jop has at most
    nI^2 (4K+1) (2K+1)^2 entries, whatever T.  Every product is stacked
    per row, (n, ., 1, .) @, as is S's sum in _newton, so a point's S
    does not depend on its batch.  far is lam F(0): at c = 0, g = 1/lam
    on every node, so F(0)[a, u] = sum_b s_(qu,0)(a,b) len_b / lam, the
    far-field start of a jump.
    """

    def __init__(self, kern: Kernel):
        self.q, self.K, self.T, self.reflected = angular_fold(kern)
        K, nI = self.K, kern.partition.n
        self.wts = np.array([float(l) for l in kern.partition.lengths])
        self.width = 2 * kern.band + 1  # the kernel's table, modes its columns
        self.modes = kern.band + self.q * np.arange(-K, K + 1)
        (us, self.orbit, self.mirror, self.mult, self.phase, dft, self.dft2,
         hankel) = _angular(K, self.T, self.reflected)
        self.shape = nI, len(us)
        self.dim = nI * len(us)
        # s_(qu,qj)(a, b) * length_b, indexed [u, j+K, a, b]
        pair = kern.coeff_array()[np.ix_(self.modes[us + K], self.modes)]
        pair *= self.wts
        self.far = pair[:, K].sum(axis=-1).T   # the DFT of 1/lam keeps j = 0
        op = np.einsum("ijab,jt->btai", pair, dft)
        self.op = op.reshape(-1, self.dim)
        # J's: per interval b the pairing over the orbit of j + d,
        # [b, j + d, (a, u, m)], summed over the modes d of m's orbit
        jop = np.einsum("ijab,jml->blaim", pair, hankel)
        self.jop = jop.reshape(nI, hankel.shape[2], -1)

    def residual(self, lams, c):
        """g on the grid and r = F(c) - c, for (n,) lams."""
        # in place: an (n, nI, T) array can pass malloc's mmap threshold,
        # and three per step made the heap shrink and fault back each step
        g = (c[:, :, None] @ self.phase)[:, :, 0]
        np.subtract(lams[:, None, None], g, out=g)
        np.divide(1.0, g, out=g)
        r = (g.reshape(len(g), 1, -1) @ self.op).reshape(c.shape) - c
        return g, r

    def jacobian(self, g):
        """J = dF/dc, (n, dim, dim), at the tables whose grid values gave g."""
        n, nI, _ = g.shape
        g2hat = (g * g)[:, :, None, :] @ self.dft2      # [n, b, 0, j + d]
        jac = (g2hat @ self.jop).reshape(n, nI, self.dim, -1)
        return jac.transpose(0, 2, 1, 3).reshape(n, self.dim, self.dim)

    def unfold(self, c):
        """Tables (n, nI, 2*band+1) in the kernel's layout, zero off qZ."""
        out = np.zeros(c.shape[:2] + (self.width,), dtype=complex)
        out[:, :, self.modes] = c[:, :, self.orbit]
        return out


# built per call, these cost a band-0 kernel's certificate circle more
# than its solve saved
@lru_cache(maxsize=16)
def _angular(K: int, T: int, reflected: bool) -> tuple:
    """The tables of _GridOps that depend on K, T and the mirror alone,
    shared and read-only: (us, orbit, mirror, mult, phase, dft, dft2,
    hankel).

    us are the unknowns' modes, orbit[d + K] the unknown of mode d and
    mirror[u] that of -us[u]; mult counts the nodes each distinct node
    stands for; phase maps a table to Psi on the distinct nodes; dft is
    exp(i j phi) / T, j = -K..K, summed over each node orbit, and dft2
    g^2's DFT at one mode of each orbit of -2K..2K, (T', k2); hankel[j,
    m, l] counts the modes d of m's orbit whose j + d lies in orbit l.
    """
    # the mirror's orbits of the modes -K..K, of g^2's -2K..2K and of
    # the nodes; without the mirror each is its own orbit
    d, d2 = np.arange(-K, K + 1), np.arange(-2 * K, 2 * K + 1)
    t = np.arange(T)
    if reflected:
        d, d2, t = abs(d), abs(d2), np.minimum(t, T - t)
    us, mode = _orbits(d)
    us2, mode2 = _orbits(d2)
    ts, node = _orbits(t)
    orbit = mode.argmax(axis=1)
    wide = phases(2 * K, T)                                # (4K+1, T)
    dft = wide @ node / T
    e = np.arange(2 * K + 1)
    hankel = e[:, None, None] + e[None, :, None] == np.arange(4 * K + 1)
    tables = (us, orbit, orbit[K - us], node.sum(axis=0),
              mode.T @ wide[K:3 * K + 1, ts], dft[K:3 * K + 1],
              dft[us2 + 2 * K].T,
              np.einsum("jdk,dm,kl->jml", hankel, mode, mode2))
    for table in tables:
        table.flags.writeable = False
    return tables


def _orbits(key):
    """(labels, member) for integer labels key that take every value from
    their least to their largest: those labels in increasing order, and
    the 0/1 matrix [x, o] that is 1 where key[x] is label o."""
    labels = np.arange(key.min(), key.max() + 1)
    return labels, (key[:, None] == labels).astype(int)


def angular_fold(kern: Kernel) -> tuple:
    """(q, K, T, reflected): q the gcd of the table's mode indices, by
    which the solver folds the angle, K = (largest |mode|) / q the folded
    band, T the nodes of phi = q theta, and reflected whether the table
    is real, s(theta, phi) = s(-theta, -phi), so the solver also folds
    phi -> -phi: modes 0..K and the floor(T/2) + 1 distinct nodes."""
    index = [m for key in kern.coeffs for m in key[:2]]
    q = math.gcd(*index) or 1
    K = max(map(abs, index)) // q
    reflected = not any(im for _, im in kern.coeffs.values())
    return q, K, (-(-T // q) if K else 1), reflected  # g is constant at band 0


def _newton(ops: _GridOps, lams, c0, polish, certify):
    """Newton on a batch of coefficient tables, (I - J) delta = F(c) - c.

    A point converges when its residual is at most TOL and, where
    certify (a bool, or one per point) is True, Im g < 0 on every grid
    node: the Herglotz sign, which only the law's solution has where
    Im lam > 0.  Where polish is True, a point takes one Newton step
    past TOL and is evaluated once more, and S and the residual are read
    there; NEWTON_STEPS caps the steps before that one.

    Returns (c, S, residual, ok): ok is False where a point hit the
    division guard, went non-finite, ran out of steps or converged
    without the sign, and S is NaN there.  The working lams, tables and
    grid values stay compact, reindexed only when a point finishes or
    fails, and S is summed only for the points that finish.
    """
    lams = np.asarray(lams, dtype=complex)
    n = len(lams)
    c = np.array(c0, dtype=complex, copy=True)
    S, residual, ok = [np.full(n, v) for v in (np.nan + 0j, np.inf, False)]
    certify = np.broadcast_to(certify, n)
    need = np.ones(n, dtype=int) + polish   # evaluations at <= TOL to go
    alive, lam, cw = np.arange(n), lams, c  # the working set, compact
    with np.errstate(all="ignore"):
        for step in range(NEWTON_STEPS + 2):
            if not alive.size:
                break
            g, r = ops.residual(lam, cw)
            # the guard |lam - Psi| >= GUARD everywhere; False on NaN
            sane = np.abs(g).max(axis=(1, 2)) <= 1.0 / GUARD
            res = np.abs(r[:, :, None] @ ops.phase).max(axis=(1, 2, 3))
            res = np.where(sane, res, np.inf)
            small = res <= TOL
            need -= small
            done = need == 0
            if done.any():
                fin, gd = alive[done], g[done]
                mean = (gd * ops.mult).sum(axis=2) / ops.T  # over T nodes
                S[fin] = (mean[:, None] @ ops.wts)[:, 0]
                ok[fin] = ~certify[fin] | (gd.imag < 0).all(axis=(1, 2))
            go = sane & ~done
            if step >= NEWTON_STEPS:        # only a step past TOL is left
                go &= small
            if not go.all():
                c[alive[~go]], residual[alive[~go]] = cw[~go], res[~go]
                alive, lam, cw, need = alive[go], lam[go], cw[go], need[go]
                g, r = g[go], r[go]
            if alive.size:   # every g left passed the guard, so J is finite
                cw += np.linalg.solve(np.eye(ops.dim) - ops.jacobian(g),
                                      r.reshape(-1, ops.dim, 1)
                                      ).reshape(r.shape)
    return c, S, residual, ok


def _continue_batch(kern: Kernel, targets, ops=None):
    """Certified jumps from each target's cruise point; vectorized.

    A target with |lam| >= CRUISE * A is solved in place, and Newton
    converges there cold.  Every other target's cruise point is
    x + 2A*i, where it takes the far-field table ops.far / lam with no
    evaluation, and a full Newton solve jumps from there to the
    target's height (a target below HOP jumps to HOP and hops from
    there to its own height).  A landing counts only where _newton
    accepts it, converged with Im g < 0 on every node; a point whose
    landing fails halves its step in log-height and retries from its
    last accepted table, HALVINGS times at most.  The target's solve,
    or its hop, takes one Newton step past TOL.  Returns (S, tables,
    residuals, ok) aligned with targets, the tables (n,) + ops.shape on
    the unknown modes of ops, _GridOps(kern) unless given; a target and
    its conjugate, or a repeated target, share one solve.
    """
    targets = np.asarray([complex(t) for t in targets], dtype=complex)
    if not np.all(np.isfinite(targets)):
        raise ValueError("targets must be finite complex numbers")
    ops = ops or _GridOps(kern)
    flip = targets.imag < 0
    work, back = np.unique(np.where(flip, np.conj(targets), targets),
                           return_inverse=True)

    height = CRUISE * kern.amplitude()
    xs = work.real
    direct = np.abs(work) >= height
    c = ops.far / (xs + 1j * height)[:, None, None]
    S, res, ok = [np.full(len(work), v) for v in (np.nan + 0j, np.inf, False)]
    c[direct], S[direct], res[direct], ok[direct] = _newton(
        ops, work[direct], np.zeros_like(c[direct]), False, False)
    todo = np.flatnonzero(~direct)
    # log-heights below the cruise point: where each point stands and
    # where it goes; a point tries the step goal / 2^halved, so sums of
    # its steps reach the goal exactly
    low = work.imag < HOP
    floor = np.maximum(work.imag, HOP)
    goal = np.log(floor / height)
    at, halved = np.zeros(len(work)), np.zeros(len(work), dtype=int)
    while todo.size:
        to = np.maximum(at[todo] + goal[todo] * 0.5 ** halved[todo],
                        goal[todo])
        last = to == goal[todo]
        lam = xs[todo] + 1j * np.where(last, floor[todo], height * np.exp(to))
        c1, S1, res1, ok1 = _newton(ops, lam, c[todo], last & ~low[todo],
                                    True)
        landed = ok1 & last
        won, end, lost = todo[ok1], todo[landed], todo[~ok1]
        c[won], at[won] = c1[ok1], to[ok1]
        S[end], res[end], ok[end] = S1[landed], res1[landed], True
        halved[lost] += 1
        todo = todo[~landed & (halved[todo] <= HALVINGS)]
    down = np.flatnonzero(ok & ~direct & low)
    if down.size:
        c[down], S[down], res[down], ok[down] = _newton(
            ops, work[down], c[down], True, False)

    S, c, res, ok = S[back], c[back], res[back], ok[back]
    S = np.where(flip, np.conj(S), S)
    c = np.where(flip[:, None, None], np.conj(c[:, :, ops.mirror]), c)
    return S, c, res, ok


def _solution(lam, c, S, residual) -> ColorSolution:
    lam, S = complex(lam), complex(S)
    _assert_herglotz(lam, S)
    return ColorSolution(lam=lam, psi=c.copy(), stieltjes=S,
                         residual=float(residual))


def _assert_herglotz(lam, S, slack=1e-9):
    """Im S opposes Im lam; at real lam S is the boundary value from above."""
    if lam.imag >= 0 and S.imag > slack:
        raise AssertionError(
            f"Im S = {S.imag:.3e} > 0 at Im lambda >= 0 (lam = {lam})")
    if lam.imag < 0 and S.imag < -slack:
        raise AssertionError(
            f"Im S = {S.imag:.3e} < 0 at Im lambda < 0 (lam = {lam})")


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------

def stieltjes_path(kern: Kernel, targets) -> list:
    """Continue S(lambda) to each target from its cruise point.

    A target with |lambda| >= 2A is solved in place: Newton converges
    there from Psi = 0.  Any other target is reached by a certified
    jump: Newton starts from the far-field table F(0) = <s>/lambda at
    the cruise point x + 2A*i, with no solve there, converges at the
    target, and is accepted only with Im g < 0 on every grid node, which
    by uniqueness is the Herglotz solution.  A target below height 1e-8,
    a real one among them, lands at 1e-8 and hops from there to its own
    height.  A failed landing halves its step in log-height and retries,
    at most HALVINGS times; the target's solve, or its hop, takes one
    Newton step past TOL.  This is the one way to solve: a single point
    is stieltjes_path(kern, [lam])[0].  Each psi is in the kernel's
    (nI, 2*band+1) layout, zero off qZ.  No targets give [].  Raises if
    any target fails.
    """
    targets = [complex(t) for t in targets]      # iterated twice below
    ops = _GridOps(kern)
    S, cs, res, ok = _continue_batch(kern, targets, ops)
    if not ok.all():
        bad = [t for t, o in zip(targets, ok) if not o]
        raise RuntimeError(f"continuation failed at lambda = {bad}")
    return [_solution(t, c, s, r) for t, c, s, r
            in zip(targets, ops.unfold(cs), S, res)]


def density_profile(kern: Kernel, xs, eps_pair=(1e-2, 5e-3)) -> SpectralGrid:
    """Spectral density on a real grid by extrapolated Stieltjes inversion.

    density(x) = Richardson extrapolation of -Im S(x + i*eps) / pi over
    the two heights in eps_pair; support_estimate is the smallest
    interval containing every grid point with density >= 1e-4.  The law
    is symmetric (the odd moments vanish, and a Kernel's s is real, so
    S(-conj lam) = -conj S(lam)), hence d(-x) = d(x): the grid folds
    onto its distinct |x|, and x and -x share one solve and one density
    value, bit for bit.  Each |x| is continued once, to |x| + i*eps1,
    and one batched Newton solve on the same grid operators,
    warm-started from those tables, takes each |x| that converged there
    to |x| + i*eps2.  That solve tests the sign where _continue_batch
    would: below 2A and at or above HOP, not at a point solved in place
    nor below the hop.  Solver failures flag their point (density NaN)
    instead of aborting the grid; an empty grid gives empty lists and
    support (nan, nan).
    """
    e1, e2 = float(eps_pair[0]), float(eps_pair[1])
    if not (0 < e2 < e1):
        raise ValueError("eps_pair must satisfy 0 < eps2 < eps1")
    xs = [float(x) for x in xs]
    fold, back = np.unique(np.abs(xs), return_inverse=True)
    ops = _GridOps(kern)
    S1, c1, _, ok1 = _continue_batch(kern, fold + 1j * e1, ops)
    S2, ok2 = [np.full(len(fold), v) for v in (np.nan + 0j, False)]
    lam2 = fold[ok1] + 1j * e2
    sign = (np.abs(lam2) < CRUISE * kern.amplitude()) & (e2 >= HOP)
    _, S2[ok1], _, ok2[ok1] = _newton(ops, lam2, c1[ok1], False, sign)
    d1, d2 = -S1.imag / math.pi, -S2.imag / math.pi
    r = e1 / e2
    dens = (r * d2 - d1) / (r - 1.0)
    flags = (ok1 & ok2)[back]
    dens = np.where(flags, dens[back], np.nan)

    lit = [x for x, d, f in zip(xs, dens, flags) if f and d >= DENSITY_FLOOR]
    support = (min(lit), max(lit)) if lit else (math.nan, math.nan)
    return SpectralGrid(xs=xs, density=[float(d) for d in dens],
                        support_estimate=support,
                        flags=[bool(f) for f in flags], eps_pair=(e1, e2))


def circle_points(radius: float, count: int) -> np.ndarray:
    """radius * exp(i pi (2k+1) / count), k = 0..count-1, with point
    count-1-k the exact conjugate of point k (one solve per pair)."""
    z = radius * np.exp(1j * math.pi * (2 * np.arange(count) + 1) / count)
    half = count // 2
    z[count - half:] = np.conj(z[:half][::-1])
    return z


def solver_moments(kern: Kernel, kmax: int):
    """Lists (m_k, tol_k), k = 1..kmax, by contour quadrature.

    m_k is the mean of lam^(k+1) S(lam) over M = CONTOUR_POINTS
    midpoint-equispaced points on |lam| = R = CONTOUR_RADIUS * A, and
    tol_k = c eps R^k + 2 A^k (A/R)^M bounds its error.  The second term
    bounds the aliased m_(k+jM) R^(-jM), j >= 1, as |m_n| <= A^n.  The
    first is rounding, c = ROUNDOFF = 3 * 256: |S| <= 1/(R - A) = 3/R, so
    |lam^(k+1) S| <= 3 R^k, and each term is good to 256 eps (S stopped
    at Newton's TOL was within 166 eps of Newton run on to roundoff on
    the test kernels and eight seeded ones, and within 196 eps after a
    restart from tables perturbed by 1e-6; with the step past TOL that
    every point below 2A now takes, within 1.9 eps on the 12 branch-test
    kernels; the power and the mean about k eps).  Raises if a point
    fails.
    """
    M = CONTOUR_POINTS
    if not 1 <= kmax < M:
        raise ValueError(f"kmax = {kmax} is not in 1..{M - 1}")
    A = kern.amplitude()
    R = CONTOUR_RADIUS * A
    lams = circle_points(R, M)
    S = np.array([sol.stieltjes for sol in stieltjes_path(kern, lams)])
    ks = np.arange(1, kmax + 1)
    ms = (lams ** (ks[:, None] + 1) * S).mean(axis=1).real
    tol = ROUNDOFF * np.finfo(float).eps * R ** ks + 2 * A ** ks * (A / R) ** M
    return ms.tolist(), tol.tolist()
