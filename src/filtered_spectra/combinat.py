"""Wigner set partitions and tree integrals: the brute-force moment oracle.

A set partition pi of {1..k} is a Wigner partition when the walk graph
G_pi — vertices the parts, edges {part(i), part(i+1 cyclic)} — is a tree
with k/2 + 1 vertices (hence k/2 edges, each traversed exactly twice by
the cyclic walk).  These index the surviving terms in the trace-moment
expansion, and there are Catalan(k/2) of them.

Enumeration runs through Dyck paths.  Reading a path of k steps as a
depth-first tour of a rooted planar tree (up-step = descend to a new
child, down-step = return to the parent) gives a closed walk
v_0 v_1 ... v_k around the tree; assigning step i to the part of the
vertex v_{i-1} it leaves from produces exactly the Wigner partitions,
once each, with parts already ordered by first visit.

Permutation bookkeeping (all 1-based, as permutations of {1..k}):
tau_pi cycles each part in sorted order, eta_k is the full cycle
i -> i+1, and sigma_pi = eta_k^{-1} tau_pi is a fixed-point-free
involution pairing the two traversals of each tree edge: steps i and
sigma(i) cross the same edge in opposite directions.

The expectation E M_pi = E prod_{edges} s(kappa_A, kappa_B) over
i.i.d. uniform colors is a "tree integral".  Two independent
evaluators are provided:

* quadrature — leaf elimination over G_pi on a product grid sized to
  the total trigonometric degree, so the integral is exact up to
  roundoff (cost k * (grid size)^2 instead of (grid size)^(k/2+1));
* fourier-lattice — for pure-Fourier kernels only, the exact rational
  finite sum over integer step labels with zero sum on every part,
  contracted over the tree by convolution messages.

Cost.  Partitions are still enumerated one at a time, and the quadrature
evaluator still eliminates each tree on its own.  The lattice messages
depend only on the shape of the rooted plane subtree below an edge, so
moments_by_enumeration shares them across every partition and every k
of one call.  A vertex's label distribution is that of its shape minus
the last child, convolved with the last child's message, so the work is
one convolution per distinct plane forest of at most k/2 edges: the sum
over n <= k/2 of Catalan(n), 197 up to k = 12, instead of k/2 edge
messages for each of the 196 partitions.  What is left per partition is
building its shape and one lookup.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .exactnum import CRat
from .kernel import Kernel, grid_weights, kernel_grid_matrix

__all__ = [
    "WignerPartition",
    "enumerate_wigner_partitions",
    "tree_integral",
    "moments_by_enumeration",
]

KMAX_GUARD = 16


@dataclass(frozen=True)
class WignerPartition:
    """A Wigner set partition with its tree and walk permutations.

    k:     even number of walk steps;
    parts: tuple of tuples of 1-based step indices, ordered by minimum;
    edges: tuple of (parent_part, child_part) index pairs, k/2 of them;
    sigma: pairing permutation as a tuple of length k+1 (entry 0 unused);
    tau:   part-cycling permutation, same layout.
    """

    k: int
    parts: tuple
    edges: tuple
    sigma: tuple
    tau: tuple

    @property
    def part_of(self) -> tuple:
        """part_of[i] = index of the part containing step i (entry 0 unused)."""
        out = [0] * (self.k + 1)
        for p, members in enumerate(self.parts):
            for i in members:
                out[i] = p
        return tuple(out)


def _dyck_paths(half: int):
    """All Dyck paths with `half` up-steps, as tuples of +1/-1."""
    path = []

    def rec(ups, downs):
        if ups == 0 and downs == 0:
            yield tuple(path)
            return
        if ups > 0:
            path.append(+1)
            yield from rec(ups - 1, downs + 1)
            path.pop()
        if downs > 0:
            path.append(-1)
            yield from rec(ups, downs - 1)
            path.pop()

    yield from rec(half, 0)


def _partition_from_path(path) -> WignerPartition:
    k = len(path)
    part_steps = [[] for _ in range(k // 2 + 1)]
    edges = []
    stack = [0]
    next_vertex = 1
    for step, updown in enumerate(path, start=1):
        here = stack[-1]
        part_steps[here].append(step)
        if updown == +1:
            edges.append((here, next_vertex))
            stack.append(next_vertex)
            next_vertex += 1
        else:
            stack.pop()
    assert stack == [0] and next_vertex == k // 2 + 1
    parts = tuple(tuple(p) for p in part_steps)
    tau, sigma = _perms_from_parts(k, parts)
    return WignerPartition(k=k, parts=parts, edges=tuple(edges),
                           sigma=sigma, tau=tau)


def _perms_from_parts(k: int, parts) -> tuple:
    tau = [0] * (k + 1)
    for members in parts:
        for a, b in zip(members, members[1:]):
            tau[a] = b
        tau[members[-1]] = members[0]
    # sigma = eta^{-1} tau, with eta the cycle i -> i+1 mod k on {1..k}
    sigma = [0] * (k + 1)
    for i in range(1, k + 1):
        t = tau[i]
        sigma[i] = t - 1 if t > 1 else k
    return tuple(tau), tuple(sigma)


def enumerate_wigner_partitions(k: int) -> list:
    """All Wigner partitions of {1..k}, lexicographic by part-of-index sequence.

    Empty for odd k; Catalan(k/2) partitions for even k.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if k % 2 == 1:
        return []
    out = [_partition_from_path(p) for p in _dyck_paths(k // 2)]
    out.sort(key=lambda w: w.part_of)
    for w in out:
        _check_partition(w)
    return out


def _check_partition(w: WignerPartition):
    k = w.k
    assert len(w.parts) == k // 2 + 1 and len(w.edges) == k // 2
    po = w.part_of
    for i in range(1, k + 1):
        nxt = i + 1 if i < k else 1
        assert po[i] != po[nxt], "consecutive walk steps share a part"
    for i in range(1, k + 1):
        s = w.sigma[i]
        assert s != i, "sigma has a fixed point"
        assert w.sigma[s] == i, "sigma is not an involution"
    # each edge is crossed by exactly the two sigma-paired steps
    seen = {}
    for i in range(1, k + 1):
        e = frozenset((po[i], po[w.sigma[i]]))
        seen.setdefault(e, set()).add(i)
    assert len(seen) == len(w.edges)
    for e, steps in seen.items():
        assert len(steps) == 2
        a, b = sorted(steps)
        assert w.sigma[a] == b


# ---------------------------------------------------------------------------
# tree integrals
# ---------------------------------------------------------------------------

def tree_integral(kern: Kernel, w: WignerPartition, mode: str = "quadrature",
                  exact: bool = False):
    """E M_pi = E prod over tree edges of s(color_A, color_B).

    mode "quadrature": leaf elimination on an angular grid of size
    >= 2*K*k + 1 per circle (exact for the total trigonometric degree)
    with exact interval weights; returns a float.

    mode "fourier-lattice": pure-Fourier kernels only; the exact finite
    sum over integer step labels f with sum zero on every part of
    prod_{i < sigma(i)} s_{f(i), f(sigma(i))}.  Returns a float, or the
    exact Fraction when exact=True.
    """
    if mode == "fourier-lattice":
        val = _LatticeMessages(kern).integral(w)
        return val if exact else float(val)
    if mode == "quadrature":
        if exact:
            raise ValueError("exact values require mode='fourier-lattice'")
        return _tree_integral_quadrature(kern, w)
    raise ValueError(f"unknown tree integral mode {mode!r}")


def _tree_integral_quadrature(kern: Kernel, w: WignerPartition) -> float:
    T = max(2 * kern.band * w.k + 1, 1)
    S = kernel_grid_matrix(kern, T)
    wts = grid_weights(kern, T)
    nv = len(w.parts)

    adj = {v: set() for v in range(nv)}
    for a, b in w.edges:
        adj[a].add(b)
        adj[b].add(a)

    # integrate leaves out one at a time; each elimination is one matvec
    funcs = {v: None for v in range(nv)}  # None = constant 1
    alive = set(range(nv))
    while len(alive) > 1:
        leaf = next(v for v in alive if len(adj[v]) == 1 and v != 0)
        (parent,) = adj[leaf]
        g = funcs[leaf]
        msg = S @ wts if g is None else S @ (wts * g)
        funcs[parent] = msg if funcs[parent] is None else funcs[parent] * msg
        adj[parent].discard(leaf)
        adj[leaf].clear()
        alive.discard(leaf)

    root = alive.pop()
    g = funcs[root]
    return float(np.sum(wts)) if g is None else float(wts @ g)


def _plane_shape(w: WignerPartition) -> tuple:
    """G_pi as a rooted plane tree: each vertex is the tuple of its children.

    Vertices are numbered in depth-first order and each vertex's edges
    are listed in tour order, so children follow their parents.
    """
    kids = [[] for _ in w.parts]
    for a, b in w.edges:
        kids[a].append(b)
    shapes = [()] * len(kids)
    for v in reversed(range(len(kids))):
        shapes[v] = tuple(shapes[c] for c in kids[v])
    return shapes[0]


class _LatticeMessages:
    """Exact fourier-lattice messages for one kernel, memoized by shape.

    A shape is a rooted plane tree written as the tuple of its children's
    shapes, so the same tuple is also the forest hanging below its root.
    dist(forest) is the distribution of the sum of the labels on the
    forest's root edges; up(shape) is the message a subtree of that
    shape sends over the parent-side label of the edge above it.  Every
    tree integral is dist(shape)[0], and each distinct forest prefix is
    convolved once, however many partitions share it.
    """

    def __init__(self, kern: Kernel):
        if not kern.is_pure_fourier:
            raise ValueError("fourier-lattice mode needs a single-interval kernel")
        K = kern.band
        # rows[jp + K]: the nonzero s_{jp, jc} as (jc, value) pairs
        self.rows = [[(jc, kern.coeffs[(jp, jc, 0, 0)])
                      for jc in range(-K, K + 1) if (jp, jc, 0, 0) in kern.coeffs]
                     for jp in range(-K, K + 1)]
        self.K = K
        self.dists = {(): {0: CRat(1)}}
        self.ups = {}

    def dist(self, forest: tuple) -> dict:
        """Label-sum distribution over the forest's root edges (a convolution)."""
        out = self.dists.get(forest)
        if out is None:
            prefix, msg = self.dist(forest[:-1]), self.up(forest[-1])
            out = {}
            for tot, acc in prefix.items():
                for j, m in msg.items():
                    key = tot + j
                    cur = out.get(key)
                    out[key] = acc * m if cur is None else cur + acc * m
            self.dists[forest] = out
        return out

    def up(self, shape: tuple) -> dict:
        """Message over the parent-side label of the edge into a `shape` subtree.

        The up-step into the child precedes its partner, so the edge
        weight is s_{parent label, child label} in that order.
        """
        out = self.ups.get(shape)
        if out is None:
            dist = self.dist(shape)
            out = {}
            for jp, row in enumerate(self.rows, start=-self.K):
                acc = None
                for jc, coeff in row:
                    part = dist.get(-jc)
                    if part is not None:
                        term = coeff * part
                        acc = term if acc is None else acc + term
                if acc:
                    out[jp] = acc
            self.ups[shape] = out
        return out

    def integral(self, w: WignerPartition) -> Fraction:
        total = self.dist(_plane_shape(w)).get(0, CRat(0))
        if total.im != 0:
            raise ValueError("tree integral came out non-real")
        return total.re


def moments_by_enumeration(kern: Kernel, kmax: int, mode: str | None = None,
                           exact: bool = False) -> list:
    """m_k = sum over Wigner partitions of E M_pi, for k = 1..kmax.

    Odd moments are exactly zero.  mode defaults to fourier-lattice on
    pure-Fourier kernels (exact-capable) and quadrature otherwise.
    """
    if kmax > KMAX_GUARD:
        raise ValueError(f"kmax > {KMAX_GUARD}: Catalan growth makes this a desk-scale ceiling")
    if mode is None:
        mode = "fourier-lattice" if kern.is_pure_fourier else "quadrature"
    if exact and mode != "fourier-lattice":
        raise ValueError("exact enumeration requires the fourier-lattice mode")

    # one memo per call: every k shares the subtree messages of smaller k
    lattice = _LatticeMessages(kern) if mode == "fourier-lattice" else None
    out = []
    for k in range(1, kmax + 1):
        if k % 2 == 1:
            out.append(Fraction(0) if exact else 0.0)
            continue
        partitions = enumerate_wigner_partitions(k)
        if lattice is None:
            out.append(math.fsum(tree_integral(kern, w, mode=mode)
                                 for w in partitions))
            continue
        vals = [lattice.integral(w) for w in partitions]
        out.append(sum(vals, Fraction(0)) if exact
                   else math.fsum(float(v) for v in vals))
    return out
