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
i.i.d. uniform colors is a "tree integral".  A color is an interval a
and an angle t, and s(c, c') = sum_ij s_ij(a, b) xi^i eta^j with
xi = e^{it}.  Integrating the angles leaves the finite sum, over integer
step labels f with zero sum on every part, of
prod_{i < sigma(i)} s_{f(i), f(sigma(i))}(a_part(i), a_part(sigma(i))),
each part's interval a weighted by its length len_a: step i carries the
Fourier index f(i) at the vertex it leaves, and the mean of xi^d over
the circle is [d = 0], so only labels that cancel at every vertex
survive.

Evaluation.  The sum factors over the tree, leaves first, into the two
operations of the phi/psi recursion (moments).  As a function of its
root's color, a forest phi is the product of its trees (moments._mul),
and a tree hanging from a parent at color c is c |-> integral of
s(c, c') phi(c') over c' (moments._pair).  Both run on the recursion's
rows, Gaussian integers over the table scaled by L
(moments._scaled_table), so a shape with e edges carries L^e.  The tree
integral is <P, phi(root)> / L^e: integrating the root's angle keeps the
mode-0 coefficient, which is the zero sum at the root, and moments._mean
takes that pairing, with its exact non-real check, for both routes.  The
routes still differ in what they sum: the recursion adds all plane trees
of one size before it pairs, the oracle evaluates each partition's tree
alone, and the tests hold the shared product and pairing to the labelled
sum written out term by term.

Cost.  Partitions are still enumerated one at a time.  A tree integral
depends only on the shape of the tree, and s(c, c') = s(c', c), so the
order of a vertex's children does not matter: shapes are canonical, with
each vertex's child shapes sorted, and mirror-image forests share one
memo entry.  moments_by_enumeration shares the memo across every
partition and every k of one call.  A forest is its prefix without the
last tree times that tree's pairing, so the work is one product per
distinct canonical forest of at most k/2 edges (85 up to k = 12) and one
pairing per distinct shape, instead of k/2 pairings for each of the 196
partitions.  What is left per partition is building its shape and one
lookup, and listing the partitions is now most of the time.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .kernel import Kernel
from .moments import _mean, _mul, _pair, _scaled_table

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

    Empty for odd k; Catalan(k/2) partitions for even k.  The tree and
    pairing invariants are properties of the Dyck-path bijection, so they
    are not re-checked per call; the tests check them for every k up to
    KMAX_GUARD.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if k % 2 == 1:
        return []
    out = [_partition_from_path(p) for p in _dyck_paths(k // 2)]
    out.sort(key=lambda w: w.part_of)
    return out


def tree_integral(kern: Kernel, w: WignerPartition) -> Fraction:
    """E M_pi = E prod over tree edges of s(color_A, color_B), exactly.

    The finite sum over integer step labels f with sum zero on every
    part of prod_{i < sigma(i)} s_{f(i), f(sigma(i))}, integrated over
    the intervals of the parts.
    """
    return _TreeIntegrals(kern).integral(w)


def _plane_shape(w: WignerPartition) -> tuple:
    """G_pi as a canonical rooted tree: each vertex is the sorted tuple of
    its children's shapes.

    Vertices are numbered in depth-first order, so children follow their
    parents and are shaped first.
    """
    kids = [[] for _ in w.parts]
    for a, b in w.edges:
        kids[a].append(b)
    shapes = [()] * len(kids)
    for v in reversed(range(len(kids))):
        shapes[v] = tuple(sorted(shapes[c] for c in kids[v]))
    return shapes[0]


class _TreeIntegrals:
    """Exact tree integrals for one kernel, memoized by shape.

    A shape is a rooted tree written as the sorted tuple of its
    children's shapes, so the same tuple is also the forest hanging below
    its root.  phi and psi are functions on color space in the
    recursion's scaled form (moments): phi(forest)(c) integrates the
    forest's edges with its root at color c, and psi(shape)(c) does the
    same for a `shape` subtree hanging from a parent at c by one more
    edge.  A shape with e edges carries the factor L^e.
    """

    def __init__(self, kern: Kernel):
        self.kern = kern
        self.L, self.terms = _scaled_table(kern)
        nI = kern.partition.n
        self.phis = {(): (0, [[1]] * nI, [[0]] * nI)}
        self.psis = {}
        self.integrals = {}

    def phi(self, forest: tuple) -> tuple:
        """The product of psi over the forest's trees, one new factor per
        distinct prefix."""
        out = self.phis.get(forest)
        if out is None:
            out = self.phis[forest] = _mul(self.phi(forest[:-1]),
                                           self.psi(forest[-1]))
        return out

    def psi(self, shape: tuple) -> tuple:
        """phi(shape) paired with the kernel over the edge above it.

        The up-step into the child precedes its partner, so the edge
        weight is s_{parent label, child label}(parent, child) in that
        order: the table's first index is the parent's.
        """
        out = self.psis.get(shape)
        if out is None:
            out = self.psis[shape] = _pair(self.terms, self.kern.band,
                                           self.phi(shape))
        return out

    def integral(self, w: WignerPartition) -> Fraction:
        shape = _plane_shape(w)
        out = self.integrals.get(shape)
        if out is None:
            out = self.integrals[shape] = (
                _mean(self.kern, self.phi(shape), "tree integral")
                / self.L ** (w.k // 2))
        return out


def moments_by_enumeration(kern: Kernel, kmax: int) -> list:
    """m_k = sum over Wigner partitions of E M_pi, for k = 1..kmax.

    Exact Fractions; odd moments are zero (there are no partitions).
    """
    if kmax > KMAX_GUARD:
        raise ValueError(f"kmax > {KMAX_GUARD}: Catalan growth makes this a desk-scale ceiling")
    # one memo per call: every k shares the subtree shapes of smaller k
    trees = _TreeIntegrals(kern)
    return [sum((trees.integral(w) for w in enumerate_wigner_partitions(k)),
                Fraction(0))
            for k in range(1, kmax + 1)]
