"""Wigner set partitions and tree integrals: the combinatorial moment oracle.

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
rows, Gaussian integers, and pair with the kernel's integer table
scaled to L * len_b * s_ij (moments._scaled_table), so a forest with e
edges carries L^e.  The tree integral is <P, phi(root)> / L^e:
integrating the root's angle keeps the mode-0 coefficient, which is
the zero sum at the root, and moments._mean takes that pairing, with
its exact non-real check, for both routes.  It pairs with the integer
weights D len_a (IntervalPartition.weights), so a level's sum stays an
int and becomes one Fraction, over D L^e.  The tests hold the shared
product and pairing to the labelled sum written out term by term.

Cost.  A tree integral depends only on the rooted tree, not on the order
of a vertex's children, so m_k sums over canonical trees (each vertex's
child shapes sorted), each weighted by its number of plane embeddings,
which is the number of Wigner partitions with that tree: 286 trees
against 1430 partitions at k = 16 (Otter's count of rooted trees).
_forests builds every canonical forest with at most k/2 edges bottom up,
with one product per forest and one pairing per tree, and lists no
partition: 485 products and 200 pairings for all k <= 16 at once.  The
routes still differ in what they sum: the recursion adds all plane
trees of one size before it pairs, and the oracle pairs each canonical
tree alone.
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

# the deepest k the oracle sums: on the semicircle k <= 16 takes 0.018 s
# and k <= 20 takes 0.12 s (one core), as the tree count triples per edge
KMAX_GUARD = 16


@dataclass(frozen=True)
class WignerPartition:
    """A Wigner set partition with its tree and walk permutations.

    k:     even number of walk steps;
    parts: tuple of tuples of 1-based step indices, ordered by minimum;
    edges: tuple of (parent_part, child_part) index pairs, k/2 of them;
    sigma: pairing permutation as a tuple of length k+1 (entry 0 unused).
    """

    k: int
    parts: tuple
    edges: tuple
    sigma: tuple

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
    return WignerPartition(k=k, parts=parts, edges=tuple(edges),
                           sigma=_sigma_from_parts(k, parts))


def _sigma_from_parts(k: int, parts) -> tuple:
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
    return tuple(sigma)


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


def _forests(kern: Kernel, emax: int) -> tuple:
    """L, and for e = 0..emax every canonical forest with e edges -> (n, phi).

    A forest is the sorted tuple of its trees, each tree written as the
    forest below its root.  n counts the plane forests of that shape, and
    phi is the forest integrated with its root at color c, scaled by L^e
    (moments).  A plane forest with e edges is its first tree t (s edges
    below the edge to it) followed by a plane forest f with e - 1 - s
    edges, so n adds n(t) n(f) over the pairs, and phi, which does not
    depend on the order, is phi(f) times the pairing of phi(t).  The
    pairing puts the parent's label first: the up-step into a child
    precedes its partner.
    """
    L, terms = _scaled_table(kern)
    nI = kern.partition.n
    table = [{(): (1, (0, [[1]] * nI, [[0]] * nI))}]
    psis = {}
    for e in range(1, emax + 1):
        psis.update((t, _pair(terms, kern.band, phi))
                    for t, (_, phi) in table[e - 1].items())
        level = {}
        for s in range(e):
            for t, (n_t, _) in table[s].items():
                for f, (n_f, phi_f) in table[e - 1 - s].items():
                    forest = tuple(sorted(f + (t,)))
                    n, phi = level.get(forest) or (0, _mul(phi_f, psis[t]))
                    level[forest] = (n + n_t * n_f, phi)
        table.append(level)
    return L, table


def tree_integral(kern: Kernel, w: WignerPartition) -> Fraction:
    """E M_pi = E prod over tree edges of s(color_A, color_B), exactly.

    The finite sum over integer step labels f with sum zero on every
    part of prod_{i < sigma(i)} s_{f(i), f(sigma(i))}, integrated over
    the intervals of the parts: the forest table's phi at the
    partition's shape, paired with P.
    """
    e = w.k // 2
    L, table = _forests(kern, e)
    _, phi = table[e][_plane_shape(w)]
    D, weights = kern.partition.weights
    return Fraction(_mean(weights, phi, "tree integral"), D * L ** e)


def moments_by_enumeration(kern: Kernel, kmax: int) -> list:
    """m_k = sum over Wigner partitions of E M_pi, for k = 1..kmax.

    Summed over canonical trees, each weighted by its number of plane
    embeddings.  Exact Fractions; odd moments are zero (there are no
    partitions).  Each tree's imaginary part must cancel on its own,
    not just in the sum over its level.
    """
    if kmax > KMAX_GUARD:
        raise ValueError(f"kmax > {KMAX_GUARD}: the tree count's growth "
                         "makes this a desk-scale ceiling")
    L, table = _forests(kern, kmax // 2)
    D, weights = kern.partition.weights

    def moment(e):
        total = sum(n * _mean(weights, phi, "tree integral")
                    for n, phi in table[e].values())
        return Fraction(total, D * L ** e)
    return [Fraction(0) if k % 2 else moment(k // 2)
            for k in range(1, kmax + 1)]
