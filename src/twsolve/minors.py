"""Contracted minors of a graph, which certify negative decision levels.

Treewidth does not grow under edge contraction, so a decision level that
answers no at width k on a minor H of a graph G proves tw(G) > k, and a
small H has far fewer feasible objects than G.  The minors come from one
greedy contraction chain G = H_n, H_{n-1}, ..., each step contracting a
vertex of minimum degree into the neighbour with which it shares the
fewest neighbours: the "least-c" rule of MMD+ (Bodlaender, Koster and
Wolle, "Contraction and treewidth lower bounds", JGAA 2006).  Each H_s
keeps its branch sets, the vertex sets of G contracted into its vertices,
so :func:`audit` can check it against G without trusting the chain.
The same audit checks the labelled clique minors that certify safe
separators (:func:`twsolve.safesep.audit_evidence`); a failure raises
:class:`~twsolve.graph.AuditError`.
"""

from __future__ import annotations

from .graph import AuditError, Graph, bits

__all__ = ["audit", "contraction_chain"]


def contraction_chain(g: Graph, smallest: int, largest: int) -> list[tuple[Graph, list[int]]]:
    """The minors H_s of connected ``g`` for ``smallest`` <= s <= ``largest``,
    largest first, each with its branch sets (one vertex set of ``g`` per
    vertex of H_s).

    One pass contracts down from ``g`` and records each H_s as it goes.  A
    step takes the vertex v of minimum degree and the neighbour u of v with
    the fewest common neighbours, ties going to the lowest index, merges v
    into u and drops index v, shifting the higher indices down by one.
    """
    adj = list(g.adj)
    branch = [1 << v for v in range(g.n)]
    out = []
    for s in range(g.n - 1, max(smallest, 2) - 1, -1):
        v = min(range(s + 1), key=lambda x: adj[x].bit_count())
        nv = adj[v]
        u = min(bits(nv), key=lambda w: (adj[w] & nv).bit_count())
        branch[u] |= branch[v]
        del branch[v]
        low = (1 << v) - 1
        # a new list: the minor recorded last holds the old one
        adj = [(a & low) | (a >> 1 & ~low) for x, a in enumerate(adj) if x != v]
        u -= u > v
        nv = ((nv & low) | (nv >> 1 & ~low)) & ~(1 << u)
        adj[u] |= nv
        for w in bits(nv):
            adj[w] |= 1 << u
        if s <= largest:
            out.append((Graph.from_adjacency(adj), list(branch)))
    return out


def audit(g: Graph, h: Graph, branch: list[int], within: int | None = None) -> None:
    """Check that ``branch`` realizes ``h`` as a minor of ``g`` on the
    vertices ``within`` (all of ``g`` by default): its sets are non-empty,
    inside ``within``, pairwise disjoint and connected in ``g``, one per
    vertex of ``h``, and every edge of ``h`` joins two sets adjacent in
    ``g``.  Raises :class:`AuditError` naming the first failure."""
    if len(branch) != h.n:
        raise AuditError(f"{len(branch)} branch sets for a minor on {h.n} vertices")
    allowed = g.full_mask if within is None else within & g.full_mask
    union = 0
    for i, b in enumerate(branch):
        if not b or b & ~allowed:
            raise AuditError(f"branch set {i} is empty or leaves the allowed vertices")
        if b & union:
            raise AuditError(f"branch set {i} overlaps another")
        if not g.is_connected(b):
            raise AuditError(f"branch set {i} is not connected")
        union |= b
    for u in range(h.n):
        reach = g.open_neighborhood(branch[u])
        for v in bits(h.adj[u]):
            if not reach & branch[v]:
                raise AuditError(f"edge ({u},{v}) joins branch sets that are not adjacent")
