"""Immutable simple graphs over bitset vertex sets.

A vertex set is a plain Python int used as a bitmask over vertex indices
0..n-1, so set algebra is word-parallel machine arithmetic: union is ``|``,
intersection ``&``, difference ``a & ~b``, the subset test ``a & ~b == 0``.
Arbitrary-precision ints keep the semantics exact for any n.

The total order on vertices is ascending index order; sets are compared by
their smallest member.
"""

from __future__ import annotations

from typing import Iterable, Iterator

__all__ = [
    "AuditError",
    "Graph",
    "bits",
    "bit_list",
    "is_clique_in",
    "vset",
]


class AuditError(RuntimeError):
    """A check on a result about to be reported failed: the answer is not
    certified, so it is not reported."""


def vset(vertices: Iterable[int]) -> int:
    """Build a bitmask from an iterable of vertex indices."""
    mask = 0
    for v in vertices:
        mask |= 1 << v
    return mask


def bits(mask: int) -> Iterator[int]:
    """Yield the vertex indices contained in ``mask``, ascending."""
    while mask:
        b = mask & -mask
        yield b.bit_length() - 1
        mask ^= b


def bit_list(mask: int) -> list[int]:
    return list(bits(mask))


def is_clique_in(adj: list[int], s: int) -> bool:
    """Whether ``s`` is a clique of the graph with neighbourhoods ``adj``."""
    while s:
        low = s & -s
        s ^= low
        if s & ~adj[low.bit_length() - 1]:
            return False
    return True


class Graph:
    """Simple undirected graph with per-vertex neighborhood bitmasks.

    Immutable after construction; safe to share between solver instances.
    Vertices are 0..n-1.  ``adj[v]`` is the bitmask of neighbors of ``v``.
    """

    __slots__ = ("n", "adj", "edge_count", "full_mask")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        adj = [0] * n
        m = 0
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if adj[u] >> v & 1:
                continue
            adj[u] |= 1 << v
            adj[v] |= 1 << u
            m += 1
        self.n = n
        self.adj = adj
        self.edge_count = m
        self.full_mask = (1 << n) - 1

    @classmethod
    def from_adjacency(cls, adj: list[int]) -> "Graph":
        """The graph with neighborhood bitmasks ``adj``, taken as they are:
        they must be symmetric and without self-loops."""
        g = cls.__new__(cls)
        g.n = len(adj)
        g.adj = adj
        g.edge_count = sum(a.bit_count() for a in adj) // 2
        g.full_mask = (1 << g.n) - 1
        return g

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.edge_count})"

    def edge_list(self) -> list[tuple[int, int]]:
        return [(u, v) for u in range(self.n) for v in bits(self.adj[u]) if u < v]

    def min_degree(self) -> int:
        return min(self.adj[v].bit_count() for v in range(self.n))

    def open_neighborhood(self, u: int) -> int:
        """Vertices outside ``u`` adjacent to some member of ``u``."""
        adj = self.adj
        nbrs = 0
        m = u
        while m:
            b = m & -m
            nbrs |= adj[b.bit_length() - 1]
            m ^= b
        return nbrs & ~u

    def components(self, s: int) -> list[int]:
        """Connected components of the graph minus ``s``, ascending by minimum vertex."""
        return [c for c, _ in self.components_with_neighborhoods(s)]

    def components_with_neighborhoods(self, s: int,
                                      until_full: bool = False) -> list[tuple[int, int]]:
        """Components of the graph minus ``s``, each paired with its neighborhood.

        The neighborhood of a component associated with ``s`` is always a
        subset of ``s``.  With ``until_full`` the list stops right after the
        first full component (neighborhood all of ``s``), so it ends with a
        full component exactly when ``s`` has one.
        """
        adj = self.adj
        rest = self.full_mask & ~s
        out = []
        while rest:
            comp = rest & -rest
            frontier = comp
            seen_nbrs = 0
            while frontier:
                nbrs = 0
                while frontier:
                    b = frontier & -frontier
                    nbrs |= adj[b.bit_length() - 1]
                    frontier ^= b
                seen_nbrs |= nbrs
                frontier = nbrs & rest & ~comp
                comp |= frontier
            nb = seen_nbrs & ~comp
            out.append((comp, nb))
            if until_full and nb == s:
                break
            rest &= ~comp
        return out

    def is_connected(self, u: int) -> bool:
        """True iff the subgraph induced by non-empty ``u`` is connected."""
        if not u:
            raise ValueError("is_connected of the empty set")
        return self.components_with_neighborhoods(self.full_mask & ~u)[0][0] == u

    def subgraph(self, u: int, make_clique: int = 0) -> tuple["Graph", list[int]]:
        """Induced subgraph on ``u``, optionally completing ``make_clique & u``.

        Returns the new graph plus the label list mapping new indices back to
        vertices of this graph.
        """
        labels = bit_list(u)
        index = {v: i for i, v in enumerate(labels)}
        adj = [0] * len(labels)
        for i, v in enumerate(labels):
            mask = self.adj[v] & u
            acc = 0
            while mask:
                b = mask & -mask
                acc |= 1 << index[b.bit_length() - 1]
                mask ^= b
            adj[i] = acc
        clique = make_clique & u
        if clique:
            cmask = 0
            for v in bits(clique):
                cmask |= 1 << index[v]
            for i in bits(cmask):
                adj[i] |= cmask & ~(1 << i)
        return Graph.from_adjacency(adj), labels
