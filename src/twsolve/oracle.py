"""Brute-force references for tests and the census mode.

Nothing here is on the production solving path.  The treewidth reference is
the classic dynamic program over all vertex subsets of an elimination
prefix; the enumerators, which ``census`` runs, test every subset against
the defining predicates of :mod:`twsolve.blocks`.
"""

from __future__ import annotations

from . import blocks
from .graph import Graph

__all__ = [
    "ENUM_LIMIT",
    "bf_treewidth",
    "enumerate_minimal_separators",
    "enumerate_pmcs",
]

_BF_LIMIT = 20
ENUM_LIMIT = 16  # the largest n the exhaustive enumerations take


def bf_treewidth(g: Graph) -> int:
    """Exact treewidth by dynamic programming over elimination prefixes.

    dp[S] is the best width achievable by eliminating exactly the vertices of
    S first; the degree of v at elimination time equals the neighborhood size
    of the set of already-eliminated vertices reachable from v, plus v.
    """
    n = g.n
    if n > _BF_LIMIT:
        raise ValueError(f"brute-force treewidth is limited to n<={_BF_LIMIT}, got {n}")
    if n == 0:
        raise ValueError("empty graph")
    if n == 1:
        return 0
    adj = g.adj
    full = g.full_mask
    infinity = n + 1
    dp = [0] * (full + 1)
    for s in range(1, full + 1):
        best = infinity
        rem = s
        while rem:
            vb = rem & -rem
            rem ^= vb
            prev = dp[s ^ vb]
            if prev >= best:
                continue
            # reach v's component within the eliminated prefix
            r = s ^ vb
            comp = vb
            frontier = vb
            seen = 0
            while frontier:
                nbrs = 0
                while frontier:
                    b = frontier & -frontier
                    nbrs |= adj[b.bit_length() - 1]
                    frontier ^= b
                seen |= nbrs
                frontier = nbrs & r & ~comp
                comp |= frontier
            deg = (seen & ~comp).bit_count()
            w = prev if prev > deg else deg
            if w < best:
                best = w
        dp[s] = best
    return dp[full]


def enumerate_minimal_separators(g: Graph) -> set[int]:
    """All vertex sets with at least two full components, as bitmasks."""
    n = g.n
    if n > ENUM_LIMIT:
        raise ValueError(f"enumeration is limited to n<={ENUM_LIMIT}, got {n}")
    return {s for s in range(1, g.full_mask)
            if blocks.is_minimal_separator(s, g.components_with_neighborhoods(s))}


def enumerate_pmcs(g: Graph) -> set[int]:
    """All potential maximal cliques, as bitmasks."""
    n = g.n
    if n > ENUM_LIMIT:
        raise ValueError(f"enumeration is limited to n<={ENUM_LIMIT}, got {n}")
    return {s for s in range(1, g.full_mask + 1) if blocks.is_pmc(g, s)}
