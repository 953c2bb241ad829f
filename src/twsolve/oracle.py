"""Brute-force references for tests and the census mode.

Nothing here is on the production solving path.  The treewidth reference is
the classic dynamic program over all vertex subsets of an elimination
prefix; the enumerators test every subset against the defining predicates.
Each enumerator has a second, independently coded twin built on plain dicts
and frozensets (and, for minimal separators, a different but equivalent
formulation of minimality) so the two implementations can cross-check each
other exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from . import blocks
from .graph import Graph

__all__ = [
    "ENUM_LIMIT",
    "FeasibleObjects",
    "bf_treewidth",
    "enumerate_minimal_separators",
    "enumerate_minimal_separators_naive",
    "enumerate_pmcs",
    "enumerate_pmcs_naive",
    "feasible_objects",
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
    out = set()
    for s in range(1, g.full_mask):
        count = 0
        for _, nb in g.components_with_neighborhoods(s):
            if nb == s:
                count += 1
                if count == 2:
                    out.add(s)
                    break
    return out


def enumerate_pmcs(g: Graph) -> set[int]:
    """All potential maximal cliques, as bitmasks."""
    n = g.n
    if n > ENUM_LIMIT:
        raise ValueError(f"enumeration is limited to n<={ENUM_LIMIT}, got {n}")
    return {s for s in range(1, g.full_mask + 1) if blocks.is_pmc(g, s)}


# -- independent twins built on dicts and frozensets -----------------------


def _adj_sets(n: int, edges: list[tuple[int, int]]) -> dict[int, set[int]]:
    adj: dict[int, set[int]] = {v: set() for v in range(n)}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def _components_of(allowed: set[int], adj: dict[int, set[int]]) -> list[set[int]]:
    left = set(allowed)
    comps = []
    while left:
        seed = min(left)
        comp = {seed}
        stack = [seed]
        while stack:
            u = stack.pop()
            for w in adj[u]:
                if w in left and w not in comp:
                    comp.add(w)
                    stack.append(w)
        comps.append(comp)
        left -= comp
    return comps


def _connected_within(a: int, b: int, allowed: set[int], adj: dict[int, set[int]]) -> bool:
    if a not in allowed or b not in allowed:
        return False
    seen = {a}
    stack = [a]
    while stack:
        u = stack.pop()
        if u == b:
            return True
        for w in adj[u]:
            if w in allowed and w not in seen:
                seen.add(w)
                stack.append(w)
    return False


def enumerate_minimal_separators_naive(n: int, edges: list[tuple[int, int]]) -> set[frozenset[int]]:
    """Minimal separators via pairwise minimality: S separates some a, b and
    no proper subset of S does."""
    adj = _adj_sets(n, edges)
    vertices = set(range(n))
    out = set()
    for size in range(1, n):
        for sep in combinations(range(n), size):
            s = set(sep)
            comps = _components_of(vertices - s, adj)
            if len(comps) < 2:
                continue
            reps = [min(c) for c in comps]
            found = False
            for a, b in combinations(reps, 2):
                if all(
                    _connected_within(a, b, (vertices - s) | {v}, adj) for v in s
                ):
                    found = True
                    break
            if found:
                out.add(frozenset(s))
    return out


def enumerate_pmcs_naive(n: int, edges: list[tuple[int, int]]) -> set[frozenset[int]]:
    """Potential maximal cliques via the no-full-component plus cliquish test,
    coded independently on plain sets."""
    adj = _adj_sets(n, edges)
    vertices = set(range(n))
    out = set()
    for size in range(1, n + 1):
        for cand in combinations(range(n), size):
            omega = set(cand)
            comps = _components_of(vertices - omega, adj)
            comp_nbs = [{w for c in comp for w in adj[c]} - comp for comp in comps]
            if any(nb == omega for nb in comp_nbs):
                continue
            ok = True
            for u, v in combinations(sorted(omega), 2):
                if v in adj[u]:
                    continue
                if not any(u in nb and v in nb for nb in comp_nbs):
                    ok = False
                    break
            if ok:
                out.add(frozenset(omega))
    return out


# -- exhaustive recount of the solver's positive objects -------------------


@dataclass
class FeasibleObjects:
    """Feasible inbound blocks, outbound blocks, and potential maximal cliques
    of a (graph, k) instance, recomputed from the definitions.

    ``iblocks`` and ``pmcs`` are exact.  ``oblocks`` is the definitional
    family (outbound full blocks whose separator is a union of feasible
    inbound neighborhoods); it can strictly contain the set a solver run
    stores, because realizing a union requires each contributing component to
    sit inside the full block built from the previous ones, which not every
    family admits.  Solver runs must store a subset of this family."""

    iblocks: set[int]
    oblocks: set[int]
    pmcs: set[int]


def feasible_objects(g: Graph, k: int) -> FeasibleObjects:
    n = g.n
    if n > 13:
        raise ValueError(f"feasible-object recount is limited to n<=13, got {n}")
    feas_cache: dict[int, bool] = {}

    def feasible_conn(c: int) -> bool:
        hit = feas_cache.get(c)
        if hit is None:
            nb = g.open_neighborhood(c)
            sub, _ = g.subgraph(c | nb, make_clique=nb)
            hit = bf_treewidth(sub) <= k
            feas_cache[c] = hit
        return hit

    inbound_feasible: list[tuple[int, int]] = []
    outbound: list[tuple[int, int]] = []
    for c in range(1, g.full_mask + 1):
        if not g.is_connected(c):
            continue
        nb = g.open_neighborhood(c)
        if nb == 0 or nb.bit_count() > k:
            continue
        if blocks.is_outbound(g, c):
            outbound.append((c, nb))
        elif feasible_conn(c):
            inbound_feasible.append((c, nb))

    iblocks = {c for c, _ in inbound_feasible}
    oblocks = set()
    for a, na in outbound:
        u = 0
        for _, nb in inbound_feasible:
            if nb & ~na == 0:
                u |= nb
        if u == na:
            oblocks.add(a)

    pmcs = set()
    for cand in range(1, g.full_mask + 1):
        if cand.bit_count() > k + 1 or not blocks.is_pmc(g, cand):
            continue
        _, sup = blocks.outlet_and_support(g, cand)
        if all(feasible_conn(c) for c in sup):
            pmcs.add(cand)
    return FeasibleObjects(iblocks, oblocks, pmcs)
