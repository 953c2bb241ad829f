"""Predicates and constructions over separators and potential maximal cliques.

A *full component* associated with a vertex set S is a component C of the
graph minus S whose neighborhood is all of S.  S is a *minimal separator*
when at least two full components are associated with it.  A set is
*cliquish* when every non-adjacent pair inside it shares some component
neighborhood; a *potential maximal clique* (PMC) is a cliquish set with no
full component.

Orientation: a connected set C is *inbound* when some full component
associated with N(C) precedes it (has a smaller minimum vertex), otherwise
*outbound*.  The *outlet* of a cliquish set K is the maximal neighborhood
among its outbound non-full components (empty if there is none), and the
*support* of K is the list of components unconfined to the outlet; support
members are always inbound.
"""

from __future__ import annotations

from typing import Callable

from .graph import Graph

__all__ = [
    "is_cliquish",
    "is_minimal_separator",
    "is_pmc",
    "outlet_and_support",
]


def is_minimal_separator(s: int, comps_nbs: list[tuple[int, int]]) -> bool:
    """True iff at least two full components are associated with ``s``,
    given the components associated with ``s`` and their neighborhoods."""
    count = 0
    for _, nb in comps_nbs:
        if nb == s:
            count += 1
            if count == 2:
                return True
    return False


def is_cliquish(g: Graph, k_set: int, comp_nbs: list[int]) -> bool:
    """True iff every non-adjacent pair in ``k_set`` lies in some component neighborhood.

    ``comp_nbs`` holds the neighborhoods of the components associated with
    ``k_set``.  A vertex u of K is fine when it is adjacent to every other
    vertex of K outside ``cov``, the union of the neighborhoods that contain
    u.  Vertices that lie in exactly the same neighborhoods share ``cov``, so
    each such class V is checked at once: every vertex of V must be adjacent
    to every other vertex of R = K - cov, which is symmetric, so the smaller
    of V and R is scanned.
    """
    adj = g.adj
    classes = [(k_set, 0)]
    for nb in comp_nbs:
        split = []
        for part, cov in classes:
            inside = part & nb
            if inside:
                split.append((inside, cov | nb))
            if part != inside:
                split.append((part ^ inside, cov))
        classes = split
    for part, cov in classes:
        rest = k_set & ~cov
        if part.bit_count() > rest.bit_count():
            part, rest = rest, part
        while part:
            b = part & -part
            part ^= b
            if rest & ~adj[b.bit_length() - 1] & ~b:
                return False
    return True


def is_pmc(g: Graph, k_set: int) -> bool:
    """Potential maximal clique test: no full component and cliquish."""
    comps_nbs = g.components_with_neighborhoods(k_set, until_full=True)
    if comps_nbs and comps_nbs[-1][1] == k_set:
        return False
    return is_cliquish(g, k_set, [nb for _, nb in comps_nbs])


def outlet_and_support(
    k_set: int, comps_nbs: list[tuple[int, int]], full_component: Callable[[int], int]
) -> tuple[int, tuple[int, ...]]:
    """Outlet of a cliquish set together with its support components.

    The support is listed ascending by minimum vertex.  With an outlet S, the
    crib ``k_set - S`` plus the support is the full component of S that a
    feasible ``k_set`` emits as an inbound block.  ``comps_nbs`` holds the
    components associated with ``k_set`` and their neighborhoods, and
    ``full_component`` is a lookup that returns the full component of a
    separator with the smallest minimum vertex, or 0 when it has none.
    """
    out = 0
    for c, nb in comps_nbs:
        # outbound iff c is the first full component of its own neighborhood
        if nb != k_set and full_component(nb) == c and nb.bit_count() > out.bit_count():
            out = nb
    if out:
        return out, tuple(c for c, nb in comps_nbs if nb & ~out)
    return 0, tuple(c for c, _ in comps_nbs)
