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

from .graph import Graph

__all__ = [
    "is_cliquish",
    "is_minimal_separator",
    "is_outbound",
    "is_pmc",
    "outlet_and_support",
]


def first_full_component(g: Graph, s: int) -> int:
    """The full component of ``s`` with the smallest minimum vertex, or 0."""
    for c, nb in g.components_with_neighborhoods(s):
        if nb == s:
            return c
    return 0


def is_minimal_separator(g: Graph, s: int) -> bool:
    count = 0
    for c, nb in g.components_with_neighborhoods(s):
        if nb == s:
            count += 1
            if count == 2:
                return True
    return False


def is_cliquish(g: Graph, k_set: int, comp_nbs: list[int] | None = None) -> bool:
    """True iff every non-adjacent pair in ``k_set`` lies in some component neighborhood.

    ``comp_nbs`` may carry precomputed neighborhoods of the components
    associated with ``k_set``.
    """
    if comp_nbs is None:
        comp_nbs = [nb for _, nb in g.components_with_neighborhoods(k_set)]
    adj = g.adj
    rem = k_set
    while rem:
        b = rem & -rem
        rem ^= b
        u = b.bit_length() - 1
        need = k_set & ~adj[u] & ~b
        if not need:
            continue
        covered = 0
        for nb in comp_nbs:
            if nb & b:
                covered |= nb
        if need & ~covered:
            return False
    return True


def is_pmc(g: Graph, k_set: int) -> bool:
    """Potential maximal clique test: no full component and cliquish."""
    comp_nbs = []
    for _, nb in g.components_with_neighborhoods(k_set):
        if nb == k_set:
            return False
        comp_nbs.append(nb)
    return is_cliquish(g, k_set, comp_nbs)


def is_outbound(g: Graph, c: int) -> bool:
    """True iff no full component associated with N(c) precedes ``c``.

    Equivalently ``c`` is the first full component of its own neighborhood;
    if N(c) is not a minimal separator this holds vacuously.
    """
    return first_full_component(g, g.open_neighborhood(c)) == c


def outlet_and_support(
    g: Graph, k_set: int, debug: bool = False
) -> tuple[int, tuple[int, ...]]:
    """Outlet of a cliquish set together with its support components.

    The support is listed ascending by minimum vertex.  With an outlet S, the
    crib ``k_set - S`` plus the support is the full component of S that a
    feasible ``k_set`` emits as an inbound block.
    """
    comps_nbs = g.components_with_neighborhoods(k_set)
    out = 0
    for c, nb in comps_nbs:
        # outbound iff c is the first full component of its own neighborhood
        if nb != k_set and first_full_component(g, nb) == c:
            if debug and out:
                assert out & ~nb == 0 or nb & ~out == 0, (
                    "outbound component neighborhoods must be nested"
                )
            if nb.bit_count() > out.bit_count():
                out = nb
    if out:
        return out, tuple(c for c, nb in comps_nbs if nb & ~out)
    return 0, tuple(c for c, _ in comps_nbs)
