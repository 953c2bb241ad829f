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
members are always inbound.  K's components alone give both.
"""

from __future__ import annotations

from .graph import Graph

__all__ = [
    "clip_may_be_cliquish",
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


def clip_may_be_cliquish(g: Graph, s: int, v: int,
                         outside: list[tuple[int, int]]) -> bool:
    """Whether the clip K = S | (N(v) & A) of a full component A of ``s`` =
    S at v in S may be cliquish, as far as ``outside`` shows: the components
    of the graph minus A | S with their neighborhoods.

    Each component of the graph minus K is one of those components, or lies
    in A - N(v) and so misses v from its neighborhood.  So a vertex of S
    outside N[v] shares a component neighborhood with v only through an
    outside component adjacent to v; one in the neighborhood of none of
    them forms with v a non-adjacent pair that no component covers, and
    K is not cliquish.  True means only that this test cannot tell.
    """
    far = s & ~g.adj[v] & ~(1 << v)
    for _, nb in outside:
        if nb >> v & 1:
            far &= ~nb
    return not far


def is_pmc(g: Graph, k_set: int) -> bool:
    """Potential maximal clique test: no full component and cliquish."""
    comps_nbs = g.components_with_neighborhoods(k_set, until_full=True)
    if comps_nbs and comps_nbs[-1][1] == k_set:
        return False
    return is_cliquish(g, k_set, [nb for _, nb in comps_nbs])


def outlet_and_support(
    k_set: int, comps_nbs: list[tuple[int, int]]
) -> tuple[int, tuple[int, ...]]:
    """Outlet of a cliquish set of a connected graph and its support, listed,
    like ``comps_nbs``, ascending by minimum vertex; ``comps_nbs`` holds the
    components associated with ``k_set`` with their neighborhoods.

    For a component C with S = N(C) other than ``k_set``, the full
    components of S are the components with neighborhood S and the one
    holding ``k_set - S``, which absorbs every component whose neighborhood
    leaves S (Bouchitté & Todinca, SIAM J. Comput. 2001).  So S is the
    neighborhood of an outbound component exactly when some C with N(C) = S
    precedes ``k_set - S`` and every component listed before C has its
    neighborhood inside S.  With an outlet S, the crib ``k_set - S`` plus
    the support is the full component of S that a feasible ``k_set`` emits.
    """
    out = 0
    before = 0  # the union of the neighborhoods listed so far
    for c, nb in comps_nbs:
        if (nb != k_set and not before & ~nb and not k_set & ~nb & ((c & -c) - 1)
                and nb.bit_count() > out.bit_count()):
            out = nb
        before |= nb
    return out, tuple(c for c, nb in comps_nbs if nb & ~out)
