"""Reference code that only the tests use.

- Small textbook graphs.
- The orientation predicates, outlet and support by their definitions.
- The production predicates with the arguments their callers precompute,
  computed here afresh.
- Independent enumerators of minimal separators and potential maximal
  cliques, built on plain dicts and frozensets (minimal separators by a
  different but equivalent formulation of minimality), which cross-check
  :mod:`twsolve.oracle` exactly.
- An exhaustive recount of the solver's feasible objects.
- The solver's level loop holding the bags a part comes with.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from twsolve import blocks, safesep, solver
from twsolve.graph import Graph
from twsolve.oracle import bf_treewidth

# -- small graphs ----------------------------------------------------------


def path_graph(n: int) -> Graph:
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def complete_graph(n: int) -> Graph:
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def star_graph(leaves: int) -> Graph:
    return Graph(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def grid_graph(rows: int, cols: int) -> Graph:
    edges = []
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            if c + 1 < cols:
                edges.append((v, v + 1))
            if r + 1 < rows:
                edges.append((v, v + cols))
    return Graph(rows * cols, edges)


def petersen_graph() -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, 5 + i) for i in range(5)]
    return Graph(10, outer + inner + spokes)


# -- orientation -----------------------------------------------------------


def first_full_component(g: Graph, s: int) -> int:
    """The full component of ``s`` with the smallest minimum vertex, or 0."""
    comps_nbs = g.components_with_neighborhoods(s, until_full=True)
    if comps_nbs and comps_nbs[-1][1] == s:
        return comps_nbs[-1][0]
    return 0


def is_outbound(g: Graph, c: int) -> bool:
    """True iff no full component associated with N(c) precedes ``c``.

    Equivalently ``c`` is the first full component of its own neighborhood;
    if N(c) is not a minimal separator this holds vacuously.
    """
    return first_full_component(g, g.open_neighborhood(c)) == c


def outlet_and_support(g: Graph, k_set: int) -> tuple[int, tuple[int, ...]]:
    """The definition: the outlet is the largest neighborhood of an outbound
    component other than a full one, each oriented by :func:`is_outbound`,
    and the support the components whose neighborhood leaves the outlet."""
    comps_nbs = g.components_with_neighborhoods(k_set)
    out = 0
    for c, nb in comps_nbs:
        if nb != k_set and is_outbound(g, c) and nb.bit_count() > out.bit_count():
            out = nb
    return out, tuple(c for c, nb in comps_nbs if nb & ~out)


def unconf(g: Graph, s: int, k_set: int) -> list[int]:
    """Components associated with ``k_set`` whose neighborhood is not inside ``s``."""
    return [c for c, nb in g.components_with_neighborhoods(k_set) if nb & ~s]


def crib(g: Graph, s: int, k_set: int) -> int:
    """The full component of ``s`` absorbing ``k_set - s`` and all unconfined components."""
    c = k_set & ~s
    for comp in unconf(g, s, k_set):
        c |= comp
    return c


# -- production predicates with their precomputed arguments ----------------


def is_minimal_separator(g: Graph, s: int) -> bool:
    return blocks.is_minimal_separator(s, g.components_with_neighborhoods(s))


def is_cliquish(g: Graph, k_set: int) -> bool:
    return blocks.is_cliquish(g, k_set, [nb for _, nb in g.components_with_neighborhoods(k_set)])


def heuristic_minor_safe(g: Graph, s: int) -> safesep.SafeSeparatorReport:
    return safesep.heuristic_minor_safe(g, s, g.components_with_neighborhoods(s))


def candidate_separators(g: Graph) -> list[tuple[int, list[tuple[int, int]]]]:
    elims = [safesep.greedy_elimination(g, mode) for mode in ("min_fill", "min_degree")]
    return safesep.candidate_separators(g, elims)


# -- independent enumerators on dicts and frozensets -----------------------


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
        if is_outbound(g, c):
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
        _, sup = outlet_and_support(g, cand)
        if all(feasible_conn(c) for c in sup):
            pmcs.add(cand)
    return FeasibleObjects(iblocks, oblocks, pmcs)


# -- the level loop --------------------------------------------------------


def held_decomposition(g: Graph) -> list[int]:
    """The bags that :func:`twsolve.safesep.decompose` gives a part: those of
    the better of the min-fill and min-degree eliminations, min-fill on a
    tie."""
    elims = [safesep.greedy_elimination(g, mode) for mode in ("min_fill", "min_degree")]
    best = min(elims, key=lambda e: max(map(int.bit_count, e[1]), default=0))
    return [nb | 1 << v for v, nb in zip(*best)]


def treewidth(g: Graph, **kw) -> tuple[int, list[int], list[solver.SolverStats], str]:
    """:func:`twsolve.solver.treewidth` holding the bags a part comes with."""
    return solver.treewidth(g, held_decomposition(g), **kw)
