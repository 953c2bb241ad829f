"""Safe-separator preprocessing: split the instance at separators that
provably preserve treewidth, after removing the vertices that the simplicial
and almost-simplicial rules settle (:func:`simplicial_reduction`).

A separator is *minor-safe* when, for every component C associated with it,
the rest of the graph contains the separator as a labelled clique minor;
completing such a separator into a clique cannot raise the treewidth, so the
instance splits into one independent subproblem per component.

Candidates come from greedy elimination decompositions (min-fill and
min-degree); each candidate's components are computed once and shared by
the minimality test, the scoring and the check.  Clique and almost-clique
minimal separators are accepted outright; everything else goes through a
two-phase contraction heuristic (after Bodlaender & Koster, "Safe separators
for treewidth", Discrete Math. 2006).  Phase one contracts edges outside the
separator to build up clusters that neighbor both ends of missing separator
edges.  It only merges clusters adjacent to the separator, since no other
merge can cover a missing edge, but every adjacent pair of clusters it
passes over still counts one step against the budget.  Phase two spends
those clusters, one per missing edge, contracting each into an endpoint.
Both phases read one map, ``see``, from each separator vertex to the live
clusters adjacent to it, so the clusters that cover a missing edge uv are
``see[u] & see[v]``.  Each search returns its verdict, the vertices
contracted onto each separator vertex and the steps it used.
Every yes verdict carries, for each component C, the vertices contracted
onto each separator vertex, and :func:`audit_evidence` checks that they
realize the separator as a clique minor of the graph minus C
(:func:`twsolve.minors.audit`) before the verdict is returned.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

from .blocks import is_minimal_separator
from .graph import Graph, bit_list, bits, is_clique_in
from .minors import audit
from .tdbuild import TreeDecomposition, from_cliques

__all__ = [
    "ABORTED",
    "DONT_KNOW",
    "YES",
    "Decomposition",
    "Part",
    "STEP_BUDGET",
    "SafeSeparatorReport",
    "TALLY_KEYS",
    "audit_evidence",
    "candidate_separators",
    "decompose",
    "greedy_elimination",
    "heuristic_minor_safe",
    "is_almost_clique",
    "simplicial_reduction",
]

YES = "yes"
DONT_KNOW = "dont-know"
ABORTED = "aborted"
# keys of Decomposition.tally
TALLY_KEYS = ("checks", "yes", "dont_know", "aborted", "steps")
# execution steps per (separator, component) search of a minor-safety check
STEP_BUDGET = 10000


@dataclass
class SafeSeparatorReport:
    """Outcome of a minor-safety check.

    ``evidence`` is present only for a yes verdict: for each component
    associated with the separator (in component order), one set per
    separator vertex (in :func:`~twsolve.graph.bits` order) of the vertices
    outside the separator contracted onto it.
    """

    verdict: str
    evidence: list[list[int]] | None = None
    steps_used: int = 0


def greedy_elimination(g: Graph, mode: str) -> tuple[list[int], list[int]]:
    """Min-fill (``mode="min_fill"``) or min-degree elimination of ``g``.

    Returns the elimination order and, for each eliminated vertex in that
    order, its neighborhood at elimination time (fill edges included).  The
    order yields a tree decomposition of width equal to the largest of those
    neighborhoods (Bodlaender & Koster, "Treewidth computations I. Upper
    bounds", Inf. Comput. 2010).
    """
    adj = list(g.adj)
    alive = g.full_mask
    min_degree = mode == "min_degree"

    def key(v: int) -> int:
        nb = adj[v] & alive
        if min_degree:
            return nb.bit_count()
        fill = 0
        while nb:
            ub = nb & -nb
            nb ^= ub
            fill += (nb & ~adj[ub.bit_length() - 1]).bit_count()
        return fill

    keys = [key(v) for v in range(g.n)]
    remaining = list(range(g.n))  # ascending: min takes the lowest index of least key
    order = []
    out = []
    while remaining:
        best = min(remaining, key=keys.__getitem__)
        remaining.remove(best)
        nb = adj[best] & alive
        order.append(best)
        out.append(nb)
        stale = nb
        m = nb
        while m:
            ub = m & -m
            m ^= ub
            u = ub.bit_length() - 1
            adj[u] |= nb & ~ub
            if not min_degree:
                stale |= adj[u]
        alive &= ~(1 << best)
        # a key changes only where the neighborhood, or the edges inside it, did
        for u in bits(stale & alive):
            keys[u] = key(u)
    return order, out


def simplicial_reduction(g: Graph) -> tuple[Graph, list[int], int, list[tuple[int, int]]]:
    """Remove simplicial and almost-simplicial vertices from ``g``
    (Bodlaender, Koster & van den Eijkhof, "Pre-processing rules for
    triangulation of probabilistic networks", Comput. Intell. 2005).

    ``low`` is a certified lower bound on the treewidth of ``g``, one for
    the whole graph however many components it has: 2 when it has a cycle
    (more edges than vertices less components), else 1 when it has an edge,
    else 0, raised to the degree of every simplicial vertex removed (its
    closed neighborhood is a clique minor of ``g``).  A simplicial vertex,
    isolated ones included, is always removed; an almost-simplicial vertex
    (all neighbors but one are pairwise adjacent) only when its degree is at
    most ``low``, after its neighborhood is completed into a clique.  Either
    way tw(g) = max(``low``, tw(reduced)).

    Returns the reduced graph with those fill edges, the labels of its
    vertices in ``g``, ``low``, and the removed (vertex, neighborhood at
    removal) pairs in removal order.  Each such neighborhood is a clique of
    the graph left after the removal, so putting the vertices back in reverse
    order, each with the bag of itself and its neighborhood, extends a
    decomposition of the reduced graph to one of ``g``.
    """
    adj = list(g.adj)
    alive = g.full_mask
    m = g.edge_count
    low = 2 if m > g.n - len(g.components(0)) else min(m, 1)
    removed: list[tuple[int, int]] = []
    todo = alive
    while todo:
        v = (todo & -todo).bit_length() - 1
        todo ^= 1 << v
        nb = adj[v]
        d = nb.bit_count()
        if is_clique_in(adj, nb):
            if d > low:
                low = d
                todo |= alive  # almost-simplicial vertices of degree up to d now qualify
        elif d <= low and any(is_clique_in(adj, nb & ~(1 << u)) for u in bits(nb)):
            for u in bits(nb):
                adj[u] |= nb & ~(1 << u)
                todo |= adj[u]  # the fill edges lie in the neighborhoods of these
        else:
            continue
        for u in bits(nb):
            adj[u] &= ~(1 << v)
        alive &= ~(1 << v)
        todo = (todo | nb) & alive
        removed.append((v, nb))
    if not removed:
        return g, list(range(g.n)), low, removed
    filled = Graph(g.n, [(u, w) for u in bits(alive) for w in bits(adj[u]) if u < w])
    return (*filled.subgraph(alive), low, removed)


def candidate_separators(
    g: Graph, elims: list[tuple[list[int], list[int]]]
) -> list[tuple[int, list[tuple[int, int]]]]:
    """Minimal separators harvested from greedy elimination decompositions,
    each with its components and their neighborhoods.

    ``elims`` holds eliminations of ``g`` (order and neighborhoods, as
    :func:`greedy_elimination` returns them); the neighborhood of each vertex
    at its elimination time is an adjacent-bag intersection of the resulting
    decomposition.  Deduplicated and filtered to minimal separators, in the
    order harvested.
    """
    seen: set[int] = set()
    out = []
    for _, nbs in elims:
        for s in nbs:
            if s and s not in seen:
                seen.add(s)
                comps_nbs = g.components_with_neighborhoods(s)
                if is_minimal_separator(s, comps_nbs):
                    out.append((s, comps_nbs))
    return out


def is_almost_clique(g: Graph, s: int) -> int | None:
    """First vertex whose removal turns ``s`` into a clique, if any."""
    for v in bits(s):
        if is_clique_in(g.adj, s & ~(1 << v)):
            return v
    return None


def heuristic_minor_safe(
    g: Graph, s: int, comps_nbs: list[tuple[int, int]]
) -> SafeSeparatorReport:
    """Decide minor-safety of minimal separator ``s``: yes with audited
    evidence, don't-know, or aborted on budget exhaustion.

    The budget, ``STEP_BUDGET``, counts execution steps per (separator,
    component) pair: contractions plus candidate-contraction evaluations.
    Phase one only merges clusters that touch ``s``, but every pair of
    adjacent clusters it passes over still counts one step, as if it had
    been evaluated.  The report's ``steps_used`` sums the steps of every
    component searched.  ``comps_nbs`` holds the components associated
    with ``s`` and their neighborhoods.
    """
    comps = [c for c, _ in comps_nbs]
    apex = is_almost_clique(g, s)
    fulls = [c for c, nb in comps_nbs if nb == s]
    evidence = []
    used = 0
    # an apex that misses none of s makes s a clique, which the search
    # settles in no steps
    if apex is not None and s & ~g.adj[apex] != 1 << apex and len(fulls) >= 2:
        for c in comps:  # contract another full component onto the apex
            other = next(f for f in fulls if f != c)
            evidence.append([other if u == apex else 0 for u in bits(s)])
    else:
        for c in comps:
            verdict, bags, steps = _clique_minor_search(g, s, c)
            used += steps
            if verdict != YES:
                return SafeSeparatorReport(verdict, None, used)
            evidence.append([bags.get(u, 0) for u in bits(s)])
    audit_evidence(g, s, comps, evidence)
    return SafeSeparatorReport(YES, evidence, used)


def audit_evidence(g: Graph, s: int, comps: list[int], evidence: list[list[int]]) -> None:
    """Check that each component's evidence realizes ``s`` as a labelled
    clique minor of ``g`` minus that component: separator vertex u joined
    with the set contracted onto it is the branch set of u.  Raises
    :class:`~twsolve.graph.AuditError` naming the first failure."""
    labels = bit_list(s)
    clique = Graph(len(labels), combinations(range(len(labels)), 2))
    for c, extra in zip(comps, evidence, strict=True):
        branch = [x | 1 << u for x, u in zip(extra, labels)]
        audit(g, clique, branch, within=g.full_mask & ~c)


def _clique_minor_search(g: Graph, s: int, component: int) -> tuple[str, dict[int, int], int]:
    """Two-phase contraction search for a labelled clique minor of ``s`` in
    the graph minus ``component``, within ``STEP_BUDGET`` steps.

    Returns the verdict, for a yes the vertices contracted onto each
    separator vertex that takes any, and the steps used.  Clusters of the
    vertices outside ``s`` are named by their smallest vertex; ``see[u]`` is
    the set of live clusters adjacent to separator vertex u, so
    ``see[u] & see[v]`` are the clusters that cover the missing pair uv.
    Phase one scores its merges on ``see`` and keeps it up to date; phase
    two picks and spends its clusters from it.
    """
    step_budget = STEP_BUDGET
    adj = g.adj
    r = g.full_mask & ~component & ~s
    steps = 0
    missing = [(u, v) for u in bits(s) for v in bits(s & ~adj[u] & -(2 << u))]
    if not missing:
        return YES, {}, steps

    # A merge can only cover a missing pair when both clusters touch s, so
    # only those clusters are kept and merged; every other vertex of r stays
    # a singleton whose adjacent pairs are still counted, one step each, in
    # ``pairs``.
    touch = g.open_neighborhood(s) & r
    members = {v: 1 << v for v in bits(touch)}
    sadj = {v: adj[v] & s for v in bits(touch)}  # separator vertices each cluster sees
    cadj = {v: adj[v] & r for v in bits(touch)}  # names of adjacent clusters
    see = {u: adj[u] & r for u in bits(s)}
    alive = r.bit_count()
    low = alive - sum(1 for a in sadj.values() if a.bit_count() >= 2)  # see fewer than two of s

    # phase one: grow clusters that cover missing pairs; ``pairs`` is
    # counted only when a round will run
    if alive > 1 and low:
        pairs = sum((adj[v] & r).bit_count() for v in bits(r)) // 2  # adjacent cluster pairs
    while alive > 1 and steps < step_budget and low:
        if steps + pairs >= step_budget:
            return ABORTED, {}, step_budget
        steps += pairs
        best = None
        best_key = None
        for i in bits(touch):  # adjacent pairs i < j that both touch s
            si = sadj[i]
            for j in bits(cadj[i] & touch & -(2 << i)):
                sj = sadj[j]
                # the merge helps iff it covers a missing pair that neither covers alone
                if not any(sj & ~si & ~adj[u] for u in bits(si & ~sj)):
                    continue
                merged = si | sj
                others = ~(1 << i | 1 << j)
                key = (min((see[u] & see[v] & others).bit_count() + (merged >> u & merged >> v & 1)
                           for u, v in missing), -i, -j)
                if best_key is None or key > best_key:
                    best_key = key
                    best = (i, j)
        if best is None:
            break
        i, j = best
        si, sj = sadj[i], sadj.pop(j)
        merged = sadj[i] = si | sj
        for x in bits(sj):
            see[x] = see[x] & ~(1 << j) | 1 << i
        low += (merged.bit_count() < 2) - (si.bit_count() < 2) - (sj.bit_count() < 2)
        ci, cj = cadj[i], cadj.pop(j)
        cadj[i] = (ci | cj) & ~(1 << i | 1 << j)
        pairs += cadj[i].bit_count() + 1 - ci.bit_count() - cj.bit_count()
        for k in bits(cj & touch & ~(1 << i)):
            cadj[k] = cadj[k] & ~(1 << j) | 1 << i
        members[i] |= members.pop(j)
        touch &= ~(1 << j)
        alive -= 1
        steps += 1

    # phase two: spend one cluster on the pair with fewest, contracting it
    # onto the end that leaves the pairs still missing best covered
    bags: dict[int, int] = {}
    while missing:
        if steps >= step_budget:
            return ABORTED, {}, steps
        u, v = min(missing, key=lambda p: (see[p[0]] & see[p[1]]).bit_count())
        if not see[u] & see[v]:
            return DONT_KNOW, {}, steps
        best_key = None
        for w in bits(see[u] & see[v]):
            sw = sadj[w]
            for side in (u, v):
                steps += 1
                if steps >= step_budget:
                    return ABORTED, {}, steps
                # w onto side covers xy iff side is x or y and w sees both
                left = [(x, y) for x, y in missing
                        if not (side in (x, y) and sw >> x & sw >> y & 1)]
                key = (min(((see[x] & see[y] & ~(1 << w)).bit_count() for x, y in left),
                           default=g.n + 1), -w, -side)
                if best_key is None or key > best_key:
                    best_key = key
                    best = (w, side, left)
        w, side, missing = best
        bags[side] = bags.get(side, 0) | members[w]
        for x in bits(sadj[w]):
            see[x] &= ~(1 << w)
        steps += 1
    return YES, bags, steps


@dataclass
class Part:
    """A part to solve: its graph (separators already completed), the labels
    of its vertices in the graph decomposed, and ``held``, the clique tree of
    the graph its better greedy elimination fills in, in the vertex indices
    of ``graph``."""

    graph: Graph
    to_root: list[int]
    held: TreeDecomposition


@dataclass
class Decomposition:
    """The parts and a ``tally`` of the minor-safety checks
    run: ``checks``, one count per verdict (``yes``, ``dont_know``,
    ``aborted``) and the ``steps`` they used."""

    parts: list[Part] = field(default_factory=list)
    tally: dict[str, int] = field(default_factory=lambda: dict.fromkeys(TALLY_KEYS, 0))


def decompose(g: Graph) -> Decomposition:
    """Split ``g`` along verified minor-safe separators until none applies.

    A disconnected ``g`` first splits into its components along the empty
    separator, a clique, so that split is safe without a check and is not
    tallied.  Separators are then tried largest impact first (greatest
    reduction of the biggest part, then size ascending); every applied part
    gets the separator completed into a clique and is then split further if
    possible.  Parts are labelled in the vertices of ``g``, and each holds
    the clique tree (:func:`~twsolve.tdbuild.from_cliques`) of the better
    of the greedy eliminations its separator search ran, whose bags are the
    maximal sets of a vertex and its neighbourhood when eliminated.  Every
    split completes its separator in each child, so the parts' completed
    bags form a clique-sum of chordal graphs, a chordal supergraph of ``g``.
    """
    out = Decomposition()
    root = (g, list(range(g.n)))
    comps_nbs = g.components_with_neighborhoods(0)
    stack = [root] if len(comps_nbs) == 1 else _children(*root, comps_nbs)[::-1]
    while stack:
        graph, to_root = stack.pop()
        elims = [greedy_elimination(graph, mode) for mode in ("min_fill", "min_degree")]
        found = _find_safe_separator(graph, elims, out.tally)
        if found is None:  # keep the elimination of least width, min-fill on a tie
            best = min(elims, key=lambda e: max(map(int.bit_count, e[1]), default=0))
            bags = [nb | 1 << v for v, nb in zip(*best)]
            out.parts.append(Part(graph, to_root, from_cliques(graph, bags)))
        else:
            stack += _children(graph, to_root, found)[::-1]
    return out


def _children(
    graph: Graph, to_root: list[int], comps_nbs: list[tuple[int, int]]
) -> list[tuple[Graph, list[int]]]:
    """One child per component, on it and its neighborhood completed into a
    clique, with the root labels of its vertices."""
    out = []
    for comp, nb in comps_nbs:
        part, part_labels = graph.subgraph(comp | nb, make_clique=nb)
        out.append((part, [to_root[v] for v in part_labels]))
    return out


def _find_safe_separator(
    g: Graph, elims: list[tuple[list[int], list[int]]], tally: dict[str, int]
) -> list[tuple[int, int]] | None:
    """The components, with their neighborhoods, of the first candidate
    found minor-safe; every check is added to ``tally``.  A candidate has two
    full components and each part misses one, so it shrinks the largest."""
    scored = sorted(
        (max((c | nb).bit_count() for c, nb in comps_nbs), s.bit_count(), s, comps_nbs)
        for s, comps_nbs in candidate_separators(g, elims))
    for _, _, s, comps_nbs in scored:
        report = heuristic_minor_safe(g, s, comps_nbs=comps_nbs)
        tally["checks"] += 1
        tally[report.verdict.replace("-", "_")] += 1
        tally["steps"] += report.steps_used
        if report.verdict == YES:
            return comps_nbs
    return None
