"""Tree decompositions: construction from witnesses and chordal graphs,
lifting from a minor, narrowing, and validation.

The validator shares only the graph layer with the solver, so it can audit
decompositions produced elsewhere.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from .graph import AuditError, Graph, bit_list, bits, is_clique_in

if TYPE_CHECKING:
    from .solver import Witness

__all__ = ["TreeDecomposition", "Violation", "extract", "from_cliques", "lift", "narrow",
           "validate"]


@dataclass
class TreeDecomposition:
    """Bags are vertex bitmasks; edges join bag indices and must form a tree."""

    n: int
    bags: list[int] = field(default_factory=list)
    edges: list[tuple[int, int]] = field(default_factory=list)

    def width(self) -> int:
        if not self.bags:
            return -1
        return max(b.bit_count() for b in self.bags) - 1


@dataclass(frozen=True)
class Violation:
    kind: str
    detail: str


def extract(g: Graph, witness: Witness) -> TreeDecomposition:
    """Unfold an accepting witness into an explicit tree decomposition.

    Starting from the accepting clique, each support component is expanded
    through the clique that made it feasible; that clique contains the
    component's neighborhood, so attaching the bags keeps occurrence subtrees
    connected.  No potential maximal clique contains another (Bouchitte &
    Todinca, SIAM J. Comput. 2001).  A child clique has vertices in the
    component its parent hands it, where the parent has none, so adjacent
    bags differ and no bag lies inside another.
    """
    if witness.root is None:
        raise AuditError("extract requires an accepting witness")
    records = witness.records
    source = witness.iblock_source
    bags: list[int] = []
    edges: list[tuple[int, int]] = []
    stack: list[tuple[int, int, int]] = [(witness.root, -1, 0)]
    while stack:
        pmc, parent, for_comp = stack.pop()
        rec = records.get(pmc)
        if rec is None:
            raise AuditError("broken witness chain: unregistered clique")
        idx = len(bags)
        bags.append(rec.vertices)
        if parent >= 0:
            edges.append((parent, idx))
        if not rec.support and for_comp:
            # leaf: the bag must close over the component it stands for
            closed = for_comp | g.open_neighborhood(for_comp)
            if closed & ~rec.vertices:
                raise AuditError("leaf bag does not close over its component")
        for comp in rec.support:
            child = source.get(comp)
            if child is None:
                raise AuditError("broken witness chain: component without source")
            stack.append((child, idx, comp))
    return TreeDecomposition(g.n, bags, edges)


def lift(td: TreeDecomposition, branch: list[int], n: int) -> TreeDecomposition:
    """The decomposition ``td`` of a minor with each of its vertices replaced
    by its branch set: a decomposition of the graph on ``n`` vertices whose
    minor the branch sets realize.  An edge of that graph lies inside a
    branch set or joins two whose vertices are adjacent in the minor, and the
    bags holding a vertex are those holding the minor vertex it went into."""
    bags = []
    for b in td.bags:
        lifted = 0
        for v in bits(b):
            lifted |= branch[v]
        bags.append(lifted)
    return TreeDecomposition(n, bags, list(td.edges))


def narrow(g: Graph, td: TreeDecomposition) -> TreeDecomposition:
    """A decomposition of ``g`` from a minimal triangulation inside the one
    that ``td`` defines, so never wider than ``td``.

    Making every bag a clique gives a chordal supergraph H of ``g``.  A fill
    edge uv (an edge of H that ``g`` lacks) leaves H chordal when removed
    exactly when the common neighbours of u and v in H form a clique; such
    edges go until none is left, which makes H a minimal triangulation
    (Blair, Heggernes & Telle, "A practical algorithm for making filled
    graphs minimal", TCS 2001).  The decomposition is read off H by
    :func:`from_cliques`, given the fill edges left; eliminating ``g``
    along the order it reads H in would fill in exactly H, since H is a
    minimal triangulation.
    """
    n = g.n
    adj = list(g.adj)
    for b in td.bags:
        for v in bits(b):
            adj[v] |= b & ~(1 << v)
    fill = [(u, v) for u in range(n) for v in bits(adj[u] & ~g.adj[u] & -(2 << u))]
    # removing uv changes only the common neighbourhoods of edges at u or v,
    # so a pass rechecks only the edges at a vertex the pass before changed
    changed = g.full_mask
    while changed:
        touched, changed, kept = changed, 0, []
        for u, v in fill:
            if (touched >> u | touched >> v) & 1 and is_clique_in(adj, adj[u] & adj[v]):
                adj[u] &= ~(1 << v)
                adj[v] &= ~(1 << u)
                changed |= 1 << u | 1 << v
            else:
                kept.append((u, v))
        fill = kept
    return from_cliques(g, [1 << u | 1 << v for u, v in fill])


def from_cliques(g: Graph, cliques: list[int]) -> TreeDecomposition:
    """The clique tree of the graph H that ``g`` becomes when every set of
    ``cliques`` is completed into a clique, built as maximum cardinality
    search visits H (Blair & Peyton, "An introduction to chordal graphs and
    clique trees", 1993).  A vertex with at most as many visited neighbours
    as the vertex visited before it starts a new bag, itself and those
    neighbours, attached to the bag of its neighbour visited last, or to the
    previous bag when it has none; any other vertex joins the current bag.
    When H is chordal, the search visits it in the reverse of a perfect
    elimination order (Tarjan & Yannakakis, SIAM J. Comput. 1984) and the
    bags are its maximal cliques; otherwise the result need not be a
    decomposition of ``g``.

    The search visits next the lowest unvisited vertex with the most
    visited neighbours; ``buckets[w]`` holds the unvisited vertices with w
    visited neighbours, and ``last[w]`` the bag of the neighbour of w
    visited last.  Completing a set adds each of its vertices to its own
    neighbourhood too, which is harmless: a vertex is visited before its
    neighbourhood is read.
    """
    n = g.n
    adj = list(g.adj)
    for c in cliques:
        for v in bits(c):
            adj[v] |= c
    weight = [0] * n
    last = [0] * n
    buckets = [0] * (n + 1)
    buckets[0] = unvisited = g.full_mask
    top = previous = 0
    bags: list[int] = []
    edges: list[tuple[int, int]] = []
    for _ in range(n):
        while not buckets[top]:
            top -= 1
        low = buckets[top] & -buckets[top]
        buckets[top] ^= low
        unvisited ^= low
        v = low.bit_length() - 1
        if top <= previous:
            if bags:
                edges.append((last[v] if top else len(bags) - 1, len(bags)))
            bags.append(adj[v] & ~unvisited | low)
        else:
            bags[-1] |= low
        previous = top
        current = len(bags) - 1
        for w in bits(adj[v] & unvisited):
            buckets[weight[w]] ^= 1 << w
            weight[w] += 1
            buckets[weight[w]] |= 1 << w
            last[w] = current
        top += 1
    return TreeDecomposition(n, bags, edges)


def validate(g: Graph, td: TreeDecomposition) -> list[Violation]:
    """Check the vertex count, the three decomposition conditions and tree-ness.

    Returns an empty list when the decomposition is valid; otherwise one
    entry per violation, naming the offending vertex, edge, or bag.
    """
    out: list[Violation] = []
    if td.n != g.n:
        out.append(Violation("vertex-count-mismatch",
                             f"decomposition declares {td.n} vertices, graph has {g.n}"))
    nbags = len(td.bags)
    if nbags == 0:
        if g.n > 0:
            out.append(Violation("not-a-tree", "decomposition has no bags"))
        return out
    for a, b in td.edges:
        if not (0 <= a < nbags and 0 <= b < nbags):
            out.append(Violation("not-a-tree", f"edge ({a},{b}) references a missing bag"))
            return out
    if len(td.edges) != nbags - 1:
        out.append(
            Violation(
                "not-a-tree",
                f"{nbags} bags need {nbags - 1} edges, found {len(td.edges)}",
            )
        )
    else:
        seen = {0}
        adjacency: dict[int, list[int]] = {i: [] for i in range(nbags)}
        for a, b in td.edges:
            adjacency[a].append(b)
            adjacency[b].append(a)
        stack = [0]
        while stack:
            u = stack.pop()
            for w in adjacency[u]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        if len(seen) != nbags:
            out.append(Violation("not-a-tree", "bag graph is disconnected"))

    covered = 0
    for i, b in enumerate(td.bags):
        covered |= b
        if b & ~g.full_mask:
            out.append(
                Violation(
                    "bag-vertex-out-of-range",
                    f"bag {i} contains vertices outside the graph",
                )
            )
    for v in bit_list(g.full_mask & ~covered):
        out.append(Violation("vertex-uncovered", f"vertex {v} appears in no bag"))

    bags_of: list[list[int]] = [[] for _ in range(g.n)]
    for i, b in enumerate(td.bags):
        for v in bit_list(b & g.full_mask):
            bags_of[v].append(i)
    for u, v in g.edge_list():
        if not any(td.bags[i] >> v & 1 for i in bags_of[u]):
            out.append(Violation("edge-uncovered", f"edge ({u},{v}) appears in no bag"))

    # the bags containing v induce a subtree iff |bags_of[v]| - 1 tree
    # edges join two of them; count those edges once per tree edge
    inner = [0] * g.n
    for a, b in td.edges:
        for v in bits(td.bags[a] & td.bags[b] & g.full_mask):
            inner[v] += 1
    for v in range(g.n):
        if bags_of[v] and inner[v] != len(bags_of[v]) - 1:
            out.append(
                Violation(
                    "occurrence-disconnected",
                    f"bags containing vertex {v} do not induce a subtree",
                )
            )
    return out
