"""Tree decompositions: extraction from accepting witnesses and validation.

The validator shares only the graph layer with the solver, so it can audit
decompositions produced elsewhere.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .graph import Graph, bit_list
from .solver import Witness

__all__ = ["TreeDecomposition", "Violation", "extract", "validate"]


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
    connected.  Bags contained in their parent are contracted afterwards.
    """
    if witness.root is None:
        raise AssertionError("extract requires an accepting witness")
    records = witness.records
    source = witness.iblock_source
    bags: list[int] = []
    edges: list[tuple[int, int]] = []
    stack: list[tuple[int, int, int]] = [(witness.root, -1, 0)]
    while stack:
        pmc, parent, for_comp = stack.pop()
        rec = records.get(pmc)
        if rec is None:
            raise RuntimeError("broken witness chain: unregistered clique")
        idx = len(bags)
        bags.append(rec.vertices)
        if parent >= 0:
            edges.append((parent, idx))
        if not rec.support and for_comp:
            # leaf: the bag must close over the component it stands for
            closed = for_comp | g.open_neighborhood(for_comp)
            if closed & ~rec.vertices:
                raise AssertionError("leaf bag does not close over its component")
        for comp in rec.support:
            child = source.get(comp)
            if child is None:
                raise RuntimeError("broken witness chain: component without source")
            stack.append((child, idx, comp))
    td = TreeDecomposition(g.n, bags, edges)
    return _contract_redundant(td)


def _contract_redundant(td: TreeDecomposition) -> TreeDecomposition:
    """Merge bags that are subsets of an adjacent bag."""
    bags = list(td.bags)
    parent: dict[int, int] = {}

    def find(i: int) -> int:
        while i in parent:
            i = parent[i]
        return i

    adjacency: dict[int, set[int]] = {i: set() for i in range(len(bags))}
    for a, b in td.edges:
        adjacency[a].add(b)
        adjacency[b].add(a)
    changed = True
    while changed:
        changed = False
        for i in list(adjacency):
            if i in parent:
                continue
            for j in list(adjacency[i]):
                if bags[j] & ~bags[i] == 0:
                    # j folds into i
                    parent[j] = i
                    adjacency[i].discard(j)
                    for other in adjacency[j]:
                        if other != i:
                            adjacency[other].discard(j)
                            adjacency[other].add(i)
                            adjacency[i].add(other)
                    adjacency[j] = set()
                    changed = True
        if not changed:
            break
    keep = [i for i in range(len(bags)) if i not in parent]
    remap = {old: new for new, old in enumerate(keep)}
    new_bags = [bags[i] for i in keep]
    new_edges = sorted(
        {tuple(sorted((remap[find(a)], remap[find(b)])))
         for a, b in td.edges
         if find(a) != find(b)}
    )
    return TreeDecomposition(td.n, new_bags, [(a, b) for a, b in new_edges])


def validate(g: Graph, td: TreeDecomposition) -> list[Violation]:
    """Check the three decomposition conditions plus tree-ness.

    Returns an empty list when the decomposition is valid; otherwise one
    entry per violation, naming the offending vertex, edge, or bag.
    """
    out: list[Violation] = []
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

    for v in range(g.n):
        nodes = bags_of[v]
        if not nodes:
            continue
        node_set = set(nodes)
        inner_edges = sum(1 for a, b in td.edges if a in node_set and b in node_set)
        if inner_edges != len(nodes) - 1:
            out.append(
                Violation(
                    "occurrence-disconnected",
                    f"bags containing vertex {v} do not induce a subtree",
                )
            )
    return out
