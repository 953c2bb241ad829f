"""Safe-separator preprocessing: split the instance at separators that
provably preserve treewidth.

A separator is *minor-safe* when, for every component C associated with it,
the rest of the graph contains the separator as a labelled clique minor;
completing such a separator into a clique cannot raise the treewidth, so the
instance splits into one independent subproblem per component.

Candidates come from greedy elimination decompositions (min-fill and
min-degree).  Clique and almost-clique minimal separators are accepted
outright; everything else goes through a two-phase contraction heuristic.
Phase one contracts edges outside the separator to build up clusters that
neighbor both ends of missing separator edges; phase two spends those
clusters, one per missing edge, contracting each into an endpoint.  Every
yes verdict carries explicit contraction evidence and is re-verified before
it is trusted.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from .blocks import is_minimal_separator
from .graph import Graph, bit_list, bits, min_vertex, vset

__all__ = [
    "ABORTED",
    "DONT_KNOW",
    "YES",
    "Decomposition",
    "DecompNode",
    "SafeSeparatorReport",
    "best_elimination",
    "candidate_separators",
    "decompose",
    "greedy_elimination",
    "heuristic_minor_safe",
    "is_almost_clique",
    "verify_minor_evidence",
]

YES = "yes"
DONT_KNOW = "dont-know"
ABORTED = "aborted"


@dataclass
class SafeSeparatorReport:
    """Outcome of a minor-safety check.

    ``evidence`` is present only for a yes verdict: one contraction map per
    component associated with the separator (in component order), sending a
    separator vertex to the outside vertices contracted onto it (the bag is
    that set plus the vertex itself).  Vertices missing from a map sit in
    singleton bags.
    """

    separator: int
    verdict: str
    evidence: list[dict[int, int]] | None = None
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
    order = []
    out = []
    for _ in range(g.n):
        best = None
        best_key = None
        rem = alive
        while rem:
            vb = rem & -rem
            rem ^= vb
            v = vb.bit_length() - 1
            nb = adj[v] & alive
            if mode == "min_degree":
                key = nb.bit_count()
            else:
                fill = 0
                m = nb
                while m:
                    ub = m & -m
                    m ^= ub
                    fill += (m & ~adj[ub.bit_length() - 1]).bit_count()
                key = fill
            if best_key is None or key < best_key:
                best_key = key
                best = v
        nb = adj[best] & alive
        order.append(best)
        out.append(nb)
        m = nb
        while m:
            ub = m & -m
            m ^= ub
            adj[ub.bit_length() - 1] |= nb & ~ub
        alive &= ~(1 << best)
    return order, out


def _eliminations(g: Graph) -> list[tuple[list[int], list[int]]]:
    """The min-fill and min-degree eliminations of ``g``, in that order."""
    return [greedy_elimination(g, mode) for mode in ("min_fill", "min_degree")]


def best_elimination(
    g: Graph, elims: list[tuple[list[int], list[int]]] | None = None
) -> tuple[list[int], list[int]]:
    """The elimination of least width, min-fill on a tie."""
    return min(elims or _eliminations(g), key=lambda e: max(map(int.bit_count, e[1]), default=0))


def candidate_separators(
    g: Graph, elims: list[tuple[list[int], list[int]]] | None = None
) -> list[int]:
    """Minimal separators harvested from greedy elimination decompositions.

    Uses the min-fill and min-degree eliminations (computed unless given);
    the neighborhood of each vertex at its elimination time is an
    adjacent-bag intersection of the resulting decomposition.  Deduplicated,
    filtered to minimal separators, sizes ascending.
    """
    seen: set[int] = set()
    out: list[int] = []
    for _, nbs in elims or _eliminations(g):
        for s in nbs:
            if s and s not in seen:
                seen.add(s)
                if is_minimal_separator(g, s):
                    out.append(s)
    out.sort(key=lambda s: (s.bit_count(), s))
    return out


def is_almost_clique(g: Graph, s: int) -> int | None:
    """First vertex whose removal turns ``s`` into a clique, if any."""
    for v in bits(s):
        if g.is_clique(s & ~(1 << v)):
            return v
    return None


def verify_minor_evidence(
    g: Graph,
    s: int,
    component: int,
    evidence: dict[int, int],
    errors: list[str] | None = None,
) -> bool:
    """Check that a contraction map realizes ``s`` as a labelled clique minor
    of the graph minus ``component``."""

    def fail(msg: str) -> bool:
        if errors is not None:
            errors.append(msg)
        return False

    allowed = g.full_mask & ~component
    if s & ~allowed:
        return fail("separator overlaps the excluded component")
    # maps may or may not include the label vertex; the bag always does
    bags = {u: evidence.get(u, 0) | 1 << u for u in bits(s)}
    claimed = [u for u in evidence if s >> u & 1 == 0]
    if claimed:
        return fail(f"evidence labels {claimed} are not separator vertices")
    union = 0
    for u, bag in bags.items():
        if bag & ~allowed:
            return fail(f"bag of {u} overlaps the excluded component")
        if bag & union:
            return fail(f"bag of {u} overlaps another bag")
        union |= bag
        if not g.is_connected(bag):
            return fail(f"bag of {u} is not connected")
    for u in bits(s):
        rem = s & ~((1 << u) - 1) & ~(1 << u)
        for v in bits(rem):
            if g.adj[u] >> v & 1:
                continue
            if not (g.open_neighborhood(bags[u]) & bags[v]):
                return fail(f"bags of missing edge ({u},{v}) are not adjacent")
    return True


def heuristic_minor_safe(g: Graph, s: int, step_budget: int = 10000) -> SafeSeparatorReport:
    """Decide minor-safety of minimal separator ``s``: yes with verified
    evidence, don't-know, or aborted on budget exhaustion.

    The budget counts execution steps per (separator, component) pair:
    contractions plus candidate-contraction evaluations.
    """
    comps_nbs = g.components_with_neighborhoods(s)
    comps = [c for c, _ in comps_nbs]
    if g.is_clique(s):
        return SafeSeparatorReport(s, YES, [{} for _ in comps])
    apex = is_almost_clique(g, s)
    if apex is not None:
        fulls = [c for c, nb in comps_nbs if nb == s]
        if len(fulls) >= 2:
            evidence = []
            for c in comps:
                other = next(f for f in fulls if f != c)
                evidence.append({apex: 1 << apex | other})
            report = SafeSeparatorReport(s, YES, evidence)
            _check_report(g, s, comps, report)
            return report
    evidence = []
    used = 0
    for c in comps:
        verdict, bags, used = _clique_minor_search(g, s, c, step_budget)
        if verdict != YES:
            return SafeSeparatorReport(s, verdict, None, used)
        evidence.append(bags)
    report = SafeSeparatorReport(s, YES, evidence, used)
    _check_report(g, s, comps, report)
    return report


def _check_report(g: Graph, s: int, comps: list[int], report: SafeSeparatorReport) -> None:
    if report.evidence is None:
        raise AssertionError(f"safe-separator verdict for {bit_list(s)} carries no evidence")
    for c, ev in zip(comps, report.evidence):
        errors: list[str] = []
        if not verify_minor_evidence(g, s, c, ev, errors):
            raise AssertionError(
                f"unverifiable safe-separator evidence for {bit_list(s)}: {errors}"
            )


def _clique_minor_search(
    g: Graph, s: int, component: int, step_budget: int
) -> tuple[str, dict[int, int], int]:
    """Two-phase contraction search for a labelled clique minor of ``s`` in
    the graph minus ``component``."""
    adj = g.adj
    allowed = g.full_mask & ~component
    r = allowed & ~s
    steps = 0

    missing = []
    for u in bits(s):
        rem = s & ~((1 << (u + 1)) - 1)
        for v in bits(rem):
            if not adj[u] >> v & 1:
                missing.append((u, v))
    if not missing:
        return YES, {}, steps

    # clusters over r: member mask -> set of adjacent separator vertices
    members: list[int] = [1 << v for v in bits(r)]
    sadj: list[int] = [adj[v] & s for v in bits(r)]
    radj: list[int] = [adj[v] & r & ~(1 << v) for v in bits(r)]
    alive = list(range(len(members)))

    def pair_count(u: int, v: int) -> int:
        uv = 1 << u | 1 << v
        return sum(1 for i in alive if sadj[i] & uv == uv)

    # phase one: grow clusters that cover missing pairs
    while len(alive) > 1 and steps < step_budget:
        if all(sadj[i].bit_count() >= 2 for i in alive):
            break
        counts = {p: pair_count(*p) for p in missing}
        cur_min = min(counts.values())
        best = None
        best_key = None
        for ai in range(len(alive)):
            i = alive[ai]
            for aj in range(ai + 1, len(alive)):
                j = alive[aj]
                if not (radj[i] & members[j]):
                    continue
                steps += 1
                if steps >= step_budget:
                    return ABORTED, {}, steps
                merged = sadj[i] | sadj[j]
                improves = False
                new_min = None
                for (u, v), cnt in counts.items():
                    uv = 1 << u | 1 << v
                    delta = (
                        (1 if merged & uv == uv else 0)
                        - (1 if sadj[i] & uv == uv else 0)
                        - (1 if sadj[j] & uv == uv else 0)
                    )
                    if delta > 0:
                        improves = True
                    val = cnt + delta
                    if new_min is None or val < new_min:
                        new_min = val
                if not improves:
                    continue
                key = (new_min, -min_vertex(members[i]), -min_vertex(members[j]))
                if best_key is None or key > best_key:
                    best_key = key
                    best = (i, j)
        if best is None:
            break
        i, j = best
        members[i] |= members[j]
        sadj[i] |= sadj[j]
        radj[i] = (radj[i] | radj[j]) & ~members[i]
        alive.remove(j)
        steps += 1

    # phase two: spend one cluster per missing edge
    sadj_now = {u: adj[u] & s for u in bits(s)}
    bags: dict[int, int] = {}
    unused = set(alive)
    while True:
        missing = [
            (u, v)
            for u in bits(s)
            for v in bits(s & ~((1 << (u + 1)) - 1))
            if not sadj_now[u] >> v & 1
        ]
        if not missing:
            return YES, dict(bags), steps
        if steps >= step_budget:
            return ABORTED, {}, steps
        cands = {
            p: [i for i in unused if sadj[i] & (1 << p[0] | 1 << p[1]) == (1 << p[0] | 1 << p[1])]
            for p in missing
        }
        (u, v) = min(missing, key=lambda p: (len(cands[p]), p))
        if not cands[(u, v)]:
            return DONT_KNOW, {}, steps
        best = None
        best_key = None
        for w in cands[(u, v)]:
            for side, mate in ((u, v), (v, u)):
                steps += 1
                if steps >= step_budget:
                    return ABORTED, {}, steps
                rest_min = None
                for (x, y) in missing:
                    if (x, y) == (u, v):
                        continue
                    if x == side and sadj[w] >> y & 1:
                        continue
                    if y == side and sadj[w] >> x & 1:
                        continue
                    cnt = sum(1 for i in cands[(x, y)] if i != w)
                    if rest_min is None or cnt < rest_min:
                        rest_min = cnt
                key = (
                    rest_min if rest_min is not None else g.n + 1,
                    -min_vertex(members[w]),
                    -side,
                )
                if best_key is None or key > best_key:
                    best_key = key
                    best = (w, side)
        w, side = best
        bags[side] = bags.get(side, 0) | members[w]
        unused.discard(w)
        gained = sadj[w] & ~(1 << side)
        sadj_now[side] |= gained
        for x in bits(gained):
            sadj_now[x] |= 1 << side
        steps += 1


@dataclass
class DecompNode:
    """A node of the splitting tree: the graph to solve (separators already
    completed), the labels of its vertices, and the split applied here.

    ``separator`` is in the same labels as ``to_root``; ``report.separator``
    is the same set in the vertex indices of ``graph``.  A leaf of
    :func:`decompose` keeps its better greedy ``elimination`` (order and
    neighborhoods, in the vertex indices of ``graph``).
    """

    graph: Graph
    to_root: list[int]
    separator: int | None = None
    report: SafeSeparatorReport | None = None
    children: list["DecompNode"] = field(default_factory=list)
    elimination: tuple[list[int], list[int]] | None = None

    def walk(self) -> Iterator["DecompNode"]:
        """This node and every node below it, each before its children."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(node.children)


@dataclass
class Decomposition:
    root: DecompNode
    applied_separators: list[int] = field(default_factory=list)

    @property
    def parts(self) -> list[tuple[Graph, list[int]]]:
        return [(node.graph, node.to_root) for node in self.root.walk() if not node.children]

    @property
    def max_part(self) -> int:
        return max(g.n for g, _ in self.parts)

    def applied_reports(self) -> list[tuple[Graph, int, SafeSeparatorReport]]:
        return [
            (node.graph, node.report.separator, node.report)
            for node in self.root.walk()
            if node.report is not None
        ]


def decompose(
    g: Graph, step_budget: int = 10000, labels: list[int] | None = None
) -> Decomposition:
    """Split ``g`` along verified minor-safe separators until none applies.

    Separators are tried largest impact first (greatest reduction of the
    biggest part, then size ascending); every applied part gets the separator
    completed into a clique and is then split further if possible.  Node
    labels and applied separators are given in ``labels``, the names of the
    vertices of ``g`` (the identity by default).  Every leaf keeps the better
    of the greedy eliminations its separator search ran.
    """
    root = DecompNode(g, list(range(g.n)) if labels is None else labels)
    applied: list[int] = []
    stack = [root]
    while stack:
        node = stack.pop()
        elims = _eliminations(node.graph)
        report = _find_safe_separator(node.graph, elims, step_budget)
        if report is None:
            node.elimination = best_elimination(node.graph, elims)
            continue
        node.report = report
        node.separator = vset(node.to_root[v] for v in bits(report.separator))
        applied.append(node.separator)
        for comp, nb in node.graph.components_with_neighborhoods(report.separator):
            part, part_labels = node.graph.subgraph(comp | nb, make_clique=nb)
            child = DecompNode(part, [node.to_root[v] for v in part_labels])
            node.children.append(child)
            stack.append(child)
    return Decomposition(root, applied)


def _find_safe_separator(
    g: Graph, elims: list[tuple[list[int], list[int]]], step_budget: int
) -> SafeSeparatorReport | None:
    if g.n <= 2:
        return None
    scored = []
    for s in candidate_separators(g, elims):
        sizes = [
            (c | nb).bit_count() for c, nb in g.components_with_neighborhoods(s)
        ]
        reduction = g.n - max(sizes)
        if reduction <= 0:
            continue
        scored.append((-reduction, s.bit_count(), s))
    scored.sort()
    for _, _, s in scored:
        report = heuristic_minor_safe(g, s, step_budget)
        if report.verdict == YES:
            return report
    return None
