"""End-to-end solving: split, preprocess, solve parts, glue, validate.

The pipeline splits the input into connected components, optionally
decomposes each along verified minor-safe separators, solves every part
exactly, and glues the part decompositions back together.  The split into
components is a split along the empty separator, so one splitting tree
covers both.  Adjacent parts overlap exactly on a completed separator, so
each part owns a bag containing it and gluing those bags keeps all
decomposition conditions intact.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

from . import safesep
from .graph import Graph, bits, vset
from .solver import treewidth
from .tdbuild import TreeDecomposition, extract, validate

__all__ = ["PipelineError", "SolveReport", "solve"]


class PipelineError(RuntimeError):
    """Internal consistency failure: the produced decomposition did not validate."""


@dataclass
class SolveReport:
    instance: str
    n: int
    m: int
    tw: int = -1
    time_ms: float = 0.0
    counters: dict[str, int] = field(default_factory=dict)
    safe_separators: dict[str, int] = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "instance": self.instance,
            "n": self.n,
            "m": self.m,
            "tw": self.tw,
            "time_ms": self.time_ms,
            "counters": dict(self.counters),
            "safe_separators": dict(self.safe_separators),
        }


def _solve_leaf(graph: Graph) -> tuple[int, list[int], list[tuple[int, int]], tuple[int, int, int, int]]:
    from .solver import SolverStats  # local import keeps pool workers lean

    stats: list[SolverStats] = []
    tw, witness = treewidth(graph, stats_out=stats)
    td = extract(graph, witness)
    last = stats[-1]
    counters = (last.iblocks, last.oblocks, last.pmcs_buildable, last.pmcs_feasible)
    return tw, td.bags, td.edges, counters


def _glue(
    preorder: list[safesep.DecompNode], solved: dict[int, tuple]
) -> tuple[int, list[int], list[tuple[int, int]]]:
    """Glue the part decompositions of a splitting tree bottom-up; returns
    (width, bags, edges) in the labels of the tree.

    Each part's decomposition holds a bag containing the part's completed
    neighborhood of the split component; those bags attach to a hub bag
    containing the full separator (one exists in a full component's part,
    since the separator is a clique there).
    """
    bags: list[int] = []
    edges: list[tuple[int, int]] = []
    # node id -> (width, first bag, end of bags) of its subtree
    done: dict[int, tuple[int, int, int]] = {}
    for node in reversed(preorder):
        if not node.children:
            tw, part_bags, part_edges, _ = solved[id(node)]
            lo = len(bags)
            bags.extend(vset(node.to_root[v] for v in bits(b)) for b in part_bags)
            edges.extend((a + lo, b + lo) for a, b in part_edges)
            done[id(node)] = (tw, lo, len(bags))
            continue
        sep = node.separator
        spans = [done[id(child)] for child in node.children]
        hub = next(
            (i for _, lo, hi in spans for i in range(lo, hi) if sep & ~bags[i] == 0), None
        )
        if hub is None:
            hub = len(bags)
            bags.append(sep)
        for child, (_, lo, hi) in zip(node.children, spans):
            if lo <= hub < hi:
                continue
            target = sep & vset(child.to_root)
            attach = next((i for i in range(lo, hi) if target & ~bags[i] == 0), None)
            if attach is None:
                raise PipelineError("no part bag contains its completed separator")
            edges.append((hub, attach))
        done[id(node)] = (
            max(tw for tw, _, _ in spans),
            min(lo for _, lo, _ in spans),
            len(bags),
        )
    return done[id(preorder[0])][0], bags, edges


def solve(
    g: Graph,
    instance: str = "-",
    *,
    use_safe_separators: bool = True,
    step_budget: int = 10000,
    jobs: int = 1,
) -> tuple[int, TreeDecomposition, SolveReport]:
    """Exact treewidth of an arbitrary (possibly disconnected) graph with a
    validated tree decomposition.

    Counters aggregate the accepting decision level over all solved parts.
    Raises :class:`PipelineError` if the final decomposition fails its own
    audit; the result is never silently wrong.
    """
    started = time.monotonic()
    report = SolveReport(instance, g.n, g.edge_count)
    report.counters = {
        "iblocks": 0,
        "oblocks": 0,
        "pmcs_buildable": 0,
        "pmcs_feasible": 0,
    }
    report.safe_separators = {"found": 0, "max_part": g.n}
    if g.n == 0:
        td = TreeDecomposition(0, [0], [])
        report.tw = -1
        report.time_ms = (time.monotonic() - started) * 1000.0
        return -1, td, report

    components: list[safesep.DecompNode] = []
    for comp in g.components(0):
        sub, labels = g.subgraph(comp)
        if use_safe_separators and sub.n > 2:
            components.append(safesep.decompose(sub, step_budget, labels).root)
        else:
            components.append(safesep.DecompNode(sub, labels))
    root = safesep.DecompNode(g, list(range(g.n)), 0, children=components)
    preorder = list(root.walk())
    leaves = [node for node in preorder if not node.children]

    if jobs > 1 and len(leaves) > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            solved = list(pool.map(_solve_leaf, [leaf.graph for leaf in leaves]))
    else:
        solved = [_solve_leaf(leaf.graph) for leaf in leaves]

    for _, _, _, counters in solved:
        report.counters["iblocks"] += counters[0]
        report.counters["oblocks"] += counters[1]
        report.counters["pmcs_buildable"] += counters[2]
        report.counters["pmcs_feasible"] += counters[3]
    report.safe_separators["found"] = sum(node.report is not None for node in preorder)
    report.safe_separators["max_part"] = max(leaf.graph.n for leaf in leaves)

    overall_tw, bags, edges = _glue(preorder, dict(zip(map(id, leaves), solved)))
    td = TreeDecomposition(g.n, bags, edges)
    problems = validate(g, td)
    if problems:
        raise PipelineError(f"produced decomposition failed validation: {problems[:3]}")
    if td.width() != overall_tw:
        raise PipelineError(
            f"decomposition width {td.width()} disagrees with the answer {overall_tw}"
        )
    report.tw = overall_tw
    report.time_ms = (time.monotonic() - started) * 1000.0
    return overall_tw, td, report
