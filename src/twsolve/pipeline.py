"""End-to-end solving: reduce, split, solve parts, glue, validate.

The pipeline removes simplicial and almost-simplicial vertices from the
whole input once (:func:`safesep.simplicial_reduction`), then splits what
is left (:func:`safesep.decompose`): first into its connected components, a
split along the empty separator, then along verified minor-safe
separators.  Every part comes with the bags of a greedy elimination of
width ub.  The parts are solved one after another in this process; a
part's decision levels stop below ub and start at the largest bound found
so far, since levels outside that range cannot change the answer.
A part stopped at a deadline keeps its bound and the bags it holds.

The answer's decomposition is read off one chordal graph
(:func:`~twsolve.tdbuild.from_cliques`): the input with every bag each part
hands back, and each removed vertex v's N[v], completed into a clique.  A
part's bags, a decomposition's or an elimination's, complete into a chordal
graph; the parts meet in cliques, the separators completed in each, so their
completed bags form a clique-sum of chordal graphs, and each removed vertex
is simplicial once the vertices removed before it are gone.  Its maximal
cliques are the bags, and the result is audited as if it came from elsewhere.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field

from . import safesep
from .graph import AuditError, Graph
from .solver import treewidth
from .tdbuild import TreeDecomposition, from_cliques, lift, validate, width
# not called here; perfbench/tracer.py wraps it under this name
from .tdbuild import extract  # noqa: F401

__all__ = ["SolveReport", "solve"]

# the SolverStats fields that SolveReport.counters sums over accepting levels
COUNTERS = ("iblocks", "oblocks", "pmcs_buildable", "pmcs_feasible")


@dataclass
class SolveReport:
    instance: str
    n: int
    m: int
    tw: int = -1
    lower: int = -1
    time_ms: float = 0.0
    counters: dict[str, int] = field(default_factory=dict)
    safe_separators: dict[str, int] = field(default_factory=dict)
    parts: dict[str, int] = field(default_factory=dict)
    reduction: dict[str, int] = field(default_factory=dict)
    levels: list[dict] = field(default_factory=list)

    def as_dict(self) -> dict:
        return asdict(self)


def solve(
    g: Graph,
    instance: str = "-",
    *,
    jobs: int = 1,  # only 1; kept until the benchmark stops perfbench/run.py passing jobs=1
    deadline: float | None = None,
) -> tuple[int, TreeDecomposition, SolveReport]:
    """A validated tree decomposition of an arbitrary (possibly disconnected)
    graph with its width, the treewidth unless a part stopped at the
    deadline, and a report.

    Parts are solved largest first (ties: larger elimination width ub first).
    Each part runs its decision levels on minors upward from the largest
    bound M found so far, then on the part top-down from its own ub - 1
    (:func:`~twsolve.solver.treewidth`), and keeps its elimination bags
    when no level accepts.  The width w it ends with is
    certified by a no at level w - 1, on the part or on a minor, by its
    minimum degree, or by w <= M.

    ``deadline`` is a :func:`time.monotonic` time.  The reduction and the
    safe-separator search always run in full; the decision levels poll the
    deadline, and a part still running a level when it passes stops with
    the bound its finished levels certify and the narrowest decomposition
    it holds.

    The report's ``lower`` is the largest of the reduction's certified lower
    bound and the parts' bounds, and ``tw`` the width of the glued
    decomposition.  ``parts.stopped`` counts the parts wider than ``lower``,
    so ``tw`` equals ``lower`` exactly when it is 0.  Every other part counts
    under the ``how`` that :func:`~twsolve.solver.treewidth` returns: in
    ``parts.lifted``, in ``parts.settled_by_bound``, or, when
    ``"accepted"``, in the counters, which sum its accepting level: the
    last of its levels with a yes answer.  The
    report's ``levels`` holds the stats of every level that finished, part
    by part in solve order, with the n of the graph it ran on: below the
    part's size for a level tried on a minor.  Raises :class:`AuditError`
    if the final decomposition fails its own audit, or if its width is
    below ``lower`` or, without a deadline or a stopped part, above it; the
    result is never silently wrong.  Raises :class:`ValueError` for any
    ``jobs`` but 1.
    """
    if jobs != 1:
        raise ValueError(f"jobs must be 1, not {jobs!r}")
    started = time.monotonic()
    report = SolveReport(instance, g.n, g.edge_count)
    report.counters = dict.fromkeys(COUNTERS, 0)
    report.safe_separators = {"max_part": 0, **dict.fromkeys(safesep.TALLY_KEYS, 0)}
    report.parts = {"total": 0, "settled_by_bound": 0, "lifted": 0, "stopped": 0, "levels": 0}
    report.reduction = {"removed": 0, "low": 0}
    if g.n == 0:
        td = TreeDecomposition(0, [0], [])
        report.time_ms = (time.monotonic() - started) * 1000.0
        return -1, td, report

    sub, kept, low, removed = safesep.simplicial_reduction(g)
    report.reduction = {"removed": len(removed), "low": low}
    split = safesep.decompose(sub)
    report.safe_separators.update(split.tally)
    parts = split.parts
    order = sorted(range(len(parts)), key=lambda i: (-parts[i].graph.n, -width(parts[i].held)))

    solved: dict[int, tuple] = {}
    running_max = 0
    for i in order:
        solved[i] = treewidth(parts[i].graph, parts[i].held, running_max, deadline)
        running_max = max(running_max, solved[i][0])

    lower = max([low] + [bound for bound, *_ in solved.values()])
    for number, (_, bags, stats, how) in enumerate(solved.values()):
        report.levels += [{"part": number, **asdict(s)} for s in stats]
        report.parts["levels"] += len(stats)
        if width(bags) > lower:
            report.parts["stopped"] += 1
        elif how == "accepted":
            accepting = next(s for s in reversed(stats) if s.answer)
            for key in COUNTERS:
                report.counters[key] += getattr(accepting, key)
        else:
            report.parts[how] += 1
    report.parts["total"] = len(parts)
    report.safe_separators["max_part"] = max((part.graph.n for part in parts), default=0)

    cliques = [nb | 1 << v for v, nb in removed]
    for i, part in enumerate(parts):
        cliques += lift(solved[i][1], [1 << kept[r] for r in part.to_root])
    td = from_cliques(g, cliques)
    problems = validate(g, td)
    if problems:
        raise AuditError(f"produced decomposition failed validation: {problems[:3]}")
    tw = td.width()
    exact = deadline is None or not report.parts["stopped"]
    if tw < lower or exact and tw != lower:
        raise AuditError(f"decomposition width {tw} disagrees with the certified bound {lower}")
    report.tw, report.lower = tw, lower
    report.time_ms = (time.monotonic() - started) * 1000.0
    return tw, td, report
