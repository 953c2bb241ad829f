"""Census of the combinatorial objects that govern solver running time.

For an instance this counts minimal separators and potential maximal cliques
(all, and those small enough to matter at the treewidth), the feasible
objects an exhaustive solver run touches, and two theoretical upper bounds
on the number of relevant potential maximal cliques: the binomial bound
C(n, k+1) and the sharper composite bound
n * (C(ceil((2n+k+7)/3), k+2) + C(ceil((n+k+4)/2), k+1)).
"""

from __future__ import annotations

from dataclasses import astuple, dataclass, fields
from math import comb

from . import oracle, pipeline
from .graph import Graph
from .solver import decide

__all__ = ["CensusRow", "binomial_bound", "census", "census_csv", "composite_bound"]

def binomial_bound(n: int, k: int) -> int:
    return comb(n, k + 1)


def composite_bound(n: int, k: int) -> int:
    a = comb((2 * n + k + 7 + 2) // 3, k + 2)
    b = comb((n + k + 4 + 1) // 2, k + 1)
    return n * (a + b)


@dataclass
class CensusRow:
    instance: str
    n: int
    m: int
    tw: int
    minseps_all: int | None
    minseps_le_tw: int | None
    pmcs_all: int | None
    pmcs_le_tw_plus_1: int | None
    feasible_iblocks: int
    feasible_oblocks: int
    feasible_pmcs: int
    bound_binomial: int
    bound_composite: int


def census(g: Graph, instance: str = "-") -> CensusRow:
    """Count principal objects at k equal to the treewidth.

    Enumeration columns are None when n exceeds :data:`oracle.ENUM_LIMIT`,
    the largest n the exhaustive enumerations take; the feasible counts
    always come from an exhaustive solver run.
    """
    tw = pipeline.solve(g)[0]
    k = max(1, tw)
    res = decide(g, k, exhaustive=True)
    minseps_all = minseps_le = pmcs_all = pmcs_le = None
    if 0 < g.n <= oracle.ENUM_LIMIT:
        seps = oracle.enumerate_minimal_separators(g)
        pmcs = oracle.enumerate_pmcs(g)
        minseps_all = len(seps)
        minseps_le = sum(1 for s in seps if s.bit_count() <= tw)
        pmcs_all = len(pmcs)
        pmcs_le = sum(1 for p in pmcs if p.bit_count() <= tw + 1)
    return CensusRow(
        instance,
        g.n,
        g.edge_count,
        tw,
        minseps_all,
        minseps_le,
        pmcs_all,
        pmcs_le,
        res.stats.iblocks,
        res.stats.oblocks,
        res.stats.pmcs_feasible,
        binomial_bound(g.n, tw),
        composite_bound(g.n, tw),
    )


def census_csv(rows: list[CensusRow]) -> str:
    lines = [",".join(f.name for f in fields(CensusRow))]
    for r in rows:
        lines.append(",".join("NA" if v is None else str(v) for v in astuple(r)))
    return "\n".join(lines) + "\n"
