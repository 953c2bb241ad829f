import os
from contextlib import contextmanager
from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings, strategies as st

from twsolve import safesep, solver
from twsolve.families import random_connected_graph
from twsolve.graph import Graph, vset
from twsolve.tdbuild import from_cliques, validate, width

from reference import crib, is_outbound

settings.register_profile(
    "suite",
    deadline=None,
    max_examples=60,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")

INSTANCE_DIR = Path(os.environ.get("TW_INSTANCES", Path(__file__).resolve().parent.parent / "instances"))


def mask(*vertices: int) -> int:
    return vset(vertices)


def min_vertex(s: int) -> int:
    """Smallest vertex of a non-empty set."""
    return (s & -s).bit_length() - 1


def non_nested(sets: list[int]) -> bool:
    """True iff no set of ``sets`` lies inside another, and none comes twice."""
    return all(a & ~b and b & ~a for i, a in enumerate(sets) for b in sets[i + 1:])


def has_edge(g: Graph, u: int, v: int) -> bool:
    return bool(g.adj[u] >> v & 1)


def col_text(g: Graph) -> str:
    """``g`` as DIMACS ``.col`` text."""
    lines = [f"p edge {g.n} {g.edge_count}"]
    lines += [f"e {u + 1} {v + 1}" for u, v in g.edge_list()]
    return "\n".join(lines) + "\n"


@st.composite
def connected_graphs(draw, max_n: int = 9, min_n: int = 2) -> Graph:
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    extra = draw(st.integers(min_value=0, max_value=2 * n))
    seed = draw(st.integers(min_value=0, max_value=10**6))
    return random_connected_graph(n, n - 1 + extra, seed)


@st.composite
def vertex_subsets(draw, g: Graph, min_size: int = 0) -> int:
    members = draw(
        st.lists(st.integers(min_value=0, max_value=g.n - 1), min_size=min_size, unique=True)
    )
    return vset(members)


def checked_width(g: Graph, bags: list[int]) -> int:
    """The width of ``bags``, once the clique tree of ``g`` with every bag
    completed, the decomposition the pipeline reads off them, is checked to
    validate at that width."""
    td = from_cliques(g, bags)
    assert validate(g, td) == [] and td.width() == width(bags)
    return width(bags)


def disjoint_union(*graphs: Graph) -> Graph:
    edges = []
    offset = 0
    for h in graphs:
        edges += [(u + offset, v + offset) for u, v in h.edge_list()]
        offset += h.n
    return Graph(offset, edges)


def triangle_chain(links: int) -> Graph:
    """Triangles glued in a path at shared cut vertices; treewidth 2."""
    edges = []
    for i in range(links):
        a = 2 * i
        edges += [(a, a + 1), (a, a + 2), (a + 1, a + 2)]
    return Graph(2 * links + 1, edges)


def octahedron_chain(links: int) -> Graph:
    """Octahedra K_{2,2,2} glued in a path on shared triangles; treewidth 4.

    Copy i holds vertices 3i..3i+5 with non-edges {x, x+3}.  Every vertex
    has degree at least 4 and no neighborhood is a clique, so the simplicial
    rules remove nothing and the chain splits only at safe separators.
    """
    edges = []
    for i in range(links):
        a = 3 * i
        edges += [(a + x, a + y) for x in range(6) for y in range(x + 1, 6) if y - x != 3]
    return Graph(3 * links + 3, edges)


def split_parts(d) -> list[tuple[Graph, list[int]]]:
    """The parts of a ``safesep.decompose`` result: each part's graph with
    the root labels of its vertices."""
    return [(part.graph, part.to_root) for part in d.parts]


def decompose_with_splits(g: Graph, **kwargs) -> tuple:
    """``safesep.decompose(g, **kwargs)`` and the splits it applied, in the
    order made: (graph, separator in that graph's indices, report).  Every
    yes verdict is applied, so the splits are the checks that said yes."""
    splits = []
    check = safesep.heuristic_minor_safe

    def recorded(graph, s, *args, **kw):
        report = check(graph, s, *args, **kw)
        if report.verdict == safesep.YES:
            splits.append((graph, s, report))
        return report

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(safesep, "heuristic_minor_safe", recorded)
        return safesep.decompose(g, **kwargs), splits


def outlets_nest(g: Graph, k_set: int) -> bool:
    """True iff the neighborhoods of the outbound non-full components
    associated with ``k_set`` are nested, so the largest is the outlet."""
    outs = [
        nb
        for c, nb in g.components_with_neighborhoods(k_set)
        if nb != k_set and is_outbound(g, c)
    ]
    return all(a & ~b == 0 or b & ~a == 0 for a in outs for b in outs)


def check_search(search: solver._Search) -> None:
    """Check the invariants of a decision search after its run.

    Every inbound block is a connected, inbound set whose source is a
    feasible PMC that emits it: the block is the crib of the source's
    outlet, which is the block's neighborhood.  Every pending entry is
    (-|C|, discovery index, C, N(C)) for an inbound block C.  Every stored
    outbound block is outbound with the recorded neighborhood of at most k
    vertices; the outbound component neighborhoods of every buildable PMC
    nest; and each PMC parked in ``missing`` is buildable with that many
    support components without a source, while every other buildable PMC
    has none.  The sieve holds each outbound block once.
    """
    g = search.g
    buildable, missing, source = search.buildable, search.missing, search.iblock_source
    for comp, src in source.items():
        nb = buildable[src].outlet
        assert g.open_neighborhood(comp) == nb, f"inbound block {comp:#x}: wrong neighborhood"
        assert g.is_connected(comp) and not is_outbound(g, comp), (
            f"inbound block {comp:#x} is not inbound")
        assert crib(g, nb, src) == comp, f"inbound block {comp:#x}: not its source's crib"
        assert src not in missing, f"inbound block {comp:#x}: source not feasible"
    order = list(source)
    for size, i, comp, nb in search.pending:
        assert order[i] == comp and size == -comp.bit_count(), (
            f"pending block {comp:#x}: wrong key")
        assert buildable[source[comp]].outlet == nb, f"pending block {comp:#x}: wrong neighborhood"
    for comp, nb in search.onb.items():
        assert g.open_neighborhood(comp) == nb, f"outbound block {comp:#x}: wrong neighborhood"
        assert is_outbound(g, comp), f"outbound block {comp:#x} is not outbound"
        assert nb.bit_count() <= search.k, f"outbound block {comp:#x}: neighborhood above k"
    for k_set, rec in buildable.items():
        assert outlets_nest(g, k_set), f"PMC {k_set:#x}: outbound neighborhoods do not nest"
        unsourced = sum(c not in source for c in rec.support)
        assert missing.get(k_set, 0) == unsourced, f"PMC {k_set:#x}: wrong missing count"
    assert missing.keys() <= buildable.keys(), "a missing PMC is not buildable"
    assert len(search.bank.entries) == len(search.onb), "an outbound block was stored twice"


@contextmanager
def checked_searches():
    """Run :func:`check_search` after every decision search in the block;
    yields the list of searches checked so far."""
    checked: list[solver._Search] = []
    run = solver._Search.run

    def run_and_check(search: solver._Search) -> bool:
        answer = run(search)
        check_search(search)
        checked.append(search)
        return answer

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver._Search, "run", run_and_check)
        yield checked


@pytest.fixture
def decided_levels(monkeypatch) -> list[tuple[int, int]]:
    """(n, k) of every decision level run during the test, in order."""
    from twsolve import solver

    seen: list[tuple[int, int]] = []
    decide = solver.decide

    def logged(g, k, **kwargs):
        seen.append((g.n, k))
        return decide(g, k, **kwargs)

    monkeypatch.setattr(solver, "decide", logged)
    return seen


@pytest.fixture
def tmp_graph_file(tmp_path):
    def write(name: str, text: str) -> str:
        p = tmp_path / name
        p.write_text(text)
        return str(p)

    return write
