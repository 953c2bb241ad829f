import os
from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings, strategies as st

from twsolve.families import random_connected_graph
from twsolve.graph import Graph, vset

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


@st.composite
def connected_graphs(draw, max_n: int = 9) -> Graph:
    n = draw(st.integers(min_value=2, max_value=max_n))
    extra = draw(st.integers(min_value=0, max_value=2 * n))
    seed = draw(st.integers(min_value=0, max_value=10**6))
    return random_connected_graph(n, n - 1 + extra, seed)


@st.composite
def vertex_subsets(draw, g: Graph, min_size: int = 0) -> int:
    members = draw(
        st.lists(st.integers(min_value=0, max_value=g.n - 1), min_size=min_size, unique=True)
    )
    return vset(members)


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
    """The leaves of a ``safesep.decompose`` splitting tree: each part's graph
    with the root labels of its vertices."""
    return [(node.graph, node.to_root) for node in d.root.walk() if not node.children]


def applied_reports(d) -> list[tuple]:
    """(graph, separator in that graph's indices, report) of every split applied
    in a ``safesep.decompose`` splitting tree."""
    return [(node.graph, node.report.separator, node.report)
            for node in d.root.walk() if node.report is not None]


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
