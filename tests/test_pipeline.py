from hypothesis import given, settings, strategies as st

from twsolve import oracle, pipeline, safesep
from twsolve.families import complete_graph, random_connected_graph
from twsolve.graph import Graph
from twsolve.tdbuild import validate


def triangle_chain(links: int) -> Graph:
    """Triangles glued in a path at shared cut vertices; treewidth 2."""
    edges = []
    for i in range(links):
        a = 2 * i
        edges += [(a, a + 1), (a, a + 2), (a + 1, a + 2)]
    return Graph(2 * links + 1, edges)


def disjoint_union(*graphs: Graph) -> Graph:
    edges = []
    offset = 0
    for h in graphs:
        edges += [(u + offset, v + offset) for u, v in h.edge_list()]
        offset += h.n
    return Graph(offset, edges)


@st.composite
def separator_rich_graphs(draw, max_n: int = 9) -> Graph:
    """Connected graphs with few edges beyond a spanning tree, so cut vertices
    and small clique separators are common."""
    n = draw(st.integers(min_value=3, max_value=max_n))
    extra = draw(st.integers(min_value=0, max_value=n // 2))
    seed = draw(st.integers(min_value=0, max_value=10**6))
    return random_connected_graph(n, n - 1 + extra, seed)


def test_deep_decomposition_chain():
    g = triangle_chain(30)
    tw, td, report = pipeline.solve(g)
    assert tw == 2
    assert validate(g, td) == []
    assert report.safe_separators["found"] >= 25
    assert report.safe_separators["max_part"] <= 4


def test_disconnected_components_and_isolated_vertex():
    # triangle, edge, isolated vertex
    g = Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4)])
    tw, td, report = pipeline.solve(g)
    assert tw == 2
    assert validate(g, td) == []
    assert td.width() == 2


def test_empty_graph():
    tw, td, report = pipeline.solve(Graph(0))
    assert tw == -1
    assert td.width() == -1
    assert validate(Graph(0), td) == []


def test_single_vertex():
    tw, td, _ = pipeline.solve(Graph(1))
    assert tw == 0
    assert td.bags == [1]


def test_pipeline_matches_oracle_and_toggle():
    for seed in range(25):
        n = 8 + seed % 6
        g = random_connected_graph(n, int(1.3 * n), 60000 + seed)
        tw, td, _ = pipeline.solve(g, instance=f"s{seed}")
        assert validate(g, td) == []
        assert td.width() == tw
        assert tw == oracle.bf_treewidth(g)
        tw2, td2, _ = pipeline.solve(g, use_safe_separators=False)
        assert tw2 == tw
        assert validate(g, td2) == []


def test_pipeline_larger_sparse_graph_consistency():
    g = random_connected_graph(34, 40, 2718)
    tw_a, td_a, rep = pipeline.solve(g)
    tw_b, td_b, _ = pipeline.solve(g, use_safe_separators=False)
    assert tw_a == tw_b
    assert validate(g, td_a) == [] and validate(g, td_b) == []
    assert td_a.width() == tw_a and td_b.width() == tw_b


def test_parallel_jobs_agree():
    g = triangle_chain(8)
    tw1, td1, _ = pipeline.solve(g, jobs=1)
    tw2, td2, _ = pipeline.solve(g, jobs=2)
    assert tw1 == tw2 == 2
    assert validate(g, td2) == []


def test_report_shape():
    _, _, report = pipeline.solve(complete_graph(4), instance="k4")
    d = report.as_dict()
    assert d["instance"] == "k4" and d["tw"] == 3
    assert set(d["counters"]) == {"iblocks", "oblocks", "pmcs_buildable", "pmcs_feasible"}
    assert d["safe_separators"]["found"] == 0
    assert d["time_ms"] >= 0.0


def test_pipeline_matches_oracle_on_grid():
    from twsolve.families import grid_graph

    g = grid_graph(3, 5)
    tw, td, _ = pipeline.solve(g)
    assert tw == oracle.bf_treewidth(g) == 3
    assert validate(g, td) == []


def test_glue_across_components_that_split():
    parts = [triangle_chain(4), triangle_chain(3), random_connected_graph(12, 15, 0)]
    g = disjoint_union(*parts)
    tw, td, report = pipeline.solve(g)
    assert tw == max(oracle.bf_treewidth(h) for h in parts) == 3
    assert validate(g, td) == []
    assert td.width() == tw
    found = [len(safesep.decompose(h).applied_separators) for h in parts]
    assert all(found)
    assert report.safe_separators["found"] == sum(found)
    # solving again must not see labels mapped by the first run
    tw2, td2, _ = pipeline.solve(g)
    assert (tw2, td2.bags, td2.edges) == (tw, td.bags, td.edges)


@given(separator_rich_graphs(), separator_rich_graphs())
@settings(max_examples=40)
def test_glued_components_match_oracle(a, b):
    g = disjoint_union(a, b)
    tw, td, _ = pipeline.solve(g)
    assert tw == max(oracle.bf_treewidth(a), oracle.bf_treewidth(b))
    assert validate(g, td) == []
    assert td.width() == tw
