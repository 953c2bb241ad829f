from hypothesis import given, settings, strategies as st

from twsolve import oracle, pipeline, safesep
from twsolve.families import complete_graph, grid_graph, random_connected_graph
from twsolve.graph import Graph
from twsolve.tdbuild import validate

from conftest import disjoint_union


def triangle_chain(links: int) -> Graph:
    """Triangles glued in a path at shared cut vertices; treewidth 2."""
    edges = []
    for i in range(links):
        a = 2 * i
        edges += [(a, a + 1), (a, a + 2), (a + 1, a + 2)]
    return Graph(2 * links + 1, edges)


@st.composite
def separator_rich_graphs(draw, max_n: int = 9) -> Graph:
    """Connected graphs with few edges beyond a spanning tree, so cut vertices
    and small clique separators are common."""
    n = draw(st.integers(min_value=3, max_value=max_n))
    extra = draw(st.integers(min_value=0, max_value=n // 2))
    seed = draw(st.integers(min_value=0, max_value=10**6))
    return random_connected_graph(n, n - 1 + extra, seed)


@st.composite
def bridged_blocks(draw) -> Graph:
    """Two to four small random connected blocks, each joined to the graph
    built so far by one bridge.  The bridge ends are cut vertices, so the
    graph splits at several levels; n stays at most 16, within reach of the
    brute-force oracle."""
    count = draw(st.integers(min_value=2, max_value=4))
    edges = []
    n = 0
    for _ in range(count):
        size = draw(st.integers(min_value=3, max_value=16 // count))
        extra = draw(st.integers(min_value=0, max_value=size))
        seed = draw(st.integers(min_value=0, max_value=10**6))
        block = random_connected_graph(size, size - 1 + extra, seed)
        if n:
            edges.append((draw(st.integers(0, n - 1)), n + draw(st.integers(0, size - 1))))
        edges += [(u + n, v + n) for u, v in block.edge_list()]
        n += size
    return Graph(n, edges)


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


def test_report_shape(monkeypatch):
    _, _, report = pipeline.solve(complete_graph(4), instance="k4")
    d = report.as_dict()
    assert d["instance"] == "k4" and d["tw"] == 3
    assert set(d["counters"]) == {"iblocks", "oblocks", "pmcs_buildable", "pmcs_feasible"}
    assert d["safe_separators"] == {
        "found": 0, "max_part": 4, "checks": 0, "yes": 0, "dont_know": 0, "aborted": 0,
        "steps": 0,
    }
    assert d["time_ms"] >= 0.0
    # the elimination width 3 equals the minimum degree: no level runs
    assert d["parts"] == {"total": 1, "settled_by_bound": 1, "levels": 0}
    assert set(d["counters"].values()) == {0}
    # levels 2 to 4 are negative, level 5 accepts below the elimination width 6
    d = pipeline.solve(random_connected_graph(10, 25, 12), use_safe_separators=False)[2].as_dict()
    assert d["parts"] == {"total": 1, "settled_by_bound": 0, "levels": 4}
    assert d["counters"]["pmcs_feasible"] > 0
    assert d["safe_separators"]["checks"] == 0
    # every minor-safety check run while splitting is tallied, by verdict
    reports = []
    check = safesep.heuristic_minor_safe

    def logged(*args):
        reports.append(check(*args))
        return reports[-1]

    monkeypatch.setattr(safesep, "heuristic_minor_safe", logged)
    g = disjoint_union(random_connected_graph(40, 50, 3), random_connected_graph(12, 15, 0))
    for budget in (10000, 2):
        reports.clear()
        d = pipeline.solve(g, step_budget=budget)[2].as_dict()["safe_separators"]
        verdicts = [r.verdict for r in reports]
        assert d["checks"] == len(reports) > d["yes"] > 0
        assert d["yes"] == verdicts.count(safesep.YES) == d["found"]
        assert d["dont_know"] == verdicts.count(safesep.DONT_KNOW)
        assert d["aborted"] == verdicts.count(safesep.ABORTED)
        assert d["steps"] == sum(r.steps_used for r in reports) > 0
    assert d["aborted"] > 0


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


def test_negative_level_below_elimination_width_settles(decided_levels):
    g = grid_graph(4, 4)
    assert g.min_degree() == 2
    assert max(nb.bit_count() for nb in safesep.greedy_elimination(g, "min_fill")[1]) == 4
    tw, td, report = pipeline.solve(g, use_safe_separators=False)
    assert decided_levels == [(16, 2), (16, 3)]
    assert tw == td.width() == 4
    assert validate(g, td) == []
    assert report.parts == {"total": 1, "settled_by_bound": 1, "levels": 2}


def test_no_level_runs_on_parts_settled_by_bound(decided_levels):
    alone = pipeline.solve(grid_graph(4, 4))
    grid_levels = list(decided_levels)
    decided_levels.clear()
    g = disjoint_union(grid_graph(4, 4), triangle_chain(5))
    tw, td, report = pipeline.solve(g)
    assert decided_levels == grid_levels  # no level runs on the chain
    assert tw == alone[0] == 4
    assert validate(g, td) == []
    assert report.parts["total"] == alone[2].parts["total"] + 5


def test_parallel_jobs_agree_when_running_maximum_prunes():
    # the 5x5 grid is solved first: levels 2 to 4 are negative below its
    # elimination width 5.  The smaller part has minimum degree 3 and
    # elimination width 6, so it runs level 5 alone, which accepts; starting
    # it one level higher would report width 6.
    small = random_connected_graph(10, 25, 3)
    assert small.min_degree() == 3 and oracle.bf_treewidth(small) == 5
    g = disjoint_union(grid_graph(5, 5), small)
    runs = [pipeline.solve(g, use_safe_separators=False, jobs=jobs) for jobs in (1, 2)]
    for tw, td, report in runs:
        assert tw == td.width() == 5
        assert validate(g, td) == []
        assert report.parts == {"total": 2, "settled_by_bound": 1, "levels": 4}
    assert runs[0][2].counters == runs[1][2].counters


@given(bridged_blocks())
@settings(max_examples=30)
def test_nested_splits_match_oracle(g):
    tw, td, report = pipeline.solve(g)
    assert report.safe_separators["found"] >= 2
    assert tw == oracle.bf_treewidth(g)
    assert validate(g, td) == []
    assert td.width() == tw
