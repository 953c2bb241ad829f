import random
import re
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from twsolve import cli, oracle, pipeline, safesep, solver
from twsolve.families import cycle_graph, mycielski_graph, queen_graph, random_connected_graph
from twsolve.graph import AuditError, Graph
from twsolve.paceio import write_gr
from twsolve.solver import SolverTimeout
from twsolve.tdbuild import validate

from conftest import (
    checked_width,
    decompose_with_splits,
    disjoint_union,
    non_nested,
    octahedron_chain,
    triangle_chain,
)
from reference import complete_graph, grid_graph, petersen_graph, treewidth


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
    """Two or three wheels with random chords, each joined to the graph built
    so far by one bridge.  The bridge ends are cut vertices, so the graph
    splits at several levels; n stays at most 16, within reach of the
    brute-force oracle.

    A wheel is a hub joined to every vertex of a rim cycle of k >= 4
    vertices; chords join rim vertices at least three apart along the
    rim.  Every vertex then has degree at least 3 and a neighborhood that is
    not a clique, with or without a bridge, so the simplicial rules remove
    nothing and every split comes from the safe-separator search.
    """
    count = draw(st.integers(min_value=2, max_value=3))
    edges = []
    n = 0
    for _ in range(count):
        k = draw(st.integers(min_value=4, max_value=16 // count - 1))
        rim = [(i, (i + 1) % k) for i in range(k)]
        far = [(i, j) for i in range(k) for j in range(i + 3, k) if j - i <= k - 3]
        chords = draw(st.lists(st.sampled_from(far), unique=True) if far else st.just([]))
        block = [(k, i) for i in range(k)] + rim + chords
        if n:
            edges.append((draw(st.integers(0, n - 1)), n + draw(st.integers(0, k))))
        edges += [(u + n, v + n) for u, v in block]
        n += k + 1
    return Graph(n, edges)


@st.composite
def low_degree_graphs(draw) -> Graph:
    """Graphs on up to 16 vertices rich in vertices of degree 1 to 3: a random
    forest (each vertex may hang from an earlier one), so isolated vertices
    and several components are common, plus a few random extra edges."""
    n = draw(st.integers(min_value=1, max_value=16))
    edges = []
    for v in range(1, n):
        parent = draw(st.integers(min_value=-1, max_value=v - 1))
        if parent >= 0:
            edges.append((parent, v))
    if n > 1:
        pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
        edges += [(u, v) for u, v in draw(st.lists(pair, max_size=n // 2)) if u != v]
    return Graph(n, edges)


def test_deep_decomposition_chain():
    g = octahedron_chain(30)
    tw, td, report = pipeline.solve(g)
    assert tw == 4
    assert validate(g, td) == []
    assert report.reduction == {"removed": 0, "low": 2}
    # one split per shared triangle, down to single octahedra
    assert report.safe_separators["yes"] == 29
    assert report.safe_separators["max_part"] == 6
    assert report.parts["total"] == 30


def test_reduction_removes_chains_without_splitting():
    g = triangle_chain(30)
    tw, td, report = pipeline.solve(g)
    assert tw == td.width() == 2
    assert validate(g, td) == []
    assert report.reduction == {"removed": 61, "low": 2}
    assert report.safe_separators["checks"] == 0
    assert report.parts["total"] == 0


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
        # the solver alone, without the reduction and the splitting
        tw2, bags, _, _ = treewidth(g)
        assert tw2 == checked_width(g, bags) == tw


def test_pipeline_larger_sparse_graph_consistency():
    g = random_connected_graph(34, 40, 2718)
    tw_a, td_a, rep = pipeline.solve(g)
    tw_b, bags_b, _, _ = treewidth(g)
    assert tw_a == tw_b
    assert validate(g, td_a) == [] and td_a.width() == tw_a
    assert checked_width(g, bags_b) == tw_b


@pytest.mark.parametrize("make, schedule", [
    # level 8 answers no on the 13-vertex minor, and level 9 starts there;
    # after 13, 14 and 16 the next size, 20, passes the cap of 19, so the
    # 16-vertex minor's yes is lifted, is no narrower than the elimination
    # width 11, and the graph runs top-down from there: 10 accepts, 9 does not
    (lambda: mycielski_graph(4), [
        (6, 4, 0), (7, 5, 0), (8, 6, 0), (9, 7, 0), (10, 8, 1), (11, 8, 1), (13, 8, 0),
        (13, 9, 1), (14, 9, 1), (16, 9, 1), (23, 10, 1), (23, 9, 0)]),
    # sparse150_3: the one part that runs levels has 33 vertices and a cap
    # of 28: level 5 steps 7, 8, 10, 14 to its no, and level 6 from 14 to 21,
    # whose next size, 29, passes the cap; the part's elimination width is 8
    (lambda: random_connected_graph(150, 187, 3), [
        (5, 3, 0), (6, 4, 0), (7, 5, 1), (8, 5, 1), (10, 5, 1), (14, 5, 0), (14, 6, 1),
        (15, 6, 1), (17, 6, 1), (21, 6, 1), (33, 7, 1), (33, 6, 0)]),
    # the minors are gated off (the largest loses the top levels), so the
    # whole graph runs from its elimination width: queen6_6's 26 and
    # queen7_7's 37, where level 36 accepts with width 36 and level 35 with
    # width 35
    (lambda: queen_graph(6, 6), [(36, 25, 1), (36, 24, 0)]),
    (lambda: queen_graph(7, 7), [(49, 36, 1), (49, 35, 1), (49, 34, 0)]),
    # sparse150_2: of its seven parts only the 35-vertex one, of elimination
    # width 10, runs a level; its no at 9 certifies the width
    (lambda: random_connected_graph(150, 187, 2), [(35, 9, 0)]),
])
def test_level_schedule_is_pinned(make, schedule):
    # the (n, k, answer) of every level, minors included, in the order run
    _, _, report = pipeline.solve(make())
    assert [(r["part"], r["n"], r["k"], r["answer"]) for r in report.levels] == [
        (0, *level) for level in schedule]


@pytest.mark.parametrize("make, how", [
    (lambda: mycielski_graph(4), "accepted"),
    (lambda: queen_graph(6, 6), "accepted"),
    (lambda: queen_graph(5, 5), "settled_by_bound"),
], ids=["myciel4", "queen6_6", "queen5_5"])
def test_a_part_counts_under_how_its_decomposition_came_about(make, how):
    # myciel5's lift is counted in test_levels_record_the_n_of_the_graph_they_ran_on
    report = pipeline.solve(make())[2]
    parts = dict.fromkeys(("settled_by_bound", "lifted", "stopped"), 0)
    if how != "accepted":
        parts[how] = 1
    assert report.parts == {"total": 1, **parts, "levels": len(report.levels)}
    # only the accepting level on the part adds to counters: the last level
    # with a yes answer, which here runs on the part just before its no
    if how == "accepted":
        accepting = next(r for r in reversed(report.levels) if r["answer"])
        assert accepting is report.levels[-2] and not report.levels[-1]["answer"]
        assert (accepting["n"], accepting["k"]) == (report.n, report.tw)
    assert report.counters == {
        key: accepting[key] if how == "accepted" else 0 for key in pipeline.COUNTERS}


def test_a_held_lift_counts_as_lifted_without_counters(monkeypatch):
    # myciel4's level 9 holds a width-10 lift, narrower than its elimination
    # width 11, and answers no on the part: nothing accepts on the part
    exact = treewidth(mycielski_graph(4))[1]
    monkeypatch.setattr(solver, "_lift", lambda *args: exact)
    tw, _, report = pipeline.solve(mycielski_graph(4))
    assert tw == 10 and report.parts["lifted"] == 1
    assert report.parts["settled_by_bound"] == report.parts["stopped"] == 0
    assert (report.levels[-1]["n"], report.levels[-1]["k"], report.levels[-1]["answer"]) == (
        23, 9, False)
    assert set(report.counters.values()) == {0}


def test_octahedron_chain_of_eight():
    g = octahedron_chain(8)
    tw, td, report = pipeline.solve(g)
    assert tw == 4
    assert report.parts["total"] == 8
    assert validate(g, td) == []


def test_solve_accepts_only_one_job():
    with pytest.raises(ValueError, match="jobs"):
        pipeline.solve(octahedron_chain(8), jobs=2)


def test_report_shape(monkeypatch):
    _, _, report = pipeline.solve(complete_graph(4), instance="k4")
    d = report.as_dict()
    assert d["instance"] == "k4" and d["tw"] == d["lower"] == 3
    assert set(d["counters"]) == {"iblocks", "oblocks", "pmcs_buildable", "pmcs_feasible"}
    # every vertex of K4 is simplicial: the reduction leaves no part to split or solve
    assert d["reduction"] == {"removed": 4, "low": 3}
    assert d["safe_separators"] == {
        "max_part": 0, "checks": 0, "yes": 0, "dont_know": 0, "aborted": 0, "steps": 0,
    }
    assert d["time_ms"] >= 0.0
    assert d["parts"] == {"total": 0, "settled_by_bound": 0, "lifted": 0, "stopped": 0,
                          "levels": 0}
    assert set(d["counters"].values()) == {0}
    # the octahedron's elimination width 4 equals its minimum degree: no level runs
    d = pipeline.solve(octahedron_chain(1))[2].as_dict()
    assert d["tw"] == 4
    assert d["reduction"] == {"removed": 0, "low": 2}
    assert d["safe_separators"]["yes"] == 0 and d["safe_separators"]["max_part"] == 6
    assert d["parts"] == {"total": 1, "settled_by_bound": 1, "lifted": 0, "stopped": 0,
                          "levels": 0}
    assert set(d["counters"].values()) == {0}
    # the reduction removes one vertex and no separator applies; on the other
    # nine, level 4 is negative (on a minor) and level 5 accepts on the part,
    # below the elimination width 6
    d = pipeline.solve(random_connected_graph(10, 25, 12))[2].as_dict()
    assert d["parts"] == {"total": 1, "settled_by_bound": 0, "lifted": 0, "stopped": 0,
                          "levels": len(d["levels"])}
    assert [(r["k"], r["answer"]) for r in d["levels"] if not r["answer"] or r["n"] == 9] == [
        (4, False), (5, True)]
    assert d["counters"]["pmcs_feasible"] > 0
    assert d["safe_separators"]["yes"] == 0 and d["safe_separators"]["max_part"] == 9
    assert d["reduction"] == {"removed": 1, "low": 2}
    # every minor-safety check run while splitting is tallied, by verdict, and
    # the report's tally is that of the one decompose call solve makes
    reports = []
    splits = []
    check = safesep.heuristic_minor_safe
    decompose = safesep.decompose

    def logged(graph, s, comps_nbs):
        reports.append(check(graph, s, comps_nbs))
        return reports[-1]

    def recorded(*args, **kwargs):
        splits.append(decompose(*args, **kwargs))
        return splits[-1]

    def assert_tallies(tally):
        verdicts = [r.verdict for r in reports]
        assert tally["checks"] == len(reports) > tally["yes"] > 0
        assert tally["yes"] == verdicts.count(safesep.YES)
        assert tally["dont_know"] == verdicts.count(safesep.DONT_KNOW)
        assert tally["aborted"] == verdicts.count(safesep.ABORTED)
        assert tally["steps"] == sum(r.steps_used for r in reports) > 0
        reports.clear()

    monkeypatch.setattr(safesep, "heuristic_minor_safe", logged)
    monkeypatch.setattr(safesep, "decompose", recorded)
    g = disjoint_union(random_connected_graph(40, 50, 3), random_connected_graph(12, 15, 0))
    d = pipeline.solve(g)[2].as_dict()["safe_separators"]
    assert len(splits) == 1
    assert d == {"max_part": d["max_part"], **splits[0].tally}
    assert_tallies(d)
    # from here on the checks search with 2 steps, so some abort
    monkeypatch.setattr(safesep, "STEP_BUDGET", 2)
    tally = safesep.decompose(g).tally
    assert_tallies(tally)
    assert tally["aborted"] > 0


def test_pipeline_matches_oracle_on_grid():
    g = grid_graph(3, 5)
    tw, td, _ = pipeline.solve(g)
    assert tw == oracle.bf_treewidth(g) == 3
    assert validate(g, td) == []


def test_glue_across_components_that_split():
    # the octahedron chains split untouched by the reduction; the random
    # graph loses 7 vertices to it and its remainder still splits
    parts = [octahedron_chain(3), octahedron_chain(2), random_connected_graph(12, 15, 0)]
    g = disjoint_union(*parts)
    tw, td, report = pipeline.solve(g)
    assert tw == max(oracle.bf_treewidth(h) for h in parts) == 4
    assert validate(g, td) == []
    assert td.width() == tw
    assert report.reduction == {"removed": 7, "low": 2}
    found = [
        len(decompose_with_splits(safesep.simplicial_reduction(h)[0])[1])
        for h in parts
    ]
    assert found == [2, 1, 1]
    assert report.safe_separators["yes"] == sum(found)
    # solving again must not see labels mapped by the first run
    tw2, td2, _ = pipeline.solve(g)
    assert (tw2, td2.bags, td2.edges) == (tw, td.bags, td.edges)


def test_component_split_adds_no_checks():
    # the split into components is along the empty separator, a clique, so
    # the tally is that of splitting each component on its own
    parts = [octahedron_chain(3), octahedron_chain(2)]
    report = pipeline.solve(disjoint_union(*parts))[2]
    tallies = [safesep.decompose(h).tally for h in parts]
    assert report.reduction["removed"] == 0
    assert {key: report.safe_separators[key] for key in safesep.TALLY_KEYS} == {
        key: sum(t[key] for t in tallies) for key in safesep.TALLY_KEYS}


def test_reduction_bound_is_shared_across_components(monkeypatch):
    # vertex 12 sees the edge {0, 1} of one octahedron and vertex 6 of
    # another: almost simplicial of degree 3, above the bound 2 of its own
    # component.  A separate K4 has simplicial vertices of degree 3, so the
    # bound of the whole graph is 3 and vertex 12 goes too.
    edges = disjoint_union(octahedron_chain(1), octahedron_chain(1)).edge_list()
    edges += [(12, 0), (12, 1), (12, 6)]
    g = disjoint_union(Graph(13, edges), complete_graph(4))
    removed = []
    reduce = safesep.simplicial_reduction

    def recorded(h):
        out = reduce(h)
        removed.extend(v for v, _ in out[3])
        return out

    monkeypatch.setattr(safesep, "simplicial_reduction", recorded)
    tw, td, report = pipeline.solve(g)
    assert sorted(removed) == [12, 13, 14, 15, 16]  # the K4 and vertex 12
    assert report.reduction == {"removed": 5, "low": 3}
    assert tw == td.width() == oracle.bf_treewidth(g) == 4
    assert validate(g, td) == []


@given(separator_rich_graphs(), separator_rich_graphs())
@settings(max_examples=40)
def test_glued_components_match_oracle(a, b):
    g = disjoint_union(a, b)
    tw, td, _ = pipeline.solve(g)
    assert tw == max(oracle.bf_treewidth(a), oracle.bf_treewidth(b))
    assert validate(g, td) == []
    assert td.width() == tw


def test_negative_level_below_elimination_width_settles(decided_levels):
    g = petersen_graph()
    assert g.min_degree() == 3
    assert max(nb.bit_count() for nb in safesep.greedy_elimination(g, "min_fill")[1]) == 4
    tw, td, report = pipeline.solve(g)
    assert report.reduction["removed"] == 0
    # only level 3 runs: its minors answer yes, the whole graph no
    assert {k for _, k in decided_levels} == {3}
    assert [(r["n"], r["answer"]) for r in report.levels][-1] == (10, False)
    assert all(r["answer"] for r in report.levels[:-1])
    assert tw == td.width() == 4
    assert validate(g, td) == []
    assert report.parts == {"total": 1, "settled_by_bound": 1, "lifted": 0, "stopped": 0,
                            "levels": len(decided_levels)}


def test_no_level_runs_on_parts_settled_by_bound(decided_levels):
    alone = pipeline.solve(grid_graph(4, 4))
    grid_levels = list(decided_levels)
    decided_levels.clear()
    g = disjoint_union(grid_graph(4, 4), octahedron_chain(5))
    tw, td, report = pipeline.solve(g)
    assert decided_levels == grid_levels  # no level runs on the chain
    assert tw == alone[0] == 4
    assert validate(g, td) == []
    assert report.parts["total"] == alone[2].parts["total"] + 5


def test_running_maximum_prunes():
    # the Petersen graph is solved first: level 3 is negative below its
    # elimination width 4.  The random graph splits into two parts of
    # elimination width 4 and one 8-vertex part of minimum degree 3 and
    # elimination width 5, which runs level 4 alone, which accepts; starting
    # it one level higher would report width 5.
    small = random_connected_graph(10, 22, 37)
    assert small.min_degree() == 3 and oracle.bf_treewidth(small) == 4
    g = disjoint_union(petersen_graph(), small)
    tw, td, report = pipeline.solve(g)
    assert report.reduction["removed"] == 0
    assert tw == td.width() == 4
    assert validate(g, td) == []
    assert report.parts == {"total": 4, "settled_by_bound": 3, "lifted": 0, "stopped": 0,
                            "levels": len(report.levels)}
    assert {(r["part"], r["k"]) for r in report.levels} == {(0, 3), (1, 4)}
    assert [(r["part"], r["n"], r["k"]) for r in report.levels if not r["answer"]] == [
        (0, 10, 3)]
    assert (report.levels[-1]["n"], report.levels[-1]["answer"]) == (8, True)


def _bounds_by(g: Graph, deadline: float) -> tuple[int, int]:
    """The certified lower bound and the width ``solve`` reports by
    ``deadline``, once its decomposition validates with that width and the
    two agree exactly when no part stopped."""
    tw, td, report = pipeline.solve(g, deadline=deadline)
    assert validate(g, td) == [] and td.width() == tw == report.tw
    assert (report.lower == tw) == (report.parts["stopped"] == 0)
    return report.lower, tw


@st.composite
def seeded_graphs(draw) -> Graph:
    """One or two seeded random connected components, 14 vertices in all at
    most."""
    sizes = draw(st.lists(st.integers(min_value=1, max_value=14), min_size=1, max_size=2)
                 .filter(lambda sizes: sum(sizes) <= 14))
    graphs = []
    for n in sizes:
        extra = draw(st.integers(min_value=0, max_value=4 * n))
        graphs.append(random_connected_graph(n, n - 1 + extra, draw(st.integers(0, 10**6))))
    return disjoint_union(*graphs)


@given(seeded_graphs())
@settings(max_examples=80)
def test_past_deadline_gives_exact_width_or_certified_bound(g):
    tw = oracle.bf_treewidth(g)
    exact, _, report = pipeline.solve(g)
    assert exact == report.lower == tw
    assert _bounds_by(g, time.monotonic() + 60.0) == (tw, tw)
    # the reduction and the safe-separator search run before any poll, so a
    # graph whose parts they settle needs no level and finishes exactly
    lower, width = _bounds_by(g, time.monotonic() - 1.0)
    assert max(g.min_degree(), report.reduction["low"]) <= lower <= tw <= width


@st.composite
def dense_graphs(draw) -> Graph:
    """One or two seeded random connected components, 16 vertices in all at
    most, with about three edges per vertex, so that about half of them run
    decision levels."""
    sizes = [draw(st.integers(min_value=4, max_value=14))]
    if sizes[0] <= 12 and draw(st.booleans()):
        sizes.append(draw(st.integers(min_value=4, max_value=16 - sizes[0])))
    graphs = []
    for n in sizes:
        m = min(n * (n - 1) // 2, draw(st.integers(min_value=3 * n, max_value=4 * n)))
        graphs.append(random_connected_graph(n, m, draw(st.integers(0, 10**6))))
    return disjoint_union(*graphs)


@given(dense_graphs(), st.floats(min_value=0.0, max_value=1.0, exclude_max=True))
@settings(max_examples=100)
def test_stopped_solve_reports_certified_bounds_hypothesis(g, share):
    # decide stops at a call number below the number of calls a full solve
    # makes, and at every call after it, as at a deadline, so the levels
    # finished before it are the report's
    stop = int(share * len(pipeline.solve(g)[2].levels))
    ran = []
    decide = solver.decide

    def stopping(h, k, **kwargs):
        if len(ran) == stop:
            raise SolverTimeout
        res = decide(h, k, **kwargs)
        ran.append((h.n, k, res.answer))
        return res

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver, "decide", stopping)
        tw, td, report = pipeline.solve(g, deadline=time.monotonic() + 60.0)
    assert report.lower <= oracle.bf_treewidth(g) <= report.tw == tw == td.width()
    assert validate(g, td) == []
    assert (report.lower == tw) == (report.parts["stopped"] == 0)
    assert [(r["n"], r["k"], r["answer"]) for r in report.levels] == ran
    assert report.parts["levels"] == len(ran) == stop


def test_a_part_stopped_below_the_certified_bound_is_not_open():
    # the Petersen graph stops at its first level with bound 3, below its
    # elimination width 4; the octahedron after it runs no level, since its
    # minimum degree is its elimination width 4, which certifies 4 for both
    g = disjoint_union(petersen_graph(), octahedron_chain(1))
    assert _bounds_by(g, time.monotonic() - 1.0) == (4, 4)
    report = pipeline.solve(g, deadline=time.monotonic() - 1.0)[2]
    assert report.parts == {"total": 2, "settled_by_bound": 2, "lifted": 0, "stopped": 0,
                            "levels": 0}


def test_a_part_stopped_within_the_certified_bound_counts_under_its_how(monkeypatch):
    # K11 is removed whole and certifies 10; myciel4 holds a lifted width-10
    # decomposition from level 9, then stops on the part with bound 9
    exact = treewidth(mycielski_graph(4))[1]
    monkeypatch.setattr(solver, "_lift", lambda *args: exact)
    decide = solver.decide

    def stop_on_the_part(h, k, **kwargs):
        if h.n == 23:
            raise SolverTimeout
        return decide(h, k, **kwargs)

    monkeypatch.setattr(solver, "decide", stop_on_the_part)
    tw, _, report = pipeline.solve(disjoint_union(mycielski_graph(4), complete_graph(11)))
    assert tw == report.lower == 10 and report.reduction["removed"] == 11
    assert report.parts == {"total": 1, "settled_by_bound": 0, "lifted": 1, "stopped": 0,
                            "levels": len(report.levels)}
    assert set(report.counters.values()) == {0}


def test_stopped_part_keeps_the_running_maximum():
    # the 9-vertex part of the first graph is solved first and settled by
    # its bound, width 5, without a level; only the 8-vertex part of the
    # second graph, elimination width 6, runs a level, and stops there,
    # keeping its elimination decomposition
    g = disjoint_union(random_connected_graph(10, 27, 3), random_connected_graph(11, 31, 4))
    assert pipeline.solve(g)[0] == 6
    tw, td, report = pipeline.solve(g, deadline=time.monotonic() - 1.0)
    assert validate(g, td) == []
    assert (report.lower, tw, report.parts["stopped"]) == (5, 6, 1)  # 5: the running maximum


def test_generous_deadline_gives_exact_width():
    for g, tw in [(complete_graph(5), 4), (cycle_graph(6), 2), (mycielski_graph(4), 10)]:
        assert _bounds_by(g, time.monotonic() + 60.0) == (tw, tw)
    g = random_connected_graph(12, 24, 2024)
    tw = oracle.bf_treewidth(g)
    assert _bounds_by(g, time.monotonic() + 60.0) == (tw, tw)


def test_timeout_bound_is_one_above_last_finished_level(monkeypatch):
    # one part, minimum degree 4, levels 4 to 10, elimination width 11
    g = mycielski_graph(4)
    assert _bounds_by(g, time.monotonic() - 1.0) == (4, 11)  # no level finished
    decide = solver.decide

    def stop_at_level_7(g, k, **kwargs):
        if k == 7:
            raise SolverTimeout
        return decide(g, k, **kwargs)

    monkeypatch.setattr(solver, "decide", stop_at_level_7)
    assert _bounds_by(g, time.monotonic() + 60.0) == (7, 11)  # levels 4 to 6 negative


def test_timeout_bound_ignores_a_yes_on_a_minor(monkeypatch):
    # myciel4's levels 4 to 7 answer no on minors, then a minor answers yes
    # at level 8, which certifies nothing, and the next level times out
    g = mycielski_graph(4)
    ran: list[solver.SolverStats] = []
    decide = solver.decide

    def stop_after_a_yes(h, k, **kwargs):
        if ran and ran[-1].answer:
            raise SolverTimeout
        res = decide(h, k, **kwargs)
        ran.append(res.stats)
        return res

    monkeypatch.setattr(solver, "decide", stop_after_a_yes)
    bound, width = _bounds_by(g, time.monotonic() + 60.0)
    assert ran[-1].answer and ran[-1].n < g.n
    last_negative = max(s.k for s in ran if not s.answer)
    assert bound == last_negative + 1 <= ran[-1].k < width == 11


def test_levels_record_the_n_of_the_graph_they_ran_on():
    g = mycielski_graph(5)  # one part of 47 vertices, tw 19
    tw, td, report = pipeline.solve(g)
    assert tw == 19 and report.parts["total"] == 1
    assert any(r["n"] < 47 and not r["answer"] for r in report.levels)
    # level 19 accepts on the 36-vertex minor, whose decomposition, lifted
    # to the part and narrowed, has width 19: the part runs no level 19
    assert (report.levels[-1]["n"], report.levels[-1]["k"], report.levels[-1]["answer"]) == (
        36, 19, True)
    assert not any(r["n"] == 47 and r["k"] == 19 for r in report.levels)
    assert report.parts["lifted"] == 1 and set(report.counters.values()) == {0}
    assert td.width() == 19 and validate(g, td) == []
    assert all(r["k"] + 2 <= r["n"] <= 47 for r in report.levels)


def test_myciel6_is_solved_through_minors():
    # level 34 answers no on a minor, so the elimination width 35 is exact
    g = mycielski_graph(6)
    tw, td, report = pipeline.solve(g)
    assert tw == td.width() == 35
    assert validate(g, td) == []
    assert not report.levels[-1]["answer"] and report.levels[-1]["n"] < g.n


@given(bridged_blocks())
@settings(max_examples=30)
def test_nested_splits_match_oracle(g):
    tw, td, report = pipeline.solve(g)
    assert report.reduction["removed"] == 0
    assert report.safe_separators["yes"] >= 2
    assert tw == oracle.bf_treewidth(g)
    assert validate(g, td) == []
    assert td.width() == tw


def assert_glue_ignores_part_order(g):
    """Solving with the parts of ``safesep.decompose`` reversed or shuffled
    gives the same tw and bags."""
    tw, td, _ = pipeline.solve(g)
    decompose = safesep.decompose
    shuffle = random.Random(g.n).sample
    for how in (lambda parts: parts[::-1], lambda parts: shuffle(parts, len(parts))):
        def reordered(*args, **kwargs):
            d = decompose(*args, **kwargs)
            d.parts = how(d.parts)
            return d

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(safesep, "decompose", reordered)
            tw2, td2, _ = pipeline.solve(g)
        assert (tw2, sorted(td2.bags)) == (tw, sorted(td.bags))
        assert validate(g, td2) == []


@pytest.mark.parametrize("g", [
    octahedron_chain(4),
    disjoint_union(octahedron_chain(3), octahedron_chain(1)),
    random_connected_graph(150, 187, 3),  # sparse150_3
])
def test_glue_ignores_part_order(g):
    assert_glue_ignores_part_order(g)


@given(st.lists(bridged_blocks(), min_size=1, max_size=2).map(lambda gs: disjoint_union(*gs)))
@settings(max_examples=20)
def test_glue_ignores_part_order_on_bridged_blocks(g):
    assert_glue_ignores_part_order(g)


@given(low_degree_graphs())
@settings(max_examples=80)
def test_reduction_matches_oracle(g):
    tw, td, report = pipeline.solve(g)
    assert tw == oracle.bf_treewidth(g)
    assert report.reduction["low"] <= tw
    assert validate(g, td) == []
    assert td.width() == tw


@given(st.one_of(
    low_degree_graphs(), separator_rich_graphs(), bridged_blocks(),
    st.lists(separator_rich_graphs(), min_size=2, max_size=3).map(lambda gs: disjoint_union(*gs)),
))
@example(random_connected_graph(8, 8, 0))
@settings(max_examples=80)
def test_no_bag_lies_inside_another(g):
    assert non_nested(pipeline.solve(g)[1].bags)


def test_put_back_without_a_holding_bag_raises(monkeypatch, tmp_graph_file, capsys):
    reduce = safesep.simplicial_reduction

    def corrupted(g):
        reduced, kept, low, removed = reduce(g)
        v, nb = removed[-2]
        removed[-2] = (v, nb | 1 << removed[0][0])  # a vertex put back only later
        return reduced, kept, low, removed

    monkeypatch.setattr(safesep, "simplicial_reduction", corrupted)
    with pytest.raises(AuditError, match="produced decomposition failed validation"):
        pipeline.solve(triangle_chain(3))
    assert cli.main(["exact", tmp_graph_file("t.gr", write_gr(triangle_chain(3)))]) == 3
    assert "produced decomposition failed validation" in capsys.readouterr().err


def schema_keys(text: str) -> dict:
    """Parse a ``{a, b{c, d}}`` schema into nested dicts; leaves map to None."""
    tokens = re.findall(r"\w+|[{}]", text)

    def group(i: int) -> tuple[dict, int]:
        keys: dict = {}
        i += 1
        while tokens[i] != "}":
            name = tokens[i]
            if tokens[i + 1] == "{":
                keys[name], i = group(i + 1)
            else:
                keys[name], i = None, i + 1
        return keys, i + 1

    return group(0)[0]


def test_readme_stats_schema_matches_solve_report():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    found = re.search(r"JSON stats record\s+\(`(\{.*?\})`\)", readme, re.S)
    assert found, "README lost its --stats schema line"

    def keys(value) -> dict | None:
        if isinstance(value, list):  # records of one shape: the keys of the first
            value = value[0]
        return {k: keys(v) for k, v in value.items()} if isinstance(value, dict) else None

    report = pipeline.solve(mycielski_graph(4))[2]  # runs levels, so levels[] has records
    assert schema_keys(found.group(1)) == keys(report.as_dict())
