import time

import pytest
from hypothesis import given, settings, strategies as st

from twsolve import oracle, solver
from twsolve.families import (
    complete_graph,
    cycle_graph,
    grid_graph,
    path_graph,
    petersen_graph,
    random_connected_graph,
    star_graph,
)
from twsolve.graph import Graph
from twsolve.solver import SolverTimeout, decide, levels, lower_bound, treewidth
from twsolve.tdbuild import extract, validate

from conftest import connected_graphs


def test_decide_complete_graph():
    k4 = complete_graph(4)
    assert not decide(k4, 2).answer
    assert decide(k4, 3).answer


def test_decide_cycle():
    c4 = cycle_graph(4)
    assert not decide(c4, 1).answer
    assert decide(c4, 2).answer


def test_decide_queen5_5():
    from twsolve.families import queen_graph

    g = queen_graph(5, 5)
    assert not decide(g, 17).answer
    assert decide(g, 18).answer


def test_decide_rejects_bad_input():
    with pytest.raises(ValueError):
        decide(Graph(0), 1)
    with pytest.raises(ValueError):
        decide(Graph(4, [(0, 1), (2, 3)]), 2)  # disconnected
    with pytest.raises(ValueError):
        decide(path_graph(3), 5)  # k > n-1
    assert not decide(path_graph(2), 0).answer  # width 0 needs a single vertex


def test_treewidth_known_values():
    assert treewidth(path_graph(6))[0] == 1
    assert treewidth(star_graph(5))[0] == 1
    assert treewidth(cycle_graph(6))[0] == 2
    assert treewidth(complete_graph(5))[0] == 4
    assert treewidth(grid_graph(3, 3))[0] == 3
    assert treewidth(petersen_graph())[0] == 4
    assert treewidth(Graph(1))[0] == 0


def test_treewidth_complete_bipartite():
    edges = [(i, 3 + j) for i in range(3) for j in range(3)]
    assert treewidth(Graph(6, edges))[0] == 3


def test_witness_yields_valid_decomposition():
    g = cycle_graph(4)
    tw, wit = treewidth(g)
    td = extract(g, wit)
    assert validate(g, td) == []
    assert td.width() == tw == 2


def test_oracle_equivalence_small():
    for seed in range(40):
        n = 4 + seed % 8
        g = random_connected_graph(n, 2 * n, 900 + seed)
        tw, wit = treewidth(g, debug=True)
        assert tw == oracle.bf_treewidth(g), f"seed {seed}"
        td = extract(g, wit)
        assert validate(g, td) == []
        assert td.width() == tw


@given(connected_graphs(max_n=9))
@settings(max_examples=30)
def test_monotone_in_k(g):
    answers = [decide(g, k).answer for k in range(1, g.n)]
    assert answers == sorted(answers)


def test_exhaustive_counters_match_recount():
    for seed in range(10):
        n = 5 + seed % 5
        g = random_connected_graph(n, int(1.8 * n), 4200 + seed)
        tw = oracle.bf_treewidth(g)
        for k in sorted({max(1, tw - 1), tw, min(n - 1, tw + 1)}):
            import twsolve.solver as solver_mod

            search = solver_mod._Search(g, k, True, None, True)
            search.run()
            ref = oracle.feasible_objects(g, k)
            assert set(search.iblock_set) == ref.iblocks, (seed, k)
            assert set(search.feasible) == ref.pmcs, (seed, k)
            # stored outbound blocks are always definition-feasible
            assert set(search.onb) <= ref.oblocks, (seed, k)


def test_every_feasible_pmc_was_buildable():
    for seed in range(6):
        g = random_connected_graph(8, 16, 77 + seed)
        import twsolve.solver as solver_mod

        tw = oracle.bf_treewidth(g)
        search = solver_mod._Search(g, tw, True, None, True)
        search.run()
        assert set(search.feasible) <= search.buildable


def test_stats_counters_consistent():
    g = random_connected_graph(9, 18, 51)
    res = decide(g, 4, exhaustive=True)
    assert res.stats.pmcs_feasible <= res.stats.pmcs_buildable
    assert res.stats.k == 4 and res.stats.n == 9


def test_lower_bound_floor_and_exactness():
    k5 = complete_graph(5)
    assert lower_bound(k5, 5.0) >= 4
    c6 = cycle_graph(6)
    assert lower_bound(c6, 5.0) == 2
    # generous budget gives the exact treewidth
    g = random_connected_graph(12, 24, 2024)
    assert lower_bound(g, 60.0) == oracle.bf_treewidth(g)


def test_lower_bound_zero_budget_is_min_degree():
    g = random_connected_graph(10, 25, 7)
    assert lower_bound(g, 0.0) == g.min_degree()


def test_levels_ascend_from_min_degree_to_first_acceptance():
    graphs = [path_graph(6), cycle_graph(6), complete_graph(5), grid_graph(3, 3),
              random_connected_graph(10, 18, 3)]
    for g in graphs:
        results = list(levels(g))
        ks = [r.stats.k for r in results]
        assert ks == list(range(max(1, g.min_degree()), ks[-1] + 1))
        assert [r.answer for r in results] == [False] * (len(ks) - 1) + [True]
        assert ks[-1] == oracle.bf_treewidth(g)
    [single] = levels(Graph(1))
    assert single.answer and single.stats.k == 0


def test_levels_raise_when_no_level_accepts(monkeypatch):
    def reject(g, k, **kwargs):
        return solver.DecideResult(False, solver.SolverStats(g.n, k, False))

    monkeypatch.setattr(solver, "decide", reject)
    with pytest.raises(RuntimeError, match="failed to accept"):
        list(levels(cycle_graph(5)))


def test_deadline_interrupts():
    g = petersen_graph()
    with pytest.raises(SolverTimeout):
        decide(g, 3, deadline=time.monotonic() - 1.0)


@given(connected_graphs(max_n=8))
@settings(max_examples=25)
def test_treewidth_matches_oracle_hypothesis(g):
    assert treewidth(g)[0] == oracle.bf_treewidth(g)
