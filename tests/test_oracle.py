import pytest

from twsolve import oracle
from twsolve.families import cycle_graph, random_connected_graph
from twsolve.graph import Graph
from twsolve.tdbuild import TreeDecomposition, validate

from conftest import mask
from reference import (
    complete_graph,
    enumerate_minimal_separators_naive,
    enumerate_pmcs_naive,
    feasible_objects,
    grid_graph,
    path_graph,
)


def test_bf_treewidth_basics():
    assert oracle.bf_treewidth(complete_graph(5)) == 4
    assert oracle.bf_treewidth(cycle_graph(6)) == 2
    assert oracle.bf_treewidth(Graph(1)) == 0
    assert oracle.bf_treewidth(path_graph(2)) == 1


def test_bf_treewidth_grid_with_manual_witness():
    g = grid_graph(3, 3)
    assert oracle.bf_treewidth(g) == 3
    # a hand-built width-3 decomposition sweeping the grid column by column
    bags = [
        mask(0, 1, 3, 4),
        mask(1, 3, 4, 6),
        mask(1, 4, 6, 7),
        mask(1, 2, 4, 7),
        mask(2, 4, 7, 8),
        mask(2, 4, 5, 8),
    ]
    td = TreeDecomposition(9, bags, [(i, i + 1) for i in range(5)])
    assert validate(g, td) == []
    assert td.width() == 3


def test_bf_refuses_large():
    with pytest.raises(ValueError):
        oracle.bf_treewidth(Graph(21))
    with pytest.raises(ValueError):
        oracle.enumerate_pmcs(Graph(17))
    with pytest.raises(ValueError):
        oracle.enumerate_minimal_separators(Graph(17))


def test_enumerations_on_cycle():
    c4 = cycle_graph(4)
    assert oracle.enumerate_minimal_separators(c4) == {mask(0, 2), mask(1, 3)}
    assert oracle.enumerate_pmcs(c4) == {
        mask(0, 1, 2),
        mask(1, 2, 3),
        mask(0, 2, 3),
        mask(0, 1, 3),
    }


def test_enumerations_on_complete_graph():
    k4 = complete_graph(4)
    assert oracle.enumerate_minimal_separators(k4) == set()
    assert oracle.enumerate_pmcs(k4) == {k4.full_mask}


def test_enumerations_on_path():
    p3 = path_graph(3)
    assert oracle.enumerate_pmcs(p3) == {mask(0, 1), mask(1, 2)}
    assert oracle.enumerate_minimal_separators(p3) == {mask(1)}


def _as_masks(frozen_sets):
    return {sum(1 << v for v in fs) for fs in frozen_sets}


def test_primary_and_naive_enumerations_agree():
    for seed in range(25):
        n = 4 + seed % 6
        g = random_connected_graph(n, int(1.7 * n), 6100 + seed)
        edges = g.edge_list()
        assert oracle.enumerate_minimal_separators(g) == _as_masks(
            enumerate_minimal_separators_naive(n, edges)
        )
        assert oracle.enumerate_pmcs(g) == _as_masks(
            enumerate_pmcs_naive(n, edges)
        )


def test_feasible_objects_iblock_definitions():
    # path 0-1-2: {0} is outbound, {2} is the inbound side of separator {1}
    g = path_graph(3)
    fo = feasible_objects(g, 1)
    assert fo.iblocks == {mask(2)}
    assert mask(0) in fo.oblocks
    assert fo.pmcs == {mask(0, 1), mask(1, 2)}
