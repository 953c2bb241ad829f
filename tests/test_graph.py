import pytest
from hypothesis import given, strategies as st

from twsolve.families import cycle_graph
from twsolve.graph import Graph, bit_list, vset

from conftest import connected_graphs, has_edge, mask, min_vertex
from reference import complete_graph, path_graph


def test_open_neighborhood_path():
    g = path_graph(3)
    assert g.open_neighborhood(mask(1)) == mask(0, 2)


def test_open_neighborhood_cycle_pair():
    g = cycle_graph(4)
    assert g.open_neighborhood(mask(0, 2)) == mask(1, 3)


def test_open_neighborhood_everything_is_empty():
    g = cycle_graph(5)
    assert g.open_neighborhood(g.full_mask) == 0


def test_components_cycle():
    g = cycle_graph(4)
    assert g.components(mask(0, 2)) == [mask(1), mask(3)]


def test_components_nothing_removed():
    g = path_graph(3)
    assert g.components(0) == [mask(0, 1, 2)]


def test_components_empty_residue():
    g = complete_graph(4)
    assert g.components(g.full_mask) == []


def test_is_connected():
    g = path_graph(3)
    assert not g.is_connected(mask(0, 2))
    assert g.is_connected(mask(0, 1))
    assert g.is_connected(mask(2))
    with pytest.raises(ValueError):
        g.is_connected(0)


def test_graph_rejects_bad_edges():
    with pytest.raises(ValueError):
        Graph(3, [(0, 3)])
    with pytest.raises(ValueError):
        Graph(3, [(1, 1)])


def test_duplicate_edges_collapse():
    g = Graph(3, [(0, 1), (1, 0), (0, 1)])
    assert g.edge_count == 1


def test_subgraph_with_completion():
    g = path_graph(4)
    sub, labels = g.subgraph(mask(0, 1, 3), make_clique=mask(0, 3))
    assert labels == [0, 1, 3]
    assert has_edge(sub, 0, 1)
    assert has_edge(sub, 0, 2)  # completed pair (0,3)
    assert not has_edge(sub, 1, 2)


@given(connected_graphs(), st.data())
def test_open_neighborhood_disjoint(g, data):
    u = data.draw(st.integers(min_value=0, max_value=g.full_mask))
    assert g.open_neighborhood(u) & u == 0


@given(connected_graphs(), st.data())
def test_components_partition(g, data):
    s = data.draw(st.integers(min_value=0, max_value=g.full_mask))
    comps = g.components(s)
    union = 0
    for c in comps:
        assert c & union == 0
        union |= c
        assert g.is_connected(c)
        # no edges leave the component except into s
        assert g.open_neighborhood(c) & ~s == 0
    assert union == g.full_mask & ~s
    mins = [min_vertex(c) for c in comps]
    assert mins == sorted(mins)


@given(connected_graphs())
def test_components_with_neighborhoods_agree(g):
    for s in (0, g.adj[0], g.full_mask >> 1):
        pairs = g.components_with_neighborhoods(s)
        assert [c for c, _ in pairs] == g.components(s)
        for c, nb in pairs:
            assert nb == g.open_neighborhood(c)


@given(connected_graphs(max_n=14), st.data())
def test_components_until_full_stop_after_the_first_full_component(g, data):
    u = data.draw(st.integers(min_value=0, max_value=g.full_mask))
    s = data.draw(st.sampled_from([0, g.full_mask, u, g.open_neighborhood(u)]))
    whole = g.components_with_neighborhoods(s)
    early = g.components_with_neighborhoods(s, until_full=True)
    assert early == whole[: len(early)]
    full_at = [i for i, (_, nb) in enumerate(whole) if nb == s]
    if full_at:
        assert len(early) == full_at[0] + 1
    else:
        assert early == whole


def test_components_until_full_edge_cases():
    g = path_graph(5)
    # the empty set's only component is full; all of V leaves no component
    assert g.components_with_neighborhoods(0, until_full=True) == [(g.full_mask, 0)]
    assert g.components_with_neighborhoods(g.full_mask, until_full=True) == []
    # {2} is the first full component of {1, 3}; {4} is not listed
    assert g.components_with_neighborhoods(mask(1, 3), until_full=True) == [
        (mask(0), mask(1)), (mask(2), mask(1, 3))]
    # {1, 2} has no full component, so every component is listed
    assert g.components_with_neighborhoods(mask(1, 2), until_full=True) == [
        (mask(0), mask(1)), (mask(3, 4), mask(2))]


def test_bit_list_roundtrip():
    assert bit_list(vset([5, 1, 9])) == [1, 5, 9]


def test_exact_at_large_capacity():
    # semantics stay exact well past machine-word sizes
    n = 4096
    g = Graph(n, [(i, i + 1) for i in range(n - 1)])
    assert g.open_neighborhood(1 << (n - 1)) == 1 << (n - 2)
    assert g.open_neighborhood(mask(0, n - 1)) == mask(1, n - 2)
    comps = g.components(mask(2048))
    assert len(comps) == 2
    assert g.is_connected(g.full_mask)
