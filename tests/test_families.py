import pytest
from hypothesis import given, strategies as st

from twsolve.families import cycle_graph, mycielski_graph, queen_graph, random_connected_graph

from reference import complete_graph, grid_graph, path_graph, petersen_graph


def test_mycielski_matches_published_sizes():
    expected = {2: (5, 5), 3: (11, 20), 4: (23, 71), 5: (47, 236), 6: (95, 755)}
    for idx, (n, m) in expected.items():
        g = mycielski_graph(idx)
        assert (g.n, g.edge_count) == (n, m), f"myciel{idx}"


def test_queen_matches_published_sizes():
    expected = {5: (25, 160), 6: (36, 290), 7: (49, 476), 8: (64, 728)}
    for size, (n, m) in expected.items():
        g = queen_graph(size, size)
        assert (g.n, g.edge_count) == (n, m), f"queen{size}_{size}"


def test_basic_families():
    assert path_graph(5).edge_count == 4
    assert cycle_graph(5).edge_count == 5
    assert complete_graph(6).edge_count == 15
    assert grid_graph(3, 4).edge_count == 17
    assert petersen_graph().edge_count == 15
    assert all(a.bit_count() == 3 for a in petersen_graph().adj)


@pytest.mark.parametrize("make, bad, name", [
    (cycle_graph, 2, "n"), (cycle_graph, 0, "n"),
    (mycielski_graph, 1, "index"), (mycielski_graph, 0, "index"),
])
def test_family_arguments_out_of_range_raise(make, bad, name):
    # a real exception, so that python -O does not turn it into a 5-cycle
    with pytest.raises(ValueError, match=f"{name}={bad}"):
        make(bad)


@given(
    st.integers(min_value=2, max_value=20),
    st.integers(min_value=0, max_value=40),
    st.integers(min_value=0, max_value=10**6),
)
def test_random_connected_graph_is_connected(n, extra, seed):
    g = random_connected_graph(n, n - 1 + extra, seed)
    assert g.is_connected(g.full_mask)
    cap = n * (n - 1) // 2
    assert g.edge_count == min(max(n - 1 + extra, n - 1), cap)
    # deterministic for a fixed seed
    h = random_connected_graph(n, n - 1 + extra, seed)
    assert h.adj == g.adj
