from hypothesis import given, strategies as st

from twsolve import blocks
from twsolve.families import (
    complete_graph,
    cycle_graph,
    path_graph,
    star_graph,
)
from twsolve.graph import min_vertex

from conftest import connected_graphs, mask


def full_components(g, s):
    """Components associated with ``s`` whose neighborhood equals ``s``."""
    return [c for c, nb in g.components_with_neighborhoods(s) if nb == s]


def unconf(g, s, k_set):
    """Components associated with ``k_set`` whose neighborhood is not inside ``s``."""
    return [c for c, nb in g.components_with_neighborhoods(k_set) if nb & ~s]


def crib(g, s, k_set):
    """The full component of ``s`` absorbing ``k_set - s`` and all unconfined components."""
    c = k_set & ~s
    for comp in unconf(g, s, k_set):
        c |= comp
    return c


def test_full_components():
    c4 = cycle_graph(4)
    assert full_components(c4, mask(0, 2)) == [mask(1), mask(3)]
    assert blocks.first_full_component(c4, mask(0, 2)) == mask(1)
    p3 = path_graph(3)
    assert full_components(p3, mask(1)) == [mask(0), mask(2)]
    assert blocks.first_full_component(p3, mask(1)) == mask(0)
    # {1,2} is the single component and its neighborhood is exactly {0}
    assert full_components(p3, mask(0)) == [mask(1, 2)]
    assert blocks.first_full_component(p3, mask(0)) == mask(1, 2)
    assert blocks.first_full_component(p3, mask(0, 1)) == 0


def test_is_minimal_separator():
    c4 = cycle_graph(4)
    assert blocks.is_minimal_separator(c4, mask(0, 2))
    p3 = path_graph(3)
    assert not blocks.is_minimal_separator(p3, mask(0))
    k4 = complete_graph(4)
    for s in range(1, k4.full_mask):
        assert not blocks.is_minimal_separator(k4, s)


def test_is_cliquish():
    c4 = cycle_graph(4)
    assert blocks.is_cliquish(c4, mask(0, 2))
    p3 = path_graph(3)
    assert not blocks.is_cliquish(p3, mask(0, 1, 2))
    p5 = path_graph(5)
    assert blocks.is_cliquish(p5, mask(1, 3))


def test_is_pmc():
    p3 = path_graph(3)
    assert blocks.is_pmc(p3, mask(0, 1))
    c4 = cycle_graph(4)
    assert blocks.is_pmc(c4, mask(0, 1, 2))
    assert not blocks.is_pmc(c4, mask(0, 2))


def test_unconf():
    c4 = cycle_graph(4)
    assert unconf(c4, mask(0), mask(0, 2)) == [mask(1), mask(3)]
    p5 = path_graph(5)
    assert unconf(p5, mask(1), mask(1, 3)) == [mask(2), mask(4)]
    k3 = complete_graph(3)
    assert unconf(k3, mask(0), mask(0, 1, 2)) == []
    # the support is the list of components unconfined to the outlet
    out, sup = blocks.outlet_and_support(p5, mask(1, 3))
    assert list(sup) == unconf(p5, out, mask(1, 3))


def test_crib():
    c4 = cycle_graph(4)
    assert crib(c4, mask(0), mask(0, 2)) == mask(1, 2, 3)
    p5 = path_graph(5)
    assert crib(p5, mask(1), mask(1, 3)) == mask(2, 3, 4)
    k3 = complete_graph(3)
    assert crib(k3, mask(0, 1), mask(0, 1, 2)) == mask(2)
    # what a feasible PMC emits: its set minus the outlet, plus the support
    out, sup = blocks.outlet_and_support(p5, mask(1, 3))
    assert mask(1, 3) & ~out | sup[0] | sup[1] == crib(p5, out, mask(1, 3))


def test_is_outbound():
    c4 = cycle_graph(4)
    assert blocks.is_outbound(c4, mask(1))
    assert not blocks.is_outbound(c4, mask(3))
    # neighborhood of {1,2} in the path is not a minimal separator
    p3 = path_graph(3)
    assert blocks.is_outbound(p3, mask(1, 2))


def test_outlet():
    p5 = path_graph(5)
    assert blocks.outlet_and_support(p5, mask(1, 3))[0] == mask(1)
    star = star_graph(3)
    assert blocks.outlet_and_support(star, star.full_mask)[0] == 0
    c4 = cycle_graph(4)
    assert blocks.outlet_and_support(c4, mask(0, 1, 2))[0] == 0


def test_support():
    p5 = path_graph(5)
    assert blocks.outlet_and_support(p5, mask(1, 3))[1] == (mask(2), mask(4))
    c4 = cycle_graph(4)
    assert blocks.outlet_and_support(c4, mask(0, 1, 2))[1] == (mask(3),)
    k3 = complete_graph(3)
    assert blocks.outlet_and_support(k3, mask(0, 1, 2))[1] == ()


@given(connected_graphs(max_n=8), st.data())
def test_minimal_separator_has_one_outbound_full_component(g, data):
    s = data.draw(st.integers(min_value=1, max_value=g.full_mask - 1))
    fulls = full_components(g, s)
    if len(fulls) < 2:
        return
    flags = [blocks.is_outbound(g, c) for c in fulls]
    assert sum(flags) == 1
    # the outbound one contains the smallest vertex over all full components
    outbound = fulls[flags.index(True)]
    assert min_vertex(outbound) == min(min_vertex(c) for c in fulls)


@given(connected_graphs(max_n=8), st.data())
def test_crib_is_full_component(g, data):
    k_set = data.draw(st.integers(min_value=1, max_value=g.full_mask))
    if not blocks.is_cliquish(g, k_set):
        return
    sub = data.draw(st.integers(min_value=0, max_value=k_set))
    s = sub & k_set
    if s == k_set:
        return
    c = crib(g, s, k_set)
    assert c & (k_set & ~s) == k_set & ~s
    comps = g.components(s)
    assert c in comps
    assert g.open_neighborhood(c) == s


@given(connected_graphs(max_n=8))
def test_pmc_emits_inbound_crib_of_its_outlet(g):
    # what a feasible PMC emits: its set minus the outlet, plus the support
    for k_set in range(1, g.full_mask + 1):
        if not blocks.is_pmc(g, k_set):
            continue
        out, sup = blocks.outlet_and_support(g, k_set, debug=True)
        if not out:
            assert sup == tuple(g.components(k_set))
            continue
        emitted = k_set & ~out
        for comp in sup:
            emitted |= comp
        assert emitted == crib(g, out, k_set)
        assert g.open_neighborhood(emitted) == out
        assert not blocks.is_outbound(g, emitted)


@given(connected_graphs(max_n=8))
def test_outbound_neighborhoods_nest(g):
    for k_set in range(1, g.full_mask + 1):
        if not blocks.is_cliquish(g, k_set):
            continue
        outs = [
            nb
            for c, nb in g.components_with_neighborhoods(k_set)
            if nb != k_set and blocks.is_outbound(g, c)
        ]
        for a in outs:
            for b in outs:
                assert a & ~b == 0 or b & ~a == 0


@given(connected_graphs(max_n=7))
def test_is_pmc_matches_naive_enumeration(g):
    from twsolve.oracle import enumerate_pmcs_naive

    naive = {
        sum(1 << v for v in fs) for fs in enumerate_pmcs_naive(g.n, g.edge_list())
    }
    fast = {s for s in range(1, g.full_mask + 1) if blocks.is_pmc(g, s)}
    assert fast == naive


def test_is_pmc_on_whole_vertex_set():
    # with no components left, the test reduces to being a clique
    assert blocks.is_pmc(complete_graph(4), complete_graph(4).full_mask)
    assert not blocks.is_pmc(cycle_graph(4), cycle_graph(4).full_mask)
