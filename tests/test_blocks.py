import random
from collections import Counter

from hypothesis import given, strategies as st

from twsolve import blocks
from twsolve.families import cycle_graph, random_connected_graph
from twsolve.graph import Graph, bit_list
from twsolve.oracle import enumerate_pmcs

from conftest import connected_graphs, has_edge, mask, min_vertex, outlets_nest, vertex_subsets
from reference import (
    complete_graph,
    crib,
    enumerate_pmcs_naive,
    first_full_component,
    is_cliquish,
    is_minimal_separator,
    is_outbound,
    outlet_and_support,
    path_graph,
    star_graph,
    unconf,
)


def full_components(g, s):
    """Components associated with ``s`` whose neighborhood equals ``s``."""
    return [c for c, nb in g.components_with_neighborhoods(s) if nb == s]


def test_full_components():
    c4 = cycle_graph(4)
    assert full_components(c4, mask(0, 2)) == [mask(1), mask(3)]
    assert first_full_component(c4, mask(0, 2)) == mask(1)
    p3 = path_graph(3)
    assert full_components(p3, mask(1)) == [mask(0), mask(2)]
    assert first_full_component(p3, mask(1)) == mask(0)
    # {1,2} is the single component and its neighborhood is exactly {0}
    assert full_components(p3, mask(0)) == [mask(1, 2)]
    assert first_full_component(p3, mask(0)) == mask(1, 2)
    assert first_full_component(p3, mask(0, 1)) == 0


def test_is_minimal_separator():
    c4 = cycle_graph(4)
    assert is_minimal_separator(c4, mask(0, 2))
    p3 = path_graph(3)
    assert not is_minimal_separator(p3, mask(0))
    k4 = complete_graph(4)
    for s in range(1, k4.full_mask):
        assert not is_minimal_separator(k4, s)


def test_is_cliquish():
    c4 = cycle_graph(4)
    assert is_cliquish(c4, mask(0, 2))
    p3 = path_graph(3)
    assert not is_cliquish(p3, mask(0, 1, 2))
    p5 = path_graph(5)
    assert is_cliquish(p5, mask(1, 3))


def cliquish_by_pairs(g, k_set):
    """The definition: every non-adjacent pair of ``k_set`` lies in the
    neighborhood of one component of the graph minus ``k_set``."""
    nbs = [nb for _, nb in g.components_with_neighborhoods(k_set)]
    members = bit_list(k_set)
    return all(
        has_edge(g, u, v) or any(nb >> u & 1 and nb >> v & 1 for nb in nbs)
        for i, u in enumerate(members) for v in members[i + 1:]
    )


def check_cliquish(g, k_set) -> tuple[str, bool]:
    """Compare ``is_cliquish`` with the definition; return the input's class,
    "many" components c when 2^c >= |K| and "few" otherwise, and the answer."""
    got = is_cliquish(g, k_set)
    assert got == cliquish_by_pairs(g, k_set)
    comps = len(g.components(k_set))
    return ("many" if 1 << comps >= k_set.bit_count() else "few"), got


@given(connected_graphs(max_n=12), st.data())
def test_is_cliquish_matches_pairwise_definition(g, data):
    check_cliquish(g, data.draw(vertex_subsets(g, min_size=1)))


def test_is_cliquish_differential_covers_both_input_classes():
    # seeded draws like those of the test above: both classes, both answers
    seen = Counter()
    rng = random.Random(3)
    for seed in range(150):
        n = rng.randint(2, 12)
        g = random_connected_graph(n, n - 1 + rng.randint(0, 2 * n), seed)
        for _ in range(10):
            seen[check_cliquish(g, rng.randint(1, g.full_mask))] += 1
    for kind in ("few", "many"):
        assert seen[kind, True] >= 50 and seen[kind, False] >= 50


def test_is_cliquish_fixed_cases():
    # K = all vertices leaves no component: cliquish iff a clique
    assert check_cliquish(complete_graph(5), complete_graph(5).full_mask) == ("few", True)
    assert check_cliquish(cycle_graph(5), cycle_graph(5).full_mask) == ("few", False)
    # a single vertex is always cliquish
    for v in range(5):
        assert check_cliquish(cycle_graph(5), mask(v)) == ("many", True)


def test_is_pmc():
    p3 = path_graph(3)
    assert blocks.is_pmc(p3, mask(0, 1))
    c4 = cycle_graph(4)
    assert blocks.is_pmc(c4, mask(0, 1, 2))
    assert not blocks.is_pmc(c4, mask(0, 2))


def check_clips(g, s) -> list[str]:
    """Check the lemma behind the solver's clip pre-check for each full
    component A of ``s`` and each v in it: the clip K = S | (N(v) & A) has
    no full component, and a K that ``blocks.clip_may_be_cliquish`` rejects
    is not cliquish, nor ever one of an A beside which ``s`` has another
    full component, as the solver assumes.  Return each clip's outcome:
    "rejected", "pmc" (kept, and a PMC) or "kept" (kept, and not cliquish)."""
    outcomes = []
    fulls = full_components(g, s)
    for a in fulls:
        outside = g.components_with_neighborhoods(a | s)
        for v in bit_list(s):
            k_set = s | g.adj[v] & a
            assert first_full_component(g, k_set) == 0
            if not blocks.clip_may_be_cliquish(g, s, v, outside):
                assert not cliquish_by_pairs(g, k_set), (s, a, v)
                assert len(fulls) == 1
                outcomes.append("rejected")
            else:
                outcomes.append("pmc" if cliquish_by_pairs(g, k_set) else "kept")
    return outcomes


def separators_of_components(g, w):
    """The neighborhoods of the components of the subgraph induced by ``w``,
    each with that component among its full components."""
    return [s for c in g.components(g.full_mask & ~w) if (s := g.open_neighborhood(c))]


@given(connected_graphs(max_n=12), st.data())
def test_clip_pre_check_rejects_only_sets_that_are_not_cliquish(g, data):
    for s in separators_of_components(g, data.draw(vertex_subsets(g, min_size=1))):
        check_clips(g, s)


def test_clip_pre_check_reaches_every_outcome():
    # seeded draws like those of the test above: rejected clips, and kept
    # clips both PMCs and not
    seen = Counter()
    rng = random.Random(5)
    for seed in range(150):
        n = rng.randint(2, 12)
        g = random_connected_graph(n, n - 1 + rng.randint(0, 2 * n), seed)
        for _ in range(5):
            for s in separators_of_components(g, rng.randint(1, g.full_mask)):
                seen.update(check_clips(g, s))
    assert min(seen["rejected"], seen["pmc"], seen["kept"]) >= 50, seen


def test_clip_pre_check_fixed_cases():
    p5 = path_graph(5)
    # S = {1, 3}, A = {2}: the clip at 1 is {1, 2, 3}, and no outside
    # component is adjacent to both 1 and 3
    outside = p5.components_with_neighborhoods(mask(1, 2, 3))
    assert not blocks.clip_may_be_cliquish(p5, mask(1, 3), 1, outside)
    assert check_clips(p5, mask(1, 3)) == ["rejected", "rejected"]
    # S = {0}, A = {1, 2}: the clip {0, 1} is a PMC with no component
    # adjacent to 0, so N[v], not N(v), is what the pre-check leaves out
    p3 = path_graph(3)
    assert check_clips(p3, mask(0)) == ["pmc"]
    # S = {0, 2} in the 5-cycle: the outside component {1} or {3, 4} links 0 and 2
    assert check_clips(cycle_graph(5), mask(0, 2)) == ["pmc"] * 4


def test_unconf():
    c4 = cycle_graph(4)
    assert unconf(c4, mask(0), mask(0, 2)) == [mask(1), mask(3)]
    p5 = path_graph(5)
    assert unconf(p5, mask(1), mask(1, 3)) == [mask(2), mask(4)]
    k3 = complete_graph(3)
    assert unconf(k3, mask(0), mask(0, 1, 2)) == []
    # the support is the list of components unconfined to the outlet
    out, sup = outlet_and_support(p5, mask(1, 3))
    assert list(sup) == unconf(p5, out, mask(1, 3))


def test_crib():
    c4 = cycle_graph(4)
    assert crib(c4, mask(0), mask(0, 2)) == mask(1, 2, 3)
    p5 = path_graph(5)
    assert crib(p5, mask(1), mask(1, 3)) == mask(2, 3, 4)
    k3 = complete_graph(3)
    assert crib(k3, mask(0, 1), mask(0, 1, 2)) == mask(2)
    # what a feasible PMC emits: its set minus the outlet, plus the support
    out, sup = outlet_and_support(p5, mask(1, 3))
    assert mask(1, 3) & ~out | sup[0] | sup[1] == crib(p5, out, mask(1, 3))


def test_is_outbound():
    c4 = cycle_graph(4)
    assert is_outbound(c4, mask(1))
    assert not is_outbound(c4, mask(3))
    # neighborhood of {1,2} in the path is not a minimal separator
    p3 = path_graph(3)
    assert is_outbound(p3, mask(1, 2))


def test_outlet():
    p5 = path_graph(5)
    assert outlet_and_support(p5, mask(1, 3))[0] == mask(1)
    star = star_graph(3)
    assert outlet_and_support(star, star.full_mask)[0] == 0
    c4 = cycle_graph(4)
    assert outlet_and_support(c4, mask(0, 1, 2))[0] == 0


def test_support():
    p5 = path_graph(5)
    assert outlet_and_support(p5, mask(1, 3))[1] == (mask(2), mask(4))
    c4 = cycle_graph(4)
    assert outlet_and_support(c4, mask(0, 1, 2))[1] == (mask(3),)
    k3 = complete_graph(3)
    assert outlet_and_support(k3, mask(0, 1, 2))[1] == ()


def oriented(g, k_set):
    """``blocks.outlet_and_support`` given the components of ``k_set``."""
    return blocks.outlet_and_support(k_set, g.components_with_neighborhoods(k_set))


def test_outlet_and_support_fixed_cases():
    p3 = path_graph(3)
    # {2} follows vertex 0 of K - N({2}), so the full component {0} of
    # N({2}) = {1} precedes it
    assert oriented(p3, mask(0, 1)) == outlet_and_support(p3, mask(0, 1)) == (0, (mask(2),))
    assert oriented(p3, mask(1, 2)) == outlet_and_support(p3, mask(1, 2)) == (mask(1), ())
    # K = {2, 3, 4, 5}: {1} precedes K - N({1}) = {2}, but {0} comes first,
    # and its neighborhood {2, 3} leaves N({1}), so {0} joins the full
    # component holding 2; {0} is outbound and its neighborhood the outlet
    g = Graph(6, [(0, 2), (0, 3), (1, 3), (1, 4), (1, 5), (2, 4), (2, 5)])
    k_set = mask(2, 3, 4, 5)
    assert blocks.is_pmc(g, k_set)
    assert oriented(g, k_set) == outlet_and_support(g, k_set) == (mask(2, 3), (mask(1),))
    # {3} follows vertex 1 of K - N({3})
    c4 = cycle_graph(4)
    assert oriented(c4, mask(0, 1, 2)) == outlet_and_support(c4, mask(0, 1, 2)) == (0, (mask(3),))
    k3 = complete_graph(3)
    assert oriented(k3, k3.full_mask) == (0, ())


@given(connected_graphs(max_n=12))
def test_outlet_and_support_matches_definition(g):
    for k_set in enumerate_pmcs(g):
        assert oriented(g, k_set) == outlet_and_support(g, k_set), k_set


@given(connected_graphs(max_n=8), st.data())
def test_minimal_separator_has_one_outbound_full_component(g, data):
    s = data.draw(st.integers(min_value=1, max_value=g.full_mask - 1))
    fulls = full_components(g, s)
    if len(fulls) < 2:
        return
    flags = [is_outbound(g, c) for c in fulls]
    assert sum(flags) == 1
    # the outbound one contains the smallest vertex over all full components
    outbound = fulls[flags.index(True)]
    assert min_vertex(outbound) == min(min_vertex(c) for c in fulls)


@given(connected_graphs(max_n=8), st.data())
def test_crib_is_full_component(g, data):
    k_set = data.draw(st.integers(min_value=1, max_value=g.full_mask))
    if not is_cliquish(g, k_set):
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
        out, sup = outlet_and_support(g, k_set)
        assert outlets_nest(g, k_set)
        if not out:
            assert sup == tuple(g.components(k_set))
            continue
        emitted = k_set & ~out
        for comp in sup:
            emitted |= comp
        assert emitted == crib(g, out, k_set)
        assert g.open_neighborhood(emitted) == out
        assert not is_outbound(g, emitted)


@given(connected_graphs(max_n=8))
def test_outbound_neighborhoods_nest(g):
    for k_set in range(1, g.full_mask + 1):
        if is_cliquish(g, k_set):
            assert outlets_nest(g, k_set), k_set


@given(connected_graphs(max_n=7))
def test_is_pmc_matches_naive_enumeration(g):
    naive = {
        sum(1 << v for v in fs) for fs in enumerate_pmcs_naive(g.n, g.edge_list())
    }
    fast = {s for s in range(1, g.full_mask + 1) if blocks.is_pmc(g, s)}
    assert fast == naive


def test_is_pmc_on_whole_vertex_set():
    # with no components left, the test reduces to being a clique
    assert blocks.is_pmc(complete_graph(4), complete_graph(4).full_mask)
    assert not blocks.is_pmc(cycle_graph(4), cycle_graph(4).full_mask)
