import random

import pytest
from hypothesis import given, strategies as st

from twsolve.families import cycle_graph, random_connected_graph
from twsolve.graph import Graph, bits, is_clique_in
from twsolve.minors import contraction_chain
from twsolve.oracle import enumerate_pmcs
from twsolve.safesep import greedy_elimination
from twsolve.solver import decide
from twsolve.tdbuild import (
    TreeDecomposition,
    Violation,
    extract,
    from_cliques,
    lift,
    narrow,
    validate,
    width,
)

from conftest import connected_graphs, disjoint_union, mask, non_nested
from reference import complete_graph, star_graph, treewidth


def accepting_witness(g: Graph):
    """The treewidth of ``g`` with the witness of level tw run on ``g``."""
    tw = treewidth(g)[0]
    return tw, decide(g, tw).witness


def test_extract_triangle_single_bag():
    g = complete_graph(3)
    tw, wit = accepting_witness(g)
    td = extract(g, wit)
    assert tw == 2
    assert td.bags == [mask(0, 1, 2)]
    assert td.edges == []


def test_extract_cycle():
    g = cycle_graph(4)
    tw, wit = accepting_witness(g)
    td = extract(g, wit)
    assert td.width() == 2
    assert len(td.bags) == 2
    assert validate(g, td) == []


def test_extract_star():
    g = star_graph(3)
    tw, wit = accepting_witness(g)
    td = extract(g, wit)
    assert tw == 1
    assert sorted(b.bit_count() for b in td.bags) == [2, 2, 2]
    assert all(b & mask(0) for b in td.bags)
    assert validate(g, td) == []


def test_extraction_pipeline_property():
    for seed in range(100):
        n = 4 + seed % 9
        g = random_connected_graph(n, int(1.6 * n) + seed % 3, 5000 + seed)
        tw, wit = accepting_witness(g)
        td = extract(g, wit)
        assert validate(g, td) == []
        assert td.width() == tw


def test_validate_flags_missing_edge_bag():
    g = cycle_graph(4)
    td = TreeDecomposition(4, [mask(0, 1), mask(1, 2), mask(2, 3)], [(0, 1), (1, 2)])
    problems = validate(g, td)
    assert any(p.kind == "edge-uncovered" and "(0,3)" in p.detail for p in problems)


def test_validate_flags_disconnected_occurrence():
    g = Graph(3, [(0, 1), (1, 2)])
    td = TreeDecomposition(
        3, [mask(0, 1), mask(1, 2), mask(0)], [(0, 1), (1, 2)]
    )
    problems = validate(g, td)
    assert any(
        p.kind == "occurrence-disconnected" and "vertex 0" in p.detail
        for p in problems
    )


def test_validate_flags_uncovered_vertex_and_non_tree():
    g = Graph(3, [(0, 1), (1, 2)])
    td = TreeDecomposition(3, [mask(0, 1)], [])
    problems = validate(g, td)
    kinds = {p.kind for p in problems}
    assert "vertex-uncovered" in kinds
    td2 = TreeDecomposition(3, [mask(0, 1), mask(1, 2)], [])
    assert any(p.kind == "not-a-tree" for p in validate(g, td2))
    td3 = TreeDecomposition(
        3, [mask(0, 1), mask(1, 2), mask(1)], [(0, 1), (1, 2), (2, 0)]
    )
    assert any(p.kind == "not-a-tree" for p in validate(g, td3))


def test_validate_accepts_single_vertex():
    g = Graph(1)
    assert validate(g, TreeDecomposition(1, [mask(0)], [])) == []


def test_validate_flags_a_mismatched_vertex_count_first():
    g = Graph(2, [(0, 1)])
    problems = validate(g, TreeDecomposition(5, [mask(0, 1)], []))
    assert [(p.kind, p.detail) for p in problems] == [
        ("vertex-count-mismatch", "decomposition declares 5 vertices, graph has 2")]
    # the mismatch leads the list when the bags are wrong too
    problems = validate(g, TreeDecomposition(1, [mask(0)], []))
    assert [p.kind for p in problems] == [
        "vertex-count-mismatch", "vertex-uncovered", "edge-uncovered"]


def test_width_of_empty_decomposition():
    assert TreeDecomposition(0, [], []).width() == -1
    assert TreeDecomposition(0, [0], []).width() == -1
    assert width([]) == width([0]) == -1 and width([0, 0b101]) == 1


@given(connected_graphs(max_n=12), st.sampled_from(["min_fill", "min_degree"]))
def test_elimination_decomposition_validates(g, mode):
    order, nbs = greedy_elimination(g, mode)
    assert sorted(order) == list(range(g.n))
    td = from_cliques(g, [nb | 1 << v for v, nb in zip(order, nbs)])
    assert validate(g, td) == []
    assert td.width() == max(nb.bit_count() for nb in nbs)


def test_elimination_decomposition_of_disconnected_graph():
    g = Graph(5, [(0, 1), (1, 2), (3, 4)])
    order, nbs = greedy_elimination(g, "min_degree")
    td = from_cliques(g, [nb | 1 << v for v, nb in zip(order, nbs)])
    assert validate(g, td) == [] and td.width() == 1


def quadratic_occurrence_violations(g: Graph, td: TreeDecomposition) -> list[Violation]:
    """Reference occurrence check: for each vertex, count the tree edges
    inside the set of bags that contain it."""
    out = []
    for v in range(g.n):
        nodes = [i for i, b in enumerate(td.bags) if b >> v & 1]
        if not nodes:
            continue
        node_set = set(nodes)
        inner_edges = sum(1 for a, b in td.edges if a in node_set and b in node_set)
        if inner_edges != len(nodes) - 1:
            out.append(
                Violation(
                    "occurrence-disconnected",
                    f"bags containing vertex {v} do not induce a subtree",
                )
            )
    return out


@st.composite
def bag_trees(draw) -> tuple[Graph, TreeDecomposition]:
    """Random bags (some reaching past the graph) joined by a random tree,
    sometimes with an edge dropped, doubled or added."""
    n = draw(st.integers(min_value=1, max_value=8))
    nbags = draw(st.integers(min_value=1, max_value=8))
    bags = draw(st.lists(st.integers(0, (1 << (n + 1)) - 1), min_size=nbags, max_size=nbags))
    edges = [(draw(st.integers(0, i - 1)), i) for i in range(1, nbags)]
    tweak = draw(st.sampled_from(["none", "drop", "double", "add"]))
    if tweak == "drop" and edges:
        edges.pop(draw(st.integers(0, len(edges) - 1)))
    elif tweak == "double" and edges:
        edges.append(edges[draw(st.integers(0, len(edges) - 1))])
    elif tweak == "add":
        edges.append((draw(st.integers(0, nbags - 1)), draw(st.integers(0, nbags - 1))))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    graph_edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return Graph(n, graph_edges), TreeDecomposition(n, bags, edges)


@given(bag_trees())
def test_occurrence_check_matches_quadratic_reference(case):
    g, td = case
    linear = [p for p in validate(g, td) if p.kind == "occurrence-disconnected"]
    assert linear == quadratic_occurrence_violations(g, td)


def fill_neighborhoods(g: Graph, order: list[int]) -> list[int]:
    """Each vertex's neighborhood when it is eliminated in ``order``, fill
    edges included."""
    adj = list(g.adj)
    out = []
    for v in order:
        nb = adj[v]
        out.append(nb)
        for u in range(g.n):
            if nb >> u & 1:
                adj[u] = (adj[u] | nb) & ~(1 << u | 1 << v)
    return out


def elimination_bags(g: Graph, order: list[int]) -> list[int]:
    """Each vertex with its neighborhood when it is eliminated in ``order``,
    fill edges included."""
    return [nb | 1 << v for v, nb in zip(order, fill_neighborhoods(g, order))]


def witness_bags(witness) -> list[int]:
    """The bags ``extract`` unfolds from a witness."""
    bags, stack = [], [witness.root]
    while stack:
        pmc = stack.pop()
        bags.append(pmc)
        stack += [witness.iblock_source[c] for c in witness.records[pmc].support]
    return bags


def assert_contracted(g: Graph, td: TreeDecomposition, input_bags: list[int]) -> None:
    assert validate(g, td) == []
    for a, b in td.edges:
        assert td.bags[a] & ~td.bags[b] and td.bags[b] & ~td.bags[a]
    maximal = {b for b in input_bags if not any(b & ~c == 0 and b != c for c in input_bags)}
    assert sorted(td.bags) == sorted(maximal)


@given(st.data(), connected_graphs(max_n=14))
def test_contraction_leaves_the_distinct_maximal_bags(data, g):
    order = data.draw(st.permutations(range(g.n)))
    bags = elimination_bags(g, order)
    assert_contracted(g, from_cliques(g, bags), bags)
    _, witness = accepting_witness(g)
    assert_contracted(g, extract(g, witness), witness_bags(witness))


# -- no bag inside another --------------------------------------------------


@st.composite
def small_graphs(draw, max_n: int = 9) -> Graph:
    """Graphs on 1 to ``max_n`` vertices with random edges, so often
    disconnected."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    return Graph(n, draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else [])


@given(small_graphs())
def test_no_potential_maximal_clique_contains_another(g):
    assert non_nested(list(enumerate_pmcs(g)))


@given(connected_graphs(max_n=10), st.booleans())
def test_witness_bags_never_nest(g, exhaustive):
    # every level from tw up accepts; the unfolded witness needs no merging
    for k in range(treewidth(g)[0], g.n):
        res = decide(g, k, exhaustive=exhaustive)
        assert res.answer, k
        td = extract(g, res.witness)
        assert non_nested(td.bags) and len(td.edges) == len(td.bags) - 1, k
        assert validate(g, td) == [], k


# -- lifting a minor's decomposition and narrowing it -----------------------


def is_chordal(adj: list[int], alive: int) -> bool:
    """Whether the graph on ``alive`` is chordal: it is exactly when a
    simplicial vertex can be removed again and again until none is left."""
    while alive:
        for v in bits(alive):
            nb = adj[v] & alive
            if all(nb & ~adj[u] == 1 << u for u in bits(nb)):
                alive &= ~(1 << v)
                break
        else:
            return False
    return True


def assert_minimal_triangulation(g: Graph, td: TreeDecomposition) -> None:
    """``g`` with every bag of ``td`` made a clique is chordal, and removing
    any of its fill edges breaks that: it is a minimal triangulation."""
    adj = list(g.adj)
    for b in td.bags:
        for v in bits(b):
            adj[v] |= b & ~(1 << v)
    assert is_chordal(adj, g.full_mask)
    for u in range(g.n):
        for v in bits(adj[u] & ~g.adj[u] & -(2 << u)):
            without = list(adj)
            without[u] &= ~(1 << v)
            without[v] &= ~(1 << u)
            assert not is_chordal(without, g.full_mask), (u, v)


@given(st.data(), connected_graphs(max_n=12, min_n=4))
def test_lifted_minor_decomposition_validates(data, g):
    size = data.draw(st.integers(2, g.n - 1))
    h, branch = contraction_chain(g, size, size)[0]
    tw_h = treewidth(h)[0]
    minor = extract(h, decide(h, tw_h).witness)
    # the lifted bags on the minor's tree
    lifted = TreeDecomposition(g.n, lift(minor.bags, branch), minor.edges)
    assert validate(g, lifted) == []
    narrowed = narrow(g, lifted.bags)
    assert validate(g, narrowed) == []
    assert narrowed.width() <= lifted.width()
    assert_minimal_triangulation(g, narrowed)


@given(st.data(), connected_graphs(max_n=12))
def test_narrow_leaves_no_removable_fill_edge(data, g):
    order = data.draw(st.permutations(range(g.n)))
    td = from_cliques(g, elimination_bags(g, order))
    narrowed = narrow(g, td.bags)
    assert validate(g, narrowed) == []
    assert narrowed.width() <= td.width()
    assert_minimal_triangulation(g, narrowed)


# -- reading a decomposition off a chordal graph ----------------------------


@st.composite
def scattered_graphs(draw) -> Graph:
    """Disjoint unions of one to three connected graphs and up to three
    isolated vertices."""
    parts = draw(st.lists(connected_graphs(max_n=6), min_size=1, max_size=3))
    return disjoint_union(*parts, Graph(draw(st.integers(0, 3))))


@given(st.data(), st.one_of(connected_graphs(max_n=14), scattered_graphs()))
def test_from_cliques_gives_the_maximal_cliques_of_a_chordal_graph(data, g):
    # g filled in along a random order is chordal, and each vertex with its
    # later neighbours along that order lists every maximal clique
    order = data.draw(st.permutations(range(g.n)))
    nbs = fill_neighborhoods(g, order)
    bags = [nb | 1 << v for v, nb in zip(order, nbs)]
    filled = Graph(g.n, [(v, u) for v, nb in zip(order, nbs) for u in bits(nb)])
    assert_contracted(filled, from_cliques(filled, []), bags)
    # the same graph given as g with the bags to complete
    td = from_cliques(g, bags)
    assert_contracted(filled, td, bags)
    assert validate(g, td) == []


@pytest.mark.parametrize("g", [
    Graph(1),
    Graph(2),
    Graph(6),
    Graph(7, [(1, 2), (2, 3), (1, 3), (5, 6)]),  # 0 and 4 isolated
    disjoint_union(Graph(1), complete_graph(4), Graph(2), star_graph(3), Graph(1)),
])
def test_from_cliques_gives_one_tree_on_edgeless_and_disconnected_graphs(g):
    td = from_cliques(g, [])
    assert len(td.edges) == len(td.bags) - 1 and validate(g, td) == []
    assert non_nested(td.bags)


def test_from_cliques_of_a_graph_that_is_not_chordal_fails_validation():
    for n in (4, 5, 6):
        g = cycle_graph(n)
        assert validate(g, from_cliques(g, [])) != []


@given(st.one_of(connected_graphs(max_n=14), small_graphs(max_n=14)),
       st.sampled_from(["min_fill", "min_degree"]))
def test_elimination_bags_fill_in_the_graph_of_their_clique_tree(g, mode):
    # a part hands over its elimination's bags, not their clique tree: both
    # complete into the same graph, so the pipeline reads off the same tree
    order, nbs = greedy_elimination(g, mode)
    bags = [nb | 1 << v for v, nb in zip(order, nbs)]
    td = from_cliques(g, bags)
    again = from_cliques(g, td.bags)
    assert (again.bags, again.edges) == (td.bags, td.edges)
    assert validate(g, td) == [] and td.width() == width(bags)


def quadratic_narrow(g: Graph, td: TreeDecomposition) -> list[int]:
    """The bags of ``narrow`` as it was with a quadratic maximum cardinality
    search, kept as the reference for the bucketed one: each vertex with its
    later neighbours along the reverse of the order the search visits."""
    n = g.n
    adj = list(g.adj)
    for b in td.bags:
        for v in bits(b):
            adj[v] |= b & ~(1 << v)
    fill = [(u, v) for u in range(n) for v in bits(adj[u] & ~g.adj[u] & -(2 << u))]
    # removing uv changes only the common neighbourhoods of edges at u or v,
    # so a pass rechecks only the edges at a vertex the pass before changed
    changed = g.full_mask
    while changed:
        touched, changed, kept = changed, 0, []
        for u, v in fill:
            if (touched >> u | touched >> v) & 1 and is_clique_in(adj, adj[u] & adj[v]):
                adj[u] &= ~(1 << v)
                adj[v] &= ~(1 << u)
                changed |= 1 << u | 1 << v
            else:
                kept.append((u, v))
        fill = kept
    # maximum cardinality search visits a chordal graph in the reverse of a
    # perfect elimination order
    weight = [0] * n
    unvisited = g.full_mask
    order = []
    for _ in range(n):
        v = max(bits(unvisited), key=weight.__getitem__)
        order.append(v)
        unvisited &= ~(1 << v)
        for w in bits(adj[v] & unvisited):
            weight[w] += 1
    order.reverse()
    later = g.full_mask
    bags = []
    for v in order:
        later &= ~(1 << v)
        bags.append(adj[v] & later | 1 << v)
    return bags


def test_narrow_matches_the_quadratic_search():
    for seed in range(400):
        rng = random.Random(seed)
        n = rng.randint(1, 20)
        g = random_connected_graph(n, n - 1 + rng.randint(0, 2 * n), seed)
        order = rng.sample(range(n), n)
        td = from_cliques(g, elimination_bags(g, order))
        assert_contracted(g, narrow(g, td.bags), quadratic_narrow(g, td))
