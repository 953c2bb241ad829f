from collections import Counter

import pytest
from hypothesis import example, given, strategies as st

from twsolve import oracle, safesep
from twsolve.families import cycle_graph, mycielski_graph, queen_graph, random_connected_graph
from twsolve.graph import AuditError, Graph, bits, is_clique_in
from twsolve.safesep import ABORTED, DONT_KNOW, YES

from conftest import (
    connected_graphs,
    decompose_with_splits,
    disjoint_union,
    has_edge,
    mask,
    min_vertex,
    octahedron_chain,
    split_parts,
    triangle_chain,
)
from reference import candidate_separators, complete_graph, heuristic_minor_safe, path_graph


def two_triangles() -> Graph:
    return Graph(5, [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)])


def test_candidates_path_includes_middle():
    assert mask(1) in [s for s, _ in candidate_separators(path_graph(3))]


def test_candidates_complete_graph_empty():
    assert candidate_separators(complete_graph(4)) == []


def test_candidates_cut_vertex():
    sides = [(mask(0, 1), mask(2)), (mask(3, 4), mask(2))]
    assert (mask(2), sides) in candidate_separators(two_triangles())


def test_is_almost_clique():
    g = two_triangles()
    assert safesep.is_almost_clique(g.adj, mask(0, 1, 2)) is not None
    c4 = cycle_graph(4)
    assert safesep.is_almost_clique(c4.adj, mask(0, 2)) is not None
    indep = Graph(6, [(0, 3), (1, 4), (2, 5)])
    assert safesep.is_almost_clique(indep.adj, mask(0, 1, 2)) is None


def test_clique_separator_yes_with_empty_evidence():
    g = two_triangles()
    report = heuristic_minor_safe(g, mask(2))
    assert report.verdict == safesep.YES
    assert report.evidence == [[0], [0]]
    assert report.steps_used == 0


def test_almost_clique_separator_yes_and_verifiable():
    c4 = cycle_graph(4)
    report = heuristic_minor_safe(c4, mask(0, 2))
    assert report.verdict == safesep.YES
    safesep.audit_evidence(c4, mask(0, 2), c4.components(mask(0, 2)), report.evidence)


def test_dont_know_when_no_minor_exists():
    # {0,3} separates the path component {1,2} from the pendants {4} and {5};
    # removing {1,2} leaves 0 and 3 in different components, so no clique
    # minor of {0,3} exists on that side
    g = Graph(6, [(0, 1), (1, 2), (2, 3), (0, 4), (3, 5)])
    s = mask(0, 3)
    assert len(g.components(s)) >= 2
    report = heuristic_minor_safe(g, s)
    assert report.verdict == safesep.DONT_KNOW


def test_aborts_on_tiny_budget(monkeypatch):
    monkeypatch.setattr(safesep, "STEP_BUDGET", 1)
    g = random_connected_graph(12, 18, 31)
    for s, _ in candidate_separators(g):
        if is_clique_in(g.adj, s) or safesep.is_almost_clique(g.adj, s) is not None:
            continue
        report = heuristic_minor_safe(g, s)
        assert report.verdict in (safesep.ABORTED, safesep.DONT_KNOW)
        break


def test_steps_used_sums_component_searches(monkeypatch):
    monkeypatch.setattr(safesep, "STEP_BUDGET", 10000)
    g = random_connected_graph(30, 40, 2)
    s = mask(0, 5, 9)
    steps = [safesep._clique_minor_search(g, s, c)[2] for c in g.components(s)]
    assert steps == [22, 81, 109, 96, 116]
    assert heuristic_minor_safe(g, s).steps_used == sum(steps) == 424


def test_verify_rejects_bad_evidence():
    g = two_triangles()
    s = mask(0, 3)  # not adjacent in this graph
    comps = [mask(1)]
    # contracting 2 onto 0 joins 0 to 3
    safesep.audit_evidence(g, s, comps, [[mask(2), 0]])
    for extra, message in [
        ([mask(4), 0], "not connected"),  # 0 and 4 are not adjacent
        ([mask(2), mask(2)], "overlaps another"),
        ([mask(1), 0], "leaves the allowed vertices"),  # 1 is in the component
        ([0, 0], "not adjacent"),  # singleton sets, 0-3 not adjacent
    ]:
        with pytest.raises(AuditError, match=message):
            safesep.audit_evidence(g, s, comps, [extra])


def test_verify_accepts_clique_evidence():
    g = two_triangles()
    safesep.audit_evidence(g, mask(2), [mask(0, 1), mask(3, 4)], [[0], [0]])


def _sets_with_a_foreign_vertex(g, s, c, extra):
    # a vertex of the excluded component joins the first set
    return [extra[0] | (c & -c)] + extra[1:]


def _overlapping_sets(g, s, c, extra):
    # the second set takes the first separator vertex, whose set holds it
    return [extra[0], extra[1] | (s & -s)] + extra[2:] if len(extra) > 1 else None


def _disconnected_set(g, s, c, extra):
    # a vertex that no set holds and the first set does not see joins it
    free = g.full_mask & ~(sum(extra) | s | c) & ~g.open_neighborhood(extra[0] | (s & -s))
    return [extra[0] | (free & -free)] + extra[1:] if free else None


def _missing_adjacency(g, s, c, extra):
    # nothing contracted: a pair of s that g misses stays apart
    return [0] * len(extra) if not is_clique_in(g.adj, s) else None


@given(connected_graphs(min_n=6, max_n=20))
def test_every_yes_passes_its_audit_and_corruptions_fail_it(g):
    for s, comps_nbs in candidate_separators(g):
        report = safesep.heuristic_minor_safe(g, s, comps_nbs)
        if report.verdict != YES:
            continue
        comps = [c for c, _ in comps_nbs]
        safesep.audit_evidence(g, s, comps, report.evidence)
        for i, (c, extra) in enumerate(zip(comps, report.evidence)):
            for corrupt, message in [
                (_sets_with_a_foreign_vertex, "leaves the allowed vertices"),
                (_overlapping_sets, "overlaps another"),
                (_disconnected_set, "not connected"),
                (_missing_adjacency, "not adjacent"),
            ]:
                bad = corrupt(g, s, c, list(extra))
                if bad is None:
                    continue
                evidence = list(report.evidence)
                evidence[i] = bad
                with pytest.raises(AuditError, match=message):
                    safesep.audit_evidence(g, s, comps, evidence)


def test_decompose_cut_vertex():
    g = two_triangles()
    d, splits = decompose_with_splits(g)
    assert [s for _, s, _ in splits] == [mask(2)]
    parts = sorted(
        (sorted(labels) for _, labels in split_parts(d)), key=lambda x: x[0]
    )
    assert parts == [[0, 1, 2], [2, 3, 4]]


def test_decompose_complete_graph_unchanged():
    g = complete_graph(4)
    d, splits = decompose_with_splits(g)
    assert splits == []
    assert len(split_parts(d)) == 1
    assert split_parts(d)[0][0].n == 4


def test_decompose_soundness_against_oracle():
    applied = 0
    for seed in range(60):
        n = 6 + seed % 8
        g = random_connected_graph(n, int(1.25 * n), 8800 + seed)
        d, splits = decompose_with_splits(g)
        if not splits:
            continue
        applied += 1
        whole = oracle.bf_treewidth(g)
        by_parts = max(oracle.bf_treewidth(pg) for pg, _ in split_parts(d))
        assert whole == by_parts, f"seed {seed}"
        for gg, sep, report in splits:
            safesep.audit_evidence(gg, sep, gg.components(sep), report.evidence)
    assert applied >= 20


def test_decompose_computes_components_once_per_candidate(monkeypatch):
    calls = Counter()
    components = Graph.components_with_neighborhoods
    audit = safesep.audit_evidence
    auditing = False

    def counted(graph, s):
        if not auditing:  # the audit's connectivity tests are no candidate's pass
            calls[id(graph), s] += 1
        return components(graph, s)

    def audited(*args):
        nonlocal auditing
        auditing = True
        try:
            audit(*args)
        finally:
            auditing = False

    monkeypatch.setattr(Graph, "components_with_neighborhoods", counted)
    monkeypatch.setattr(safesep, "audit_evidence", audited)
    d, splits = decompose_with_splits(random_connected_graph(40, 50, 3))
    # minimality, scoring, the check and the split share one component pass
    assert splits and d.tally["checks"] > d.tally["yes"]
    assert set(calls.values()) == {1}


def test_decompose_strictly_shrinks():
    for seed in range(20):
        g = random_connected_graph(11, 14, 12345 + seed)
        d, splits = decompose_with_splits(g)
        for pg, _ in split_parts(d):
            assert pg.n <= g.n
        if splits:
            assert max(pg.n for pg, _ in split_parts(d)) < g.n


def test_reduction_removes_triangle_chain_and_cycle():
    for g in (triangle_chain(6), cycle_graph(7)):
        reduced, kept, low, removed = safesep.simplicial_reduction(g)
        assert (reduced.n, kept, low) == (0, [], 2)
        assert sorted(v for v, _ in removed) == list(range(g.n))


def test_reduction_keeps_almost_simplicial_vertex_above_low():
    # vertex 12 sees the edge {0, 1} of one octahedron and vertex 6 of
    # another: almost simplicial of degree 3, while low stays 2
    edges = disjoint_union(octahedron_chain(1), octahedron_chain(1)).edge_list()
    edges += [(12, 0), (12, 1), (12, 6)]
    g = Graph(13, edges)
    reduced, kept, low, removed = safesep.simplicial_reduction(g)
    assert (removed, low, kept) == ([], 2, list(range(13)))
    assert reduced is g
    # a K4 hanging from vertex 9 has simplicial vertices of degree 3, so low
    # rises to 3 and vertex 12 goes too
    k4 = [(9, 13), (9, 14), (9, 15), (13, 14), (13, 15), (14, 15)]
    reduced, kept, low, removed = safesep.simplicial_reduction(Graph(16, edges + k4))
    assert low == 3
    assert {13, 14, 15, 12} <= {v for v, _ in removed}
    assert 12 not in kept


@st.composite
def small_unions(draw, max_n: int = 12) -> Graph:
    """Disjoint unions of one to three graphs, ``max_n`` vertices in all at
    most: connected graphs, single vertices and edgeless graphs."""
    parts: list[Graph] = []
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        room = max_n - sum(h.n for h in parts)
        if room >= 2 and draw(st.booleans()):
            parts.append(draw(connected_graphs(max_n=min(room, 10))))
        elif room:
            parts.append(Graph(draw(st.integers(min_value=1, max_value=min(room, 3)))))
    return disjoint_union(*parts)


def test_reduction_bound_on_edgeless_and_forest():
    for g, low in [(Graph(1), 0), (Graph(3), 0), (disjoint_union(path_graph(3), Graph(2)), 1),
                   (disjoint_union(cycle_graph(4), Graph(2)), 2)]:
        reduced, _, bound, removed = safesep.simplicial_reduction(g)
        assert (reduced.n, bound, len(removed)) == (0, low, g.n)


@given(small_unions())
def test_reduction_preserves_treewidth(g):
    reduced, kept, low, removed = safesep.simplicial_reduction(g)
    tw = oracle.bf_treewidth(g)
    assert low <= tw
    assert max(low, oracle.bf_treewidth(reduced) if reduced.n else 0) == tw
    assert sorted(kept + [v for v, _ in removed]) == list(range(g.n))
    index = {v: i for i, v in enumerate(kept)}
    for u, v in g.edge_list():
        if u in index and v in index:
            assert has_edge(reduced, index[u], index[v])


def test_general_two_phase_path():
    # independent 3-vertex separator between two cliques: neither a clique
    # nor an almost-clique, so only the contraction heuristic can accept it
    edges = []
    blobs = ([3, 4, 5, 6], [7, 8, 9, 10])
    for blob in blobs:
        edges += [(a, b) for i, a in enumerate(blob) for b in blob[i + 1:]]
        edges += [(s, b) for s in (0, 1, 2) for b in blob]
    g = Graph(11, edges)
    s = mask(0, 1, 2)
    assert not is_clique_in(g.adj, s)
    assert safesep.is_almost_clique(g.adj, s) is None
    report = heuristic_minor_safe(g, s)
    assert report.verdict == safesep.YES
    for ev in report.evidence:
        assert any(ev), "the general path must record contractions"
    safesep.audit_evidence(g, s, g.components(s), report.evidence)


def reference_greedy_elimination(g: Graph, mode: str) -> tuple[list[int], list[int]]:
    """Reference min-fill/min-degree elimination: rescans every alive vertex
    for each step."""
    adj = list(g.adj)
    alive = g.full_mask
    order = []
    out = []
    for _ in range(g.n):
        best = None
        best_key = None
        rem = alive
        while rem:
            vb = rem & -rem
            rem ^= vb
            v = vb.bit_length() - 1
            nb = adj[v] & alive
            if mode == "min_degree":
                key = nb.bit_count()
            else:
                fill = 0
                m = nb
                while m:
                    ub = m & -m
                    m ^= ub
                    fill += (m & ~adj[ub.bit_length() - 1]).bit_count()
                key = fill
            if best_key is None or key < best_key:
                best_key = key
                best = v
        nb = adj[best] & alive
        order.append(best)
        out.append(nb)
        m = nb
        while m:
            ub = m & -m
            m ^= ub
            adj[ub.bit_length() - 1] |= nb & ~ub
        alive &= ~(1 << best)
    return order, out


def reference_clique_minor_search(
    g: Graph, s: int, component: int, step_budget: int
) -> tuple[str, dict[int, int], int]:
    """Reference two-phase search: scans every pair of alive clusters on every
    merge and recounts the coverage of every missing pair."""
    adj = g.adj
    allowed = g.full_mask & ~component
    r = allowed & ~s
    steps = 0

    missing = []
    for u in bits(s):
        rem = s & ~((1 << (u + 1)) - 1)
        for v in bits(rem):
            if not adj[u] >> v & 1:
                missing.append((u, v))
    if not missing:
        return YES, {}, steps

    # clusters over r: member mask -> set of adjacent separator vertices
    members: list[int] = [1 << v for v in bits(r)]
    sadj: list[int] = [adj[v] & s for v in bits(r)]
    radj: list[int] = [adj[v] & r & ~(1 << v) for v in bits(r)]
    alive = list(range(len(members)))

    def pair_count(u: int, v: int) -> int:
        uv = 1 << u | 1 << v
        return sum(1 for i in alive if sadj[i] & uv == uv)

    # phase one: grow clusters that cover missing pairs
    while len(alive) > 1 and steps < step_budget:
        if all(sadj[i].bit_count() >= 2 for i in alive):
            break
        counts = {p: pair_count(*p) for p in missing}
        cur_min = min(counts.values())
        best = None
        best_key = None
        for ai in range(len(alive)):
            i = alive[ai]
            for aj in range(ai + 1, len(alive)):
                j = alive[aj]
                if not (radj[i] & members[j]):
                    continue
                steps += 1
                if steps >= step_budget:
                    return ABORTED, {}, steps
                merged = sadj[i] | sadj[j]
                improves = False
                new_min = None
                for (u, v), cnt in counts.items():
                    uv = 1 << u | 1 << v
                    delta = (
                        (1 if merged & uv == uv else 0)
                        - (1 if sadj[i] & uv == uv else 0)
                        - (1 if sadj[j] & uv == uv else 0)
                    )
                    if delta > 0:
                        improves = True
                    val = cnt + delta
                    if new_min is None or val < new_min:
                        new_min = val
                if not improves:
                    continue
                key = (new_min, -min_vertex(members[i]), -min_vertex(members[j]))
                if best_key is None or key > best_key:
                    best_key = key
                    best = (i, j)
        if best is None:
            break
        i, j = best
        members[i] |= members[j]
        sadj[i] |= sadj[j]
        radj[i] = (radj[i] | radj[j]) & ~members[i]
        alive.remove(j)
        steps += 1

    # phase two: spend one cluster per missing edge
    sadj_now = {u: adj[u] & s for u in bits(s)}
    bags: dict[int, int] = {}
    unused = set(alive)
    while True:
        missing = [
            (u, v)
            for u in bits(s)
            for v in bits(s & ~((1 << (u + 1)) - 1))
            if not sadj_now[u] >> v & 1
        ]
        if not missing:
            return YES, dict(bags), steps
        if steps >= step_budget:
            return ABORTED, {}, steps
        cands = {
            p: [i for i in unused if sadj[i] & (1 << p[0] | 1 << p[1]) == (1 << p[0] | 1 << p[1])]
            for p in missing
        }
        (u, v) = min(missing, key=lambda p: (len(cands[p]), p))
        if not cands[(u, v)]:
            return DONT_KNOW, {}, steps
        best = None
        best_key = None
        for w in cands[(u, v)]:
            for side, mate in ((u, v), (v, u)):
                steps += 1
                if steps >= step_budget:
                    return ABORTED, {}, steps
                rest_min = None
                for (x, y) in missing:
                    if (x, y) == (u, v):
                        continue
                    if x == side and sadj[w] >> y & 1:
                        continue
                    if y == side and sadj[w] >> x & 1:
                        continue
                    cnt = sum(1 for i in cands[(x, y)] if i != w)
                    if rest_min is None or cnt < rest_min:
                        rest_min = cnt
                key = (
                    rest_min if rest_min is not None else g.n + 1,
                    -min_vertex(members[w]),
                    -side,
                )
                if best_key is None or key > best_key:
                    best_key = key
                    best = (w, side)
        w, side = best
        bags[side] = bags.get(side, 0) | members[w]
        unused.discard(w)
        gained = sadj[w] & ~(1 << side)
        sadj_now[side] |= gained
        for x in bits(gained):
            sadj_now[x] |= 1 << side
        steps += 1


# The drawn graphs rarely give separators with dozens of missing pairs, where
# phase two's bookkeeping matters: myciel5 (139 searches) and queen6_6 (28)
# do, and the random graph's searches include yes answers whose clusters
# phase one merged from several vertices.
@given(connected_graphs(max_n=30))
@example(mycielski_graph(5))
@example(queen_graph(6, 6))
@example(random_connected_graph(50, 80, 0))
def test_clique_minor_search_matches_reference(g):
    for s, comps_nbs in candidate_separators(g):
        assert comps_nbs == g.components_with_neighborhoods(s)
        for comp, _ in comps_nbs:
            for budget in (1, 3, 10, 10000):
                with pytest.MonkeyPatch.context() as mp:
                    mp.setattr(safesep, "STEP_BUDGET", budget)
                    assert safesep._clique_minor_search(
                        g, s, comp
                    ) == reference_clique_minor_search(g, s, comp, budget)


@given(connected_graphs(max_n=30))
def test_greedy_elimination_matches_reference(g):
    for mode in ("min_fill", "min_degree"):
        assert safesep.greedy_elimination(g, mode) == reference_greedy_elimination(g, mode)
