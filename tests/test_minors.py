import pytest
from hypothesis import given

from twsolve import minors, oracle
from twsolve.families import mycielski_graph
from twsolve.graph import AuditError, Graph, bits
from twsolve.minors import audit, contraction_chain

from conftest import connected_graphs
from reference import treewidth


def _contracts_one_edge(big: Graph, big_branch: list[int], small: Graph,
                        small_branch: list[int]) -> bool:
    """True iff ``small`` is ``big`` with one edge contracted: two adjacent
    branch sets merge, the others keep their order, and two vertices of
    ``small`` are adjacent exactly when their groups in ``big`` are."""
    groups = [[j for j, b in enumerate(big_branch) if b & s] for s in small_branch]
    if sorted(j for grp in groups for j in grp) != list(range(big.n)):
        return False
    if any(sum(big_branch[j] for j in grp) != s for grp, s in zip(groups, small_branch)):
        return False
    pairs = [grp for grp in groups if len(grp) == 2]
    if small.n != big.n - 1 or len(pairs) != 1 or not big.adj[pairs[0][0]] >> pairs[0][1] & 1:
        return False
    singles = [grp[0] for grp in groups if len(grp) == 1]
    if singles != sorted(singles):
        return False
    for i, grp in enumerate(groups):
        reach = 0
        for x in grp:
            reach |= big.adj[x]
        joined = {j for j, other in enumerate(groups)
                  if j != i and any(reach >> y & 1 for y in other)}
        if set(bits(small.adj[i])) != joined:
            return False
    return True


@given(connected_graphs(max_n=10))
def test_chain_contracts_one_edge_per_step(g):
    chain = contraction_chain(g, 2, g.n - 1)
    assert [h.n for h, _ in chain] == list(range(g.n - 1, 1, -1))
    previous = (g, [1 << v for v in range(g.n)])
    for h, branch in chain:
        audit(g, h, branch)
        assert sum(branch) == g.full_mask  # contractions delete nothing
        assert _contracts_one_edge(*previous, h, branch)
        assert oracle.bf_treewidth(h) <= oracle.bf_treewidth(previous[0])
        previous = (h, branch)


def test_chain_contracts_a_minimum_degree_vertex_into_its_least_common_neighbour():
    g = mycielski_graph(4)
    h, branch = contraction_chain(g, g.n - 1, g.n - 1)[0]
    v = min(range(g.n), key=lambda x: g.adj[x].bit_count())
    u = min(bits(g.adj[v]), key=lambda w: (g.adj[w] & g.adj[v]).bit_count())
    assert (1 << u | 1 << v) in branch
    assert [h.n for h, _ in contraction_chain(g, 5, 9)] == [9, 8, 7, 6, 5]
    assert contraction_chain(g, 12, 11) == []


def _overlapping_sets(g, h, branch):
    branch[1] |= branch[0] & -branch[0]
    return h, branch


def _disconnected_set(g, h, branch):
    # move a vertex into a set it has no neighbour in
    for i in range(h.n):
        for x in bits(branch[i] if branch[i].bit_count() > 1 else 0):
            for j in range(h.n):
                if j != i and not g.adj[x] & branch[j]:
                    branch[i] &= ~(1 << x)
                    branch[j] |= 1 << x
                    return h, branch
    raise AssertionError("no vertex to move")


def _unrealized_edge(g, h, branch):
    # add an edge of h between two sets that are not adjacent in g
    for u in range(h.n):
        for v in range(u + 1, h.n):
            if not g.open_neighborhood(branch[u]) & branch[v]:
                adj = list(h.adj)
                adj[u] |= 1 << v
                adj[v] |= 1 << u
                return Graph.from_adjacency(adj), branch
    raise AssertionError("every pair of sets is adjacent")


@pytest.mark.parametrize("corrupt, message", [
    (_overlapping_sets, "overlaps"),
    (_disconnected_set, "not connected"),
    (_unrealized_edge, "not adjacent"),
], ids=["overlapping-sets", "disconnected-set", "unrealized-edge"])
def test_audit_catches_corrupt_minors(corrupt, message):
    g = mycielski_graph(4)
    for h, branch in contraction_chain(g, 12, 16):
        audit(g, h, branch)
        with pytest.raises(AuditError, match=message):
            audit(g, *corrupt(g, h, list(branch)))


def test_audit_rejects_a_wrong_number_of_sets():
    g = mycielski_graph(3)
    h, branch = contraction_chain(g, 6, 6)[0]
    with pytest.raises(AuditError):
        audit(g, h, branch[:-1])
    with pytest.raises(AuditError, match="empty"):
        audit(g, h, [0] + branch[1:])


def test_a_no_on_a_minor_counts_only_after_its_audit(monkeypatch):
    # rotated branch sets stay disjoint and connected but no longer realize
    # the minors' edges, so the first no on a minor must fail its audit
    chain = contraction_chain

    def rotated(g, smallest, largest):
        return [(h, branch[1:] + branch[:1]) for h, branch in chain(g, smallest, largest)]

    monkeypatch.setattr(minors, "contraction_chain", rotated)
    with pytest.raises(AuditError, match="not adjacent"):
        treewidth(mycielski_graph(4))
