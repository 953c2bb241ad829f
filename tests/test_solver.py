import heapq
import logging
import time
import weakref
from heapq import heappush

import pytest
from hypothesis import example, given, settings, strategies as st

from twsolve import blocks, minors, oracle, solver
from twsolve.families import cycle_graph, mycielski_graph, queen_graph, random_connected_graph
from twsolve.graph import AuditError, Graph, vset
from twsolve.safesep import greedy_elimination
from twsolve.sieve import SieveBank, linear_scan_supersets
from twsolve.solver import SolverTimeout, decide
from twsolve.tdbuild import TreeDecomposition, extract, validate

from conftest import check_search, checked_searches, connected_graphs
from reference import (
    complete_graph,
    feasible_objects,
    first_full_component,
    grid_graph,
    held_decomposition,
    outlet_and_support,
    path_graph,
    petersen_graph,
    star_graph,
    treewidth,
)


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


def test_decide_single_vertex_counts_its_pmc():
    for k in (0, 1):
        res = decide(Graph(1), k)
        assert res.answer and res.witness.root == 1
        assert res.stats.pmcs_feasible == res.stats.pmcs_buildable == len(res.witness.records) == 1


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
    # held in one bag, so level 2 runs on g and its witness gives the result
    tw, td, levels, _ = solver.treewidth(g, TreeDecomposition(4, [g.full_mask], []))
    assert [(s.n, s.k, s.answer) for s in levels] == [(4, 2, True)]
    assert validate(g, td) == []
    assert td.width() == tw == 2


def test_oracle_equivalence_small():
    for seed in range(40):
        n = 4 + seed % 8
        g = random_connected_graph(n, 2 * n, 900 + seed)
        with checked_searches() as checked:
            tw, td, levels, _ = treewidth(g)
        # every level is checked; a graph runs none only when its minimum
        # degree certifies the width of the decomposition it holds
        assert len(checked) == len(levels) and (levels or tw == g.min_degree())
        assert tw == oracle.bf_treewidth(g), f"seed {seed}"
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
            search = solver._Search(solver._Analysis(g), k, True, None)
            search.run()
            check_search(search)
            ref = feasible_objects(g, k)
            assert set(search.iblock_source) == ref.iblocks, (seed, k)
            assert set(search.feasible) == ref.pmcs, (seed, k)
            # stored outbound blocks are always definition-feasible
            assert set(search.onb) <= ref.oblocks, (seed, k)


def test_every_feasible_pmc_was_buildable():
    for seed in range(6):
        g = random_connected_graph(8, 16, 77 + seed)
        tw = oracle.bf_treewidth(g)
        search = solver._Search(solver._Analysis(g), tw, True, None)
        search.run()
        check_search(search)


def _inbound_into_onb(search):
    comp, nb = search.iblocks[0]
    search.onb[comp] = nb


def _wrong_iblock_neighborhood(search):
    comp, nb = search.iblocks[0]
    search.iblocks[0] = (comp, nb | nb << 1)


def _feasible_not_buildable(search):
    del search.buildable[next(iter(search.feasible))]


def _unnested_outlets(search):
    # {0, 2, 4} on the path: outbound {1} and {3} have neighborhoods {0, 2}, {2, 4}
    search.buildable[0b10101] = solver.PmcRecord(0b10101, 0, ())


@pytest.mark.parametrize("corrupt, message", [
    (_inbound_into_onb, "is not outbound"),
    (_wrong_iblock_neighborhood, "wrong neighborhood"),
    (_feasible_not_buildable, "not buildable"),
    (_unnested_outlets, "do not nest"),
], ids=["inbound-in-onb", "wrong-neighborhood", "feasible-not-buildable", "outlets-not-nested"])
def test_check_search_catches_corruption(corrupt, message):
    search = solver._Search(solver._Analysis(path_graph(5)), 1, True, None)
    search.run()
    check_search(search)
    corrupt(search)
    with pytest.raises(AssertionError, match=message):
        check_search(search)


def test_stats_counters_consistent():
    g = random_connected_graph(9, 18, 51)
    res = decide(g, 4, exhaustive=True)
    assert res.stats.pmcs_feasible <= res.stats.pmcs_buildable
    assert res.stats.k == 4 and res.stats.n == 9


def _levels(g: Graph, held: TreeDecomposition | None = None,
            **bounds) -> tuple[tuple[int, TreeDecomposition], list[tuple]]:
    """``treewidth``'s bound and decomposition, holding ``held`` (by default
    the decomposition a part comes with), with the (n, k, answer) of every
    level it ran."""
    held = held_decomposition(g) if held is None else held
    tw, td, stats, _ = solver.treewidth(g, held, **bounds)
    return (tw, td), [(s.n, s.k, s.answer) for s in stats]


def _banded(g: Graph, width: int) -> TreeDecomposition:
    """The path decomposition whose bags are the runs of ``width`` + 1
    consecutive vertices of ``g``, checked to be one of ``g``."""
    bags = [vset(range(i, i + width + 1)) for i in range(g.n - width)]
    td = TreeDecomposition(g.n, bags, [(i, i + 1) for i in range(len(bags) - 1)])
    assert validate(g, td) == [] and td.width() == width
    return td


def test_levels_ascend_on_minors_then_descend_on_the_graph():
    graphs = [path_graph(6), cycle_graph(6), complete_graph(5), grid_graph(3, 3),
              random_connected_graph(10, 18, 3), mycielski_graph(4)]
    for g in graphs:
        held = held_decomposition(g)
        (tw, td), ran = _levels(g, held)
        assert tw == (10 if g.n == 23 else oracle.bf_treewidth(g))
        assert validate(g, td) == [] and td.width() == tw
        start = max(1, g.min_degree())
        # the levels on minors come first, ascending from the minimum degree;
        # each level below the one where the minors run out answers no once
        minor_levels = [(n, k, answer) for n, k, answer in ran if n < g.n]
        on_g = ran[len(minor_levels):]
        assert ran[:len(minor_levels)] == minor_levels
        assert [k for _, k, _ in minor_levels] == sorted(k for _, k, _ in minor_levels)
        negative = [k for _, k, answer in minor_levels if not answer]
        assert negative == list(range(start, start + len(negative)))
        assert all(k + 2 <= n <= solver.MINOR_SHARE * g.n for n, k, _ in minor_levels)
        # then g runs top-down from the held width: yes answers, each below
        # the width held, and a no at tw - 1 last, unless a minor's no, the
        # minimum degree or a yes at the level where the minors ran out
        # certifies tw first
        assert all(n == g.n for n, _, _ in on_g)
        assert [k for _, k, _ in on_g] == sorted({k for _, k, _ in on_g}, reverse=True)
        assert all(answer for _, _, answer in on_g[:-1])
        if on_g and not on_g[-1][2]:
            assert on_g[-1][1] == tw - 1
        else:
            assert tw == start + len(negative)
        if on_g:
            assert on_g[0][1] == held.width() - 1
        else:
            assert td is held or (tw, True) == ran[-1][1:]
    assert ran[-2:] == [(23, 10, True), (23, 9, False)]  # myciel4
    assert any(n < 23 and not answer for n, _, answer in ran)
    assert _levels(Graph(1)) == ((0, TreeDecomposition(1, [1], [])), [])


def test_levels_between_bounds():
    g = grid_graph(3, 3)  # minimum degree 2, treewidth 3
    wide = _banded(g, 4)
    (tw, td), ran = _levels(g, wide, lower=3)
    assert tw == td.width() == 3 and {k for _, k, _ in ran} == {3}
    # the 6-vertex minor accepts level 3, and its lifted decomposition has
    # width 3, so level 3 does not run on g
    assert ran[-1] == (6, 3, True) and all(n < 9 for n, _, _ in ran)
    assert validate(g, td) == []
    # level 2 negative, on a minor: the held width 3 is exact
    held = held_decomposition(g)
    assert _levels(g, held) == ((3, held), [(4, 2, False)])
    assert _levels(g, wide, lower=4) == ((4, wide), [])
    assert _levels(g, held, lower=3) == ((3, held), [])  # empty range
    tw, td, _, _ = solver.treewidth(g, _banded(g, 5), lower=2)
    assert tw == td.width() == 3


def test_myciel5_accepts_level_19_through_a_lifted_minor():
    g = mycielski_graph(5)
    tw, td, stats, how = treewidth(g)
    assert tw == td.width() == 19 and validate(g, td) == [] and how == "lifted"
    # every minor tried at level 19 answers yes; the largest one's
    # decomposition, lifted and narrowed, has width 19, so g runs no level 19
    assert (stats[-1].n, stats[-1].k, stats[-1].answer) == (36, 19, True)
    assert not any(s.n == g.n and s.k == 19 for s in stats)


@pytest.mark.parametrize("make, held_width, tw", [
    (lambda: mycielski_graph(4), 11, 10), (lambda: queen_graph(6, 6), 26, 25),
], ids=["myciel4", "queen6_6"])
def test_how_accepted_ends_with_the_accepting_level_on_the_graph(make, held_width, tw):
    g = make()
    held = held_decomposition(g)
    bound, td, levels, how = solver.treewidth(g, held)
    assert held.width() == held_width and bound == td.width() == tw
    # the accepting level is the last level with a yes answer; the no at
    # tw - 1, which certifies its width, runs after it
    accepting = [s for s in levels if s.answer][-1]
    assert how == "accepted" and (accepting.n, accepting.k) == (g.n, tw)
    assert levels[-2] is accepting and (levels[-1].n, levels[-1].k, levels[-1].answer) == (
        g.n, tw - 1, False)


def test_how_lifted_when_a_narrower_lift_is_held(monkeypatch):
    g = mycielski_graph(4)
    held = held_decomposition(g)
    exact = solver.treewidth(g, held)[1]
    monkeypatch.setattr(solver, "_lift", lambda *args: exact)
    # level 9 lifts a decomposition of width 10, narrower than the held 11
    # but wider than 9; level 9 on g answers no, so width 10 is certified
    bound, td, levels, how = solver.treewidth(g, held)
    assert held.width() == 11 and exact.width() == 10
    assert (bound, td, how) == (10, exact, "lifted")
    assert (levels[-1].n, levels[-1].k, levels[-1].answer) == (g.n, 9, False)


def test_how_settled_by_bound_with_and_without_levels():
    g = cycle_graph(6)  # minimum degree 2 certifies the held width 2
    held = held_decomposition(g)
    assert solver.treewidth(g, held) == (2, held, [], "settled_by_bound")
    g = queen_graph(5, 5)
    held = held_decomposition(g)
    bound, td, levels, how = solver.treewidth(g, held)
    assert (bound, td, how) == (18, held, "settled_by_bound")
    assert max(s.k for s in levels) == 17 and not any(s.answer for s in levels)


def test_a_stopped_run_returns_the_how_of_what_it_holds(monkeypatch):
    g = mycielski_graph(4)
    held = held_decomposition(g)
    assert solver.treewidth(g, held, 0, time.monotonic() - 1.0)[1:] == (
        held, [], "settled_by_bound")
    exact = solver.treewidth(g, held)[1]
    monkeypatch.setattr(solver, "_lift", lambda *args: exact)
    decide = solver.decide

    def stop_on_g(h, k, **kwargs):
        if h.n == g.n:
            raise SolverTimeout
        return decide(h, k, **kwargs)

    monkeypatch.setattr(solver, "decide", stop_on_g)
    # level 9 holds the lifted decomposition, then stops on g
    bound, td, _, how = solver.treewidth(g, held)
    assert (bound, td, how) == (9, exact, "lifted")


def test_lifted_decomposition_is_audited(monkeypatch):
    narrow = solver.narrow

    def drop_a_vertex(g, td):
        td = narrow(g, td)
        bags = list(td.bags)
        bags[0] &= bags[0] - 1  # its lowest vertex
        return TreeDecomposition(td.n, bags, td.edges)

    monkeypatch.setattr(solver, "narrow", drop_a_vertex)
    # myciel4 lifts its 16-vertex minor's yes at level 9
    with pytest.raises(AuditError, match="lifted decomposition failed validation"):
        treewidth(mycielski_graph(4))


def test_no_accepting_level_returns_the_held_decomposition(monkeypatch):
    def reject(g, k, **kwargs):
        return solver.DecideResult(False, solver.SolverStats(g.n, k, False))

    monkeypatch.setattr(solver, "decide", reject)
    g = grid_graph(3, 3)
    wide = _banded(g, 5)
    # the minors are gated off, since the largest is far narrower, so g runs
    # its first level one below the held width, and its no certifies that
    # width: no level below it runs
    tw, td, stats, _ = solver.treewidth(g, wide)
    assert (tw, td) == (5, wide)
    assert [(s.n, s.k) for s in stats] == [(9, 4)]


def test_deadline_interrupts():
    g = petersen_graph()
    with pytest.raises(SolverTimeout):
        decide(g, 3, deadline=time.monotonic() - 1.0)
    # no closed neighborhood fits k + 1 = 2, so this level has no seed and no
    # inbound block: only the poll before seeding sees the deadline
    with pytest.raises(SolverTimeout):
        decide(cycle_graph(6), 1, deadline=time.monotonic() - 1.0)


def test_timeout_carries_the_certified_bound(monkeypatch):
    g = mycielski_graph(4)  # minimum degree 4, treewidth 10
    held = held_decomposition(g)  # width 11
    for lower in (0, 6):  # a start above the minimum degree certifies nothing
        bound, td, levels, _ = solver.treewidth(g, held, lower, time.monotonic() - 1.0)
        assert bound == g.min_degree() == 4 and td is held and levels == []
    ran: list[solver.SolverStats] = []
    decide = solver.decide

    def stop_at_level_7(h, k, **kwargs):
        if k == 7:
            raise SolverTimeout
        res = decide(h, k, **kwargs)
        ran.append(res.stats)
        return res

    monkeypatch.setattr(solver, "decide", stop_at_level_7)
    bound, td, levels, _ = solver.treewidth(g, held)
    assert max(s.k for s in ran if not s.answer) == 6
    assert bound == 7 and td is held and held.width() == 11
    # the levels that finished before the stop come back with the bound
    assert levels == ran and {s.k for s in levels} == {4, 5, 6}


def _seeded_graphs() -> list[Graph]:
    """Random connected graphs of 8 to 16 vertices, with 1.5 to 3 edges per
    vertex, small enough for the brute-force oracle."""
    return [random_connected_graph(n, min(n * (n - 1) // 2, n * per // 2), 10 * n + per)
            for n in (8, 10, 12, 14, 16) for per in (3, 4, 6)]


def _one_bag(g: Graph) -> TreeDecomposition:
    """The decomposition of ``g`` into a single bag, of width n - 1."""
    return TreeDecomposition(g.n, [g.full_mask], [])


@pytest.mark.parametrize("wide", [False, True], ids=["elimination", "one_bag"])
def test_levels_on_the_graph_descend_and_each_yes_narrows_the_held_width(wide, monkeypatch):
    extracted = []
    extract_witness = solver.extract

    def recording(h, witness):
        td = extract_witness(h, witness)
        extracted.append((h.n, td.width()))
        return td

    monkeypatch.setattr(solver, "extract", recording)
    descents = []
    for g in _seeded_graphs():
        held = _one_bag(g) if wide else held_decomposition(g)
        extracted.clear()
        tw, td, stats, how = solver.treewidth(g, held)
        assert tw == td.width() == oracle.bf_treewidth(g) and validate(g, td) == []
        on_g = [s for s in stats if s.n == g.n]
        assert stats[len(stats) - len(on_g):] == on_g  # the levels on g come last
        if not on_g:
            continue
        # each level on g runs one below the width held: the narrowest held
        # when g starts, then the width of each yes, strictly narrower
        tops = [on_g[0].k + 1] + [w for n, w in extracted if n == g.n]
        assert on_g[0].k < held.width() and tops == sorted(set(tops), reverse=True)
        assert [s.k for s in on_g] == [top - 1 for top in tops[:len(on_g)]]
        # every level but the last answers yes, and a no is at tw - 1
        assert all(s.answer for s in on_g[:-1]) and len(tops) - 1 == sum(s.answer for s in on_g)
        assert on_g[-1].answer or on_g[-1].k == tw - 1
        assert how != "accepted" or tops[-1] == tw
        descents.append(tops)
    if wide:
        # from one bag, g runs several yes levels, some skipping widths
        assert max(map(len, descents)) >= 4
        assert any(a - b > 1 for tops in descents for a, b in zip(tops, tops[1:]))


class _Clock:
    """Stands in for the ``time`` module: each reading of the clock advances
    it by one, so a deadline stops a run at a fixed reading."""

    def __init__(self):
        self.now = 0

    def monotonic(self) -> float:
        self.now += 1
        return float(self.now)


@pytest.mark.parametrize("wide", [False, True], ids=["elimination", "one_bag"])
def test_a_run_stopped_mid_level_bounds_the_treewidth(wide, monkeypatch):
    clock = _Clock()
    monkeypatch.setattr(solver, "time", clock)
    stops = 0
    for g in _seeded_graphs():
        held = _one_bag(g) if wide else held_decomposition(g)
        tw = oracle.bf_treewidth(g)
        begin = clock.now
        full = [(s.n, s.k, s.answer) for s in solver.treewidth(g, held, 0, float("inf"))[2]]
        readings = clock.now - begin
        for share in (0.1, 0.3, 0.5, 0.7, 0.9):
            bound, td, levels, how = solver.treewidth(
                g, held, 0, clock.now + int(share * readings))
            assert bound <= tw <= td.width() and validate(g, td) == []
            ran = [(s.n, s.k, s.answer) for s in levels]
            assert ran == full[:len(ran)]
            if ran == full:
                continue  # stopped after the last poll
            # a stopped run has no no on g, and is bounded by the level
            # above its last no on a minor, or by the minimum degree
            stops += 1
            assert all(answer for n, _, answer in ran if n == g.n)
            assert bound == max((k + 1 for _, k, answer in ran if not answer),
                                default=g.min_degree())
            assert (td is held) == (how == "settled_by_bound")
    assert stops >= 50


@given(connected_graphs(max_n=8))
@settings(max_examples=25)
def test_treewidth_matches_oracle_hypothesis(g):
    assert treewidth(g)[0] == oracle.bf_treewidth(g)


class _ScanBank:
    """Stores what ``SieveBank`` stores and answers every superset query with
    the linear-scan oracle, in insertion order."""

    def __init__(self, n: int, k: int):
        self.k = k
        self.entries: list[tuple[int, int]] = []
        self.stored: set[int] = set()

    def store(self, u: int, n_u: int) -> None:
        if u not in self.stored:
            self.stored.add(u)
            self.entries.append((u, n_u))

    def supersets(self, u: int, n_u: int) -> list[int]:
        return linear_scan_supersets(self.entries, u, n_u, self.k)


def _decide_levels(g: Graph, bank) -> list[tuple]:
    """k, answer, counters and witness of every level from the minimum degree
    up to the first accepting one, with ``bank`` as the superset index."""
    out = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver, "SieveBank", bank)
        for k in range(max(1, g.min_degree()), g.n):
            res = decide(g, k, exhaustive=False)
            s = res.stats
            out.append((k, res.answer, s.iblocks, s.oblocks, s.pmcs_buildable,
                        s.pmcs_feasible, res.witness))
            if res.answer:
                return out
    raise AssertionError("no level accepted")


@pytest.mark.parametrize(
    "make, tw",
    [(lambda: queen_graph(5, 5), 18), (lambda: queen_graph(6, 6), 25),
     (lambda: mycielski_graph(4), 10)],
    ids=["queen5_5", "queen6_6", "myciel4"],
)
def test_sieve_matches_linear_scan_levels(make, tw):
    # queen6_6 and myciel4 also take the counter-plane path of the index
    g = make()
    runs = _decide_levels(g, SieveBank)
    assert runs == _decide_levels(g, _ScanBank)
    assert [r[:2] for r in runs[-2:]] == [(tw - 1, False), (tw, True)]


@given(connected_graphs(max_n=12))
def test_sieve_matches_linear_scan_levels_hypothesis(g):
    assert _decide_levels(g, SieveBank) == _decide_levels(g, _ScanBank)


def test_each_finished_level_logs_one_debug_line(caplog):
    with caplog.at_level(logging.DEBUG, logger="twsolve"):
        stats = treewidth(mycielski_graph(4))[2]
    assert len(stats) == 12
    assert [r.getMessage() for r in caplog.records if r.name == "twsolve"] == [
        f"level n={s.n} k={s.k} answer={s.answer} ms={s.ms:.1f} iblocks={s.iblocks} "
        f"oblocks={s.oblocks} pmcs_buildable={s.pmcs_buildable} pmcs_feasible={s.pmcs_feasible} "
        f"facts={s.facts}" for s in stats]


# -- the candidate analysis shared by the levels of one graph --------------


def _counts(s: solver.SolverStats) -> tuple:
    return (s.k, s.answer, s.iblocks, s.oblocks, s.pmcs_buildable, s.pmcs_feasible)


def _level(res) -> tuple:
    return (*_counts(res.stats), res.witness)


SHARED_ANALYSIS_GRAPHS = pytest.mark.parametrize(
    "make", [lambda: queen_graph(5, 5), lambda: mycielski_graph(4)], ids=["queen5_5", "myciel4"])


@given(connected_graphs(max_n=12))
def test_levels_match_fresh_decisions_hypothesis(g):
    # levels on a minor are matched against fresh decisions on that minor
    graphs = {h.n: h for h, _ in minors.contraction_chain(g, 2, g.n - 1)}
    graphs[g.n] = g
    with checked_searches() as checked:
        tw, td, stats, _ = treewidth(g)
        fresh = [decide(graphs[s.n], s.k) for s in stats]
    assert [_counts(s) for s in stats] == [_counts(res.stats) for res in fresh]
    if stats and stats[-1].answer and stats[-1].n == g.n:
        # the top-down levels on g ended on a yes as narrow as the levels
        # below them allow
        assert stats[-1].k >= tw == td.width() and td == extract(g, fresh[-1].witness)
    else:
        # the held decomposition or one lifted from a minor: level tw accepted
        # on that minor, or level tw - 1 answered no, or no level ran since
        # the minimum degree certifies the held width
        assert validate(g, td) == [] and td.width() == tw
        if stats:
            assert stats[-1].k == (tw if stats[-1].answer else tw - 1)
        else:
            assert tw == g.min_degree()
    assert len(checked) == 2 * len(stats)


@SHARED_ANALYSIS_GRAPHS
def test_shared_analysis_is_order_independent(make):
    # higher levels first, so lower levels read facts cached at larger bounds
    g = make()
    tw = treewidth(g)[0]
    analysis = solver._Analysis(g)
    with checked_searches():
        for k in range(tw + 1, g.min_degree() - 1, -1):
            shared = decide(g, k, exhaustive=True, _analysis=analysis)
            assert _level(shared) == _level(decide(g, k, exhaustive=True)), k
            shared = decide(g, k, _analysis=analysis)
            assert _level(shared) == _level(decide(g, k)), k


@SHARED_ANALYSIS_GRAPHS
def test_shared_analysis_entries_match_reference(make, monkeypatch):
    g = make()
    shared = []
    decide_level = solver.decide

    def capture(h, k, **kwargs):
        shared.append((h, kwargs["_analysis"]))
        return decide_level(h, k, **kwargs)

    monkeypatch.setattr(solver, "decide", capture)
    tw = treewidth(g)[0]
    first = len(shared)
    treewidth(g)
    assert len(shared) == 2 * first
    # in each run of the levels, the levels on one graph (g, or one minor of
    # it) share one analysis of that graph, which no other graph shares
    runs = [shared[:first], shared[first:]]
    for run in runs:
        assert all(a.g is h for h, a in run)
        assert len({id(a) for _, a in run}) == len({id(h) for h, _ in run})
    on_g = [[a for h, a in run if h is g] for run in runs]
    # queen5_5 runs its no at 17 alone on g, and myciel4 its levels 10 and
    # 9; the exhaustive level below shares the table in both cases
    assert len(on_g[0]) == {25: 1, 23: 2}[g.n] and all(a is on_g[0][0] for a in on_g[0])
    assert all(a is on_g[1][0] for a in on_g[1])
    assert on_g[0][0] is not on_g[1][0]
    facts = on_g[0][0]
    # an accepting level may stop before it meets a set with neither fact;
    # the fixpoint of an exhaustive one on the same table reaches such sets,
    # once the table no longer has the cap of the last top-down level
    facts.cap = g.n
    decide(g, tw, exhaustive=True, _analysis=facts)
    kinds = {type(fact) for fact in facts.values()}
    assert kinds == {int, solver.PmcRecord} and 0 in facts.values()
    for s, fact in facts.items():
        pmc = type(fact) is solver.PmcRecord
        assert (0 if pmc else fact) == first_full_component(g, s), s
        assert pmc == blocks.is_pmc(g, s), s
        if pmc:
            assert fact == solver.PmcRecord(s, *outlet_and_support(g, s)), s


def _capture_tables(mp: pytest.MonkeyPatch, keep_every_set: bool = False) -> list[tuple]:
    """Record (graph, k, table, capped) for every level ``treewidth`` runs,
    where capped says that the table keeps fewer than all the sets it
    analyses; with ``keep_every_set`` every table keeps them all."""
    calls = []
    decide_level = solver.decide

    def capture(h, k, **kwargs):
        facts = kwargs["_analysis"]
        if keep_every_set:
            facts.cap = h.n
        calls.append((h, k, facts, facts.cap < h.n))
        return decide_level(h, k, **kwargs)

    mp.setattr(solver, "decide", capture)
    return calls


RETENTION_GRAPHS = {
    "queen5_5": queen_graph(5, 5), "myciel4": mycielski_graph(4),
    **{f"seeded{i}": g for i, g in enumerate(_seeded_graphs())},
    **{f"random30_{i}": random_connected_graph(30, 45, 600 + i) for i in range(4)}}


@pytest.mark.parametrize("wide", [False, True], ids=["elimination", "one_bag"])
@pytest.mark.parametrize("g", list(RETENTION_GRAPHS.values()), ids=list(RETENTION_GRAPHS))
def test_top_down_retention_leaves_levels_and_decompositions_unchanged(g, wide, monkeypatch):
    # held in one bag, g runs every level from n - 2 down to its first no
    held = _one_bag(g) if wide else held_decomposition(g)
    with pytest.MonkeyPatch.context() as mp:
        _capture_tables(mp, keep_every_set=True)
        tw_all, td_all, stats_all, how_all = solver.treewidth(g, held)
    calls = _capture_tables(monkeypatch)
    tw, td, stats, how = solver.treewidth(g, held)
    assert (tw, td, how) == (tw_all, td_all, how_all)
    assert [(s.n, *_counts(s)) for s in stats] == [(s.n, *_counts(s)) for s in stats_all]
    # exactly the levels on g itself run top-down, and their tables keep at
    # most what the tables that keep every set hold
    assert [top_down for *_, top_down in calls] == [h is g for h, *_ in calls]
    assert all(s.facts <= s_all.facts for s, s_all in zip(stats, stats_all))
    assert any(top_down for *_, top_down in calls) or not wide


def test_top_down_level_keeps_no_set_of_size_k_plus_one(monkeypatch):
    g = queen_graph(5, 5)
    with pytest.MonkeyPatch.context() as mp:
        calls = _capture_tables(mp, keep_every_set=True)
        treewidth(g)
    kept_all = calls[-1][2]
    calls = _capture_tables(monkeypatch)
    tw, _, stats, _ = treewidth(g)
    # queen5_5's only level on g is the no at 17; the sets of size 18 it met
    # are analysed there but not kept, and nothing smaller is dropped
    assert tw == 18 and [(h, k, top_down) for h, k, _, top_down in calls] == [(g, 17, True)]
    facts = calls[0][2]
    assert stats[-1].facts == len(facts)
    assert 18 in {s.bit_count() for s in kept_all}
    assert max(map(int.bit_count, facts)) == 17
    assert facts == {s: fact for s, fact in kept_all.items() if s.bit_count() <= 17}


class _WeakAnalysis(solver._Analysis):
    __slots__ = ("__weakref__",)


@pytest.mark.parametrize("make", [lambda: mycielski_graph(4), lambda: mycielski_graph(5)],
                         ids=["myciel4", "myciel5"])
def test_minors_below_the_gallop_start_are_released(make, monkeypatch):
    g = make()
    tables: dict[int, weakref.ref] = {}

    def analysis(h):
        facts = _WeakAnalysis(h)
        tables[h.n] = weakref.ref(facts)
        return facts

    monkeypatch.setattr(solver, "_Analysis", analysis)
    starts = []
    decide_level = solver.decide

    def check(h, k, **kwargs):
        if h is not g and (not starts or starts[-1][0] < k):
            # the first minor a level tries is where its gallop starts
            starts.append((k, h.n))
            assert all(tables[n]() is None for n in tables if n < h.n), (k, h.n)
        return decide_level(h, k, **kwargs)

    monkeypatch.setattr(solver, "decide", check)
    treewidth(g)
    # the start moved up, so some minor had been tried and was released
    assert starts[-1][1] > starts[0][1]


# -- the order in which inbound blocks are worked off ----------------------


def _worked_off(search: solver._Search) -> list[tuple[int, int]]:
    """Run ``search``; returns (C, inbound blocks found so far) at each
    superset query, which the main loop makes once per block it works off."""
    seen = []
    supersets = search.bank.supersets

    def query(comp, nb):
        seen.append((comp, len(search.iblocks)))
        return supersets(comp, nb)

    search.bank.supersets = query
    search.run()
    return seen


def _first_in_first_out(mp: pytest.MonkeyPatch) -> None:
    """Key the pending inbound blocks on their discovery index alone."""
    mp.setattr(solver, "heappush", lambda heap, item: heapq.heappush(heap, (0, item[1])))


@pytest.mark.parametrize(
    "make", [lambda: mycielski_graph(4), lambda: random_connected_graph(16, 40, 5)],
    ids=["myciel4", "random16"])
def test_largest_pending_block_is_worked_off_first(make):
    g = make()
    tw = treewidth(g)[0]
    for k in (tw - 1, tw):
        for exhaustive in (False, True):
            search = solver._Search(solver._Analysis(g), k, exhaustive, None)
            seen = _worked_off(search)
            done = set()
            for comp, found in seen:
                pending = [(-c.bit_count(), i)
                           for i, (c, _) in enumerate(search.iblocks[:found]) if c not in done]
                assert search.iblocks[min(pending)[1]][0] == comp, (k, exhaustive)
                done.add(comp)
            assert len(seen) > 1
            if exhaustive:
                assert len(seen) == len(search.iblocks)


def _exhaustive_fixpoint(g: Graph, k: int) -> tuple:
    search = solver._Search(solver._Analysis(g), k, True, None)
    answer = search.run()
    return answer, set(search.iblock_source), set(search.feasible)


@given(connected_graphs(max_n=14))
def test_order_leaves_exhaustive_fixpoint_unchanged_hypothesis(g):
    tw = oracle.bf_treewidth(g)
    levels = range(max(1, g.min_degree()), tw + 1)
    largest_first = [_exhaustive_fixpoint(g, k) for k in levels]
    with pytest.MonkeyPatch.context() as mp:
        _first_in_first_out(mp)
        assert [_exhaustive_fixpoint(g, k) for k in levels] == largest_first
    assert [answer for answer, _, _ in largest_first] == [k == tw for k in levels]


class _ThreeMethodSearch(solver._Search):
    """Reference propagation of feasible PMCs, spread over three methods as
    the solver once had it; it pins the order that ``_register_pmc`` states."""

    def _register_pmc(self, rec: solver.PmcRecord) -> None:
        """Record a PMC that is not yet buildable; mark it feasible now or
        park it on its missing support components."""
        cand = rec.vertices
        self.buildable[cand] = rec
        miss = 0
        iblock_source = self.iblock_source
        waiting = self.waiting
        for c in rec.support:
            if c not in iblock_source:
                waiting.setdefault(c, []).append(cand)
                miss += 1
        if miss:
            self.missing[cand] = miss
            return
        crib = self._mark_feasible(cand, rec)
        if crib:
            self._emit_iblock(crib, rec.outlet, cand)

    def _mark_feasible(self, cand: int, rec: solver.PmcRecord) -> int:
        """Mark a PMC feasible and return the crib of its outlet: the inbound
        block it emits, or 0 when the outlet is empty.  The first PMC with an
        empty outlet becomes the root."""
        self.feasible[cand] = rec
        if rec.outlet == 0:
            if self.root is None:
                self.root = cand
            return 0
        crib = cand & ~rec.outlet
        for d in rec.support:
            crib |= d
        return crib

    def _emit_iblock(self, comp: int, nb: int, src: int) -> None:
        """Queue a new feasible inbound block and resolve PMCs waiting on it.

        A waiting PMC is marked feasible as soon as its last missing support
        component arrives, before the blocks it emits are worked off.
        """
        work = [(comp, nb, src)]
        iblock_source = self.iblock_source
        waiting = self.waiting
        missing = self.missing
        buildable = self.buildable
        while work:
            comp, nb, src = work.pop()
            if comp in iblock_source:
                continue
            heappush(self.pending, (-comp.bit_count(), len(self.iblocks)))
            self.iblocks.append((comp, nb))
            iblock_source[comp] = src
            for k2 in waiting.pop(comp, ()):
                cnt = missing.pop(k2) - 1
                if cnt:
                    missing[k2] = cnt
                    continue
                rec2 = buildable[k2]
                crib = self._mark_feasible(k2, rec2)
                if crib and crib not in iblock_source:
                    work.append((crib, rec2.outlet, k2))


def _propagated(search: solver._Search) -> tuple:
    """Run ``search``; returns the state its propagation order decides."""
    search.run()
    return (search.iblocks, list(search.iblock_source.items()), search.root,
            list(search.feasible), list(search.buildable), list(search.onb))


@given(connected_graphs(max_n=14))
@example(random_connected_graph(16, 40, 5))  # cribs emitted first in, first out differ here
def test_propagation_order_matches_the_three_method_reference_hypothesis(g):
    facts, reference_facts = solver._Analysis(g), solver._Analysis(g)
    for k in range(1, g.n - 1):
        for exhaustive in (False, True):
            assert _propagated(solver._Search(facts, k, exhaustive, None)) == _propagated(
                _ThreeMethodSearch(reference_facts, k, exhaustive, None)), (k, exhaustive)


def test_accepting_level_stops_after_a_sliver_of_its_work():
    g = queen_graph(6, 6)

    def accepting_level() -> tuple[int, int]:
        search = solver._Search(solver._Analysis(g), 25, False, None)
        worked = len(_worked_off(search))
        assert search.root is not None
        return worked, len(search.iblocks)

    worked, found = accepting_level()
    with pytest.MonkeyPatch.context() as mp:
        _first_in_first_out(mp)
        fifo_worked, fifo_found = accepting_level()
    assert 4 * worked < fifo_worked and 4 * found < fifo_found


# -- the names the benchmark tracer wraps ---------------------------------


def test_traced_names_are_the_ones_decide_calls(monkeypatch):
    # the benchmark's tracer wraps these names where the solver looks them up
    calls = {}

    def counting(owner, name):
        original = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    counting(Graph, "components_with_neighborhoods")
    counting(solver, "is_cliquish")
    counting(SieveBank, "supersets")
    counting(SieveBank, "store")
    res = decide(mycielski_graph(4), 10)
    assert res.answer
    assert set(calls) == {"components_with_neighborhoods", "is_cliquish", "supersets", "store"}
    assert calls["store"] == res.stats.oblocks


def test_no_level_tries_minors_when_the_largest_loses_the_top_levels():
    g = queen_graph(6, 6)  # tw 25; its pipeline bound is 26
    largest = minors.contraction_chain(g, 30, 30)[0][0]  # MINOR_SHARE of 36
    width = max(nb.bit_count() for nb in greedy_elimination(largest, "min_degree")[1])
    assert width == 22 < 26 - 1
    assert held_decomposition(g).width() == 26
    (tw, td), ran = _levels(g)
    assert tw == 25 and {n for n, _, _ in ran} == {36}
    # the gate is open where the largest minor keeps the part's width
    m5 = mycielski_graph(5)
    assert held_decomposition(m5).width() == 20
    assert any(n < 47 and not answer for n, _, answer in _levels(m5)[1])
