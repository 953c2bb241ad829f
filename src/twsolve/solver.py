"""Decide treewidth <= k by generating only positive subproblem instances.

The search keeps four growing collections: feasible inbound full blocks
(worked off largest first), feasible outbound full blocks (indexed in a
:class:`~twsolve.sieve.SieveBank` for superset queries), buildable potential
maximal cliques, and feasible potential maximal cliques.  Every new inbound
block is matched against the stored outbound blocks; each match proposes a
candidate clique K = N(C) | N(B) that may be a new potential maximal clique
or spawn a new outbound block.  A potential maximal clique becomes feasible
once all of its support components have appeared as inbound blocks, and then
emits the crib of its outlet as a new inbound block.  The answer is yes
exactly when some feasible potential maximal clique has an empty outlet.
Whether a candidate has a full component or is a potential maximal clique,
with its outlet and support, does not depend on k: the levels of one graph
share one facts table, whose component pass stops at the first full
component; only the size test is made per level.  The table keeps the sets
it analyses up to its cap, every set by default.  Before a level k run
top-down on the graph itself, :func:`treewidth` caps the table at k, since
the levels after it run below k and never read a set of size k + 1; such a
set met again in its level is analysed again, unless it is a PMC already
buildable, which the seed, hit and clip loops test first.

Each step works off the largest inbound block found and not yet worked
off, ties going to the earliest found.  The root's support components
cover every vertex outside it, so an accepting level is built from large
blocks, and a level that takes them first reaches its root, and stops,
after a small part of the work that taking them in the order they were
found would do.  Each inbound block is matched once, against the outbound
blocks stored before it is worked off, so which outbound blocks a level
stores, and with them its sieve counts and now and then its buildable
PMCs, depends on this order.  The answer, the inbound blocks and the
feasible PMCs of an exhaustive run do not: on random graphs they matched
those of runs in the order of discovery and in its reverse.  A level that
is not exhaustive looks for its root only before it takes the next inbound
block, so the seeding pass, or the block in progress with every feasibility
cascade it starts, runs to its end, and the level counts all it built.

Feasible records keep witness links (which clique emitted which block), so
an accepting run can be unfolded into an explicit tree decomposition.

:func:`treewidth` runs each level on contracted minors of the graph first,
all from one contraction chain (:mod:`twsolve.minors`).  Treewidth does not
grow under contraction, so a no on a minor whose branch sets pass their
audit certifies the level, and a small minor reaches its fixpoint far sooner
than the graph.  Level k tries the minors of sizes s, s + 1, s + 3, s + 7,
... up to ``MINOR_SHARE`` of the graph, where s is the size that answered
no at the level below, or k + 2 if that is larger; the levels share one
analysis per minor, which keeps every set, since level k + 1 reads the sets
of size k + 1 again, and which is freed once the start passes the minor.
A yes on a minor certifies nothing by itself, but its
witness unfolds into a decomposition of the minor, which the branch sets
lift to the graph.  At the first level k that no minor answers no, none
does above k either, so the minors run out: the largest minor's yes is
lifted, narrowed to a minimal triangulation (:func:`~twsolve.tdbuild.narrow`)
and validated, and held if it is narrower than the decomposition held.
Then the graph runs its levels top-down, at U - 1 for the width U of the
narrowest decomposition held: a yes is extracted and held, and its width,
which may be more than one below U, sets the next level; a no certifies U,
and a width of at most k needs no level.  So the graph runs at most one
negative level, tw - 1, whose no implies those below it.  A graph whose
largest minor's min-degree width is below the width of the decomposition
it holds, less one, has lost its top levels to contraction and tries no
minors.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass
from heapq import heappop, heappush

from . import minors
from .blocks import is_cliquish, outlet_and_support
from .graph import AuditError, Graph
from .safesep import greedy_elimination
from .sieve import SieveBank
from .tdbuild import TreeDecomposition, extract, lift, narrow, validate

__all__ = [
    "DecideResult",
    "PmcRecord",
    "SolverStats",
    "SolverTimeout",
    "Witness",
    "decide",
    "treewidth",
]

# Levels try minors of at most this share of the graph's vertices.  When no
# smaller minor answers no, the whole graph runs the levels, and a minor near
# the graph's size would cost about as much as the graph while certifying
# the level rarely, since the greedy contractions lose width early.
MINOR_SHARE = 0.85


class SolverTimeout(Exception):
    """A decision run (:func:`decide`) passed its deadline.  :func:`treewidth`
    catches it and returns the bound that its finished levels certify."""


@dataclass(slots=True)
class PmcRecord:
    """A feasible potential maximal clique with its outlet and support components."""

    vertices: int
    outlet: int
    support: tuple[int, ...]


@dataclass(slots=True)
class Witness:
    """Provenance links of an accepting run, enough to rebuild a decomposition."""

    root: int | None
    records: dict[int, PmcRecord]
    iblock_source: dict[int, int]


@dataclass(slots=True)
class SolverStats:
    n: int
    k: int
    answer: bool
    iblocks: int = 0
    oblocks: int = 0
    pmcs_buildable: int = 0
    pmcs_feasible: int = 0
    facts: int = 0
    ms: float = 0.0


@dataclass(slots=True)
class DecideResult:
    answer: bool
    stats: SolverStats
    witness: Witness | None = None


class _Analysis(dict):
    """Facts about the vertex sets of one graph that do not depend on the
    width bound, in one table shared by the decision levels run on it.

    A set maps to its first full component (an int above 0), else to its
    :class:`PmcRecord` if it is a potential maximal clique, else to 0.  A
    set missing from the table is analysed on lookup: its component pass
    stops at the first full component, and only a set without one gets all
    its components, the cliquish test and its outlet and support.  A lookup
    keeps what it analyses when the set has at most ``cap`` vertices, all
    of ``g`` unless :func:`treewidth` lowers it before a top-down level.
    The component neighborhoods that a PMC's support looks up are smaller
    than the PMC, so a PMC within the cap keeps their facts too.
    """

    __slots__ = ("g", "cap")

    def __init__(self, g: Graph):
        self.g = g
        self.cap = g.n

    def __missing__(self, s: int) -> int | PmcRecord:
        g = self.g
        comps_nbs = g.components_with_neighborhoods(s, until_full=True)
        if comps_nbs and comps_nbs[-1][1] == s:
            fact = comps_nbs[-1][0]
        elif is_cliquish(g, s, [nb for _, nb in comps_nbs]):
            # a component's neighborhood has that component as a full one,
            # so its fact is its first full component
            fact = PmcRecord(s, *outlet_and_support(s, comps_nbs, self.__getitem__))
        else:
            fact = 0
        if s.bit_count() <= self.cap:
            self[s] = fact
        return fact


class _Search:
    """One decision run for a fixed graph and width bound."""

    def __init__(self, analysis: _Analysis, k: int, exhaustive: bool,
                 deadline: float | None):
        self.analysis = analysis
        self.g = analysis.g
        self.k = k
        self.exhaustive = exhaustive
        self.deadline = deadline
        self.iblocks: list[tuple[int, int]] = []
        # the inbound blocks not yet worked off, as (-|C|, discovery index)
        self.pending: list[tuple[int, int]] = []
        self.iblock_source: dict[int, int] = {}
        self.bank = SieveBank(self.g.n, k)
        self.onb: dict[int, int] = {}
        self.buildable: dict[int, PmcRecord] = {}
        self.feasible: dict[int, PmcRecord] = {}
        self.waiting: dict[int, list[int]] = {}
        self.missing: dict[int, int] = {}
        self.root: int | None = None

    def _register_pmc(self, rec: PmcRecord) -> None:
        """Record a PMC that is not yet buildable and propagate feasibility.

        A PMC whose support components are all inbound blocks is marked
        feasible.  The first with an empty outlet becomes the root; every
        other emits the crib of its outlet as an inbound block, which
        releases the PMCs waiting on it as their last missing component.
        The root, the outbound blocks stored and the buildable PMCs depend
        on the order, which is: released PMCs are marked in the order their
        last component arrived, ties in the order they were parked; cribs
        are emitted last in, first out; a crib already emitted is skipped.
        """
        cand = rec.vertices
        self.buildable[cand] = rec
        iblock_source = self.iblock_source
        waiting = self.waiting
        missing = self.missing
        miss = 0
        for c in rec.support:
            if c not in iblock_source:
                waiting.setdefault(c, []).append(cand)
                miss += 1
        if miss:
            missing[cand] = miss
            return
        released = [rec]
        cribs: list[tuple[int, int, int]] = []
        while True:
            for rec in released:
                cand = rec.vertices
                self.feasible[cand] = rec
                if rec.outlet:
                    crib = cand & ~rec.outlet
                    for d in rec.support:
                        crib |= d
                    cribs.append((crib, rec.outlet, cand))
                elif self.root is None:
                    self.root = cand
            while cribs and cribs[-1][0] in iblock_source:
                cribs.pop()
            if not cribs:
                return
            comp, nb, src = cribs.pop()
            heappush(self.pending, (-comp.bit_count(), len(self.iblocks)))
            self.iblocks.append((comp, nb))
            iblock_source[comp] = src
            released = []
            for p in waiting.pop(comp, ()):
                cnt = missing.pop(p) - 1
                if cnt:
                    missing[p] = cnt
                else:
                    released.append(self.buildable[p])

    # -- main loop ---------------------------------------------------------

    def run(self) -> bool:
        g = self.g
        k = self.k
        adj = g.adj
        size_cap = k + 1
        deadline = self.deadline
        exhaustive = self.exhaustive
        onb = self.onb
        bank = self.bank
        buildable = self.buildable
        facts = self.analysis

        # a level may have no inbound block, so poll once before seeding too
        if deadline is not None and time.monotonic() > deadline:
            raise SolverTimeout
        # seed with closed neighborhoods that are small PMCs
        for v in range(g.n):
            cand = adj[v] | 1 << v
            if cand.bit_count() <= size_cap and cand not in buildable:
                fact = facts[cand]
                if type(fact) is PmcRecord:
                    self._register_pmc(fact)

        iblocks = self.iblocks
        pending = self.pending
        while pending:
            if self.root is not None and not exhaustive:
                break
            if deadline is not None and time.monotonic() > deadline:
                raise SolverTimeout
            comp, nb = iblocks[heappop(pending)[1]]
            new_obs: list[tuple[int, int]] = []
            for b in bank.supersets(comp, nb):
                cand = nb | onb[b]
                if cand in buildable:
                    continue
                fact = facts[cand]
                if type(fact) is PmcRecord:
                    self._register_pmc(fact)
                elif fact and fact not in onb and cand.bit_count() <= k:
                    onb[fact] = cand
                    bank.store(fact, cand)
                    new_obs.append((fact, cand))
            # the outbound full component of this block's separator
            a = facts[nb]
            if a not in onb:
                onb[a] = nb
                bank.store(a, nb)
                new_obs.append((a, nb))
            # candidate cliques clipped out of each fresh outbound block
            for a, na in new_obs:
                rem = na
                while rem:
                    vb = rem & -rem
                    rem ^= vb
                    cand = na | (adj[vb.bit_length() - 1] & a)
                    if cand.bit_count() <= size_cap and cand not in buildable:
                        fact = facts[cand]
                        if type(fact) is PmcRecord:
                            self._register_pmc(fact)

        return self.root is not None


def decide(
    g: Graph,
    k: int,
    *,
    exhaustive: bool = False,
    deadline: float | None = None,
    _analysis: _Analysis | None = None,
) -> DecideResult:
    """Decide whether the treewidth of connected ``g`` is at most ``k``.

    A yes answer carries a witness: a feasible potential maximal clique with
    empty outlet plus the complete chain of records behind it.  With
    ``exhaustive`` the run continues to the fixpoint even after an accepting
    clique is found, so the final counters cover every feasible object.
    :func:`treewidth` passes in the candidate analysis its levels share; a
    call without one analyses ``g`` afresh.  The run keeps in the analysis
    the sets it analyses up to the analysis's ``cap``.
    """
    n = g.n
    if n == 0:
        raise ValueError("decide requires a non-empty graph")
    if k < 0:
        raise ValueError(f"invalid width bound {k}")
    start = time.monotonic()
    if n == 1:
        # the one vertex is the one PMC, with empty outlet and no support
        stats = SolverStats(n, k, True, pmcs_buildable=1, pmcs_feasible=1)
        return DecideResult(True, stats, Witness(1, {1: PmcRecord(1, 0, ())}, {}))
    if not g.is_connected(g.full_mask):
        raise ValueError("decide requires a connected graph")
    if k == 0:
        return DecideResult(False, SolverStats(n, k, False), None)
    if k > n - 1:
        raise ValueError(f"width bound {k} out of range for n={n}")

    analysis = _Analysis(g) if _analysis is None else _analysis
    search = _Search(analysis, k, exhaustive, deadline)
    answer = search.run()
    stats = SolverStats(
        n,
        k,
        answer,
        iblocks=len(search.iblocks),
        oblocks=len(search.onb),
        pmcs_buildable=len(search.buildable),
        pmcs_feasible=len(search.feasible),
        facts=len(analysis),
        ms=(time.monotonic() - start) * 1000.0,
    )
    witness = None
    if answer:
        witness = Witness(search.root, search.feasible, search.iblock_source)
    return DecideResult(answer, stats, witness)


def treewidth(
    g: Graph,
    held: TreeDecomposition,
    lower: int = 0,
    deadline: float | None = None,
) -> tuple[int, TreeDecomposition, list[SolverStats], str]:
    """A bound on the treewidth of connected ``g``, a decomposition of ``g``,
    the stats of the levels run, each with the n of the graph it ran on, and
    how the decomposition came about.

    ``held`` is a decomposition of ``g`` the caller already holds.  The
    levels run on minors upward from max(``lower``, 1, minimum degree)
    (from 0 for a single vertex), then on ``g`` top-down, as the module
    docstring describes.  A certified answer needs the negative level
    tw - 1, which reaches its fixpoint, and an accepting level at or above
    tw, which stops at its root; binary search would add negative levels.
    A decomposition lifted from a minor is validated against ``g``, which
    raises :class:`AuditError` on failure.

    A finished run returns the width of the narrowest decomposition held
    with it.  That bound is the treewidth of ``g`` when ``lower`` is at
    most the treewidth, and at most ``lower`` otherwise.  A run stopped at
    the deadline returns the bound its levels certify, one above the last
    level that answered no on an audited minor, or the minimum degree of
    ``g`` when none did, with the narrowest decomposition held, which is
    wider.  A stop while ``g`` runs its levels keeps the bound of the level
    where they began, since the one no on ``g`` ends the run.

    ``how`` is ``"accepted"`` for a decomposition extracted from a level run
    on ``g``, which is then the last entry of the stats with a yes answer;
    ``"lifted"`` for a minor's yes lifted to ``g``, whether it accepted its
    level or was held as narrower than ``held``; and ``"settled_by_bound"``
    for ``held`` itself.  A stopped run returns the ``how`` of the
    decomposition it holds.
    """
    if g.n == 0:
        raise ValueError("treewidth requires a non-empty graph")
    start = max(lower, max(1, g.min_degree()) if g.n > 1 else 0)
    top = held.width()
    chain = minors.contraction_chain(g, start + 2, int(MINOR_SHARE * g.n))
    if chain and max(
            map(int.bit_count, greedy_elimination(chain[0][0], "min_degree")[1])) < top - 1:
        # the largest minor certifies no level above top - 3, so none of
        # the top levels, where the cost lies.  Measured without this gate,
        # queen6_6 and queen7_7 run 16 and 26 levels on minors and take a
        # fifth to a third longer, and sparse150_2 runs 12 levels, not 1;
        # the gate does not fire on the other benchmark graphs
        chain = []
    chain = {h.n: (_Analysis(h), branch) for h, branch in chain}
    analysis = _Analysis(g)
    levels: list[SolverStats] = []
    how = "settled_by_bound"
    size = 0
    bound = g.min_degree()
    k = start
    try:
        while k < top:
            size, step, yes = max(size, k + 2), 1, None
            # the gallop's start never falls, so it passed these minors for good
            chain = {h_n: minor for h_n, minor in chain.items() if h_n >= size}
            while size in chain:
                facts, branch = chain[size]
                res = decide(facts.g, k, deadline=deadline, _analysis=facts)
                if not res.answer:
                    minors.audit(g, facts.g, branch)
                _record(levels, res.stats)
                if not res.answer:
                    break
                yes = facts.g, branch, res.witness
                size, step = size + step, 2 * step
            else:
                # no minor up to the cap answers no at k, so none answers no
                # above k: g runs top - 1 until a no certifies top or top <= k
                if yes is not None:
                    td = _lift(g, *yes)
                    if td.width() < top:
                        top, held, how = td.width(), td, "lifted"
                while top > k:
                    # the levels after this one run below it and never
                    # read a set of size top
                    analysis.cap = top - 1
                    res = decide(g, top - 1, deadline=deadline, _analysis=analysis)
                    _record(levels, res.stats)
                    if not res.answer:
                        break
                    held, how = extract(g, res.witness), "accepted"
                    top = held.width()
                return top, held, levels, how
            bound = k = k + 1
    except SolverTimeout:
        return bound, held, levels, how
    return top, held, levels, how


def _record(levels: list[SolverStats], s: SolverStats) -> None:
    """Append a finished level's stats to ``levels`` and log them."""
    levels.append(s)
    logging.getLogger("twsolve").debug(
        "level n=%d k=%d answer=%s ms=%.1f iblocks=%d oblocks=%d pmcs_buildable=%d "
        "pmcs_feasible=%d facts=%d", s.n, s.k, s.answer, s.ms, s.iblocks, s.oblocks,
        s.pmcs_buildable, s.pmcs_feasible, s.facts)


def _lift(g: Graph, h: Graph, branch: list[int], witness: Witness) -> TreeDecomposition:
    """The decomposition of ``g`` from a yes on its minor ``h``: the minor's
    decomposition lifted through the branch sets and narrowed, returned only
    once it passes :func:`~twsolve.tdbuild.validate` against ``g``."""
    td = narrow(g, lift(extract(h, witness), branch, g.n))
    problems = validate(g, td)
    if problems:
        raise AuditError(f"lifted decomposition failed validation: {problems[:3]}")
    return td
