"""Decide treewidth <= k by generating only positive subproblem instances.

The search keeps four growing collections: feasible inbound full blocks
(worked through a FIFO queue), feasible outbound full blocks (indexed in a
:class:`~twsolve.sieve.SieveBank` for superset queries), buildable potential
maximal cliques, and feasible potential maximal cliques.  Every new inbound
block is matched against the stored outbound blocks; each match proposes a
candidate clique K = N(C) | N(B) that may be a new potential maximal clique
or spawn a new outbound block.  A potential maximal clique becomes feasible
once all of its support components have appeared as inbound blocks, and then
emits the crib of its outlet as a new inbound block.  The answer is yes
exactly when some feasible potential maximal clique has an empty outlet.

Feasible records keep witness links (which clique emitted which block), so
an accepting run can be unfolded into an explicit tree decomposition.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Iterator

from .blocks import first_full_component, is_cliquish, is_outbound, outlet_and_support
from .graph import Graph
from .sieve import SieveBank

__all__ = [
    "DecideResult",
    "PmcRecord",
    "SolverStats",
    "SolverTimeout",
    "Witness",
    "decide",
    "levels",
    "lower_bound",
    "treewidth",
]


class SolverTimeout(Exception):
    """Raised when a decision run exceeds its deadline."""


@dataclass(slots=True)
class PmcRecord:
    """A feasible potential maximal clique with its outlet and support components."""

    vertices: int
    outlet: int
    support: tuple[int, ...]


@dataclass(slots=True)
class Witness:
    """Provenance links of an accepting run, enough to rebuild a decomposition."""

    n: int
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
    elapsed_ms: float = 0.0


@dataclass(slots=True)
class DecideResult:
    answer: bool
    stats: SolverStats
    witness: Witness | None = None


def _trivial_witness(n: int) -> Witness:
    mask = (1 << n) - 1
    rec = PmcRecord(mask, 0, ())
    return Witness(n, mask, {mask: rec}, {})


class _Search:
    """One decision run for a fixed graph and width bound."""

    def __init__(self, g: Graph, k: int, exhaustive: bool, deadline: float | None,
                 debug: bool):
        self.g = g
        self.k = k
        self.exhaustive = exhaustive
        self.deadline = deadline
        self.debug = debug
        self.iblocks: list[tuple[int, int]] = []
        self.iblock_set: set[int] = set()
        self.iblock_source: dict[int, int] = {}
        self.bank = SieveBank(g.n, k)
        self.onb: dict[int, int] = {}
        self.buildable: set[int] = set()
        self.records: dict[int, PmcRecord] = {}
        self.feasible: dict[int, PmcRecord] = {}
        self.waiting: dict[int, list[int]] = {}
        self.missing: dict[int, int] = {}
        self.memo: dict[int, tuple[bool, int | None]] = {}
        self.root: int | None = None

    # -- candidate analysis ------------------------------------------------

    def _analyze(self, cand: int) -> tuple[bool, int | None]:
        """Classify a candidate set: is it a PMC, and if it has full
        components instead, the outbound one (the first in component order)
        usable as a new outbound block when the separator is small enough."""
        g = self.g
        full = 0
        comp_nbs = []
        for c, nb in g.components_with_neighborhoods(cand):
            if nb == cand and not full:
                full = c
            comp_nbs.append(nb)
        if not full:
            return (is_cliquish(g, cand, comp_nbs), None)
        if cand.bit_count() <= self.k:
            return (False, full)
        return (False, None)

    def _candidate(self, cand: int) -> tuple[bool, int | None]:
        res = self.memo.get(cand)
        if res is None:
            res = self._analyze(cand)
            self.memo[cand] = res
        return res

    def _register_pmc(self, cand: int) -> None:
        """Record a buildable PMC; mark feasible now or park it on its missing
        support components."""
        if cand in self.buildable:
            return
        self.buildable.add(cand)
        out, sup = outlet_and_support(self.g, cand, debug=self.debug)
        rec = PmcRecord(cand, out, sup)
        self.records[cand] = rec
        miss = 0
        iblock_set = self.iblock_set
        waiting = self.waiting
        for c in sup:
            if c not in iblock_set:
                waiting.setdefault(c, []).append(cand)
                miss += 1
        if miss:
            self.missing[cand] = miss
            return
        crib = self._mark_feasible(cand, rec)
        if crib:
            self._emit_iblock(crib, out, cand)

    def _mark_feasible(self, cand: int, rec: PmcRecord) -> int:
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
        iblock_set = self.iblock_set
        waiting = self.waiting
        missing = self.missing
        records = self.records
        while work:
            comp, nb, src = work.pop()
            if comp in iblock_set:
                continue
            if self.debug:
                assert not is_outbound(self.g, comp), "emitted block must be inbound"
                assert self.g.open_neighborhood(comp) == nb
            iblock_set.add(comp)
            self.iblocks.append((comp, nb))
            self.iblock_source[comp] = src
            for k2 in waiting.pop(comp, ()):
                cnt = missing.pop(k2) - 1
                if cnt:
                    missing[k2] = cnt
                    continue
                rec2 = records[k2]
                crib = self._mark_feasible(k2, rec2)
                if crib and crib not in iblock_set:
                    work.append((crib, rec2.outlet, k2))

    def _store_oblock(self, comp: int, nb: int, new_obs: list[tuple[int, int]]) -> None:
        if self.debug:
            assert is_outbound(self.g, comp), "stored block must be outbound"
            assert nb.bit_count() <= self.k
            assert self.g.open_neighborhood(comp) == nb
        self.onb[comp] = nb
        self.bank.store(comp, nb)
        new_obs.append((comp, nb))

    # -- main loop ---------------------------------------------------------

    def run(self) -> bool:
        g = self.g
        k = self.k
        adj = g.adj
        size_cap = k + 1
        deadline = self.deadline
        exhaustive = self.exhaustive
        onb = self.onb

        # seed with closed neighborhoods that are small PMCs
        for v in range(g.n):
            if deadline is not None and not (v & 63) and time.monotonic() > deadline:
                raise SolverTimeout
            nv = adj[v] | 1 << v
            if nv.bit_count() <= size_cap:
                pmc, _ = self._candidate(nv)
                if pmc:
                    self._register_pmc(nv)

        i = 0
        iblocks = self.iblocks
        while i < len(iblocks):
            if self.root is not None and not exhaustive:
                break
            if deadline is not None and time.monotonic() > deadline:
                raise SolverTimeout
            comp, nb = iblocks[i]
            i += 1
            new_obs: list[tuple[int, int]] = []
            hits = self.bank.supersets(comp, nb)
            tick = 0
            for b in hits:
                tick += 1
                if deadline is not None and not (tick & 255) and time.monotonic() > deadline:
                    raise SolverTimeout
                cand = nb | onb[b]
                pmc, oblock = self._candidate(cand)
                if pmc:
                    self._register_pmc(cand)
                elif oblock is not None and oblock not in onb:
                    self._store_oblock(oblock, cand, new_obs)
            # the outbound full component of this block's separator
            a = first_full_component(g, nb)
            if self.debug:
                assert a and a != comp
            if a not in onb:
                self._store_oblock(a, nb, new_obs)
            # candidate cliques clipped out of each fresh outbound block
            for a, na in new_obs:
                rem = na
                while rem:
                    vb = rem & -rem
                    rem ^= vb
                    cand = na | (adj[vb.bit_length() - 1] & a)
                    if cand.bit_count() <= size_cap:
                        pmc, _ = self._candidate(cand)
                        if pmc:
                            self._register_pmc(cand)

        if self.debug:
            assert set(self.feasible) <= self.buildable
        return self.root is not None


def decide(
    g: Graph,
    k: int,
    *,
    exhaustive: bool = False,
    deadline: float | None = None,
    debug: bool = False,
) -> DecideResult:
    """Decide whether the treewidth of connected ``g`` is at most ``k``.

    A yes answer carries a witness: a feasible potential maximal clique with
    empty outlet plus the complete chain of records behind it.  With
    ``exhaustive`` the run continues to the fixpoint even after an accepting
    clique is found, so the final counters cover every feasible object.
    """
    n = g.n
    if n == 0:
        raise ValueError("decide requires a non-empty graph")
    if k < 0:
        raise ValueError(f"invalid width bound {k}")
    start = time.monotonic()
    if n == 1:
        stats = SolverStats(n, k, True, elapsed_ms=0.0)
        return DecideResult(True, stats, _trivial_witness(1))
    if not g.is_connected(g.full_mask):
        raise ValueError("decide requires a connected graph")
    if k == 0:
        return DecideResult(False, SolverStats(n, k, False), None)
    if k > n - 1:
        raise ValueError(f"width bound {k} out of range for n={n}")

    search = _Search(g, k, exhaustive, deadline, debug)
    answer = search.run()
    stats = SolverStats(
        n,
        k,
        answer,
        iblocks=len(search.iblocks),
        oblocks=len(search.onb),
        pmcs_buildable=len(search.buildable),
        pmcs_feasible=len(search.feasible),
        elapsed_ms=(time.monotonic() - start) * 1000.0,
    )
    witness = None
    if answer:
        witness = Witness(n, search.root, search.feasible, search.iblock_source)
    return DecideResult(answer, stats, witness)


def levels(
    g: Graph, *, deadline: float | None = None, debug: bool = False
) -> Iterator[DecideResult]:
    """Run the decision procedure on connected ``g`` level by level.

    Yields one result per width bound k, ascending from max(1, minimum
    degree) (from 0 for a single vertex), and stops after the first accepting
    level.  Every negative level k certifies that the treewidth exceeds k.
    """
    if g.n == 0:
        raise ValueError("levels requires a non-empty graph")
    start = max(1, g.min_degree()) if g.n > 1 else 0
    for k in range(start, g.n):
        res = decide(g, k, deadline=deadline, debug=debug)
        yield res
        if res.answer:
            return
    raise RuntimeError("decision procedure failed to accept at the trivial bound")


def treewidth(
    g: Graph,
    *,
    deadline: float | None = None,
    debug: bool = False,
    stats_out: list[SolverStats] | None = None,
) -> tuple[int, Witness]:
    """Exact treewidth of connected ``g`` with the accepting witness.

    Runs the decision procedure with the bound increasing one by one from the
    minimum degree; binary search would overshoot and negative levels are
    cheap relative to the accepting one.
    """
    for res in levels(g, deadline=deadline, debug=debug):
        if stats_out is not None:
            stats_out.append(res.stats)
    return res.stats.k, res.witness


def lower_bound(g: Graph, time_limit: float, *, debug: bool = False) -> int:
    """Best certified treewidth lower bound within a time budget.

    Every completed negative decision at level k certifies a bound of k + 1;
    the floor is the minimum degree.  If a level accepts, the exact treewidth
    is returned.
    """
    deadline = time.monotonic() + max(0.0, time_limit)
    lb = 0
    try:
        for res in levels(g, deadline=deadline, debug=debug):
            lb = res.stats.k if res.answer else res.stats.k + 1
    except SolverTimeout:
        pass
    return max(lb, g.min_degree())
