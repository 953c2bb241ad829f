import random
from collections import Counter

import pytest
from hypothesis import given, strategies as st

from twsolve import sieve
from twsolve.graph import AuditError
from twsolve.sieve import SieveBank, linear_scan_supersets

from conftest import mask

# a fixed survivor cut-off that ignores N(C); the tally shows that the rule
# sends queries with more survivors than this to the direct check too
OLD_DIRECT_CHECK = 24


def _random_pair(rng: random.Random, n: int, k: int) -> tuple[int, int]:
    """A stored-set shape: a set plus a disjoint neighborhood of size <= k."""
    size = rng.randint(1, max(1, n // 2))
    u = 0
    while u.bit_count() < size:
        u |= 1 << rng.randrange(n)
    nb_size = rng.randint(1, k)
    nb = 0
    while nb.bit_count() < nb_size:
        v = rng.randrange(n)
        if not u >> v & 1:
            nb |= 1 << v
    return u, nb


def _query_near(rng: random.Random, entries: list[tuple[int, int]], n: int, k: int):
    """A query (C, N(C)) drawn around a stored entry: C is one of its vertices
    or a random part of it, N(C) a part of its neighborhood plus a few vertices
    outside C, so that queries have many survivors and reach every margin.
    N(C) may exceed the budget on its own, which no stored set fits."""
    w, nb = rng.choice(entries)
    members = [x for x in range(n) if w >> x & 1]
    if rng.random() < 0.5:
        u = 1 << rng.choice(members)
    else:
        u = sum(1 << x for x in rng.sample(members, rng.randint(1, len(members))))
    n_u = sum(1 << x for x in range(n) if nb >> x & 1 and rng.random() < 0.8)
    for _ in range(rng.randint(0, 3)):
        n_u |= 1 << rng.randrange(n)
    n_u &= ~u
    while n_u.bit_count() > k + 2:
        n_u &= n_u - 1
    return u, n_u


def _differential(n: int, k: int, ops: int, seed: int) -> Counter:
    """Interleave stores and queries; every query must equal the linear scan
    over the entries stored so far, in insertion order.  Returns a tally of
    the margins of the hits, of the queries whose folded survivors take the
    count over R ("wide") by their budget b = k + 1 - |N(C)|, and of those
    sent to the direct check with more than ``OLD_DIRECT_CHECK`` survivors."""
    rng = random.Random(seed)
    bank = SieveBank(n, k)
    entries: list[tuple[int, int]] = []
    stored = set()
    seen: Counter = Counter()
    for _ in range(ops):
        if not entries or rng.random() < 0.6:
            u, nb = _random_pair(rng, n, k)
            if u not in stored:  # the bank's callers store each set once
                stored.add(u)
                bank.store(u, nb)
                entries.append((u, nb))
            continue
        u, nb = _query_near(rng, entries, n, k) if rng.random() < 0.8 else _random_pair(rng, n, k)
        got = bank.supersets(u, nb)
        assert got == linear_scan_supersets(entries, u, nb, k)
        # the query folded the tail first, so this counts the survivors
        # of the masks, which the rule splits
        survivors = sum(u & ~w == 0 for w, _ in entries[: bank._folded])
        wide = survivors > sieve._DIRECT_PER_NEIGHBOR * nb.bit_count()
        b = k + 1 - nb.bit_count()
        budget = "b < 0" if b < 0 else "b = k" if b == k else "b > k" if b > k else f"b = {b}"
        seen["wide"] += wide
        seen[f"wide, {budget}"] += wide
        seen["direct above old threshold"] += not wide and survivors > OLD_DIRECT_CHECK
        onb = dict(entries)
        for w in got:
            seen[f"margin {k + 1 - onb[w].bit_count()}"] += 1
    assert bank.entries == entries
    return seen


def test_store_and_retrieve_roundtrip():
    bank = SieveBank(n=4, k=2)
    bank.store(mask(1, 2, 3), mask(0))
    got = bank.supersets(mask(2), mask(1, 3))
    # |{1,3} union {0}| = 3 <= k+1
    assert got == [mask(1, 2, 3)]


def test_query_matches_itself():
    bank = SieveBank(n=6, k=3)
    u, nb = mask(0, 4), mask(1, 2)
    bank.store(u, nb)
    assert bank.supersets(u, nb) == [u]


def test_no_superset_no_result():
    bank = SieveBank(n=6, k=3)
    bank.store(mask(0, 1), mask(2))
    assert bank.supersets(mask(3), mask(4)) == []


def test_width_bound_must_be_positive():
    with pytest.raises(ValueError, match="at least 1"):
        SieveBank(4, 0)


def test_empty_bank():
    bank = SieveBank(n=8, k=3)
    assert bank.supersets(mask(0), mask(1)) == []
    assert linear_scan_supersets([], mask(0), mask(1), 3) == []


def _check_masks(bank: SieveBank) -> None:
    """Bit i of P[x] and Q[x] says whether the i-th folded entry has x in W
    and x in N(W); unfolded entries have no bits."""
    folded = bank.entries[: bank._folded]
    for i, (w, nb) in enumerate(folded):
        assert [bank.P[x] >> i & 1 for x in range(bank.n)] == [w >> x & 1 for x in range(bank.n)]
        assert [bank.Q[x] >> i & 1 for x in range(bank.n)] == [nb >> x & 1 for x in range(bank.n)]
    everything = (1 << len(folded)) - 1
    for m in bank.P + bank.Q:
        assert m & ~everything == 0


def test_posting_masks_match_entries():
    rng = random.Random(17)
    bank = SieveBank(48, 7)
    for batch in (100, 77, 5, 40):
        for _ in range(batch):
            bank.store(*_random_pair(rng, 48, 7))
        bank.supersets(mask(0), mask(1))
        _check_masks(bank)
        # a short tail waits for the next batch
        assert (bank._folded < len(bank.entries)) == (batch == 5)


def test_tail_is_scanned_until_folded():
    bank = SieveBank(40, 5)
    stored = [(mask(0, v), mask(v + 1)) for v in range(1, 39)]
    for i, (u, nb) in enumerate(stored[: sieve._FOLD_BATCH - 1]):
        bank.store(u, nb)
        assert bank.supersets(mask(0), mask(39)) == [w for w, _ in stored[: i + 1]]
    assert bank._folded == 0 and not any(bank.P)
    for u, nb in stored[sieve._FOLD_BATCH - 1:]:
        bank.store(u, nb)
    got = bank.supersets(mask(0), mask(39))
    assert bank._folded == len(stored)
    assert got == [w for w, _ in stored]
    _check_masks(bank)


def _budget_bank() -> tuple[SieveBank, list[tuple[int, int]]]:
    """A bank of 90 entries at k = 3: two folds of 40 and a tail of 10.
    Entry i of the first 60 is W = {0, 20 + i} with N(W) the
    i-th of six shapes, cycling; the other 30 are W = {5, 20 + i} with
    N(W) = {6, 7}."""
    shapes = [mask(1, 2), mask(1, 2, 90), mask(1, 90, 91), mask(4, 90), mask(3, 4), mask(91)]
    stored = [(mask(0, 20 + i), shapes[i % 6]) for i in range(60)]
    stored += [(mask(5, 20 + i), mask(6, 7)) for i in range(30)]
    bank = SieveBank(100, 3)
    for start in (0, 40, 80):
        for u, nb in stored[start:start + 40]:
            bank.store(u, nb)
        bank.supersets(mask(0), mask(1))
    assert bank._folded == 80 < len(bank.entries) == len(stored)
    return bank, stored


def test_budget_count_at_the_boundary():
    bank, stored = _budget_bank()
    first = [w for w, _ in stored[:60]]

    def shapes(*keep):
        return [w for i, w in enumerate(first) if i % 6 in keep]

    cases = [
        # b = 1 over R = V - {0, 1, 2, 3}: shapes with 0 or 1 vertex of R
        # are hits, those with 2 are not
        (mask(0), mask(1, 2, 3), shapes(0, 1, 4, 5)),
        # b = 0: only N(W) inside N(C) is a hit, one vertex of R is too many
        (mask(0), mask(1, 2, 3, 4), shapes(0, 4)),
        # b = 1, and every survivor has both 6 and 7 in R, so all overrun at
        # vertex 7, long before R is exhausted
        (mask(5), mask(1, 2, 3), []),
        # b < 0 and b > k: no survivor is a hit, and every survivor is
        (mask(0), mask(1, 2, 3, 4, 8), []),
        (mask(5), 0, [w for w, _ in stored[60:]]),
    ]
    for u, n_u, want in cases:
        survivors = sum(u & ~w == 0 for w, _ in stored[: bank._folded])
        assert survivors > sieve._DIRECT_PER_NEIGHBOR * n_u.bit_count()  # the wide path
        assert bank.supersets(u, n_u) == want == linear_scan_supersets(stored, u, n_u, 3)


class _ReadLog(list):
    """A list of masks that records the positions read from it."""

    def __init__(self, masks):
        super().__init__(masks)
        self.read: list[int] = []

    def __getitem__(self, x):
        self.read.append(x)
        return super().__getitem__(x)


def test_budget_count_reads_only_r_and_stops_when_all_overrun():
    bank, _ = _budget_bank()
    for u, n_u, read in [
        # b = 1: the hits keep the count running through R = V - {0, 1, 2, 3}
        (mask(0), mask(1, 2, 3), list(range(4, 100))),
        # b = 1: R = V - {1, 2, 3, 5} starts 0, 4, 6, 7, and every survivor
        # has passed b at 7
        (mask(5), mask(1, 2, 3), [0, 4, 6, 7]),
        (mask(0), mask(1, 2, 3, 4, 8), []),  # b < 0
        (mask(0), mask(1), []),  # b = k: every |N(W)| <= k fits
        (mask(0), 0, []),  # b > k
    ]:
        bank.Q = _ReadLog(bank.Q)
        bank.supersets(u, n_u)
        assert bank.Q.read == read


def test_store_rejects_a_neighborhood_that_meets_the_set():
    with pytest.raises(AuditError, match="disjoint"):
        SieveBank(6, 3).store(mask(0, 1), mask(1, 2))


def test_differential_small_buckets_force_splits(monkeypatch):
    # the unfolded tail plays the part of a bucket: tiny batches fold
    # between almost every pair of queries
    monkeypatch.setattr(sieve, "_FOLD_BATCH", 2)
    seen = _differential(n=30, k=6, ops=800, seed=5)
    assert seen["wide"] and seen["margin 1"] and seen["margin 6"]


def test_differential_medium():
    seen = _differential(n=64, k=16, ops=1500, seed=11)
    assert seen["wide"] and seen["margin 1"] and seen["margin 16"]


@given(st.integers(0, 10**6), st.sampled_from([4, 9, 15]), st.sampled_from([1, 4, 32]))
def test_differential_hypothesis(seed, k, batch):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sieve, "_FOLD_BATCH", batch)
        _differential(n=32, k=k, ops=400, seed=seed)


def test_differential_hypothesis_reaches_wide_queries_and_extreme_margins():
    # the generator behind the hypothesis test produces what it is meant to
    total: Counter = Counter()
    for seed in range(10):
        for k in (4, 9, 15):
            total += _differential(n=32, k=k, ops=400, seed=seed)
    assert total["wide"] >= 10
    for budget in ("b < 0", "b = 0", "b = 1", "b = k", "b > k"):
        assert total[f"wide, {budget}"], budget
    assert total["direct above old threshold"]
    for k in (4, 9, 15):
        assert total[f"margin {k}"] and total["margin 1"]


def test_differential_when_prefixes_collide():
    # sets identical on a long prefix: every query of the prefix survives
    # the subset test on all of them, so only the budget count separates them
    bank = SieveBank(n=200, k=4)
    base = mask(*range(0, 150))
    entries = []
    for i in range(150, 200):
        u = base | 1 << i
        nb = mask(150 + (i - 150 + 1) % 50, 150 + (i - 150 + 2) % 50)
        bank.store(u, nb)
        entries.append((u, nb))
    for query_nb in (0, mask(151), mask(151, 152, 153), mask(160, 170, 180, 190)):
        got = bank.supersets(base, query_nb)
        assert got == linear_scan_supersets(entries, base, query_nb, 4)
    # four query neighbors leave room for one more: the hits share one of them
    assert len(bank.supersets(base, mask(160, 170, 180, 190))) == 8
