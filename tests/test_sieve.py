import random

from hypothesis import given, strategies as st

from twsolve.sieve import SieveBank, linear_scan_supersets

from conftest import mask


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


def test_duplicate_store_is_idempotent():
    bank = SieveBank(n=6, k=3)
    bank.store(mask(0, 1), mask(2))
    bank.store(mask(0, 1), mask(2))
    assert len(bank) == 1
    assert bank.supersets(mask(0), mask(2)) == [mask(0, 1)]


def test_margin_stratification():
    bank = SieveBank(n=8, k=4)
    # margins: k+1-|nb|
    cases = [(mask(1), mask(0, 2, 3, 4)), (mask(2), mask(0, 1)), (mask(3), mask(4))]
    for u, nb in cases:
        bank.store(u, nb)
        margin = bank.k + 1 - nb.bit_count()
        idx = bank.sieve_index(margin)
        homes = [i for i, s in enumerate(bank.sieves) if s.size > 0]
        assert idx in homes
    total = sum(s.size for s in bank.sieves)
    assert total == len(cases)
    assert bank.thresholds[-1] == bank.k
    assert bank.thresholds == sorted(set(bank.thresholds))


def test_threshold_schedule():
    assert SieveBank(4, 1).thresholds == [1]
    assert SieveBank(4, 2).thresholds == [2]
    assert SieveBank(8, 3).thresholds == [2, 3]
    assert SieveBank(16, 8).thresholds == [2, 4, 8]
    assert SieveBank(64, 31).thresholds == [2, 4, 8, 16, 31]


def test_empty_bank():
    bank = SieveBank(n=8, k=3)
    assert bank.supersets(mask(0), mask(1)) == []
    assert linear_scan_supersets([], mask(0), mask(1), 3) == []


def _differential(n: int, k: int, ops: int, seed: int, bucket_cap: int = 64) -> None:
    rng = random.Random(seed)
    bank = SieveBank(n, k, bucket_cap=bucket_cap)
    entries: list[tuple[int, int]] = []
    stored = set()
    for _ in range(ops):
        u, nb = _random_pair(rng, n, k)
        if rng.random() < 0.7:
            bank.store(u, nb)
            if u not in stored:
                stored.add(u)
                entries.append((u, nb))
        else:
            got = bank.supersets(u, nb)
            want = linear_scan_supersets(entries, u, nb, k)
            assert sorted(got) == sorted(want)


def test_differential_small_buckets_force_splits():
    _differential(n=30, k=6, ops=800, seed=5, bucket_cap=4)


def test_differential_medium():
    _differential(n=64, k=16, ops=1500, seed=11)


@given(st.integers(0, 10**6), st.sampled_from([4, 9, 15]))
def test_differential_hypothesis(seed, k):
    _differential(n=32, k=k, ops=220, seed=seed, bucket_cap=8)


def test_bucket_chain_when_prefixes_collide():
    # sets identical on a long prefix force non-separating splits
    bank = SieveBank(n=200, k=5, bucket_cap=2)
    base = mask(*range(0, 150))
    entries = []
    for i in range(150, 156):
        u = base | 1 << i
        nb = mask(i + 20) if i + 20 < 200 else mask(0)
        nb &= ~u
        bank.store(u, nb)
        entries.append((u, nb))
    got = bank.supersets(base, 0)
    want = linear_scan_supersets(entries, base, 0, 5)
    assert sorted(got) == sorted(want)


def test_trie_path_labels_reconstruct_stored_sets():
    # walking edge labels from the root must reproduce each entry's prefix
    rng = random.Random(17)
    bank = SieveBank(48, 7, bucket_cap=3)
    for _ in range(300):
        u, nb = _random_pair(rng, 48, 7)
        bank.store(u, nb)

    def walk(node, prefix):
        if node.children is None:
            for w, _ in node.entries:
                below = ((1 << node.start) - 1) if node.start < 48 else (1 << 48) - 1
                assert w & below == prefix, "edge labels disagree with entry"
            return
        for chunk, child in node.children.items():
            assert chunk & ~node.interval_mask == 0
            walk(child, prefix | chunk)

    for sieve in bank.sieves:
        walk(sieve.root, 0)
