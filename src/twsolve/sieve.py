"""Superset index for stored components under a neighborhood-union budget.

Stores vertex sets U (each with its cached neighborhood N(U)) and answers
queries: given (C, N(C)), return every stored W with C a subset of W and
|N(C) | N(W)| <= k + 1.

The index is a bank of tries stratified by *margin* k + 1 - |N(U)|: bank
threshold i holds the sets whose margin lies in (m_{i-1}, m_i], with
m_i = 2^i and the last threshold equal to k.  Each trie node owns an
interval of vertex indices; an edge to a child is labelled with the subset
of that interval shared by everything below it.  A query walks edges whose
label contains the query bits of the interval and prunes a subtree as soon
as the query neighborhood overlaps the accumulated labels in more than the
stratum's margin bound, since every set below then fails the union budget.

Nodes start as flat buckets and split lazily once they exceed a load
threshold, picking the smallest interval width from {8, 16, 32, 64} that
separates the bucket's entries.
"""

from __future__ import annotations

__all__ = ["SieveBank", "SieveTrie", "linear_scan_supersets"]

_INTERVAL_SIZES = (8, 16, 32, 64)


def linear_scan_supersets(
    entries: list[tuple[int, int]], u: int, n_u: int, k: int
) -> list[int]:
    """Reference implementation of the superset query by exhaustive scan."""
    budget = k + 1
    return [
        w
        for w, n_w in entries
        if u & ~w == 0 and (n_u | n_w).bit_count() <= budget
    ]


class _Node:
    """Trie node: a bucket of entries until split, an interval node after."""

    __slots__ = ("start", "end", "interval_mask", "entries", "children")

    def __init__(self, start: int):
        self.start = start
        self.end = -1
        self.interval_mask = 0
        self.entries: list[tuple[int, int]] | None = []
        self.children: dict[int, "_Node"] | None = None


class SieveTrie:
    """One stratum of the bank: a trie over sets with margin <= margin_bound."""

    def __init__(self, n: int, k: int, margin_bound: int, bucket_cap: int = 64):
        self.n = n
        self.k = k
        self.margin_bound = margin_bound
        self.bucket_cap = bucket_cap
        self.root = _Node(0)
        self.size = 0

    def store(self, u: int, n_u: int) -> None:
        node = self.root
        while node.children is not None:
            chunk = u & node.interval_mask
            child = node.children.get(chunk)
            if child is None:
                child = _Node(node.end + 1)
                node.children[chunk] = child
            node = child
        node.entries.append((u, n_u))
        self.size += 1
        if len(node.entries) > self.bucket_cap and node.start < self.n:
            self._split(node)

    def _split(self, node: _Node) -> None:
        start = node.start
        entries = node.entries
        chosen = None
        for size in _INTERVAL_SIZES:
            end = min(start + size, self.n) - 1
            mask = ((1 << (end + 1)) - 1) & ~((1 << start) - 1)
            if len({u & mask for u, _ in entries}) >= 2:
                chosen = (end, mask)
                break
            if end == self.n - 1:
                break
        if chosen is None:
            # no width separates; consume the widest interval and move on
            end = min(start + _INTERVAL_SIZES[-1], self.n) - 1
            chosen = (end, ((1 << (end + 1)) - 1) & ~((1 << start) - 1))
        node.end, mask = chosen
        node.interval_mask = mask
        node.children = {}
        node.entries = None
        for u, n_u in entries:
            chunk = u & mask
            child = node.children.get(chunk)
            if child is None:
                child = _Node(node.end + 1)
                node.children[chunk] = child
            child.entries.append((u, n_u))
        for child in node.children.values():
            if len(child.entries) > self.bucket_cap and child.start < self.n:
                self._split(child)

    def supersets(self, u: int, n_u: int, out: list[int]) -> None:
        """Append every stored superset of ``u`` within the union budget to ``out``."""
        budget = self.k + 1
        m = self.margin_bound
        stack = [(self.root, 0)]
        while stack:
            node, overlap = stack.pop()
            if node.children is None:
                for w, n_w in node.entries:
                    if u & ~w == 0 and (n_u | n_w).bit_count() <= budget:
                        out.append(w)
                continue
            imask = node.interval_mask
            u_chunk = u & imask
            nu_chunk = n_u & imask
            for chunk, child in node.children.items():
                if u_chunk & ~chunk:
                    continue
                acc = overlap + (nu_chunk & chunk).bit_count()
                if acc > m:
                    continue
                stack.append((child, acc))


class SieveBank:
    """Margin-stratified bank of tries plus a global deduplication set."""

    def __init__(self, n: int, k: int, bucket_cap: int = 64):
        assert k >= 1
        self.n = n
        self.k = k
        thresholds = []
        m = 2
        while m < k:
            thresholds.append(m)
            m *= 2
        thresholds.append(k)
        self.thresholds = thresholds
        self.sieves = [SieveTrie(n, k, t, bucket_cap) for t in thresholds]
        self._stored: set[int] = set()

    def __len__(self) -> int:
        return len(self._stored)

    def __contains__(self, u: int) -> bool:
        return u in self._stored

    def sieve_index(self, margin: int) -> int:
        for i, t in enumerate(self.thresholds):
            if margin <= t:
                return i
        raise AssertionError(f"margin {margin} above top threshold {self.thresholds[-1]}")

    def store(self, u: int, n_u: int) -> None:
        margin = self.k + 1 - n_u.bit_count()
        if not 1 <= margin <= self.k:
            raise AssertionError("stored sets must have neighborhood size between 1 and k")
        if u in self._stored:
            return
        self._stored.add(u)
        self.sieves[self.sieve_index(margin)].store(u, n_u)

    def supersets(self, u: int, n_u: int) -> list[int]:
        out: list[int] = []
        for sieve in self.sieves:
            sieve.supersets(u, n_u, out)
        return out
