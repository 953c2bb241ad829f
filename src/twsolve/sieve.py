"""Superset index for stored components under a neighborhood-union budget.

Stores vertex sets W (each with its cached neighborhood N(W)) and answers
queries: given (C, N(C)), return every stored W with C a subset of W and
|N(C) | N(W)| <= k + 1, in the order the sets were stored.

Entries get ids in insertion order, and the index keeps int bitmasks over
those ids: ``P[x]`` holds the entries whose W contains vertex x and ``Q[x]``
those whose N(W) contains x.  A query ANDs ``P[x]`` over x in C, which
leaves the supersets of C.  N(W) never meets C, a subset of W, so with
R = V - C - N(C) and b = k + 1 - |N(C)| a survivor is a hit exactly when
|N(W) & R| <= b.  When at most ``_DIRECT_PER_NEIGHBOR`` * |N(C)| entries
survive, each one's union is counted directly, one short operation per
survivor.  Otherwise the count runs over R for all survivors at once: with
b < 0 none is a hit, with b >= k all are (``store`` keeps |N(W)| <= k),
and else ``over[j]`` holds the survivors with more than j vertices of R so
far.  Each x in R adds ``over[j - 1] & Q[x]`` to ``over[j]``, top-down so
that x counts once per survivor; the hits are the survivors outside
``over[b]``, and the count ends early once that leaves none.

Stores wait in a tail that queries scan directly.  Once the tail holds
``_FOLD_BATCH`` entries, the next query folds it into the masks with one
shifted OR per touched vertex.
"""

from __future__ import annotations

from .graph import AuditError

__all__ = ["SieveBank", "linear_scan_supersets"]

# survivors of the subset test are checked one by one when there are at most
# this many per vertex of N(C)
_DIRECT_PER_NEIGHBOR = 4
# the tail is folded into the masks once it holds this many entries: a fold
# touches every vertex of its batch, which costs more than scanning a short
# tail when the solver queries after every store or two
_FOLD_BATCH = 32


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


def _ids(mask: int) -> list[int]:
    """The positions of the set bits of ``mask``, ascending, from one scan of
    its binary text (``graph.bits`` costs two whole-mask operations per set
    bit, which made myciel's queries 1.5 times slower)."""
    bits = bin(mask)[:1:-1]
    out = []
    i = bits.find("1")
    while i >= 0:
        out.append(i)
        i = bits.find("1", i + 1)
    return out


class SieveBank:
    """Posting-bitmap superset index over sets with margins 1..k."""

    def __init__(self, n: int, k: int):
        if k < 1:
            raise ValueError(f"sieve width bound must be at least 1, got {k}")
        self.n = n
        self.k = k
        self.entries: list[tuple[int, int]] = []
        self.P = [0] * n
        self.Q = [0] * n
        self._folded = 0

    def store(self, u: int, n_u: int) -> None:
        """Add ``u`` with its neighborhood ``n_u``; callers store a set once.

        The margin check keeps |N(W)| <= k, on which the count's b >= k
        shortcut rests, and the count over R needs N(W) to miss W."""
        margin = self.k + 1 - n_u.bit_count()
        if not 1 <= margin <= self.k or u & n_u:
            raise AuditError(
                "stored sets must have a disjoint neighborhood of size between 1 and k")
        self.entries.append((u, n_u))

    def _fold(self) -> None:
        """Add the tail to the masks.

        The tail is written as a bit matrix with one row of 2n bits per
        entry, W then N(W); column x holds the tail's posting bits of x.
        """
        base = self._folded
        batch = self.entries[base:]
        self._folded = len(self.entries)
        n = self.n
        width = 2 * n
        rows = [w | n_w << n for w, n_w in batch]
        matrix = "".join(format(row, f"0{width}b")[::-1] for row in rows)
        touched = 0
        for row in rows:
            touched |= row
        P, Q = self.P, self.Q
        for x in _ids(touched):
            bits = int(matrix[x::width][::-1], 2) << base
            if x < n:
                P[x] |= bits
            else:
                Q[x - n] |= bits

    def _within_budget(self, s: int, u: int, n_u: int) -> int:
        """The entries of ``s`` with |N(W) & R| <= b, for R = V - C - N(C)
        and b = k + 1 - |N(C)|."""
        b = self.k + 1 - n_u.bit_count()
        if b < 0:
            return 0
        if b >= self.k:
            return s
        Q = self.Q
        over = [0] * (b + 1)
        for x in _ids((1 << self.n) - 1 & ~u & ~n_u):
            q = Q[x] & s
            if q:
                for j in range(b, 0, -1):
                    over[j] |= over[j - 1] & q
                over[0] |= q
                if over[b] == s:
                    return 0
        return s ^ over[b]

    def supersets(self, u: int, n_u: int) -> list[int]:
        """Every stored superset of ``u`` within the union budget, in
        insertion order."""
        entries = self.entries
        if len(entries) - self._folded >= _FOLD_BATCH:
            self._fold()
        budget = self.k + 1
        s = (1 << self._folded) - 1
        P = self.P
        m = u
        while m and s:
            low = m & -m
            s &= P[low.bit_length() - 1]
            m ^= low
        if s.bit_count() > _DIRECT_PER_NEIGHBOR * n_u.bit_count():
            hits = [entries[i][0] for i in _ids(self._within_budget(s, u, n_u))]
        else:
            hits = [w for w, n_w in map(entries.__getitem__, _ids(s))
                    if (n_u | n_w).bit_count() <= budget]
        hits += [w for w, n_w in entries[self._folded:]
                 if u & ~w == 0 and (n_u | n_w).bit_count() <= budget]
        return hits
