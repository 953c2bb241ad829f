"""Superset index for stored components under a neighborhood-union budget.

Stores vertex sets W (each with its cached neighborhood N(W)) and answers
queries: given (C, N(C)), return every stored W with C a subset of W and
|N(C) | N(W)| <= k + 1, in the order the sets were stored.

Entries get ids in insertion order, and the index keeps int bitmasks over
those ids: ``P[x]`` holds the entries whose W contains vertex x, ``Q[x]``
those whose N(W) contains x, and ``G[r]`` those whose margin
k + 1 - |N(W)| is at least r.  A query ANDs ``P[x]`` over x in C, which
leaves the supersets of C.  An entry is a hit when |N(C) | N(W)| <= k + 1,
that is when its count |N(C) - N(W)| is at most its margin.  When at most
``_DIRECT_PER_NEIGHBOR`` * |N(C)| entries survive, each one's union is
counted directly, one short operation per survivor.  Otherwise, for each x
in N(C), the survivors lacking x in N(W) are added into bit-sliced counter
planes, and an entry with count c is a hit exactly when it lies in
``G[c]``.  That pass costs about |N(C)| times the plane count of big-int
operations over the whole id space, which pays only when the survivors
outnumber N(C) by more than the constant; with N(C) empty every survivor
is a hit, read off ``G[0]`` without a loop.

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
        self.G = [0] * (k + 1)
        self._folded = 0

    def store(self, u: int, n_u: int) -> None:
        """Add ``u`` with its neighborhood ``n_u``; callers store a set once."""
        margin = self.k + 1 - n_u.bit_count()
        if not 1 <= margin <= self.k:
            raise AuditError("stored sets must have neighborhood size between 1 and k")
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
        by_margin = [0] * (self.k + 1)
        for j, (_, n_w) in enumerate(batch):
            by_margin[self.k + 1 - n_w.bit_count()] |= 1 << j
        G = self.G
        at_least = 0
        for r in range(self.k, -1, -1):
            at_least |= by_margin[r]
            G[r] |= at_least << base

    def _within_budget(self, s: int, n_u: int) -> int:
        """The entries of ``s`` with |N(C) - N(W)| at most their margin."""
        Q = self.Q
        planes: list[int] = []
        for x in _ids(n_u):
            carry = s & ~Q[x]
            for i, plane in enumerate(planes):
                planes[i] = plane ^ carry
                carry &= plane
                if not carry:
                    break
            if carry:
                planes.append(carry)
        # split the entries by count, from the top plane down
        classes = [(s, 0)]
        for i in range(len(planes) - 1, -1, -1):
            plane = planes[i]
            split = []
            for part, count in classes:
                one = part & plane
                if one:
                    split.append((one, count | 1 << i))
                if part != one:
                    split.append((part ^ one, count))
            classes = split
        G = self.G
        hits = 0
        for part, count in classes:
            if count <= self.k:
                hits |= part & G[count]
        return hits

    def supersets(self, u: int, n_u: int) -> list[int]:
        """Every stored superset of ``u`` within the union budget, in
        insertion order."""
        entries = self.entries
        if len(entries) - self._folded >= _FOLD_BATCH:
            self._fold()
        budget = self.k + 1
        s = self.G[0]
        P = self.P
        m = u
        while m and s:
            low = m & -m
            s &= P[low.bit_length() - 1]
            m ^= low
        if s.bit_count() > _DIRECT_PER_NEIGHBOR * n_u.bit_count():
            hits = [entries[i][0] for i in _ids(self._within_budget(s, n_u))]
        else:
            hits = [w for w, n_w in map(entries.__getitem__, _ids(s))
                    if (n_u | n_w).bit_count() <= budget]
        hits += [w for w, n_w in entries[self._folded:]
                 if u & ~w == 0 and (n_u | n_w).bit_count() <= budget]
        return hits
