"""Deterministic graph families for the benchmarks, scripts and tests.

The Mycielski and queen families coincide with the classic coloring
benchmark instances of the same names (vertex and edge counts match the
published ones), so the solver can be exercised on them without instance
files.  The random connected graphs make the seeded sparse workloads.
Small textbook graphs that only the tests use are in ``tests/reference.py``.
"""

from __future__ import annotations

import random

from .graph import Graph

__all__ = [
    "cycle_graph",
    "mycielski_graph",
    "queen_graph",
    "random_connected_graph",
]


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError(f"cycle_graph needs n >= 3 vertices, got n={n}")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def _mycielskian(g: Graph) -> Graph:
    n = g.n
    edges = list(g.edge_list())
    # shadow vertex n+i copies the neighborhood of i; apex 2n sees all shadows
    for u, v in g.edge_list():
        edges.append((u, n + v))
        edges.append((v, n + u))
    for i in range(n):
        edges.append((n + i, 2 * n))
    return Graph(2 * n + 1, edges)


def mycielski_graph(index: int) -> Graph:
    """The iterated Mycielskian matching the classic benchmark numbering:
    index 2 is the 5-cycle, each step doubles and adds an apex."""
    if index < 2:
        raise ValueError(f"mycielski_graph needs index >= 2, got index={index}")
    g = cycle_graph(5)
    for _ in range(index - 2):
        g = _mycielskian(g)
    return g


def queen_graph(rows: int, cols: int) -> Graph:
    """Cells of a rows x cols board, adjacent when a queen move connects them."""
    edges = []
    for r1 in range(rows):
        for c1 in range(cols):
            v1 = r1 * cols + c1
            for r2 in range(rows):
                for c2 in range(cols):
                    v2 = r2 * cols + c2
                    if v2 <= v1:
                        continue
                    if r1 == r2 or c1 == c2 or abs(r1 - r2) == abs(c1 - c2):
                        edges.append((v1, v2))
    return Graph(rows * cols, edges)


def random_connected_graph(n: int, m: int, seed: int) -> Graph:
    """Uniform-ish random connected graph: random recursive tree plus random
    extra edges up to min(m, all pairs)."""
    rng = random.Random(seed)
    edges = set()
    for v in range(1, n):
        edges.add((rng.randrange(v), v))
    cap = n * (n - 1) // 2
    target = min(max(m, n - 1), cap)
    while len(edges) < target:
        u = rng.randrange(n)
        v = rng.randrange(n)
        if u == v:
            continue
        edges.add((min(u, v), max(u, v)))
    return Graph(n, sorted(edges))
