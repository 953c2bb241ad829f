#!/usr/bin/env python3
"""Dump what ``pipeline.solve`` reports on a fixed set of graphs, one JSON
line per graph, for comparing two source trees.

    python3 scripts/solve_dump.py > new.jsonl
    python3 OTHER-TREE/scripts/solve_dump.py > old.jsonl && cmp old.jsonl new.jsonl

Each tree's script imports the package from its own ``src/``.  The set:
myciel3-6, queen5_5-7_7, the benchmark's sparse150_0-4, 240 seeded random
connected graphs (n 12-40), 40 disjoint unions of two or three such graphs
and two near-trees (n 2000 and 4000, m = n + 10).  A line holds the graph's
name, tw, lower, the bag count, the sha256 of the sorted bags and the
report (``SolveReport.as_dict``) without the times it holds: ``time_ms``
and each level's ``ms``.  Tree edges and bag order are left out, so two
trees agree whenever they find the same bags with the same counters.
"""

import hashlib
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from twsolve import pipeline
from twsolve.families import mycielski_graph, queen_graph, random_connected_graph
from twsolve.graph import Graph


def union(*graphs: Graph) -> Graph:
    edges, offset = [], 0
    for h in graphs:
        edges += [(u + offset, v + offset) for u, v in h.edge_list()]
        offset += h.n
    return Graph(offset, edges)


def small(i: int) -> Graph:
    """The i-th seeded random connected graph: n 12-40, m from n - 1 + n/4
    to n - 1 + 3n/4."""
    n = 12 + i % 29
    return random_connected_graph(n, n - 1 + (1 + i % 3) * n // 4, 1000 + i)


def graphs():
    for k in (3, 4, 5, 6):
        yield f"myciel{k}", mycielski_graph(k)
    for k in (5, 6, 7):
        yield f"queen{k}_{k}", queen_graph(k, k)
    for i in range(5):
        yield f"sparse150_{i}", random_connected_graph(150, 187, i)
    for i in range(240):
        yield f"random{i}", small(i)
    for i in range(40):
        yield f"union{i}", union(*(small(7 * i + j) for j in range(2 + i % 2)))
    for n in (2000, 4000):
        yield f"near_tree{n}", random_connected_graph(n, n + 10, 5)


def main() -> int:
    for name, g in graphs():
        tw, td, report = pipeline.solve(g, instance=name)
        record = report.as_dict()
        del record["time_ms"]
        for level in record["levels"]:
            del level["ms"]
        bags = json.dumps(sorted(td.bags)).encode()
        print(json.dumps({"name": name, "tw": tw, "lower": report.lower, "bags": len(td.bags),
                          "bags_sha256": hashlib.sha256(bags).hexdigest(), "report": record},
                         sort_keys=True), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
