#!/usr/bin/env python3
"""Dump what ``pipeline.solve`` reports on a fixed set of graphs, one JSON
line per graph, for comparing two source trees.

    python3 scripts/solve_dump.py > new.jsonl
    python3 OTHER-TREE/scripts/solve_dump.py > old.jsonl
    python3 scripts/solve_dump.py --compare old.jsonl new.jsonl [--ignore facts]

Each tree's script imports the package from its own ``src/``.  The set:
myciel3-6, queen5_5-7_7, the benchmark's sparse150_0-4, 240 seeded random
connected graphs (n 12-40), 40 disjoint unions of two or three such graphs
and two near-trees (n 2000 and 4000, m = n + 10).  A line holds the graph's
name, tw, lower, the bag count, the sha256 of the sorted bags and the
report (``SolveReport.as_dict``) without the times it holds: ``time_ms``
and each level's ``ms``.  Tree edges and bag order are left out, so two
trees agree whenever they find the same bags with the same counters.

``--compare OLD NEW`` prints each graph whose lines differ with the first
key path at which they do, and exits 1 if any graph differs, else 0.  Each
``--ignore KEY`` drops that key from every level row first, so ``--ignore
facts`` compares two trees whose facts tables keep different sets, and
prints the key's sum over each side's level rows and how many of the rows
at the same place on both sides it grew and fell in.
"""

import argparse
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


def first_difference(old, new, path: str = ""):
    """The first key path at which ``old`` and ``new`` differ, or None."""
    if isinstance(old, dict) and isinstance(new, dict):
        for key in sorted(old.keys() | new.keys()):
            if key not in old or key not in new:
                return f"{path}.{key}"
            found = first_difference(old[key], new[key], f"{path}.{key}")
            if found is not None:
                return found
        return None
    if isinstance(old, list) and isinstance(new, list):
        for i, (a, b) in enumerate(zip(old, new)):
            found = first_difference(a, b, f"{path}[{i}]")
            if found is not None:
                return found
        return None if len(old) == len(new) else f"{path}[{min(len(old), len(new))}]"
    return None if old == new else path


def compare(old_lines, new_lines, ignore=()) -> int:
    """Print each graph whose dump lines differ, with the first differing
    key path, then, for each ignored key, its sum over the level rows of
    each side and how many rows at the same place on both sides it grew and
    fell in; 1 if any graph differs, else 0."""
    def load(lines):
        dumps, dropped = {}, {}
        for line in lines:
            record = json.loads(line)
            rows = record["report"]["levels"]
            dropped[record["name"]] = [{key: level.pop(key, None) for key in ignore}
                                       for level in rows]
            dumps[record["name"]] = record
        return dumps, dropped

    (old, old_dropped), (new, new_dropped) = load(old_lines), load(new_lines)
    names = {**old, **new}  # in the order of OLD, then the graphs only NEW has
    differ = 0
    for name in names:
        if name not in old or name not in new:
            print(f"{name}: only in {'new' if name in new else 'old'}")
            differ += 1
            continue
        path = first_difference(old[name], new[name])
        if path is not None:
            print(f"{name}: {path[1:]}")
            differ += 1
    for key in ignore:
        old_sum, new_sum = (sum(row[key] or 0 for rows in dropped.values() for row in rows)
                            for dropped in (old_dropped, new_dropped))
        pairs = [(a[key], b[key]) for name in old_dropped if name in new_dropped
                 for a, b in zip(old_dropped[name], new_dropped[name])
                 if a[key] is not None and b[key] is not None]
        grew = sum(b > a for a, b in pairs)
        fell = sum(b < a for a, b in pairs)
        print(f"{key}: {old_sum} -> {new_sum} summed; "
              f"of {len(pairs)} level rows on both sides {grew} grew, {fell} fell")
    print(f"{differ} of {len(names)} graphs differ")
    return 1 if differ else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"),
                        help="compare two dump files instead of dumping")
    parser.add_argument("--ignore", action="append", default=[], metavar="KEY",
                        help="with --compare, drop KEY from every level row")
    args = parser.parse_args(argv)
    if args.compare:
        old, new = (Path(path).read_text().splitlines() for path in args.compare)
        return compare(old, new, args.ignore)
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
