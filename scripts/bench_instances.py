#!/usr/bin/env python3
"""Benchmark the solver on the standard instances and print a results table.

Generated families run out of the box: Mycielski and queen graphs, and the
sparse random rows random_connected_graph(150, 187, i) for i = 0..4, where
the simplicial reduction removes about 110 of the 150 vertices and safe
separators split the rest into a few parts.  The ``removed`` column counts
the vertices the reduction removed and ``parts`` the parts solved after
splitting; both are 0 and 1 where preprocessing finds nothing to do.
``lifted`` counts the parts whose decomposition was lifted from a minor's
yes instead of coming from an accepting level on the part (1 on myciel5).
Each row's time is the median of three solves in this one process, so a
slow first call or a noisy moment on the host moves it less.
File-based instances run when their files are under instances/ (see
instances/README.md).  Pass --include-hard to also attempt the stretch
rows, which are not part of the acceptance gate: queen8_8 (about 1.5 s per
solve, most of it the no at level 44) and myciel6 (about 1.3 s per solve).
Rows are printed as they finish.
"""

import argparse
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from twsolve import paceio, pipeline
from twsolve.families import mycielski_graph, queen_graph, random_connected_graph

INSTANCE_DIR = Path(__file__).resolve().parent.parent / "instances"

EASY = [
    ("myciel3", lambda: mycielski_graph(3)),
    ("myciel4", lambda: mycielski_graph(4)),
    ("myciel5", lambda: mycielski_graph(5)),
    ("queen5_5", lambda: queen_graph(5, 5)),
    ("queen6_6", lambda: queen_graph(6, 6)),
    ("queen7_7", lambda: queen_graph(7, 7)),
] + [
    (f"sparse150_{i}", lambda i=i: random_connected_graph(150, 187, i)) for i in range(5)
]
HARD = [
    ("queen8_8", lambda: queen_graph(8, 8)),
    ("myciel6", lambda: mycielski_graph(6)),
]
FILES = [
    "huck", "jean", "anna", "david", "miles250", "miles500",
    "ex007", "ex015", "ex049", "ex055", "ex075", "ex107", "ex113", "ex147",
]


def load_file(name: str):
    for ext in (".col", ".gr"):
        path = INSTANCE_DIR / f"{name}{ext}"
        if path.exists():
            return paceio.read_gr(path.read_text())[0]
    return None


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--include-hard", action="store_true")
    args = parser.parse_args()

    rows = list(EASY) + (HARD if args.include_hard else [])
    rows += [(name, lambda name=name: load_file(name)) for name in FILES]
    print(f"{'instance':<12} {'n':>5} {'m':>6} {'tw':>4} {'removed':>7} {'parts':>5} "
          f"{'lifted':>6} {'time(s)':>9}")
    for name, make in rows:
        g = make()
        if g is None:
            print(f"{name:<12} {'-':>5} {'-':>6} {'-':>4} {'-':>7} {'-':>5} {'-':>6} "
                  f"{'missing':>9}")
            continue
        times = []
        for _ in range(3):
            t0 = time.monotonic()
            tw, _, report = pipeline.solve(g, instance=name)
            times.append(time.monotonic() - t0)
        print(f"{name:<12} {g.n:>5} {g.edge_count:>6} {tw:>4} "
              f"{report.reduction['removed']:>7} {report.parts['total']:>5} "
              f"{report.parts['lifted']:>6} {statistics.median(times):>9.2f}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
