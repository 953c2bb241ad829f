#!/usr/bin/env python3
"""``level_memory.py GRAPH K``: run decision level K of GRAPH alone, on a
fresh facts table capped at K as a top-down level of ``solver.treewidth``
runs.  Prints one JSON line: the answer, the four counters, the facts kept
and the MB tracemalloc counts as held when the level returns and at its peak.
GRAPH is ``queenR_C``, ``mycielK`` or a ``.gr``/``.col`` path."""

import json
import re
import sys
import tracemalloc
from dataclasses import asdict
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from twsolve import paceio, solver
from twsolve.families import mycielski_graph, queen_graph


def graph(name: str):
    if m := re.fullmatch(r"queen(\d+)_(\d+)", name):
        return queen_graph(int(m[1]), int(m[2]))
    if m := re.fullmatch(r"myciel(\d+)", name):
        return mycielski_graph(int(m[1]))
    return paceio.read_gr(Path(name).read_text())[0]


def main(argv: list[str]) -> None:
    name, k = argv[0], int(argv[1])
    g = graph(name)
    tracemalloc.start()
    analysis = solver._Analysis(g)
    analysis.cap = k
    stats = asdict(solver.decide(g, k, _analysis=analysis).stats)
    held, peak = (b / 2**20 for b in tracemalloc.get_traced_memory())
    tracemalloc.stop()
    row = {key: v for key, v in stats.items() if key not in ("n", "ms")}
    print(json.dumps({"graph": name, **row, "held_mb": round(held, 2), "peak_mb": round(peak, 2)}))


if __name__ == "__main__":
    main(sys.argv[1:])
