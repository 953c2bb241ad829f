#!/usr/bin/env python3
"""Count the principal combinatorial objects on random instances.

Prints one CSV row per (n, m) pair: minimal separators and potential maximal
cliques (exhaustive up to n = 16, the limit of the enumerations in
``twsolve.oracle``, and NA above it), the feasible objects of an
exhaustive solver run at k = treewidth, and the two theoretical bounds on
relevant potential maximal cliques.  Larger n values show how far the actual
counts sit below the bounds; expect minutes per row beyond n = 30.
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from twsolve.census import census, census_csv
from twsolve.families import random_connected_graph


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--sizes", default="20,30", help="comma-separated n values")
    parser.add_argument("--densities", default="2,3", help="m = d*n multipliers")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()

    rows = []
    for n in (int(s) for s in args.sizes.split(",")):
        for d in (int(s) for s in args.densities.split(",")):
            g = random_connected_graph(n, d * n, args.seed)
            rows.append(census(g, f"rand-n{n}-m{d * n}"))
            sys.stderr.write(f"done n={n} m={d * n}\n")
    sys.stdout.write(census_csv(rows))
    return 0


if __name__ == "__main__":
    sys.exit(main())
