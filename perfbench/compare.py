#!/usr/bin/env python3
"""Compare two counter snapshots written by a traced run.

    python3 perfbench/compare.py OLD-counters.json NEW-counters.json

A change that claims only speed must leave every treewidth, bag count, and
per-part, per-level counter (k, answer, iblocks, oblocks, pmcs_buildable,
pmcs_feasible, sieve queries, hits and stores) identical.  Prints each
difference and exits 1 if there is any, 0 if the snapshots agree.
"""

from __future__ import annotations

import json
import sys


def differences(old, new, path: str = "") -> list[str]:
    if isinstance(old, dict) and isinstance(new, dict):
        out = []
        for key in sorted(old.keys() | new.keys()):
            if key not in new:
                out.append(f"{path}/{key}: missing in the second snapshot")
            elif key not in old:
                out.append(f"{path}/{key}: missing in the first snapshot")
            else:
                out += differences(old[key], new[key], f"{path}/{key}")
        return out
    if isinstance(old, list) and isinstance(new, list):
        out = []
        if len(old) != len(new):
            out.append(f"{path}: length {len(old)} vs {len(new)}")
        for i, (a, b) in enumerate(zip(old, new)):
            out += differences(a, b, f"{path}[{i}]")
        return out
    return [] if old == new else [f"{path}: {old!r} vs {new!r}"]


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(argv[0]) as f:
        old = json.load(f)
    with open(argv[1]) as f:
        new = json.load(f)
    diffs = differences(old, new)
    for line in diffs[:50]:
        print(line)
    if diffs:
        print(f"{len(diffs)} difference(s)")
        return 1
    print("snapshots identical")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
