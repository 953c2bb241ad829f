#!/usr/bin/env python3
"""Time ``pipeline.solve`` of two source trees in paired rounds in one process.

    python3 scripts/paired.py OLD_SRC NEW_SRC [--instances queen7_7,myciel5,sparse150_2]
                              [--rounds N]

OLD_SRC and NEW_SRC are directories holding a ``twsolve`` package, such as
the ``src`` of two checkouts.  Both are imported into this process under
names of their own, and each builds its own copy of every instance:
``queenR_C``, ``mycielK`` or ``sparse150_I``, the benchmark's
``random_connected_graph(150, 187, I)``.  Each round solves every instance
once with each tree, the old tree first in even rounds and the new one first
in odd rounds, so neither tree always runs on a warmer process.

Every decomposition must pass its own tree's ``validate`` at the width
reported, and the two trees must agree on tw and ``report.counters``;
otherwise the instance is named and the exit status is 1.  For each
instance the script prints each tree's median time, the median of the
per-round new/old ratios with their quartiles, and the rounds the new tree
won.
"""

import argparse
import gc
import importlib
import importlib.util
import re
import statistics
import sys
import time
from pathlib import Path

DEFAULT_INSTANCES = "queen7_7,myciel5,sparse150_2"


def load(src: Path, name: str):
    """The ``twsolve`` package under ``src``, imported as ``name``."""
    package = Path(src) / "twsolve"
    spec = importlib.util.spec_from_file_location(
        name, package / "__init__.py", submodule_search_locations=[str(package)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def instance(tree, name: str):
    """The graph ``name`` built by ``tree``'s own families."""
    families = importlib.import_module(f"{tree.__name__}.families")
    if m := re.fullmatch(r"queen(\d+)_(\d+)", name):
        return families.queen_graph(int(m[1]), int(m[2]))
    if m := re.fullmatch(r"myciel(\d+)", name):
        return families.mycielski_graph(int(m[1]))
    if m := re.fullmatch(r"sparse150_(\d+)", name):
        return families.random_connected_graph(150, 187, int(m[1]))
    raise ValueError(f"unknown instance {name!r}")


def timed_solve(tree, g, name: str) -> tuple[float, int, dict]:
    """Seconds ``tree`` takes to solve ``g``, its tw and its counters, once
    the decomposition passes the tree's ``validate`` at that width."""
    gc.collect()
    start = time.perf_counter()
    tw, td, report = tree.pipeline.solve(g, instance=name)
    seconds = time.perf_counter() - start
    problems = tree.tdbuild.validate(g, td)
    if problems or td.width() != tw:
        raise tree.AuditError(f"{name}: decomposition of width {td.width()} for tw {tw} "
                              f"fails validation: {problems[:3]}")
    return seconds, tw, report.counters


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """The lower quartile, median and upper quartile of ``values``."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def paired(old, new, names: list[str], rounds: int) -> int:
    """Run the paired rounds of ``old`` and ``new`` on ``names`` and print a
    row per instance; 1 if the trees differ in tw or counters, else 0."""
    graphs = {name: (instance(old, name), instance(new, name)) for name in names}
    times = {name: ([], []) for name in names}
    differ = set()
    for r in range(rounds):
        for name, (g_old, g_new) in graphs.items():
            runs = [(old, g_old, 0), (new, g_new, 1)]
            results = [None, None]
            for tree, g, side in runs if r % 2 == 0 else runs[::-1]:
                results[side] = timed_solve(tree, g, name)
                times[name][side].append(results[side][0])
            if results[0][1:] != results[1][1:]:
                differ.add(name)
    print(f"{'instance':<14}{'old_s':>9}{'new_s':>9}  new/old [q1, q3]       new won")
    for name, (old_s, new_s) in times.items():
        q1, ratio, q3 = quartiles([b / a for a, b in zip(old_s, new_s)])
        won = sum(b < a for a, b in zip(old_s, new_s))
        print(f"{name:<14}{statistics.median(old_s):>9.3f}{statistics.median(new_s):>9.3f}  "
              f"{ratio:.3f} [{q1:.3f}, {q3:.3f}]  {won}/{rounds}")
    for name in names:
        if name in differ:
            print(f"{name}: the trees differ in tw or counters")
    return 1 if differ else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old_src", type=Path, metavar="OLD_SRC")
    parser.add_argument("new_src", type=Path, metavar="NEW_SRC")
    parser.add_argument("--instances", default=DEFAULT_INSTANCES,
                        help=f"comma-separated instance names (default {DEFAULT_INSTANCES})")
    parser.add_argument("--rounds", type=int, default=10, help="paired rounds (default 10)")
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    old = load(args.old_src, "twsolve_old")
    new = load(args.new_src, "twsolve_new")
    return paired(old, new, args.instances.split(","), args.rounds)


if __name__ == "__main__":
    sys.exit(main())
