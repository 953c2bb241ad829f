"""Command-line frontend.

Subcommands: ``exact`` (solve and emit a .td), ``lb`` (the same solve
stopped at a deadline: the exact width if it finishes, else the certified
lower bound it reached), ``census`` (object counts as CSV), ``validate``
(audit a .td against its graph).  Exit codes: 0 success, 1 invalid
decomposition reported by ``validate``, 2 parse error, 3 a failed audit of a
result about to be reported (:class:`~twsolve.graph.AuditError`); any other
exception propagates with its traceback.  Set TW_LOG to a logging level name
for diagnostics on stderr.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
import time
from pathlib import Path

from . import census as census_mod
from . import paceio, pipeline, tdbuild
from .graph import AuditError, Graph

log = logging.getLogger("twsolve")


def _setup_logging() -> None:
    level = os.environ.get("TW_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING))


def _read_graph(path: str) -> Graph:
    return paceio.read_gr(Path(path).read_text())[0]


def main(argv: list[str] | None = None) -> int:
    _setup_logging()
    parser = argparse.ArgumentParser(prog="tw", description="exact treewidth toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p_exact = sub.add_parser("exact", help="compute exact treewidth and a decomposition")
    p_exact.add_argument("input")
    p_exact.add_argument("-o", "--output", help="write the decomposition here (.td)")
    p_exact.add_argument("--stats", help="write a JSON stats record here")
    p_exact.add_argument("--jobs", type=int, default=1, help="solve parts in parallel")

    p_lb = sub.add_parser("lb", help="best certified lower bound within a time limit")
    p_lb.add_argument("input")
    p_lb.add_argument("--time-limit", type=float, required=True, help="seconds")

    p_census = sub.add_parser("census", help="count principal combinatorial objects")
    p_census.add_argument("input")

    p_val = sub.add_parser("validate", help="audit a decomposition against its graph")
    p_val.add_argument("graph")
    p_val.add_argument("td")

    args = parser.parse_args(argv)
    try:
        return _dispatch(args)
    except paceio.ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except AuditError as exc:
        print(f"internal validation failure: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "exact":
        return _cmd_exact(args)
    if args.command == "lb":
        return _cmd_lb(args)
    if args.command == "census":
        return _cmd_census(args)
    return _cmd_validate(args)


def _cmd_exact(args: argparse.Namespace) -> int:
    g = _read_graph(args.input)
    t0 = time.monotonic()
    tw, td, report = pipeline.solve(g, instance=os.path.basename(args.input), jobs=args.jobs)
    elapsed = time.monotonic() - t0
    log.info("solved %s: tw=%d in %.3fs", args.input, tw, elapsed)
    print(tw)
    if args.output:
        Path(args.output).write_text(paceio.write_td(td))
    if args.stats:
        Path(args.stats).write_text(json.dumps(report.as_dict(), indent=2) + "\n")
    return 0


def _cmd_lb(args: argparse.Namespace) -> int:
    g = _read_graph(args.input)
    try:
        tw = pipeline.solve(g, deadline=time.monotonic() + args.time_limit)[0]
    except pipeline.SolverTimeout as exc:
        tw = exc.bound
    print(tw)
    return 0


def _cmd_census(args: argparse.Namespace) -> int:
    g = _read_graph(args.input)
    comps = g.components(0)
    if len(comps) != 1:
        print("census requires a connected graph", file=sys.stderr)
        return 2
    row = census_mod.census(g, os.path.basename(args.input))
    sys.stdout.write(census_mod.census_csv([row]))
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    g = _read_graph(args.graph)
    td = paceio.read_td(Path(args.td).read_text())
    problems = list(tdbuild.validate(g, td))
    if td.n != g.n:
        problems.insert(
            0,
            tdbuild.Violation(
                "vertex-count-mismatch",
                f"decomposition declares {td.n} vertices, graph has {g.n}",
            ),
        )
    if problems:
        for p in problems:
            print(f"{p.kind}: {p.detail}")
        return 1
    print(td.width())
    return 0


if __name__ == "__main__":
    sys.exit(main())
