"""Command-line frontend.

Subcommands: ``exact`` (solve and emit a .td; with ``--time-limit`` a run
stopped at the deadline prints its certified lower bound and the width of
the audited decomposition it emits), ``census`` (object counts as CSV),
``validate`` (audit a .td against its graph).  Exit codes: 0 success, 1
invalid decomposition reported by ``validate``, 2 parse error or bad
argument, 3 a failed audit of a result about to be reported
(:class:`~twsolve.graph.AuditError`); any other exception propagates with
its traceback.  Set TW_LOG to a logging level name for diagnostics on
stderr.
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


def seconds(text: str) -> float:
    """A time limit: a number of seconds, not negative and not NaN.  argparse
    turns the ValueError into a usage error naming this function."""
    value = float(text)
    if not value >= 0:  # NaN compares false
        raise ValueError(f"not a number of seconds: {text!r}")
    return value


def main(argv: list[str] | None = None) -> int:
    _setup_logging()
    parser = argparse.ArgumentParser(prog="tw", description="exact treewidth toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p_exact = sub.add_parser("exact", help="compute exact treewidth and a decomposition")
    p_exact.add_argument("input")
    p_exact.add_argument("-o", "--output", help="write the decomposition here (.td)")
    p_exact.add_argument("--stats", help="write a JSON stats record here")
    p_exact.add_argument("--time-limit", type=seconds,
                         help="seconds; a run stopped then prints lower bound and width")

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
    if args.command == "census":
        return _cmd_census(args)
    return _cmd_validate(args)


def _cmd_exact(args: argparse.Namespace) -> int:
    g = _read_graph(args.input)
    t0 = time.monotonic()
    deadline = None if args.time_limit is None else t0 + args.time_limit
    tw, td, report = pipeline.solve(g, instance=os.path.basename(args.input), deadline=deadline)
    elapsed = time.monotonic() - t0
    log.info("solved %s: lower bound %d, width %d in %.3fs", args.input, report.lower, tw, elapsed)
    print(tw if report.lower == tw else f"{report.lower} {tw}")
    if args.output:
        Path(args.output).write_text(paceio.write_td(td))
    if args.stats:
        Path(args.stats).write_text(json.dumps(report.as_dict(), indent=2) + "\n")
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
    problems = tdbuild.validate(g, td)
    if problems:
        for p in problems:
            print(f"{p.kind}: {p.detail}")
        return 1
    print(td.width())
    return 0


if __name__ == "__main__":
    sys.exit(main())
