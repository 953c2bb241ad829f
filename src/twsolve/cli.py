"""Command-line frontend.

Subcommands: ``exact`` (solve and emit a .td), ``lb`` (anytime lower bound),
``census`` (object counts as CSV), ``validate`` (audit a .td against its
graph).  Exit codes: 0 success, 1 invalid decomposition reported by
``validate``, 2 parse error, 3 internal validation failure.  Set TW_LOG to a
logging level name for diagnostics on stderr.
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
from . import paceio, pipeline, solver, tdbuild
from .graph import Graph

log = logging.getLogger("twsolve")


def _setup_logging() -> None:
    level = os.environ.get("TW_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING))


def _read_graph(path: str, fmt: str) -> Graph:
    text = Path(path).read_text()
    if fmt == "auto":
        fmt = "col" if path.endswith(".col") else "gr"
    reader = paceio.read_col if fmt == "col" else paceio.read_gr
    g, _ = reader(text)
    return g


def _add_format(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--format",
        choices=["auto", "gr", "col"],
        default="auto",
        help="input format (auto: by file extension, default gr)",
    )


def main(argv: list[str] | None = None) -> int:
    _setup_logging()
    parser = argparse.ArgumentParser(prog="tw", description="exact treewidth toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p_exact = sub.add_parser("exact", help="compute exact treewidth and a decomposition")
    p_exact.add_argument("input")
    p_exact.add_argument("-o", "--output", help="write the decomposition here (.td)")
    p_exact.add_argument(
        "--no-safe-separators",
        action="store_true",
        help="skip safe-separator preprocessing",
    )
    p_exact.add_argument("--stats", help="write a JSON stats record here")
    p_exact.add_argument("--jobs", type=int, default=1, help="solve parts in parallel")
    p_exact.add_argument(
        "--step-budget",
        type=int,
        default=10000,
        help="execution steps per safe-separator check",
    )
    _add_format(p_exact)

    p_lb = sub.add_parser("lb", help="best certified lower bound within a time limit")
    p_lb.add_argument("input")
    p_lb.add_argument("--time-limit", type=float, required=True, help="seconds")
    _add_format(p_lb)

    p_census = sub.add_parser("census", help="count principal combinatorial objects")
    p_census.add_argument("input")
    p_census.add_argument(
        "--max-n",
        type=int,
        default=16,
        help="largest n for exhaustive enumeration columns",
    )
    _add_format(p_census)

    p_val = sub.add_parser("validate", help="audit a decomposition against its graph")
    p_val.add_argument("graph")
    p_val.add_argument("td")
    _add_format(p_val)

    args = parser.parse_args(argv)
    try:
        return _dispatch(args)
    except paceio.ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except (RuntimeError, AssertionError) as exc:
        # PipelineError is a RuntimeError, as are extract's broken-witness errors
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
    g = _read_graph(args.input, args.format)
    t0 = time.monotonic()
    tw, td, report = pipeline.solve(
        g,
        instance=os.path.basename(args.input),
        use_safe_separators=not args.no_safe_separators,
        step_budget=args.step_budget,
        jobs=args.jobs,
    )
    elapsed = time.monotonic() - t0
    log.info("solved %s: tw=%d in %.3fs", args.input, tw, elapsed)
    print(tw)
    if args.output:
        Path(args.output).write_text(paceio.write_td(td, g.n))
    if args.stats:
        Path(args.stats).write_text(json.dumps(report.as_dict(), indent=2) + "\n")
    return 0


def _cmd_lb(args: argparse.Namespace) -> int:
    g = _read_graph(args.input, args.format)
    if g.n == 0:
        print(-1)
        return 0
    best = 0
    deadline = time.monotonic() + args.time_limit
    for comp in g.components(0):
        sub, _ = g.subgraph(comp)
        best = max(best, solver.lower_bound(sub, deadline - time.monotonic()))
    print(best)
    return 0


def _cmd_census(args: argparse.Namespace) -> int:
    g = _read_graph(args.input, args.format)
    comps = g.components(0)
    if len(comps) != 1:
        print("census requires a connected graph", file=sys.stderr)
        return 2
    row = census_mod.census(g, os.path.basename(args.input), args.max_n)
    sys.stdout.write(census_mod.census_csv([row]))
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    g = _read_graph(args.graph, args.format)
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
