#!/usr/bin/env python3
"""Benchmark ``pipeline.solve`` (what ``tw exact`` runs) on a named workload.

    python3 perfbench/run.py --workload queen --seed 0 --seconds 42 --trace 0
    for w in queen myciel sparse; do python3 perfbench/run.py --workload $w; done

Run from the repository root; the package is imported from ``src/``.  The
workloads are described in ``workloads.py``.

With ``--trace 0`` the run repeats rounds for about ``--seconds`` seconds:
set the workload up a few times, then solve its instances untraced.  It
prints the end-to-end metrics: ``solve_s`` (seconds of a typical pass over
the instances: the sum of each instance's median solve time), ``setup_s``
(median seconds to import the package, generate the instances and
round-trip them through the PACE ``.gr`` writer and reader) and
``peak_rss_mb`` (peak resident memory of this process), each with its
sample count, and ``fail_frac``.

With ``--trace 1`` each round runs an untraced pass and then a traced one,
and the run prints per-layer metrics of the traced passes (see
``tracer.py``) together with ``trace.overhead``, traced over untraced pass
time.  It also writes the spans of the first traced pass and its per-level
counter snapshot, which ``compare.py`` checks.

Every returned decomposition is audited again with ``tdbuild.validate``,
its width must equal the reported treewidth, and the treewidth must equal
the pinned value; any exception or mismatch is a failure.  In a traced run
each traced pass must also give the same treewidths, counters and bag
counts as the untraced pass.  Human-readable lines come first; the last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  A result file with the run context goes to
``--out``.  The exit code is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import workloads
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# Set-ups at the start of each round; setup_s is their median over the run.
# Spreading them over the run keeps a burst of host noise from deciding it.
SETUPS_PER_ROUND = 3

clock = time.perf_counter


def load_package():
    """Import ``twsolve`` afresh from ``src/``, with the modules the benchmark uses."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == "twsolve" or m.startswith("twsolve.")]:
        del sys.modules[name]
    import twsolve
    import twsolve.families
    import twsolve.paceio

    if Path(twsolve.__file__).resolve().parent.parent != SRC:
        raise ImportError(f"twsolve was imported from {twsolve.__file__}, not from {SRC}")
    return twsolve


class Setup:
    """One set-up: the fresh package, the instances read back from ``.gr`` text,
    and how long it took."""

    def __init__(self, workload: str):
        start = clock()
        self.tw = tw = load_package()
        self.read_s = 0.0
        self.instances = []
        for name, g in workloads.make(workload, tw.families):
            text = tw.paceio.write_gr(g)
            t0 = clock()
            h, _ = tw.paceio.read_gr(text)
            self.read_s += clock() - t0
            if h.adj != g.adj:
                raise RuntimeError(f"{name}: .gr round trip changed the graph")
            self.instances.append((name, h))
        self.seconds = clock() - start


@dataclass
class Outcome:
    """What one solve returned, and why it failed if it did."""

    name: str
    error: str | None = None
    tw: int = -1
    counters: dict = field(default_factory=dict)
    bags: int = -1

    def key(self):
        return (self.tw, sorted(self.counters.items()), self.bags)


def audit(tw, name: str, g, result) -> Outcome:
    width, td, report = result
    out = Outcome(name, None, width, dict(report.counters), len(td.bags))
    problems = tw.tdbuild.validate(g, td)
    if problems:
        out.error = f"independent audit failed: {problems[:3]}"
    elif td.width() != width:
        out.error = f"decomposition width {td.width()} but reported tw {width}"
    elif width != workloads.PINNED_TW[name]:
        out.error = f"tw {width}, expected {workloads.PINNED_TW[name]}"
    return out


def solve_pass(setup: Setup, solve, fits=None) -> list[tuple[str, float, Outcome]]:
    """Solve each instance once, or each for which ``fits(name)`` holds;
    returns (instance, seconds, outcome) per solve."""
    gc.collect()
    out = []
    for name, g in setup.instances:
        if fits is not None and not fits(name):
            continue
        t0 = clock()
        try:
            result = solve(setup.tw, name, g)
        except Exception as exc:  # every failure is counted, none ends the run
            out.append((name, clock() - t0, Outcome(name, f"{type(exc).__name__}: {exc}")))
            continue
        seconds = clock() - t0
        out.append((name, seconds, audit(setup.tw, name, g, result)))
    return out


def loadavg() -> str | None:
    try:
        with open("/proc/loadavg") as f:
            return f.read().strip()
    except OSError:
        return None


def quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


class Measurement:
    """Solve times, outcomes and, for a traced run, per-layer samples and snapshots."""

    def __init__(self):
        self.setup_s: list[float] = []
        self.read_s: list[float] = []
        self.instance_times: dict[str, list[float]] = defaultdict(list)  # untraced
        self.plain_times: list[float] = []  # untraced passes of a traced run
        self.traced_times: list[float] = []
        self.outcomes: list[Outcome] = []
        self.layer_samples: list[dict[str, float]] = []
        self.snapshots: list[dict] = []
        self.first_traced: list[Outcome] = []
        self.first_spans: dict[str, list] = {}

    @property
    def failures(self) -> list[Outcome]:
        return [o for o in self.outcomes if o.error is not None]

    @property
    def solve_s(self) -> float:
        """Seconds of a typical pass: the sum of each instance's median."""
        return sum(statistics.median(t) for t in self.instance_times.values())


def measure(workload: str, seconds: float, trace: bool) -> Measurement:
    """Repeat rounds of set-ups and solves until ``seconds`` are used up.

    Untraced, a round solves each instance whose median time still fits
    before the deadline, and the first round that skips one is the last.
    Traced, a round is a whole untraced pass and then a traced pass that
    must agree with it, and the run ends when another round would not fit.
    Each round solves with the package of its latest set-up.
    """
    tracer = Tracer()

    def untraced(tw, name, g):
        return tw.pipeline.solve(g, instance=name, jobs=1)

    def traced(tw, name, g):
        with tracer.installed(tw):  # the audit that follows runs untraced
            return tracer.call("pipeline", name, tw.pipeline.solve, g, instance=name, jobs=1)

    m = Measurement()
    times = m.instance_times
    start = clock()

    def fits(name):
        return not times[name] or clock() - start + statistics.median(times[name]) <= seconds

    rounds: list[float] = []
    while True:
        round_start = clock()
        for _ in range(SETUPS_PER_ROUND):
            setup = Setup(workload)
            m.setup_s.append(setup.seconds)
            m.read_s.append(setup.read_s)
        plain = solve_pass(setup, untraced, None if trace else fits)
        for name, pass_s, outcome in plain:
            times[name].append(pass_s)
            m.outcomes.append(outcome)
        if not trace:
            if len(plain) < len(setup.instances):
                return m
            continue
        m.plain_times.append(sum(t for _, t, _ in plain))
        tracer.reset()
        traced_out = solve_pass(setup, traced)
        m.traced_times.append(sum(t for _, t, _ in traced_out))
        m.layer_samples.append(tracer.metrics())
        m.snapshots.append(tracer.snapshot())
        traced_out = [o for _, _, o in traced_out]
        for t, (_, _, p) in zip(traced_out, plain):
            if t.error is None and t.key() != p.key():
                t.error = f"traced pass differs from untraced: {t.key()} vs {p.key()}"
        if m.snapshots[-1] != m.snapshots[0]:
            traced_out[0].error = "counter snapshots of two traced passes differ"
        m.outcomes += traced_out
        if not m.first_traced:
            m.first_traced, m.first_spans = traced_out, tracer.dump()
        rounds.append(clock() - round_start)
        if clock() - start + statistics.median(rounds) > seconds:
            return m


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=0,
                        help="recorded with the results; the instances are fixed")
    parser.add_argument("--seconds", type=float, default=42.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=ROOT / "perfbench" / "results",
                        help="directory for the result file and counter snapshot")
    args = parser.parse_args()

    if not (SRC / "twsolve").is_dir():
        print(f"error: no twsolve package under {SRC}", file=sys.stderr)
        return 2
    context = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "loadavg_start": loadavg(),
    }
    m = measure(args.workload, args.seconds, bool(args.trace))
    context["loadavg_end"] = loadavg()

    if args.trace:
        # The low median is a measured value, so counts stay whole numbers.
        metrics = {name: statistics.median_low(s[name] for s in m.layer_samples)
                   for name in m.layer_samples[0]}
        metrics["paceio.read_s"] = statistics.median(m.read_s)
        metrics["trace.overhead"] = (statistics.median(m.traced_times)
                                     / statistics.median(m.plain_times))
        samples = {name: len(m.layer_samples) for name in metrics}
        samples["paceio.read_s"] = len(m.read_s)
    else:
        metrics = {
            "solve_s": m.solve_s,
            "setup_s": statistics.median(m.setup_s),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        samples = {"solve_s": min(len(t) for t in m.instance_times.values()),
                   "setup_s": len(m.setup_s), "peak_rss_mb": 1}
    units = {name: unit_of(name) for name in metrics}
    failures = m.failures

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"nproc {context['nproc']}  python {context['python']}  "
          f"loadavg {context['loadavg_start']} -> {context['loadavg_end']}")
    for name, t in m.instance_times.items():
        q1, q2, q3 = quartiles(t)
        print(f"  {name}: {len(t)} untraced solves, median {q2:.4f} s, "
              f"quartiles {q1:.4f} .. {q3:.4f} s")
    for name, value in metrics.items():
        print(f"  {name:<34} {value:>14.6g} {units[name]:<6} n={samples[name]}")
    print(f"  {'fail_frac':<34} {len(failures) / len(m.outcomes):>14.6g} ratio  "
          f"({len(failures)} of {len(m.outcomes)} solves failed)")
    for o in failures:
        print(f"  FAILED {o.name}: {o.error}")

    args.out.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}"
    record = {
        "context": context,
        "metrics": {name: {"value": v, "unit": units[name], "samples": samples[name]}
                    for name, v in metrics.items()},
        "instance_seconds": m.instance_times,
        "untraced_pass_seconds": m.plain_times,
        "traced_pass_seconds": m.traced_times,
        "attempted": len(m.outcomes),
        "failures": [{"instance": o.name, "error": o.error} for o in failures],
    }
    (args.out / f"{stem}-trace{args.trace}.json").write_text(json.dumps(record, indent=1) + "\n")
    if args.trace:
        snapshot = {"workload": args.workload, "instances": {
            o.name: {"tw": o.tw, "bags": o.bags, "parts": m.snapshots[0].get(o.name, [])}
            for o in m.first_traced}}
        (args.out / f"{stem}-counters.json").write_text(json.dumps(snapshot) + "\n")
        (args.out / f"{stem}-spans.json").write_text(json.dumps(m.first_spans) + "\n")

    print(json.dumps({
        "correct": not failures,
        "attempted": len(m.outcomes),
        "failed": len(failures),
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in metrics.items()},
    }))
    return 0 if not failures else 1


def unit_of(name: str) -> str:
    base = name.split(".")[1] if "." in name else name  # graph.components_s.solver
    if base.endswith("_s"):
        return "s"
    if base.endswith("_mb"):
        return "MB"
    if base.endswith(("ratio", "per_query", "overhead")):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
