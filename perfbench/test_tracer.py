"""The tracer must not change what it measures.

    python3 -m pytest -q perfbench

Solves small instances of each workload's kind untraced and traced, and
checks that the traced pass gives the same treewidths, counters and bag
counts, that two traced passes give the same counter snapshot, and that
every patched name is restored afterwards.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import compare  # noqa: E402
import run  # noqa: E402
from tracer import Tracer  # noqa: E402


def small_instances(tw):
    f = tw.families
    return [("queen5_5", f.queen_graph(5, 5)), ("myciel4", f.mycielski_graph(4)),
            ("sparse60", f.random_connected_graph(60, 75, 3))]


def outcome(name, result):
    width, td, report = result
    return width, dict(report.counters), len(td.bags)


def test_traced_pass_is_transparent():
    tw = run.load_package()
    instances = small_instances(tw)
    tracer = Tracer()
    originals = {(owner, attr): owner.__dict__[attr] for owner, attr, _ in tracer.patches(tw)}

    plain = [outcome(name, tw.pipeline.solve(g, instance=name)) for name, g in instances]
    snapshots = []
    for _ in range(2):
        tracer.reset()
        with tracer.installed(tw):
            traced = [outcome(name, tracer.call("pipeline", name, tw.pipeline.solve, g,
                                                instance=name))
                      for name, g in instances]
        assert traced == plain
        snapshots.append(tracer.snapshot())
    assert compare.differences(*snapshots) == []
    assert all(owner.__dict__[attr] is fn for (owner, attr), fn in originals.items())

    metrics = tracer.metrics()
    parts = snapshots[-1]
    assert metrics["pipeline.parts"] == sum(len(p) for p in parts.values())
    assert metrics["solver.levels"] == sum(len(q["levels"]) for p in parts.values() for q in p)
    assert metrics["sieve.queries"] == sum(
        lv["queries"] for p in parts.values() for q in p for lv in q["levels"])
    assert [q["tw"] for q in parts["myciel4"]] == [10]
    assert metrics["safesep.checks"] > 0 and metrics["graph.components_calls.solver"] > 0
    assert all(s.self_time >= 0 for s in tracer.spans)


def test_self_time_excludes_children():
    tracer = Tracer()
    leaf = tracer.hot("leaf", lambda: None)
    inner = tracer.span("inner", lambda: (leaf(), leaf()))
    outer = tracer.span("outer", lambda: inner())
    outer()
    outer_span, inner_span = tracer.spans
    agg = tracer.aggregates[(1, "leaf")]
    assert agg.count == 2 and inner_span.child == agg.total
    assert inner_span.parent == 0 and outer_span.parent == -1
    assert outer_span.child == inner_span.duration
    assert outer_span.self_time == outer_span.duration - inner_span.duration
