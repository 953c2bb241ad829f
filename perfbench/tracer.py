"""Layer tracing from outside the program: wrap public functions, record spans.

The tracer replaces names where their callers look them up (module globals
and class attributes) and puts the originals back when it is removed.  Calls
to cold functions become spans: name, instance (the request id), start, end,
parent span and the time covered by children.  Calls to hot leaf functions
(hundreds of thousands per pass) are aggregated per parent span and name as
a count, a total and a self time, plus per-call tallies such as sieve hits.

A layer's self time is its duration minus the time its children cover.
"""

from __future__ import annotations

import contextlib
import time
from collections import defaultdict


class Span:
    __slots__ = ("name", "request", "parent", "start", "end", "child", "attrs")

    def __init__(self, name: str, request: str, parent: int, start: float):
        self.name = name
        self.request = request
        self.parent = parent
        self.start = start
        self.end = start
        self.child = 0.0
        self.attrs: dict = {}

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.end - self.start - self.child


class Aggregate:
    __slots__ = ("count", "total", "self_time", "tally")

    def __init__(self):
        self.count = 0
        self.total = 0.0
        self.self_time = 0.0
        self.tally: dict[str, int] = defaultdict(int)


class Tracer:
    """Spans and aggregates of one traced pass; ``reset`` starts the next."""

    def __init__(self):
        self.reset()

    def reset(self) -> None:
        self.spans: list[Span] = []
        self.aggregates: dict[tuple[int, str], Aggregate] = {}
        self.request = "-"
        self._current = -1  # index of the innermost open span
        self._child = 0.0  # time covered by children of the innermost frame

    def span(self, name: str, fn, attrs=None):
        """Wrap ``fn`` so each call records a span; ``attrs(args, result)``
        returns the attributes to keep."""
        clock = time.perf_counter
        spans = self.spans

        def wrapper(*args, **kwargs):
            parent = self._current
            span = Span(name, self.request, parent, clock())
            self._current = len(spans)
            spans.append(span)
            outer_child, self._child = self._child, 0.0
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                span.child = self._child
                self._current = parent
                self._child = outer_child + span.duration
            if attrs is not None:
                span.attrs = attrs(args, result)
            return result

        return wrapper

    def hot(self, name: str, fn, tally=None):
        """Wrap ``fn`` so calls aggregate per parent span; ``tally(counts,
        result)`` adds per-call counts."""
        clock = time.perf_counter
        aggregates = self.aggregates

        def wrapper(*args, **kwargs):
            outer_child, self._child = self._child, 0.0
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                inner = self._child
                self._child = outer_child + elapsed
            key = (self._current, name)
            agg = aggregates.get(key)
            if agg is None:
                agg = aggregates[key] = Aggregate()
            agg.count += 1
            agg.total += elapsed
            agg.self_time += elapsed - inner
            if tally is not None:
                tally(agg.tally, result)
            return result

        return wrapper

    def patches(self, tw):
        """(owner, attribute, wrap) for every name the tracer replaces, given
        where its callers look it up."""
        def decide_attrs(args, res):
            s = res.stats
            return {"n": s.n, "k": s.k, "answer": s.answer, "iblocks": s.iblocks,
                    "oblocks": s.oblocks, "pmcs_buildable": s.pmcs_buildable,
                    "pmcs_feasible": s.pmcs_feasible}

        def count_hits(counts, res):
            counts["hits"] += len(res)

        def count_verdict(counts, res):
            counts[res.verdict] += 1
            counts["steps"] += res.steps_used

        sieve_bank = tw.sieve.SieveBank
        graph = tw.graph.Graph
        return [
            (tw.pipeline, "treewidth", lambda f: self.span(
                "solver.treewidth", f, lambda a, r: {"n": a[0].n, "tw": r[0]})),
            (tw.pipeline, "extract", lambda f: self.span(
                "tdbuild.extract", f, lambda a, r: {"bags": len(r.bags)})),
            (tw.pipeline, "validate", lambda f: self.span("tdbuild.validate", f)),
            (tw.safesep, "decompose", lambda f: self.span("safesep.decompose", f)),
            (tw.safesep, "heuristic_minor_safe", lambda f: self.hot(
                "safesep.check", f, count_verdict)),
            (tw.solver, "decide", lambda f: self.span("solver.decide", f, decide_attrs)),
            (tw.solver, "is_cliquish", lambda f: self.hot("blocks.is_cliquish", f)),
            (sieve_bank, "supersets", lambda f: self.hot("sieve.query", f, count_hits)),
            (sieve_bank, "store", lambda f: self.hot("sieve.store", f)),
            (graph, "components_with_neighborhoods", lambda f: self.hot(
                "graph.components", f)),
        ]

    @contextlib.contextmanager
    def installed(self, tw):
        """Patch the layers of package ``tw`` for the duration of the block."""
        saved = []
        try:
            for owner, attr, wrap in self.patches(tw):
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, wrap(original))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def call(self, name: str, request: str, fn, *args, **kwargs):
        """Run ``fn`` as a top-level span for instance ``request``."""
        self.request = request
        return self.span(name, fn)(*args, **kwargs)

    # -- derived figures ---------------------------------------------------

    def dump(self) -> dict[str, list]:
        """Spans and aggregates as JSON-ready rows, times relative to the first span."""
        t0 = self.spans[0].start if self.spans else 0.0
        return {
            "span_fields": ["name", "request", "parent", "start", "end", "self", "attrs"],
            "spans": [[s.name, s.request, s.parent, s.start - t0, s.end - t0, s.self_time,
                       s.attrs] for s in self.spans],
            "aggregate_fields": ["parent", "name", "count", "total", "self", "tally"],
            "aggregates": [[parent, name, a.count, a.total, a.self_time, dict(a.tally)]
                           for (parent, name), a in self.aggregates.items()],
        }

    def _parent_layer(self, index: int) -> str:
        name = self.spans[index].name if index >= 0 else ""
        return {"solver.decide": "solver", "safesep.decompose": "safesep"}.get(name, "other")

    def metrics(self) -> dict[str, float]:
        """Per-layer totals of the pass: seconds, counts and ratios."""
        by_name: dict[str, list[Span]] = defaultdict(list)
        for s in self.spans:
            by_name[s.name].append(s)
        agg: dict[str, Aggregate] = defaultdict(Aggregate)
        components: dict[str, Aggregate] = defaultdict(Aggregate)
        for (parent, name), a in self.aggregates.items():
            targets = [agg[name]]
            if name == "graph.components":
                targets.append(components[self._parent_layer(parent)])
            for t in targets:
                t.count += a.count
                t.total += a.total
                for key, value in a.tally.items():
                    t.tally[key] += value

        def total(name):
            return sum(s.duration for s in by_name[name])

        def self_total(*names):
            return sum(s.self_time for n in names for s in by_name[n])

        def ratio(a, b):
            return a / b if b else 0.0

        # A call that raised has no attributes; the run counts it as a failure.
        levels = by_name["solver.decide"]
        level_sum = {key: sum(s.attrs.get(key, 0) for s in levels)
                     for key in ("iblocks", "oblocks", "pmcs_buildable", "pmcs_feasible")}
        query, check = agg["sieve.query"], agg["safesep.check"]
        m = {
            "sieve.query_s": query.total,
            "sieve.queries": query.count,
            "sieve.hits": query.tally["hits"],
            "sieve.hits_per_query": ratio(query.tally["hits"], query.count),
            "sieve.store_s": agg["sieve.store"].total,
            "sieve.stores": agg["sieve.store"].count,
            "blocks.is_cliquish_s": agg["blocks.is_cliquish"].total,
            "blocks.is_cliquish_calls": agg["blocks.is_cliquish"].count,
        }
        for layer in ("solver", "safesep"):
            m[f"graph.components_s.{layer}"] = components[layer].total
            m[f"graph.components_calls.{layer}"] = components[layer].count
        m.update({
            "solver.levels": len(levels),
            "solver.negative_s": sum(s.duration for s in levels if not s.attrs.get("answer")),
            "solver.accepting_s": sum(s.duration for s in levels if s.attrs.get("answer")),
            "solver.self_s": self_total("solver.treewidth", "solver.decide"),
            "solver.iblocks": level_sum["iblocks"],
            "solver.oblocks": level_sum["oblocks"],
            "solver.pmcs_buildable": level_sum["pmcs_buildable"],
            "solver.pmcs_feasible": level_sum["pmcs_feasible"],
            "solver.feasible_ratio": ratio(level_sum["pmcs_feasible"],
                                           level_sum["pmcs_buildable"]),
            "safesep.decompose_s": total("safesep.decompose"),
            "safesep.check_s": check.total,
            "safesep.checks": check.count,
            "safesep.yes": check.tally["yes"],
            "safesep.dont_know": check.tally["dont-know"],
            "safesep.aborted": check.tally["aborted"],
            "safesep.steps": check.tally["steps"],
            "safesep.yes_ratio": ratio(check.tally["yes"], check.count),
            "safesep.max_part": max((s.attrs.get("n", 0) for s in by_name["solver.treewidth"]),
                                    default=0),
            "tdbuild.extract_s": total("tdbuild.extract"),
            "tdbuild.validate_s": total("tdbuild.validate"),
            "tdbuild.bags": sum(s.attrs.get("bags", 0) for s in by_name["tdbuild.extract"]),
            "pipeline.self_s": self_total("pipeline"),
            "pipeline.parts": len(by_name["solver.treewidth"]),
        })
        return m

    def snapshot(self) -> dict[str, list[dict]]:
        """Per instance, part and decision level: the solver and sieve counters.

        A change that claims only speed must leave this identical.
        """
        sieve: dict[int, dict[str, int]] = defaultdict(lambda: defaultdict(int))
        for (parent, name), a in self.aggregates.items():
            if name == "sieve.query":
                sieve[parent]["queries"] += a.count
                sieve[parent]["hits"] += a.tally["hits"]
            elif name == "sieve.store":
                sieve[parent]["stores"] += a.count
        parts: dict[int, dict] = {}
        out: dict[str, list[dict]] = defaultdict(list)
        for i, s in enumerate(self.spans):
            if s.name == "solver.treewidth":
                parts[i] = {"n": s.attrs.get("n"), "tw": s.attrs.get("tw"), "levels": []}
                out[s.request].append(parts[i])
            elif s.name == "solver.decide" and s.parent in parts:
                level = {key: s.attrs.get(key) for key in (
                    "k", "answer", "iblocks", "oblocks", "pmcs_buildable", "pmcs_feasible")}
                counts = sieve.get(i, {})
                for key in ("queries", "hits", "stores"):
                    level[key] = counts.get(key, 0)
                parts[s.parent]["levels"].append(level)
        return dict(out)
