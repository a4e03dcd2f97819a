"""Spans recorded from the benchmark's own files, around public calls
into each layer, plus a reader for the server's ``/metrics`` page.

The tracer wraps a layer's public function in place for the duration of
a traced phase and restores it afterwards; the program carries no
instrumentation of its own for this.  Spans live in memory and are
written out when the run ends.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional

#: Counters of a summary whose per-call deltas the tracer accumulates
#: around every recorded ``insert_many`` call.
SUMMARY_COUNTERS = (
    "points_seen",
    "points_processed",
    "nodes_visited",
    "refinements",
    "unrefinements",
    "ring_discards",
)


class Tracer:
    """Span recorder: ``(name, start, end, parent id, trace id, id)``.

    ``suppress`` marks spans whose body is billed to the span itself
    (a summary merge re-offers samples through ``insert_many``; that is
    merge work, not ingest work).  Spans begun while ``keep`` is off are
    not kept for the output file; the aggregates still cover them.
    """

    def __init__(self, keep: bool = True):
        self.spans: List[tuple] = []
        self.keep = keep
        #: Open spans, innermost last, each as ``[span, children's seconds]``.
        self.stack: List[list] = []
        self.n = 0
        self.suppress = 0
        self.trace_id = 0
        self.totals: Dict[str, float] = defaultdict(float)
        self.self_totals: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, int] = defaultdict(int)
        self.counters: Dict[str, int] = defaultdict(int)
        self._patches: List[tuple] = []

    # -- span recording -----------------------------------------------------

    def top(self) -> Optional[str]:
        return self.stack[-1][0][0] if self.stack else None

    def open(self, name: str) -> bool:
        """Is a span called ``name`` open?"""
        return any(span[0] == name for span, _ in self.stack)

    def begin(self, name: str) -> list:
        parent = self.stack[-1][0][5] if self.stack else -1
        span = [name, time.perf_counter(), None, parent, self.trace_id, self.n]
        self.n += 1
        if self.keep:
            self.spans.append(span)
        self.stack.append([span, 0.0])
        return span

    def end(self, span: list) -> None:
        span[2] = time.perf_counter()
        _, child = self.stack.pop()
        dur = span[2] - span[1]
        name = span[0]
        self.totals[name] += dur
        # Spans of one thread nest, so the children's union is their sum.
        self.self_totals[name] += dur - child
        self.counts[name] += 1
        if self.stack:
            self.stack[-1][1] += dur

    def record(self, name: str, start: float, end: float) -> None:
        """A span measured elsewhere (a request on an asyncio client)."""
        if self.keep:
            self.spans.append([name, start, end, -1, self.trace_id, self.n])
        self.n += 1
        self.totals[name] += end - start
        self.self_totals[name] += end - start
        self.counts[name] += 1

    def new_trace(self) -> None:
        """Spans begun after this call share a fresh trace id (one per
        ingest batch or request)."""
        self.trace_id += 1

    # -- instrumentation ----------------------------------------------------

    def wrap(self, owner, attr: str, name: str, when: Callable[["Tracer"], bool],
             *, suppress_body: bool = False, counters: bool = False) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper; the span
        is recorded only when ``when(tracer)`` holds at call time."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer.suppress or not when(tracer):
                return original(*args, **kwargs)
            before = (
                [getattr(args[0], c) for c in SUMMARY_COUNTERS] if counters else None
            )
            span = tracer.begin(name)
            if suppress_body:
                tracer.suppress += 1
            try:
                return original(*args, **kwargs)
            finally:
                if suppress_body:
                    tracer.suppress -= 1
                tracer.end(span)
                if counters:
                    for c, b in zip(SUMMARY_COUNTERS, before):
                        tracer.counters[c] += getattr(args[0], c) - b

        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def unwrap(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def instrument_engine(self) -> None:
        """Spans around the public calls of the core, engine and query
        layers (see README: per-layer metrics)."""
        import repro.core.batch as batch
        import repro.queries as queries
        from repro import AdaptiveHull, StreamEngine

        always = lambda t: True  # noqa: E731
        self.wrap(StreamEngine, "ingest_arrays", "engine.ingest_arrays", always)
        self.wrap(StreamEngine, "merged_summary", "queries.merge", always)
        self.wrap(queries, "diameter", "queries.diameter", always)
        self.wrap(AdaptiveHull, "merge", "core.merge", always, suppress_body=True)
        self.wrap(
            AdaptiveHull, "insert_many", "core.insert_many",
            lambda t: t.open("engine.ingest_arrays"), counters=True,
        )
        self.wrap(
            batch, "certain_inside_mask", "core.prefilter",
            lambda t: t.top() == "core.insert_many",
        )
        # Only the outermost survivor call made by prefiltered_insert_many:
        # consume_survivors itself calls insert.
        for attr in ("insert", "consume_survivors"):
            self.wrap(
                AdaptiveHull, attr, "core.survivor",
                lambda t: t.top() == "core.insert_many",
            )

    # -- output -------------------------------------------------------------

    def layer_table(self) -> dict:
        return {
            name: {
                "count": self.counts[name],
                "total_s": self.totals[name],
                "self_s": self.self_totals[name],
            }
            for name in sorted(self.totals)
        }

    def dump(self, path, extra: dict) -> None:
        doc = dict(extra)
        doc["layers"] = self.layer_table()
        doc["span_fields"] = ["name", "start", "end", "parent", "trace", "id"]
        doc["spans"] = self.spans
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc, separators=(",", ":")))


def parse_prometheus(text: str) -> Dict[str, float]:
    """``{'family{labels}': value}`` for every sample line."""
    out = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        name, _, value = line.rpartition(" ")
        try:
            out[name] = float(value)
        except ValueError:
            continue
    return out


def has_family(sample: Dict[str, float], family: str) -> bool:
    """Does the page carry at least one sample of ``family``?"""
    return any(name.partition("{")[0] == family for name in sample)


def family_sum(sample: Dict[str, float], family: str, label: str = "") -> float:
    """Sum of a family's samples whose label block contains ``label``."""
    total = 0.0
    for name, value in sample.items():
        base, _, labels = name.partition("{")
        if base == family and label in labels:
            total += value
    return total
