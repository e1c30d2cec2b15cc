"""In-memory host spans for the traced benchmark run.

A span has a name, a start and an end on the host's ``perf_counter_ns``
clock, the span that was open when it began (its parent), and the batch
it belongs to.  Spans stay in memory until the run ends; then
:func:`to_chrome` writes them as Chrome ``trace_event`` JSON on their
own process id, so Perfetto can show them next to the simulated-clock
trace of ``python -m repro.trace`` (which uses pid 0).

Span names are ``<layer>.<call>``; the layer is the ``repro`` module
whose public function the span times (``workloads``, ``txn``,
``storage``, ``core``) or ``bench`` for the benchmark's own glue.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter_ns

#: pid of the host-clock process in the exported trace
HOST_PID = 1


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    batch: int | None
    start_ns: int
    end_ns: int = -1
    args: dict = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns


class SpanRecorder:
    """Collects spans; :meth:`open`/:meth:`close` nest by a stack, and
    :meth:`add` records an already-finished child of the open span."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[Span] = []

    def open(
        self, name: str, batch: int | None = None, start_ns: int | None = None
    ) -> Span:
        parent = self._stack[-1] if self._stack else None
        if batch is None and parent is not None:
            batch = parent.batch
        span = Span(
            id=len(self.spans),
            name=name,
            parent=parent.id if parent else None,
            batch=batch,
            start_ns=perf_counter_ns() if start_ns is None else start_ns,
        )
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: Span, end_ns: int | None = None, **args) -> None:
        if not self._stack or self._stack[-1] is not span:
            raise RuntimeError(f"span {span.name!r} closed out of order")
        self._stack.pop()
        span.end_ns = perf_counter_ns() if end_ns is None else end_ns
        span.args.update(args)

    def add(self, name: str, start_ns: int, end_ns: int, **args) -> Span:
        span = self.open(name, start_ns=start_ns)
        self.close(span, end_ns=end_ns, **args)
        return span


def self_times(spans: list[Span]) -> dict[int, int]:
    """Span id -> its duration minus the time its children cover.

    Children of one parent never overlap (one thread), so their
    durations add up."""
    covered: dict[int, int] = {}
    for span in spans:
        if span.parent is not None:
            covered[span.parent] = covered.get(span.parent, 0) + span.duration_ns
    return {s.id: s.duration_ns - covered.get(s.id, 0) for s in spans}


def descendants(spans: list[Span], roots: set[int]) -> list[Span]:
    """The spans under (and including) the given root ids.  Spans are
    recorded parent-first, so one forward pass suffices."""
    keep = set(roots)
    out = []
    for span in spans:
        if span.id in keep or span.parent in keep:
            keep.add(span.id)
            out.append(span)
    return out


def check_nesting(spans: list[Span]) -> list[str]:
    """Problems with the span tree: unclosed spans, children outside
    their parent, overlapping siblings, or a batch id that differs from
    the parent's (a parent without one, such as recovery, spans many
    batches).  Empty when the tree is well nested."""
    problems = []
    by_id = {s.id: s for s in spans}
    siblings: dict[int | None, list[Span]] = {}
    for span in spans:
        if span.end_ns < span.start_ns:
            problems.append(f"span {span.id} {span.name} is not closed")
            continue
        siblings.setdefault(span.parent, []).append(span)
        if span.parent is None:
            continue
        parent = by_id[span.parent]
        if span.start_ns < parent.start_ns or span.end_ns > parent.end_ns:
            problems.append(
                f"span {span.id} {span.name} leaves its parent {parent.name}"
            )
        if parent.batch is not None and span.batch != parent.batch:
            problems.append(
                f"span {span.id} {span.name} has batch {span.batch}, "
                f"parent {parent.name} has {parent.batch}"
            )
    for group in siblings.values():
        group.sort(key=lambda s: s.start_ns)
        for before, after in zip(group, group[1:]):
            if after.start_ns < before.end_ns:
                problems.append(
                    f"span {after.id} {after.name} overlaps {before.name}"
                )
    return problems


def to_chrome(tracks: list[tuple[str, list[Span]]], process: str) -> dict:
    """Chrome ``trace_event`` JSON: one thread track per ``(name, spans)``
    pair, timestamps in microseconds from the first span."""
    t0 = min((s.start_ns for _, spans in tracks for s in spans), default=0)
    events: list[dict] = [
        {"ph": "M", "name": "process_name", "pid": HOST_PID,
         "args": {"name": process}},
    ]
    for tid, (track, spans) in enumerate(tracks):
        events.append(
            {"ph": "M", "name": "thread_name", "pid": HOST_PID, "tid": tid,
             "args": {"name": track}}
        )
        for span in spans:
            events.append({
                "ph": "X",
                "name": span.name,
                "cat": span.layer,
                "pid": HOST_PID,
                "tid": tid,
                "ts": (span.start_ns - t0) / 1e3,
                "dur": span.duration_ns / 1e3,
                "args": {
                    "span": span.id,
                    "parent": span.parent,
                    "batch": span.batch,
                    **span.args,
                },
            })
    return {"traceEvents": events, "displayTimeUnit": "ms"}
