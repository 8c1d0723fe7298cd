"""In-memory spans around the benchmark's calls into each PEPO layer.

A span is (name, start, end, parent, op id), timed with
``perf_counter_ns``.  Spans live in a list until the run ends and are
then written out as JSON.  A disabled recorder hands back one shared
no-op context manager, so the untraced run pays a method call and an
attribute check per layer call.

A span's *self time* is its duration minus the part of its interval
covered by its children.  Each op is one root span; its own self time
is the ``unattributed`` remainder, so per op the layers' self times plus
``unattributed`` add up to the op's wall time exactly (in nanoseconds).
"""

from __future__ import annotations

import json
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter_ns

_NULL = nullcontext()

#: Name under which an op's own self time is reported.
UNATTRIBUTED = "unattributed"


@dataclass
class Span:
    span_id: int
    name: str
    start: int
    end: int
    parent: int | None
    op_id: int

    @property
    def duration(self) -> int:
        return self.end - self.start


class _Open:
    __slots__ = ("recorder", "name", "span")

    def __init__(self, recorder: "SpanRecorder", name: str) -> None:
        self.recorder = recorder
        self.name = name

    def __enter__(self) -> Span:
        rec = self.recorder
        stack = rec._stack
        span = Span(
            span_id=len(rec.spans),
            name=self.name,
            start=0,
            end=0,
            parent=stack[-1].span_id if stack else None,
            op_id=rec.op_id,
        )
        rec.spans.append(span)
        stack.append(span)
        self.span = span
        span.start = perf_counter_ns()
        return span

    def __exit__(self, *exc: object) -> None:
        self.span.end = perf_counter_ns()
        self.recorder._stack.pop()


class SpanRecorder:
    """Collects nested spans; ``enabled=False`` records nothing."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self.op_id = -1

    def span(self, name: str):
        if not self.enabled:
            return _NULL
        return _Open(self, name)

    def op(self, op_id: int, name: str):
        """The root span of one op; nested spans carry ``op_id``."""
        if not self.enabled:
            return _NULL
        self.op_id = op_id
        return _Open(self, name)

    def write(self, path: Path) -> None:
        path.write_text(
            json.dumps(
                [
                    [s.span_id, s.name, s.start, s.end, s.parent, s.op_id]
                    for s in self.spans
                ]
            )
        )


def covered(interval: tuple[int, int], children: list[tuple[int, int]]) -> int:
    """Length of the part of ``interval`` covered by the union of
    ``children`` (clipped to the interval; overlaps counted once)."""
    lo, hi = interval
    total = 0
    cursor = lo
    for start, end in sorted(children):
        start = max(start, cursor)
        end = min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


def self_times(spans: list[Span]) -> dict[int, int]:
    """span id -> self time in nanoseconds."""
    children: dict[int, list[tuple[int, int]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    return {
        span.span_id: span.duration
        - covered((span.start, span.end), children.get(span.span_id, []))
        for span in spans
    }


def reconcile(spans: list[Span]) -> list[dict]:
    """Per op: wall time, each layer's self time, and ``unattributed``.

    The root span's own self time is reported as ``unattributed``;
    ``balanced`` is True when the parts sum to the wall time exactly.
    """
    selfs = self_times(spans)
    ops: dict[int, dict] = {}
    for span in spans:
        if span.parent is None:
            ops[span.op_id] = {
                "op_id": span.op_id,
                "op": span.name,
                "wall_ns": span.duration,
                "self_ns": {UNATTRIBUTED: selfs[span.span_id]},
            }
    for span in spans:
        if span.parent is None:
            continue
        layers = ops[span.op_id]["self_ns"]
        layers[span.name] = layers.get(span.name, 0) + selfs[span.span_id]
    for entry in ops.values():
        entry["balanced"] = sum(entry["self_ns"].values()) == entry["wall_ns"]
    return [ops[key] for key in sorted(ops)]


def stage_shares(per_op: list[dict]) -> dict[str, float]:
    """Each layer's share of the summed wall time of the workload's ops
    (probe ops, with negative ids, left out), from :func:`reconcile`."""
    ops = [entry for entry in per_op if entry["op_id"] >= 0]
    wall = sum(entry["wall_ns"] for entry in ops)
    totals: dict[str, int] = {}
    for entry in ops:
        for name, ns in entry["self_ns"].items():
            totals[name] = totals.get(name, 0) + ns
    return {name: ns / wall for name, ns in sorted(totals.items(), key=lambda kv: -kv[1])}
