"""In-memory span tracer for the benchmark's traced run.

A span records one call into a program layer: its name, start, end, the
span that was open when it started (its parent) and the run id. Self time
is a span's duration minus the time its direct children cover; calls on
one thread nest strictly, so that is the sum of the children's durations.

Calls made hundreds of thousands of times per look (the model density,
``ExperimentSpec.cell_index``) are folded into one aggregate per name
instead of one stored span each, so the trace stays small. They still
count as children of the span around them, so every self time stays
exact. Counters record events that get no timing of their own (leapfrog
steps, Bayes-factor evaluations); their cost stays in the caller's self
time.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    run: str
    self_time: float

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class Aggregate:
    calls: int = 0
    total: float = 0.0
    self_time: float = 0.0


class _Frame:
    __slots__ = ("id", "name", "start", "child_time", "keep")

    def __init__(self, span_id, name, start, keep):
        self.id = span_id
        self.name = name
        self.start = start
        self.child_time = 0.0
        self.keep = keep


class Tracer:
    """Collects spans, aggregates and counters until the run ends."""

    def __init__(self, run_id: str, clock=time.perf_counter):
        self.run_id = run_id
        self.clock = clock
        self.spans: list[Span] = []
        self.aggregates: dict[str, Aggregate] = {}
        self.counters: dict[str, int] = {}
        self._stack: list[_Frame] = []
        self._next_id = 1

    def open(self, name: str, keep: bool = True) -> _Frame:
        frame = _Frame(self._next_id, name, self.clock(), keep)
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def close(self, frame: _Frame) -> None:
        end = self.clock()
        if not self._stack or self._stack[-1] is not frame:
            raise RuntimeError(f"span {frame.name!r} closed out of order")
        self._stack.pop()
        duration = end - frame.start
        self_time = duration - frame.child_time
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent.child_time += duration
        if frame.keep:
            self.spans.append(
                Span(frame.id, frame.name, frame.start, end,
                     parent.id if parent else None, self.run_id, self_time)
            )
        else:
            agg = self.aggregates.setdefault(frame.name, Aggregate())
            agg.calls += 1
            agg.total += duration
            agg.self_time += self_time

    def count(self, name: str, n: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    def inside(self, name: str) -> bool:
        """True while a span of this name is open."""
        return any(f.name == name for f in self._stack)

    def totals(self) -> dict[str, Aggregate]:
        """Calls, total and self time per span name, stored and folded alike."""
        out = {name: Aggregate(a.calls, a.total, a.self_time)
               for name, a in self.aggregates.items()}
        for s in self.spans:
            agg = out.setdefault(s.name, Aggregate())
            agg.calls += 1
            agg.total += s.duration
            agg.self_time += s.self_time
        return out

    def dump(self, path) -> None:
        payload = {
            "run": self.run_id,
            "spans": [asdict(s) for s in self.spans],
            "aggregates": {k: asdict(v) for k, v in self.aggregates.items()},
            "counters": self.counters,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
            fh.write("\n")


class span:
    """``with span(tracer, name):`` times a block; a no-op without a tracer."""

    __slots__ = ("tracer", "name", "frame")

    def __init__(self, tracer: Tracer | None, name: str):
        self.tracer = tracer
        self.name = name
        self.frame = None

    def __enter__(self):
        if self.tracer is not None:
            self.frame = self.tracer.open(self.name)
        return self

    def __exit__(self, *exc):
        if self.frame is not None:
            self.tracer.close(self.frame)
        return False
