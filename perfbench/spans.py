"""In-memory spans and counts recorded around calls into the system under test.

A span has a name, a start, an end, the span that caused it and a group id
(all spans of one serving request share one).  Spans are appended to a plain
list, which is safe from several threads under the interpreter lock, and are
written out once when the benchmark ends.  A disabled tracer records nothing,
so untraced runs pay one branch per call site.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: Optional[int] = None
    group: Optional[str] = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans, counters and raw samples of one traced run."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.spans: List[Span] = []
        self.counts: Dict[str, float] = {}
        self.samples: Dict[str, List[float]] = {}
        self._next_id = 0

    def add(
        self,
        name: str,
        start: float,
        end: float,
        parent: Optional[int] = None,
        group: Optional[str] = None,
    ) -> int:
        """Record a span whose times were measured elsewhere; returns its id."""
        if not self.enabled:
            return -1
        span_id = self._next_id
        self._next_id += 1
        self.spans.append(Span(span_id, name, start, end, parent, group))
        return span_id

    @contextmanager
    def span(
        self, name: str, parent: Optional[int] = None, group: Optional[str] = None
    ) -> Iterator[int]:
        """Time the body as one span; yields the id its children name as parent."""
        if not self.enabled:
            yield -1
            return
        span_id = self._next_id
        self._next_id += 1
        start = time.perf_counter()
        try:
            yield span_id
        finally:
            self.spans.append(Span(span_id, name, start, time.perf_counter(), parent, group))

    def count(self, name: str, amount: float) -> None:
        if self.enabled:
            self.counts[name] = self.counts.get(name, 0) + amount

    def total(self, name: str) -> float:
        """Summed duration of every span called ``name``."""
        return sum(span.duration for span in self.spans if span.name == name)

    def self_times(self) -> Dict[int, float]:
        """Self time of every span, keyed by span id."""
        children: Dict[int, List[Tuple[float, float]]] = {}
        for span in self.spans:
            if span.parent is not None:
                children.setdefault(span.parent, []).append((span.start, span.end))
        return {
            span.id: self_time(span.start, span.end, children.get(span.id, ()))
            for span in self.spans
        }

    def write(self, path, extra: Dict[str, object]) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                dict(extra, counts=self.counts, spans=[asdict(span) for span in self.spans]),
                handle,
            )


def self_time(start: float, end: float, children: Sequence[Tuple[float, float]]) -> float:
    """``end - start`` minus the part of that interval its children cover.

    Children may overlap each other (concurrent work) or stick out of the
    parent; each instant of the parent counts as covered at most once.
    """
    covered = 0.0
    cursor = start
    for child_start, child_end in sorted(children):
        lo = max(child_start, cursor)
        hi = min(child_end, end)
        if hi > lo:
            covered += hi - lo
            cursor = hi
    return (end - start) - covered
