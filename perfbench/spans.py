"""In-memory spans and counters for the traced benchmark run.

A :class:`Tracer` records one span per layer call: name, start, end,
parent span and the pass it belongs to.  Spans nest pass -> cell ->
layer call, and a layer's *self time* is its duration minus the time
its direct children cover, so the self times of every span in a pass
add up to the pass's wall time.  Nothing is written out until the run
ends; timing uses ``perf_counter_ns`` and is taken once per call into a
layer, never per trace record.
"""

from __future__ import annotations

import contextlib
import dataclasses
import time
from typing import Dict, Iterator, List, Optional


@dataclasses.dataclass
class Span:
    """One timed interval of one layer call."""

    span_id: int
    parent_id: Optional[int]
    pass_id: int
    name: str
    start_ns: int
    end_ns: int = 0

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns


class Tracer:
    """Collects spans and counters; one instance per traced run."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        #: ``counters[pass_id][name]``: counts recorded at the same
        #: boundaries as the spans.
        self.counters: Dict[int, Dict[str, float]] = {}
        self._stack: List[Span] = []
        self._pass_id = 0

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[Span]:
        """Time the enclosed block as a child of the innermost span."""
        parent = self._stack[-1].span_id if self._stack else None
        span = Span(len(self.spans), parent, self._pass_id, name,
                    time.perf_counter_ns())
        self.spans.append(span)
        self._stack.append(span)
        try:
            yield span
        finally:
            span.end_ns = time.perf_counter_ns()
            self._stack.pop()

    @contextlib.contextmanager
    def pass_span(self, pass_id: int, name: str = "pass") -> Iterator[Span]:
        """A top-level span; everything inside shares ``pass_id``."""
        if self._stack:
            raise RuntimeError("a pass cannot nest inside another span")
        self._pass_id = pass_id
        self.counters.setdefault(pass_id, {})
        with self.span(name) as span:
            yield span

    def count(self, name: str, amount: float = 1) -> None:
        """Add ``amount`` to a counter of the current pass."""
        self.count_into(self._pass_id, name, amount)

    def count_into(self, pass_id: int, name: str, amount: float) -> None:
        """Add ``amount`` to a counter of pass ``pass_id``."""
        counters = self.counters.setdefault(pass_id, {})
        counters[name] = counters.get(name, 0) + amount

    # ------------------------------------------------------------------
    def self_times(self, pass_id: int) -> Dict[str, float]:
        """Seconds of self time per span name within one pass.

        Spans of one thread nest strictly, so the part of a span's
        interval its children cover is the sum of their durations.
        The top-level pass span's self time is the pass's unattributed
        remainder.
        """
        spans = [s for s in self.spans if s.pass_id == pass_id]
        child_ns: Dict[int, int] = {}
        for span in spans:
            if span.parent_id is not None:
                child_ns[span.parent_id] = (
                    child_ns.get(span.parent_id, 0) + span.duration_ns
                )
        totals: Dict[str, float] = {}
        for span in spans:
            own = span.duration_ns - child_ns.get(span.span_id, 0)
            totals[span.name] = totals.get(span.name, 0.0) + own / 1e9
        return totals

    def pass_seconds(self, pass_id: int) -> float:
        """Wall seconds of the top-level span(s) of one pass."""
        return sum(
            s.duration_ns for s in self.spans
            if s.pass_id == pass_id and s.parent_id is None
        ) / 1e9
