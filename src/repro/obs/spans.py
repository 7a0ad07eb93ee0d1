"""Lightweight span tracing for the tuning pipeline.

A span is one timed scope -- a processed query, an epoch close, a fleet
reorganization -- with a name and a small attribute dict.  The tracer
keeps the most recent spans in a bounded ring (old spans fall off; this
is a diagnostic surface, not a durable log) plus running per-name
aggregates that never reset, so the exporter can report totals even
after the ring has wrapped.

Usage::

    tracer = SpanTracer()
    with tracer.span("epoch_close", epoch=3):
        ...reorganize...
    tracer.summary()["epoch_close"]["count"]  # -> 1

A scope entered on every query reads ``tracer.clock`` itself and calls
:meth:`SpanTracer.record`, where the context manager ends too.
"""

from __future__ import annotations

import contextlib
import dataclasses
import time
from collections import deque
from typing import Callable, Deque, Dict, List, Optional, Tuple


@dataclasses.dataclass
class Span:
    """One finished timed scope.

    Attributes:
        name: Scope name (``"query"``, ``"epoch_close"``, ...).
        start: Clock reading at entry (``time.perf_counter`` units).
        duration: Elapsed seconds.
        attrs: Small identifying attributes (epoch number, replica id).
    """

    name: str
    start: float
    duration: float
    attrs: Dict[str, object]


#: What a disabled tracer's :meth:`SpanTracer.span` hands out.
_NOOP = contextlib.nullcontext()


class SpanTracer:
    """Bounded-ring span recorder with per-name running aggregates.

    Args:
        capacity: Maximum finished spans retained in the ring.
        enabled: When False, :meth:`span` returns a shared no-op handle
            (zero allocation, no clock reads), :meth:`record` nothing.
        clock: Monotonic clock (kept as ``tracer.clock``); injectable
            for deterministic tests.
    """

    def __init__(
        self,
        capacity: int = 256,
        enabled: bool = True,
        clock: Callable[[], float] = time.perf_counter,
    ) -> None:
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.enabled = enabled
        self.clock = clock
        # (name, start, duration, attrs) per span; a Span is built on read.
        self._ring: Deque[Tuple] = deque(maxlen=capacity)
        # name -> [count, total_seconds, max_seconds]
        self._totals: Dict[str, List] = {}

    def span(self, name: str, **attrs: object):
        """Open a timed scope; use as a context manager."""
        return self._timed(name, tuple(attrs.items())) if self.enabled else _NOOP

    @contextlib.contextmanager
    def _timed(self, name: str, attrs: Tuple):
        start = self.clock()
        try:
            yield
        finally:
            self.record(name, start, self.clock() - start, attrs)

    def record(self, name: str, start: float, duration: float, attrs: Tuple = ()) -> None:
        """Record one finished scope the caller timed on ``clock``:
        ``attrs`` are its identifying ``(key, value)`` pairs."""
        if not self.enabled:
            return
        self._ring.append((name, start, duration, attrs))
        totals = self._totals.get(name)
        if totals is None:
            self._totals[name] = [1, duration, duration]
        else:
            totals[0] += 1
            totals[1] += duration
            totals[2] = max(totals[2], duration)

    # ------------------------------------------------------------------
    def recent(self, name: Optional[str] = None) -> List[Span]:
        """Finished spans still in the ring, oldest first."""
        return [
            Span(name=kept, start=start, duration=duration, attrs=dict(attrs))
            for kept, start, duration, attrs in self._ring
            if name is None or kept == name
        ]

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per-name aggregates over every span ever recorded."""
        return {
            name: {
                "count": count,
                "total_seconds": total,
                "max_seconds": peak,
            }
            for name, (count, total, peak) in sorted(self._totals.items())
        }


def merge_span_summaries(
    summaries: "List[Dict[str, Dict[str, float]]]",
) -> Dict[str, Dict[str, float]]:
    """Combine per-component span summaries (counts add, maxima max)."""
    merged: Dict[str, Dict[str, float]] = {}
    for summary in summaries:
        for name, stats in summary.items():
            target = merged.setdefault(
                name, {"count": 0, "total_seconds": 0.0, "max_seconds": 0.0}
            )
            target["count"] += stats["count"]
            target["total_seconds"] += stats["total_seconds"]
            target["max_seconds"] = max(
                target["max_seconds"], stats["max_seconds"]
            )
    return dict(sorted(merged.items()))
