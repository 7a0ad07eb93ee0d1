"""Span recording from outside the program under test.

Nothing under ``src/`` knows about this file.  The benchmark wraps the
layers' public callables where their callers look them up -- an attribute
of a live instance (``tuner.whatif.begin_query``) or of the importing
module (``repro.core.self_organizer.solve_knapsack``) -- and records one
span per call: name, start, end, the span that caused it, and the index
of the dispatch unit (query / insert / chunk) it belongs to.  Spans stay
in memory until the pass ends.

Wrappers are installed per timed block and removed again, so an untraced
block runs the program's own callables with nothing in between.
"""

from __future__ import annotations

import json
import time
from typing import Callable, Dict, List, Optional, Tuple

#: Name of the root span: one dispatch unit as the driver loop sees it.
ROOT = "dispatch"

_MISSING = object()


class SpanRecorder:
    """Collects spans and call counts through wrappers it installs.

    Attributes:
        spans: ``(name, start, end, parent, unit)`` per finished call;
            ``parent`` is an index into this list (-1 for a root span),
            ``unit`` the dispatch-unit index set by the driver loop.
        counts: ``name -> [calls, measured]`` for count-only wrappers;
            ``measured`` sums the wrapper's optional ``measure(args)``.
        unit: Index of the dispatch unit currently running.
    """

    def __init__(self) -> None:
        self.spans: List[Optional[Tuple[str, float, float, int, int]]] = []
        self.counts: Dict[str, List[float]] = {}
        self.unit = -1
        self._stack: List[int] = []
        self._patches: List[Tuple[object, str, Callable]] = []
        self._saved: List[Tuple[object, str, object]] = []

    # -- wrappers ------------------------------------------------------
    def span(self, name: str, fn: Callable) -> Callable:
        """``fn`` wrapped so every call records a span called ``name``."""
        spans = self.spans
        stack = self._stack
        perf = time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                spans[index] = (name, start, end, parent, self.unit)

        return traced

    def counter(
        self, name: str, fn: Callable, measure: Optional[Callable] = None
    ) -> Callable:
        """``fn`` wrapped so calls are counted (no clock reads)."""
        cell = self.counts.setdefault(name, [0, 0])

        def counted(*args, **kwargs):
            cell[0] += 1
            if measure is not None:
                cell[1] += measure(*args, **kwargs)
            return fn(*args, **kwargs)

        return counted

    # -- patching ------------------------------------------------------
    def patch(self, owner: object, attr: str, name: str) -> None:
        """Register a span wrapper for ``owner.attr`` (see :meth:`install`)."""
        self._patches.append((owner, attr, self.span(name, getattr(owner, attr))))

    def patch_counter(
        self,
        owner: object,
        attr: str,
        name: str,
        measure: Optional[Callable] = None,
    ) -> None:
        """Register a count-only wrapper for ``owner.attr``.

        A counter may sit on top of a span wrapper registered earlier
        for the same attribute; both then fire.
        """
        inner = getattr(owner, attr)
        for other, other_attr, wrapped in self._patches:
            if other is owner and other_attr == attr:
                inner = wrapped
        self._patches.append((owner, attr, self.counter(name, inner, measure)))

    def install(self) -> None:
        """Put every registered wrapper in place."""
        if self._saved:
            return
        for owner, attr, wrapped in self._patches:
            self._saved.append((owner, attr, vars(owner).get(attr, _MISSING)))
            setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        """Restore what :meth:`install` replaced (newest first)."""
        for owner, attr, original in reversed(self._saved):
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._saved.clear()

    # -- reading -------------------------------------------------------
    def totals(
        self, first_unit: int = 0, end_unit: Optional[int] = None
    ) -> Dict[str, List[float]]:
        """``name -> [calls, inclusive seconds, self seconds]``.

        A span's self time is its duration minus the part its child
        spans cover (children of one parent never overlap: the program
        under test is single-threaded in the traced process).

        Args:
            first_unit: Skip spans of earlier dispatch units (warm-up).
            end_unit: Skip spans of this and later dispatch units (what
                follows the deterministic prefix); None for no end.
        """
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, _unit in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out: Dict[str, List[float]] = {}
        for i, (name, start, end, _parent, unit) in enumerate(self.spans):
            if unit < first_unit or (end_unit is not None and unit >= end_unit):
                continue
            row = out.setdefault(name, [0, 0.0, 0.0])
            row[0] += 1
            row[1] += end - start
            row[2] += end - start - covered[i]
        return out

    def dump(self, path, totals: Dict[str, List[float]], max_units: int) -> None:
        """Write the aggregates plus the raw spans of the first units."""
        names = sorted({s[0] for s in self.spans})
        ids = {name: i for i, name in enumerate(names)}
        units: Dict[int, None] = {}
        raw = []
        for i, (name, start, end, parent, unit) in enumerate(self.spans):
            if unit not in units:
                if len(units) >= max_units:
                    break
                units[unit] = None
            raw.append([i, ids[name], start, end, parent, unit])
        document = {
            "columns": ["span", "name", "start_s", "end_s", "parent_span", "unit"],
            "names": names,
            "totals": {
                name: {"calls": c, "inclusive_s": t, "self_s": s}
                for name, (c, t, s) in sorted(totals.items())
            },
            "counts": {k: list(v) for k, v in sorted(self.counts.items())},
            "spans_recorded": len(self.spans),
            "spans": raw,
        }
        with open(path, "w") as handle:
            json.dump(document, handle, separators=(",", ":"))
            handle.write("\n")
