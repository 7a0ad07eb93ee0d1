"""Cost-trace recording and deterministic replay.

A *cost trace* is a mapping from ``(query signature, relevant-config
signature)`` to the optimizer's answer -- the plan cost plus the set of
indexes the plan used.  Recording happens on a
:class:`~repro.backend.local.LocalBackend` (pass a
:class:`CostTraceRecorder`); replay happens on a :class:`TraceBackend`,
which answers every what-if probe from the trace without an optimizer.

Keys are restricted to the *relevant* configuration (the same
restriction the plan cache uses), because plan identity --
and therefore cost -- depends only on that subset; this keeps traces
small and makes replay robust to irrelevant-index churn.

Costs round-trip through JSON bit-exactly (``json`` serializes floats
with ``repr``), so a tuner replaying its own recording makes *decisions
bit-identical* to the live run -- the property
``tools/check_backend_parity.py`` and the cross-backend differential
test gate on.  A lookup miss during replay raises
:class:`~repro.backend.base.TraceMissError` -- a hard error, because a
miss means the decision stream diverged from the recording.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import TYPE_CHECKING, Dict, Optional, Set

from repro.backend.base import Backend, TraceMissError
from repro.core.gaincache import query_signature
from repro.optimizer.optimizer import OptimizationResult, relevant_config

if TYPE_CHECKING:
    from repro.engine.catalog import Catalog
    from repro.engine.index import IndexDef
    from repro.optimizer.access import IndexConfig
    from repro.optimizer.optimizer import PlanCache
    from repro.sql.ast import Query

__all__ = [
    "CostTrace",
    "CostTraceRecorder",
    "ReplayPlan",
    "TraceBackend",
    "trace_key",
]

TRACE_FORMAT = "repro-cost-trace"
TRACE_VERSION = 1


def trace_key(query: Query, config: IndexConfig) -> str:
    """Stable key for one (query, relevant-config) pricing request."""
    relevant = relevant_config(query, config)
    csig = tuple(sorted((ix.table, ix.columns) for ix in relevant))
    payload = repr((query_signature(query), csig))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


class CostTrace:
    """An immutable-ish store of recorded pricing answers.

    Entries map :func:`trace_key` digests to
    ``{"cost": float, "used": [[table, [columns...]], ...]}``.
    """

    def __init__(
        self,
        entries: Optional[Dict[str, dict]] = None,
        meta: Optional[dict] = None,
    ) -> None:
        self.entries: Dict[str, dict] = dict(entries or {})
        self.meta: dict = dict(meta or {})

    def __len__(self) -> int:
        return len(self.entries)

    def lookup(self, key: str) -> Optional[dict]:
        """The recorded entry for a :func:`trace_key`, or ``None``."""
        return self.entries.get(key)

    # -- (de)serialization ---------------------------------------------
    def to_json(self) -> dict:
        """JSON-serializable payload (see :meth:`from_json`)."""
        return {
            "format": TRACE_FORMAT,
            "version": TRACE_VERSION,
            "meta": self.meta,
            "entries": self.entries,
        }

    @classmethod
    def from_json(cls, payload: dict) -> "CostTrace":
        if payload.get("format") != TRACE_FORMAT:
            raise ValueError(
                f"not a cost trace (format={payload.get('format')!r})"
            )
        if payload.get("version") != TRACE_VERSION:
            raise ValueError(
                f"unsupported cost-trace version {payload.get('version')!r}"
            )
        return cls(entries=payload["entries"], meta=payload.get("meta"))

    def save(self, path) -> None:
        """Write the trace to ``path`` as JSON."""
        Path(path).write_text(json.dumps(self.to_json(), indent=1))

    @classmethod
    def load(cls, path) -> "CostTrace":
        """Load a trace previously written by :meth:`save`."""
        return cls.from_json(json.loads(Path(path).read_text()))


class CostTraceRecorder:
    """Recorder a :class:`LocalBackend` calls once per pricing request."""

    def __init__(self) -> None:
        self.trace = CostTrace()
        self.recorded = 0

    def record(self, query: Query, config: IndexConfig, result) -> None:
        """Record one pricing answer (first write per key wins)."""
        key = trace_key(query, config)
        if key in self.trace.entries:
            return
        used = sorted((ix.table, list(ix.columns)) for ix in result.indexes_used)
        self.trace.entries[key] = {
            "cost": result.cost,
            "used": [[table, columns] for table, columns in used],
        }
        self.recorded += 1


class ReplayPlan:
    """Stub plan reconstructed from a trace entry.

    Carries exactly what the tuning stack reads off a plan: the total
    cost and which indexes the plan used.  It has no physical operators
    and cannot be executed.
    """

    def __init__(self, cost: float, used: Set[IndexDef]) -> None:
        self.cost = cost
        self.rows = 0.0
        self._used = frozenset(used)

    def indexes_used(self) -> Set[IndexDef]:
        """The indexes the recorded plan scanned."""
        return set(self._used)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ReplayPlan(cost={self.cost!r}, used={sorted(map(str, self._used))})"


class TraceBackend(Backend):
    """Replays a recorded cost trace; no optimizer, fully deterministic.

    Args:
        catalog: The catalog the tuner operates on (schema, candidate
            generation, index materialization).  Must describe the same
            schema the trace was recorded against.
        trace: The recorded :class:`CostTrace`.
    """

    name = "trace"

    def __init__(self, catalog: Catalog, trace: CostTrace) -> None:
        self._catalog = catalog
        self.trace = trace
        self.replayed = 0

    @property
    def catalog(self) -> Catalog:
        return self._catalog

    def optimize(
        self,
        query: Query,
        config: Optional[IndexConfig] = None,
        cache: Optional[PlanCache] = None,
    ) -> OptimizationResult:
        if config is None:
            config = self.current_config()
        key = trace_key(query, config)
        entry = self.trace.lookup(key)
        self._count_call()
        if entry is None:
            raise TraceMissError(
                f"cost trace has no entry for key {key[:12]}… "
                f"(tables={list(query.tables)}, |config|={len(config)}); "
                "replay diverged from the recording"
            )
        self.replayed += 1
        used = frozenset(
            self._catalog.composite_index_for(table, columns)
            for table, columns in entry["used"]
        )
        plan = ReplayPlan(entry["cost"], used)
        return OptimizationResult(plan, entry["cost"], config, used)
