"""The in-python engine as a backend (the default).

``LocalBackend`` wraps the cost-based :class:`~repro.optimizer.optimizer.
Optimizer` unchanged: every ``optimize`` call is exactly the pre-protocol
``Optimizer.optimize(query, config, cache)`` call, so the golden-trace
pin holds bit-identically through the protocol.  The local optimizer
prices arbitrary configurations symbolically, so a hypothetical index is
just a member of the configuration passed in.

Sessions are where it departs from the base class: a stream that hands
the same bound ``Query`` object in again (a cycled stream, the fleet
workers' interned transfer) gets its :class:`~repro.optimizer.optimizer.
PlanCache` back for as long as the statistics of its tables hold -- and
its structural half across row moves -- see :meth:`LocalBackend.begin_query`.

The backend doubles as the trace *recorder*: pass a
:class:`~repro.backend.trace.CostTraceRecorder` and every priced
(query, relevant-config) pair is logged, producing the trace a
:class:`~repro.backend.trace.TraceBackend` replays deterministically.
"""

from __future__ import annotations

import weakref
from typing import TYPE_CHECKING, Dict, Optional

from repro.backend.base import Backend, WhatIfSession
from repro.optimizer.optimizer import (
    OptimizationResult,
    Optimizer,
    PlanCache,
)

if TYPE_CHECKING:
    from repro.engine.catalog import Catalog
    from repro.optimizer.access import IndexConfig
    from repro.sql.ast import Query

__all__ = ["LocalBackend"]


class _LiveQuery(weakref.ref):
    """What the backend keeps for one live ``Query`` object.

    Attributes:
        key: ``id`` of the query, its key in the live table.
        token: Validity token at the last sighting
            (:meth:`LocalBackend._validity_token`).
        columns: The tables' ``Catalog.column_stats_version`` when
            ``token`` last changed.
        installed: Whether every filtered column read installed
            statistics (not the row-count-derived fallback) when
            ``columns`` was recorded; it can change only with them.
        cache: The retained plan cache, or None while the query has been
            seen only once under these column statistics.
    """

    __slots__ = ("key", "token", "columns", "installed", "cache")


class LocalBackend(Backend):
    """Backend over the reproduction's own optimizer and catalog.

    Args:
        catalog: Catalog to build the backend's :class:`Optimizer` over.
        recorder: Optional trace recorder; when set, every priced
            (query, config) pair is recorded for later replay.

    Attributes:
        optimizer: The :class:`Optimizer` every price comes from.
    """

    name = "local"

    def __init__(self, catalog: Catalog, recorder=None) -> None:
        self.optimizer = Optimizer(catalog)
        self.recorder = recorder
        # id(query) -> its _LiveQuery; the entry goes when the query does.
        self._live: Dict[int, _LiveQuery] = {}
        self._forget = lambda ref, live=self._live: live.pop(ref.key, None)

    @property
    def catalog(self) -> Catalog:
        return self.optimizer.catalog

    def current_config(self) -> IndexConfig:
        return self.optimizer.current_config()

    def optimize(
        self,
        query: Query,
        config: Optional[IndexConfig] = None,
        cache: Optional[PlanCache] = None,
    ) -> OptimizationResult:
        if config is None:
            config = self.current_config()
        result = self.optimizer.optimize(query, config=config, cache=cache)
        self._count_call()
        if self.recorder is not None:
            self.recorder.record(query, config, result)
        return result

    def begin_query(self, query: Query) -> WhatIfSession:
        """Open a what-if session, on the query's retained plan cache
        when this very object has been here before.

        Everything a :class:`PlanCache` holds is a function of the query
        and its tables' statistics, or is keyed inside it by the relevant
        configuration, so a cache stays exact for as long as the query's
        validity token is unchanged -- materialization changes need no
        invalidation.  When the token moved but only row counts did (the
        cost parameters are the same object, every table's
        ``column_stats_version`` is unchanged, and every filter column
        reads installed statistics rather than the row-count-derived
        fallback), the cache's structural half still holds and
        :meth:`PlanCache.reprice` drops the priced half alone; any other
        move starts over.  The live table is keyed by object identity and
        holds the query weakly: an entry disappears with its query, so a
        stream that never repeats an object retains nothing.  A cache is
        kept from the *second* sighting under one set of column
        statistics (the first only stores the token); retaining on the
        first sighting makes the collector traverse entries that die a
        few hundred events later (measured in ``docs/PERFORMANCE.md``).

        The session always comes out of one ``self.optimize`` call under
        the current configuration -- a ``plans`` hit on a retained cache
        -- so call counters and the trace recorder see what the base
        class would show them.
        """
        token = self._validity_token(query)
        key = id(query)
        entry = self._live.get(key)
        if entry is None:
            entry = self._live[key] = _LiveQuery(query, self._forget)
            entry.key = key
            entry.token = None  # equals no token: first sighting below
        if entry.token == token or self._revalidate(entry, query, token):
            cache = entry.cache
            if cache is None:
                cache = entry.cache = PlanCache()
        else:
            # First sighting under these column statistics: the token only.
            entry.cache = None
            cache = PlanCache()
        config = self.current_config()
        base = self.optimize(query, config=config, cache=cache)
        if base.config is not config and base.config != config:
            # A retained plan answers for every configuration with the
            # same relevant restriction; the session's base names this one.
            base = OptimizationResult(base.plan, base.cost, config, base.indexes_used)
        return WhatIfSession(query=query, base=base, cache=cache)

    def _revalidate(self, entry: _LiveQuery, query: Query, token: tuple) -> bool:
        """Move ``entry`` to ``token``; whether only row counts moved since
        its column statistics were recorded (its cache, if any, is then
        re-priced).  Read on a token miss only, never on the hit path."""
        catalog = self.optimizer.catalog
        columns = tuple(map(catalog.column_stats_version, query.tables))
        held = entry.token
        entry.token = token
        if (
            held is not None
            and held[0] is token[0]
            and entry.columns == columns
            # Fallback statistics are derived from the row count.
            and entry.installed
        ):
            if entry.cache is not None:
                entry.cache.reprice(catalog)
            return True
        entry.columns = columns
        entry.installed = all(
            catalog.has_stats(p.column.table, p.column.column) for p in query.filters
        )
        return False

    def _validity_token(self, query: Query) -> tuple:
        """Every input of ``Optimizer.optimize`` that is not in the plan
        key: the cost parameters and the statistics token of each table."""
        catalog = self.optimizer.catalog
        return (catalog.params, *map(catalog.stats_token, query.tables))
