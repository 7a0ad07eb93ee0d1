"""The DBMS backend protocol behind the what-if interface.

COLT's decision loop -- profiling, gain estimation, knapsack selection --
only ever talks to the DBMS through a narrow surface: "what would this
query cost under that index configuration?", "pretend this index
exists", and "have this table's statistics changed?".  The paper assumes
that surface is the DBMS's own extended optimizer (§4.1); CoPhy shows
the same thin what-if protocol ports an advisor across engines, and DBA
bandits drives an identical loop through PostgreSQL + HypoPG.

:class:`Backend` freezes that surface into a protocol:

* ``get_cost(query, config)`` / ``optimize(query, config)`` -- the
  what-if cost oracle (``optimize`` additionally returns a plan when the
  backend produces one).
* ``simulate_index(index)`` / ``drop_simulated_index(index)`` --
  hypothetical-index lifecycle, folded into ``current_config()``.
* ``stats_token(table)`` / ``refresh_stats(table)`` -- statistics
  freshness, the validity token a retained plan cache checks.

Every backend prices reverse what-if (a query without a materialized
index, ``M − {I}``), as the paper's extended optimizer does.

Implementations: :class:`~repro.backend.local.LocalBackend` (the
in-python engine, default and bit-identical to the pre-protocol code
path) and :class:`~repro.backend.trace.TraceBackend` (deterministic
replay of recorded costs for CI).
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING, Optional

from repro.optimizer.optimizer import PlanCache

if TYPE_CHECKING:
    from repro.engine.catalog import Catalog
    from repro.optimizer.access import IndexConfig
    from repro.optimizer.optimizer import OptimizationResult
    from repro.sql.ast import Query

__all__ = [
    "Backend",
    "BackendError",
    "TraceMissError",
    "WhatIfSession",
]

#: Stats freshness token: opaque to callers beyond equality comparison.
StatsToken = tuple


class BackendError(RuntimeError):
    """A backend failed in a way that is *not* ordinary probe noise.

    Unlike :class:`~repro.resilience.errors.WhatIfProbeError` (which the
    profiler absorbs as a degraded probe), a ``BackendError`` signals
    the backend itself is unusable for the request -- a trace miss
    during deterministic replay.  These propagate to the caller.
    """


class TraceMissError(BackendError):
    """Replay requested a (query, config) pair absent from the trace.

    During deterministic CI replay a miss means the decision stream
    diverged from the recording, so this is a hard error rather than a
    skippable probe failure.
    """


@dataclasses.dataclass
class WhatIfSession:
    """State carried across the what-if calls for a single query.

    Attributes:
        query: The query being profiled.
        base: The result of the query's normal optimization under the
            current materialized set.
        cache: Plan cache shared by all calls for this query.
    """

    query: Query
    base: OptimizationResult
    cache: PlanCache


class Backend:
    """Base class for DBMS backends; see the module docstring.

    Subclasses must set :attr:`name`, implement :meth:`optimize` and the
    hypothetical-index lifecycle, and expose the catalog the tuner's
    candidate generation and scheduler operate on.  Everything else has
    working defaults expressed in terms of those primitives.
    """

    #: Short backend identifier (``local``, ``trace``); also the
    #: ``backend`` metric label value.
    name: str

    @property
    def catalog(self) -> Catalog:
        """The catalog describing the schema this backend prices against."""
        raise NotImplementedError

    # -- what-if cost oracle -------------------------------------------
    def current_config(self) -> IndexConfig:
        """Materialized plus simulated indexes, as a configuration."""
        config = frozenset(self.catalog.materialized_indexes())
        simulated = self.simulated_indexes()
        if simulated:
            config = config | simulated
        return config

    def begin_query(self, query: Query) -> WhatIfSession:
        """Normally optimize ``query`` and open a what-if session for it.

        ``query`` must not be mutated once a backend has seen it: a
        backend may recognize the object when it arrives again (see
        :meth:`LocalBackend.begin_query
        <repro.backend.local.LocalBackend.begin_query>`).  This base
        implementation starts every session from an empty plan cache;
        it is the reference an overriding backend must equal.
        """
        cache = PlanCache()
        base = self.optimize(query, cache=cache)
        return WhatIfSession(query=query, base=base, cache=cache)

    def optimize(
        self,
        query: Query,
        config: Optional[IndexConfig] = None,
        session: Optional[WhatIfSession] = None,
        cache: Optional[PlanCache] = None,
    ) -> OptimizationResult:
        """Price ``query`` under ``config`` (default: current config).

        Args:
            query: A bound query.
            config: Index configuration; defaults to
                :meth:`current_config`.
            session: Open what-if session for this query; its plan cache
                is used when the backend supports reuse.
            cache: Explicit plan cache (``session`` takes precedence).

        Returns:
            An :class:`OptimizationResult`.  A backend without a physical
            plan (trace replay) returns a stub that still answers
            ``indexes_used()``.
        """
        raise NotImplementedError

    def get_cost(
        self,
        query: Query,
        config: Optional[IndexConfig] = None,
        session: Optional[WhatIfSession] = None,
    ) -> float:
        """Estimated cost of ``query`` under ``config``."""
        return self.optimize(query, config=config, session=session).cost

    # -- hypothetical indexes ------------------------------------------
    def simulated_indexes(self) -> IndexConfig:
        """The currently simulated (hypothetical) index set."""
        return frozenset()

    # -- statistics ----------------------------------------------------
    def stats_token(self, table: str) -> StatsToken:
        """Freshness token for ``table``'s statistics.

        Two equal tokens assert the backend would price queries over the
        table identically; any stats-affecting mutation must change the
        token.  The default combines the logical row count with the
        catalog's monotonically bumped ``stats_version`` (row-count
        changes, ``set_stats``).
        """
        return self.catalog.stats_token(table)

    def refresh_stats(self, table: str) -> None:
        """Recompute (or mark changed) statistics for ``table``."""
        self.catalog.bump_stats_version(table)

    # -- observability -------------------------------------------------
    def bind_registry(self, registry) -> None:
        """Attach the backend's pricing-call counter to ``registry``."""
        from repro.obs.names import BACKEND_METRICS

        self._count_call = (
            BACKEND_METRICS["backend_optimize_calls_total"]
            .build(registry)
            .labels(backend=self.name)
            .inc
        )

    def _count_call(self) -> None:
        """Count one pricing request (nothing, until a registry is bound)."""
