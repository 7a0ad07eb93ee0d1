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
* :class:`BackendCapabilities` -- the backend's name and whether it
  supports reverse what-if, which callers consult before leaning on it.

Implementations: :class:`~repro.backend.local.LocalBackend` (the
in-python engine, default and bit-identical to the pre-protocol code
path), :class:`~repro.backend.trace.TraceBackend` (deterministic replay
of recorded costs for CI), and
:class:`~repro.backend.hypopg.PostgresHypoBackend` (HypoPG hypothetical
indexes + ``EXPLAIN (FORMAT JSON)``, import-guarded).
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING, Optional

from repro.optimizer.optimizer import PlanCache

if TYPE_CHECKING:
    from repro.engine.catalog import Catalog
    from repro.engine.index import IndexDef
    from repro.optimizer.access import IndexConfig
    from repro.optimizer.optimizer import OptimizationResult
    from repro.sql.ast import Query

__all__ = [
    "Backend",
    "BackendCapabilities",
    "BackendError",
    "BackendCapabilityError",
    "BackendUnavailableError",
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
    during deterministic replay, a capability the backend does not
    implement, a missing driver.  These propagate to the caller.
    """


class BackendCapabilityError(BackendError):
    """A request requires a capability the backend does not advertise."""


class BackendUnavailableError(BackendError):
    """The backend cannot be constructed (missing driver or server)."""


class TraceMissError(BackendError):
    """Replay requested a (query, config) pair absent from the trace.

    During deterministic CI replay a miss means the decision stream
    diverged from the recording, so this is a hard error rather than a
    skippable probe failure.
    """


@dataclasses.dataclass(frozen=True)
class BackendCapabilities:
    """What a backend advertises to the tuning stack: its name and one flag.

    Attributes:
        name: Short backend identifier (``local``, ``trace``,
            ``hypopg``); also the ``backend`` metric label value.
        reverse_whatif: Whether the backend can price a query *without*
            a currently-materialized index (the paper's reverse what-if
            for ``I ∈ M``).  HypoPG cannot hide a real index, so its
            adapter reports ``False`` and reverse probes degrade to
            :class:`~repro.resilience.errors.WhatIfProbeError`.
    """

    name: str
    reverse_whatif: bool = True


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

    Subclasses must set :attr:`capabilities`, implement
    :meth:`optimize`, and expose the catalog the tuner's candidate
    generation and scheduler operate on.  Everything else has working
    defaults expressed in terms of those primitives.
    """

    capabilities: BackendCapabilities

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
            plan (trace replay, HypoPG) returns a stub that still
            answers ``indexes_used()``.
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
    def simulate_index(self, index: IndexDef) -> None:
        """Make ``index`` part of the backend's default configuration.

        The simulated index participates in :meth:`current_config` (and
        hence in default-config pricing) without being physically built.
        """
        raise BackendCapabilityError(
            f"backend {self.capabilities.name!r} does not support "
            "hypothetical indexes"
        )

    def drop_simulated_index(self, index: IndexDef) -> None:
        """Remove a previously simulated index (idempotent)."""
        raise BackendCapabilityError(
            f"backend {self.capabilities.name!r} does not support "
            "hypothetical indexes"
        )

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
            .labels(backend=self.capabilities.name)
            .inc
        )

    def _count_call(self) -> None:
        """Count one pricing request (nothing, until a registry is bound)."""
