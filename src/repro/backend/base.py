"""The DBMS backend protocol behind the what-if interface.

COLT's decision loop -- profiling, gain estimation, knapsack selection --
only ever asks the DBMS one question: "what would this query cost under
that index configuration?".  The paper assumes the DBMS's own extended
optimizer answers it (§4.1); CoPhy shows the same thin what-if protocol
ports an advisor across engines, and DBA bandits drives an identical
loop through PostgreSQL.

:class:`Backend` freezes that question into a protocol of six members:

* ``name`` and ``catalog`` -- the metric label and the schema the
  tuner's candidate generation and scheduler operate on.
* ``optimize(query, config, cache)`` -- the what-if cost oracle; the
  configuration is any index set, materialized or not, so forward
  (``M ∪ {I}``) and reverse (``M − {I}``) probes are the same call.
* ``current_config()`` and ``begin_query(query)`` -- the materialized
  set and the normal optimization a query's probes start from; both
  have defaults in terms of ``catalog`` and ``optimize``.
* ``bind_registry(registry)`` -- the pricing-call counter.

Statistics freshness is the catalog's
(:meth:`~repro.engine.catalog.Catalog.stats_token`).

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

    Subclasses must set :attr:`name`, expose :attr:`catalog` and
    implement :meth:`optimize`; the other members have working defaults
    expressed in terms of those.
    """

    #: Short backend identifier (``local``, ``trace``); also the
    #: ``backend`` metric label value.
    name: str

    @property
    def catalog(self) -> Catalog:
        """The catalog describing the schema this backend prices against."""
        raise NotImplementedError

    def current_config(self) -> IndexConfig:
        """The materialized index set, as a configuration."""
        return frozenset(self.catalog.materialized_indexes())

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
        cache: Optional[PlanCache] = None,
    ) -> OptimizationResult:
        """Price ``query`` under ``config`` (default: current config).

        Args:
            query: A bound query.
            config: Index configuration; defaults to
                :meth:`current_config`.
            cache: Plan cache of the query's what-if session, reused
                when the backend supports reuse.

        Returns:
            An :class:`OptimizationResult`.  A backend without a physical
            plan (trace replay) returns a stub plan beside the result's
            ``indexes_used``.
        """
        raise NotImplementedError

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
