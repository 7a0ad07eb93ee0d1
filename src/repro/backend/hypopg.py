"""PostgreSQL + HypoPG backend (import-guarded; CI needs no server).

DBA bandits (Perera et al.) drives the same profiling loop this
reproduction runs through PostgreSQL's planner: HypoPG's
``hypopg_create_index`` registers a *hypothetical* index the planner
will consider, and ``EXPLAIN (FORMAT JSON)`` returns the plan's total
cost without executing anything.  ``PostgresHypoBackend`` adapts that
protocol to :class:`~repro.backend.base.Backend`.

Requirements on the server side:

* PostgreSQL with the ``hypopg`` extension installed (the adapter runs
  ``CREATE EXTENSION IF NOT EXISTS hypopg`` on connect);
* a schema matching the catalog the tuner plans over;
* a DSN the ``psycopg`` (v3) or ``psycopg2`` driver accepts.

Capability notes: HypoPG cannot *hide* a really-materialized index, so
``reverse_whatif`` is ``False`` -- the what-if layer degrades reverse
probes of materialized indexes to
:class:`~repro.resilience.errors.WhatIfProbeError`, which the profiler
absorbs.  ``EXPLAIN`` output is parsed for cost only (the plan is a
stub); index usage is recovered best-effort
from ``Index Name`` fields that match hypothetical indexes this adapter
created.

Neither driver is a dependency of this repository: the import is
guarded, and the class accepts an injectable ``connection`` (anything
with a ``cursor()`` context-manager protocol) so unit tests exercise
the SQL and plan parsing against a fake connection.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional, Tuple

from repro.backend.base import (
    Backend,
    BackendCapabilities,
    BackendCapabilityError,
    BackendUnavailableError,
)
from repro.backend.trace import ReplayPlan
from repro.optimizer.optimizer import OptimizationResult
from repro.sql.render import render_query

if TYPE_CHECKING:
    from repro.backend.base import WhatIfSession
    from repro.engine.catalog import Catalog
    from repro.engine.index import IndexDef
    from repro.optimizer.access import IndexConfig
    from repro.optimizer.optimizer import PlanCache
    from repro.sql.ast import Query

__all__ = ["PostgresHypoBackend", "driver_available"]


def _import_driver():
    """Import psycopg (v3) or psycopg2, whichever is installed."""
    try:
        import psycopg  # type: ignore[import-not-found]

        return psycopg
    except ImportError:
        pass
    try:
        import psycopg2  # type: ignore[import-not-found]

        return psycopg2
    except ImportError:
        pass
    return None


def driver_available() -> bool:
    """Whether a PostgreSQL driver is importable in this environment."""
    return _import_driver() is not None


class PostgresHypoBackend(Backend):
    """Backend speaking to PostgreSQL through HypoPG.

    Args:
        dsn: Connection string; used only when ``connection`` is absent.
        connection: An already-open DB-API connection (injectable for
            tests; must provide ``cursor()``).
        catalog: Optional local catalog mirror.  The tuner still needs
            one for candidate generation and index sizing; pricing goes
            to the server.

    Raises:
        BackendUnavailableError: when no driver is installed and no
            connection was injected.
    """

    capabilities = BackendCapabilities(name="hypopg", reverse_whatif=False)

    def __init__(
        self,
        dsn: Optional[str] = None,
        connection=None,
        catalog: Optional[Catalog] = None,
    ) -> None:
        if connection is None:
            driver = _import_driver()
            if driver is None:
                raise BackendUnavailableError(
                    "the hypopg backend needs psycopg or psycopg2; "
                    "neither is installed"
                )
            if dsn is None:
                raise BackendUnavailableError(
                    "the hypopg backend needs a DSN (--dsn) when no "
                    "connection is injected"
                )
            connection = driver.connect(dsn)
        self._conn = connection
        self._catalog = catalog
        # IndexDef -> (hypopg oid, hypopg index name)
        self._simulated: Dict[IndexDef, Tuple[int, str]] = {}
        self._ensure_extension()

    @property
    def catalog(self) -> Catalog:
        if self._catalog is None:
            raise BackendCapabilityError(
                "hypopg backend has no local catalog mirror; pass catalog="
            )
        return self._catalog

    # -- server plumbing -----------------------------------------------
    def _execute(self, sql: str, params: Tuple = ()) -> list:
        with self._conn.cursor() as cur:
            if params:
                cur.execute(sql, params)
            else:
                cur.execute(sql)
            try:
                return cur.fetchall()
            except Exception:
                return []

    def _ensure_extension(self) -> None:
        self._execute("CREATE EXTENSION IF NOT EXISTS hypopg")

    # -- what-if cost oracle -------------------------------------------
    def current_config(self) -> IndexConfig:
        config: IndexConfig = frozenset(self._simulated)
        if self._catalog is not None:
            config = config | frozenset(self._catalog.materialized_indexes())
        return config

    def optimize(
        self,
        query: Query,
        config: Optional[IndexConfig] = None,
        session: Optional[WhatIfSession] = None,
        cache: Optional[PlanCache] = None,
    ) -> OptimizationResult:
        current = self.current_config()
        if config is None:
            config = current
        added = config - current
        removed = current - config
        materialized_removed = [
            ix for ix in removed if ix not in self._simulated
        ]
        if materialized_removed:
            raise BackendCapabilityError(
                "hypopg cannot hide materialized indexes "
                f"{sorted(str(ix) for ix in materialized_removed)}; "
                "reverse what-if is unsupported"
            )
        temporarily_dropped = [ix for ix in removed if ix in self._simulated]
        for index in added:
            self.simulate_index(index)
        for index in temporarily_dropped:
            self.drop_simulated_index(index)
        try:
            cost, used_names = self._explain_cost(query)
            # Match while the added hypotheticals are still registered --
            # the name -> IndexDef map lives in self._simulated.
            used = self._match_used(used_names, config)
        finally:
            for index in added:
                self.drop_simulated_index(index)
            for index in temporarily_dropped:
                self.simulate_index(index)
        self._count_call()
        return OptimizationResult(
            plan=ReplayPlan(cost, used), cost=cost, config=config
        )

    def _explain_cost(self, query: Query):
        sql = render_query(query, self._catalog)
        rows = self._execute(f"EXPLAIN (FORMAT JSON) {sql}")
        payload = rows[0][0]
        if isinstance(payload, str):
            import json

            payload = json.loads(payload)
        plan = payload[0]["Plan"]
        return float(plan["Total Cost"]), self._index_names(plan)

    def _index_names(self, node: dict) -> list:
        names = []
        if "Index Name" in node:
            names.append(node["Index Name"])
        for child in node.get("Plans", ()):  # recurse into subplans
            names.extend(self._index_names(child))
        return names

    def _match_used(self, names, config: IndexConfig):
        by_name = {name: ix for ix, (_, name) in self._simulated.items()}
        used = set()
        for name in names:
            index = by_name.get(name)
            if index is not None and index in config:
                used.add(index)
        return used

    # -- hypothetical indexes ------------------------------------------
    def simulate_index(self, index: IndexDef) -> None:
        if index in self._simulated:
            return
        columns = ", ".join(index.columns)
        rows = self._execute(
            "SELECT indexrelid, indexname FROM hypopg_create_index(%s)",
            (f"CREATE INDEX ON {index.table} ({columns})",),
        )
        oid, name = rows[0][0], rows[0][1]
        self._simulated[index] = (int(oid), str(name))

    def drop_simulated_index(self, index: IndexDef) -> None:
        entry = self._simulated.pop(index, None)
        if entry is None:
            return
        self._execute("SELECT hypopg_drop_index(%s)", (entry[0],))

    def simulated_indexes(self) -> IndexConfig:
        return frozenset(self._simulated)

    # -- statistics ----------------------------------------------------
    def stats_token(self, table: str):
        rows = self._execute(
            "SELECT c.reltuples, COALESCE(s.n_mod_since_analyze, 0), "
            "COALESCE(s.last_analyze::text, '') "
            "FROM pg_class c LEFT JOIN pg_stat_user_tables s "
            "ON s.relid = c.oid WHERE c.relname = %s",
            (table,),
        )
        if not rows:
            return (0.0, 0, "")
        reltuples, n_mod, last_analyze = rows[0]
        return (float(reltuples), int(n_mod), str(last_analyze))

    def refresh_stats(self, table: str) -> None:
        self._execute(f"ANALYZE {table}")
