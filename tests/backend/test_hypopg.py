"""Unit tests for the HypoPG adapter against a fake DB-API connection.

No PostgreSQL server (or driver) exists in CI, so these tests exercise
the adapter's SQL emission, EXPLAIN parsing, hypothetical-index
bookkeeping, and capability degradation through an injected fake that
speaks just enough of the DB-API cursor protocol.
"""

import json

import pytest

from repro.backend.base import (
    BackendCapabilityError,
    BackendUnavailableError,
)
from repro.backend.hypopg import PostgresHypoBackend, driver_available
from repro.optimizer.whatif import WhatIfOptimizer
from repro.resilience.errors import WhatIfProbeError
from repro.sql.ast import ColumnExpr, CompareOp, ComparisonPredicate, Query
from repro.sql.parser import parse_query

from tests.fleet.workloads import build_small_catalog, eq_query


class FakeCursor:
    def __init__(self, conn):
        self._conn = conn
        self._rows = None

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def execute(self, sql, params=None):
        self._conn.statements.append((sql, params))
        self._rows = self._conn.respond(sql, params)

    def fetchall(self):
        if self._rows is None:
            raise RuntimeError("no results to fetch")
        return self._rows


class FakeConnection:
    """Just enough of PostgreSQL+HypoPG for the adapter's SQL surface.

    EXPLAIN answers with a cost that drops by 100 units per registered
    hypothetical index, scanning the newest one -- so forward what-if
    probes observe positive gains.
    """

    def __init__(self):
        self.statements = []
        self.hypo = {}  # oid -> index name
        self._next_oid = 100
        self.n_mod = 0
        self.last_analyze = ""

    def cursor(self):
        return FakeCursor(self)

    def respond(self, sql, params):
        if sql.startswith("CREATE EXTENSION"):
            return None
        if "hypopg_create_index" in sql:
            self._next_oid += 1
            name = f"<{self._next_oid}>btree_hypo"
            self.hypo[self._next_oid] = name
            return [(self._next_oid, name)]
        if "hypopg_drop_index" in sql:
            self.hypo.pop(params[0], None)
            return [(True,)]
        if sql.startswith("EXPLAIN"):
            plan = {"Total Cost": 1000.0 - 100.0 * len(self.hypo)}
            if self.hypo:
                newest = self.hypo[max(self.hypo)]
                plan["Plans"] = [{"Index Name": newest, "Total Cost": 1.0}]
            return [(json.dumps([{"Plan": plan}]),)]
        if sql.startswith("ANALYZE"):
            self.n_mod = 0
            self.last_analyze = f"analyze-{len(self.statements)}"
            return None
        if "pg_class" in sql:
            if params and params[0] not in ("events", "users"):
                return []
            return [(1_000_000.0, self.n_mod, self.last_analyze)]
        return []


@pytest.fixture
def conn():
    return FakeConnection()


@pytest.fixture
def backend(conn):
    return PostgresHypoBackend(connection=conn, catalog=build_small_catalog())


class TestConstruction:
    def test_unavailable_without_driver_or_connection(self, monkeypatch):
        monkeypatch.setattr(
            "repro.backend.hypopg._import_driver", lambda: None
        )
        assert not driver_available()
        with pytest.raises(BackendUnavailableError):
            PostgresHypoBackend(dsn="postgres://nowhere")

    def test_injected_connection_needs_no_driver(self, backend, conn):
        assert conn.statements[0][0].startswith("CREATE EXTENSION")

    def test_capabilities(self, backend):
        caps = backend.capabilities
        assert caps.name == "hypopg"
        assert not caps.reverse_whatif

    def test_catalog_mirror_is_optional_but_guarded(self, conn):
        backend = PostgresHypoBackend(connection=conn)
        with pytest.raises(BackendCapabilityError):
            backend.catalog


class TestHypotheticalIndexes:
    def test_simulate_emits_create_and_is_idempotent(self, backend, conn):
        user = backend.catalog.index_for("events", "user_id")
        backend.simulate_index(user)
        backend.simulate_index(user)
        creates = [s for s, _ in conn.statements if "hypopg_create_index" in s]
        assert len(creates) == 1
        assert backend.simulated_indexes() == frozenset({user})

    def test_drop_emits_drop_by_oid(self, backend, conn):
        user = backend.catalog.index_for("events", "user_id")
        backend.simulate_index(user)
        backend.drop_simulated_index(user)
        backend.drop_simulated_index(user)  # no-op
        drops = [p for s, p in conn.statements if "hypopg_drop_index" in s]
        assert len(drops) == 1
        assert not conn.hypo


class TestPricing:
    def test_explain_cost_parsed_from_json(self, backend):
        assert backend.get_cost(eq_query(7)) == 1000.0

    def test_quote_in_a_literal_reaches_the_server_doubled(self, backend, conn):
        # Unescaped, the literal would close early and the rest of it
        # would run as a second predicate on the server.
        query = Query(
            tables=["events"],
            filters=[
                ComparisonPredicate(
                    ColumnExpr("kind", "events"), CompareOp.EQ, "x' and user_id = '1"
                )
            ],
        )
        backend.get_cost(query)
        explain = [s for s, _ in conn.statements if s.startswith("EXPLAIN")][-1]
        assert explain.endswith("where events.kind = 'x'' and user_id = ''1'")
        sent = parse_query(explain[len("EXPLAIN (FORMAT JSON) "):])
        assert sent.filters == query.filters

    def test_optimize_simulates_then_cleans_up(self, backend, conn):
        user = backend.catalog.index_for("events", "user_id")
        cost = backend.get_cost(eq_query(7), config=frozenset({user}))
        assert cost == 900.0
        assert backend.simulated_indexes() == frozenset()  # restored
        assert not conn.hypo  # dropped server-side too

    def test_used_indexes_matched_back_to_defs(self, backend):
        user = backend.catalog.index_for("events", "user_id")
        result = backend.optimize(eq_query(7), config=frozenset({user}))
        assert user in result.plan.indexes_used()

    def test_reverse_whatif_of_materialized_index_refused(self, backend):
        user = backend.catalog.index_for("events", "user_id")
        backend.catalog.materialize_index(user)
        with pytest.raises(BackendCapabilityError):
            backend.get_cost(eq_query(7), config=frozenset())

    def test_whatif_layer_degrades_reverse_probe_to_probe_error(self, backend):
        # The profiler absorbs WhatIfProbeError as probe noise; the
        # forward gain measured earlier in the batch must ride along.
        user = backend.catalog.index_for("events", "user_id")
        day = backend.catalog.index_for("events", "day")
        backend.catalog.materialize_index(user)
        whatif = WhatIfOptimizer(backend=backend)
        session = whatif.begin_query(eq_query(7))
        with pytest.raises(WhatIfProbeError) as err:
            whatif.what_if_optimize(session, [day, user])
        assert day in err.value.partial_gains


class TestStatistics:
    def test_stats_token_reads_server_statistics(self, backend, conn):
        before = backend.stats_token("events")
        conn.n_mod = 42
        assert backend.stats_token("events") != before

    def test_refresh_stats_issues_analyze(self, backend, conn):
        before = backend.stats_token("events")
        backend.refresh_stats("events")
        assert any(s.startswith("ANALYZE") for s, _ in conn.statements)
        assert backend.stats_token("events") != before

    def test_unknown_table_yields_empty_token(self, backend):
        assert backend.stats_token("no_such_table") == (0.0, 0, "")
