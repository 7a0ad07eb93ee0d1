"""Unit tests for the gain cache's structural-zero rule.

The differential harness (test_gaincache_differential.py) proves the
end-to-end equivalence; these tests pin the rule it relies on -- the
theorem itself, as a property over generated queries and configurations
-- the statistics versions a retained plan cache validates against, and
the metrics contract.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backend.local import LocalBackend
from repro.core import ColtConfig, ColtTuner
from repro.core.gaincache import GainCache, query_signature
from repro.obs.registry import MetricsRegistry
from repro.optimizer.optimizer import referenced_columns
from repro.optimizer.whatif import WhatIfOptimizer
from repro.sql.binder import bind_query
from repro.sql.parser import parse_query
from repro.workload.datagen import build_catalog

from tests.sql.test_roundtrip_fuzz import _random_query


def _query(catalog, sql):
    return bind_query(parse_query(sql), catalog)


@pytest.fixture()
def catalog():
    return build_catalog()


@pytest.fixture()
def whatif(catalog):
    return WhatIfOptimizer(LocalBackend(catalog))


@pytest.fixture()
def cache():
    return GainCache(enabled=True)


ORDERS_SQL = "select * from orders_1 where o_custkey = 42"

#: Every indexable (table, column) pair, in catalog order.
COLUMNS = [(ref.table, ref.column) for ref in build_catalog().indexable_columns()]
_column = st.integers(0, len(COLUMNS) - 1)


class TestStructuralZero:
    def test_unreferenced_index_served_as_exact_zero(self, catalog, whatif, cache):
        query = _query(catalog, ORDERS_SQL)
        # An index on a column the query never references: the
        # optimizer strips it from the relevant configuration, so the
        # probe's forward and reverse costs coincide.
        other = catalog.index_for("orders_1", "o_totalprice")
        assert cache.lookup(referenced_columns(query), other) == 0.0
        assert cache.hits == 1
        assert whatif.call_count == 0

    def test_structural_zero_matches_real_probe(self, catalog, whatif, cache):
        query = _query(catalog, ORDERS_SQL)
        session = whatif.begin_query(query)
        other = catalog.index_for("orders_1", "o_totalprice")
        real = whatif.what_if_optimize(session, [other])[other]
        assert cache.lookup(referenced_columns(query), other) == real == 0.0

    def test_referenced_index_is_not_a_structural_zero(self, catalog, cache):
        query = _query(catalog, ORDERS_SQL)
        probed = catalog.index_for("orders_1", "o_custkey")
        assert cache.lookup(referenced_columns(query), probed) is None
        assert cache.misses == 1

    def test_join_columns_count_as_referenced(self, catalog):
        query = _query(
            catalog,
            "select * from orders_1, customer_1 "
            "where orders_1.o_custkey = customer_1.c_custkey",
        )
        refs = referenced_columns(query)
        assert ("orders_1", "o_custkey") in refs
        assert ("customer_1", "c_custkey") in refs

    def test_the_rule_holds_nothing(self, catalog, cache):
        query = _query(catalog, ORDERS_SQL)
        for column in ("o_custkey", "o_totalprice"):
            cache.lookup(referenced_columns(query), catalog.index_for("orders_1", column))
        assert len(cache) == 0

    @given(
        seed=st.integers(0, 2**32 - 1),
        materialized=st.lists(_column, max_size=8),
        lead=st.integers(0, 10_000),
        second=st.one_of(st.none(), st.integers(0, 10_000)),
    )
    @settings(deadline=None)
    def test_theorem_unreferenced_lead_column_gains_exactly_zero(
        self, seed, materialized, lead, second
    ):
        """For any bound query, any ``M`` and any index whose (table, lead
        column) the query does not reference, a real probe returns 0.0."""
        catalog = build_catalog()
        query = _random_query(random.Random(seed), catalog)
        referenced = referenced_columns(query)
        for i in materialized:
            catalog.materialize_index(catalog.index_for(*COLUMNS[i]))
        unreferenced = [pair for pair in COLUMNS if pair not in referenced]
        table, column = unreferenced[lead % len(unreferenced)]
        columns = [column]
        others = [c for t, c in COLUMNS if t == table and c != column]
        if second is not None and others:
            columns.append(others[second % len(others)])  # only the lead counts
        index = catalog.composite_index_for(table, columns)
        if len(materialized) % 2:
            catalog.materialize_index(index)  # the reverse probe, too
        whatif = WhatIfOptimizer(LocalBackend(catalog))
        session = whatif.begin_query(query)
        assert whatif.what_if_optimize(session, [index]) == {index: 0.0}
        assert GainCache(enabled=True).lookup(referenced, index) == 0.0


class TestQuerySignature:
    def test_signature_distinguishes_literal_types(self):
        # The binder normally coerces literals to the column type; the
        # signature stays type-tagged anyway so equal-but-differently-
        # typed values (1 == 1.0, same hash) can never alias a key.
        from repro.sql.ast import ColumnExpr, CompareOp, ComparisonPredicate, Query

        def q(value):
            return Query(
                tables=["orders_1"],
                filters=[
                    ComparisonPredicate(
                        ColumnExpr("o_custkey", "orders_1"), CompareOp.EQ, value
                    )
                ],
            )

        assert query_signature(q(1)) != query_signature(q(1.0))
        assert query_signature(q(1)) == query_signature(q(1))


class TestTruncateRefill:
    """Delete-then-insert restoring the row count must still change the
    statistics token a retained plan cache validates against.

    ``row_count`` alone cannot distinguish a truncate-refill from "no
    change"; the stats *version* component of the token can, provided
    every mutation path bumps it.  These are the regression tests for
    the version-bump sweep across Catalog mutators.
    """

    def test_refill_to_original_count_still_invalidates(self, catalog):
        before = catalog.table("orders_1").row_count
        token = catalog.stats_token("orders_1")
        catalog.set_row_count("orders_1", 0.0)  # truncate
        catalog.apply_row_delta("orders_1", before)  # refill
        assert catalog.table("orders_1").row_count == before
        assert catalog.stats_token("orders_1") != token

    def test_every_mutator_bumps_the_version(self, catalog):
        versions = [catalog.stats_version("orders_1")]
        catalog.apply_row_delta("orders_1", 100)
        versions.append(catalog.stats_version("orders_1"))
        catalog.apply_row_delta("orders_1", -100)
        versions.append(catalog.stats_version("orders_1"))
        catalog.set_row_count(
            "orders_1", catalog.table("orders_1").row_count
        )
        versions.append(catalog.stats_version("orders_1"))
        catalog.bump_stats_version("orders_1")
        versions.append(catalog.stats_version("orders_1"))
        assert versions == sorted(set(versions))  # strictly increasing

    def test_mutators_validate_the_table(self, catalog):
        with pytest.raises(KeyError):
            catalog.apply_row_delta("no_such_table", 1)
        with pytest.raises(KeyError):
            catalog.set_row_count("no_such_table", 1)
        with pytest.raises(KeyError):
            catalog.bump_stats_version("no_such_table")

    def test_set_stats_bumps_the_stats_version(self, catalog):
        before = catalog.stats_version("orders_1")
        catalog.set_stats(
            "orders_1", "o_custkey", catalog.stats("orders_1", "o_custkey")
        )
        assert catalog.stats_version("orders_1") == before + 1


class TestTunerIntegration:
    def test_disabled_by_default_and_profiler_skips_it(self, catalog):
        tuner = ColtTuner(catalog, ColtConfig())
        assert tuner.profiler.gain_cache.enabled is False
        rng = random.Random(1)
        for _ in range(15):
            key = rng.randint(1, 10_000)
            tuner.process_query(
                _query(
                    catalog,
                    f"select * from orders_1 where o_custkey = {key}",
                )
            )
        assert tuner.profiler.gain_cache.hits == 0
        assert tuner.profiler.gain_cache.misses == 0

    def test_enabled_tuner_records_hits_on_mixed_workload(self, catalog):
        # Two query shapes on the same table, each referencing only one
        # column: each cluster's relevant hot set then contains the
        # *other* column's index (same-table relevance), whose probe is
        # a structural zero the rule serves without a what-if call.
        tuner = ColtTuner(
            catalog,
            ColtConfig(gain_cache=True, storage_budget_pages=9_000.0),
        )
        rng = random.Random(1)
        for i in range(60):
            if i % 2:
                sql = (
                    "select * from orders_1 where o_custkey = "
                    f"{rng.randint(1, 10_000)}"
                )
            else:
                sql = (
                    "select * from orders_1 where o_totalprice > "
                    f"{rng.uniform(100.0, 200.0):.2f}"
                )
            tuner.process_query(_query(catalog, sql))
        assert tuner.profiler.gain_cache.hits > 0

    def test_metric_families_registered_even_when_disabled(self, catalog):
        registry = MetricsRegistry()
        ColtTuner(catalog, ColtConfig(), registry=registry)
        names = set(registry.names())
        assert {"gaincache_hits_total", "gaincache_misses_total"} <= names
        assert not {
            "gaincache_stores_total",
            "gaincache_invalidations_total",
            "gaincache_entries",
        } & names

    def test_hit_metrics_track_plain_counters(self, catalog):
        registry = MetricsRegistry()
        cache = GainCache(enabled=True, registry=registry)
        referenced = referenced_columns(_query(catalog, ORDERS_SQL))
        cache.lookup(referenced, catalog.index_for("orders_1", "o_totalprice"))
        cache.lookup(referenced, catalog.index_for("orders_1", "o_custkey"))
        hits = registry.get("gaincache_hits_total")
        assert hits.value(kind="structural") == cache.hits == 1
        assert registry.get("gaincache_misses_total").value() == cache.misses == 1
