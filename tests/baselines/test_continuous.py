"""Tests for the QUIET-style continuous tuner baseline."""

import random

import pytest

from repro.baselines import ContinuousTuner
from repro.core.config import ColtConfig
from repro.sql.ast import (
    ColumnExpr,
    CompareOp,
    ComparisonPredicate,
    Query,
    SelectItem,
)


def _eq_query(value):
    return Query(
        tables=["events"],
        select=[SelectItem(expr=ColumnExpr("amount", "events"))],
        filters=[
            ComparisonPredicate(
                ColumnExpr("user_id", "events"), CompareOp.EQ, value
            )
        ],
    )


class TestAdoption:
    def test_adopts_after_enough_credit(self, small_catalog):
        tuner = ContinuousTuner(small_catalog, ColtConfig(storage_budget_pages=5000.0))
        rng = random.Random(0)
        for _ in range(60):
            tuner.process_query(_eq_query(rng.randint(1, 10_000)))
        assert small_catalog.index_for("events", "user_id") in tuner.materialized_set

    def test_single_query_insufficient(self, small_catalog):
        tuner = ContinuousTuner(small_catalog)
        tuner.process_query(_eq_query(5))
        assert tuner.materialized_set == []

    def test_budget_respected(self, small_catalog):
        config = ColtConfig(storage_budget_pages=100.0)
        tuner = ContinuousTuner(small_catalog, config)
        rng = random.Random(1)
        for _ in range(80):
            tuner.process_query(_eq_query(rng.randint(1, 10_000)))
            assert small_catalog.materialized_size_pages() <= 100.0

    def test_build_cost_charged_once(self, small_catalog):
        tuner = ContinuousTuner(small_catalog, ColtConfig(storage_budget_pages=5000.0))
        rng = random.Random(2)
        build_events = [
            tuner.process_query(_eq_query(rng.randint(1, 10_000))).build_cost
            for _ in range(80)
        ]
        assert sum(1 for b in build_events if b > 0) == 1


class TestOverhead:
    def test_profiles_every_query(self, small_catalog):
        """The defining flaw of the prior-work model: constant intensity."""
        tuner = ContinuousTuner(small_catalog, ColtConfig(storage_budget_pages=5000.0))
        rng = random.Random(3)
        outcomes = [
            tuner.process_query(_eq_query(rng.randint(1, 10_000)))
            for _ in range(100)
        ]
        # Even long after convergence, every query pays a what-if call.
        assert all(o.whatif_calls >= 1 for o in outcomes)
        assert outcomes[-1].whatif_calls >= 1

    def test_ledger_consistent(self, small_catalog):
        tuner = ContinuousTuner(small_catalog)
        o = tuner.process_query(_eq_query(1))
        assert o.total_cost == pytest.approx(
            o.execution_cost + o.whatif_overhead + o.build_cost
        )


class TestRetirement:
    def test_unused_index_retired(self, small_catalog):
        config = ColtConfig(storage_budget_pages=5000.0)
        tuner = ContinuousTuner(small_catalog, config)
        rng = random.Random(4)
        for _ in range(60):
            tuner.process_query(_eq_query(rng.randint(1, 10_000)))
        assert tuner.materialized_set  # adopted
        # Switch the workload to a column the index cannot serve.
        other = Query(
            tables=["users"],
            select=[SelectItem(expr=ColumnExpr("score", "users"))],
            filters=[
                ComparisonPredicate(ColumnExpr("score", "users"), CompareOp.EQ, 5)
            ],
        )
        # At DECAY = 0.99 the stale credit falls below the retirement
        # floor after ~570 queries.
        for _ in range(800):
            tuner.process_query(other)
        assert small_catalog.index_for("events", "user_id") not in tuner.materialized_set

    def test_eviction_prefers_weak_incumbents(self, small_catalog):
        # Budget fits one events index only; shifting the workload must
        # eventually evict the stale incumbent.
        config = ColtConfig(storage_budget_pages=3000.0)
        tuner = ContinuousTuner(small_catalog, config)
        rng = random.Random(5)
        for _ in range(60):
            tuner.process_query(_eq_query(rng.randint(1, 10_000)))
        day_query = Query(
            tables=["events"],
            select=[SelectItem(expr=ColumnExpr("amount", "events"))],
            filters=[
                ComparisonPredicate(ColumnExpr("day", "events"), CompareOp.EQ, 8500)
            ],
        )
        for _ in range(150):
            tuner.process_query(day_query)
        assert small_catalog.index_for("events", "day") in tuner.materialized_set
