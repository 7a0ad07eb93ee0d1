"""Tests for the C³-UCB bandit tuner's epoch loop and safety rails."""

import random

import pytest

from repro.bandit import BanditConfig, BanditTuner
from repro.core.knapsack import Ruling
from repro.core.self_organizer import ReorganizationResult
from repro.engine.datatypes import DataType
from repro.engine.index import IndexDef
from repro.obs.registry import MetricsRegistry
from repro.resilience.breaker import CircuitBreaker
from repro.sql.ast import (
    ColumnExpr,
    CompareOp,
    ComparisonPredicate,
    Query,
    SelectItem,
)


def _eq_query(value, table="events", column="user_id"):
    return Query(
        tables=[table],
        select=[SelectItem(expr=ColumnExpr("amount", "events"))],
        filters=[
            ComparisonPredicate(ColumnExpr(column, table), CompareOp.EQ, value)
        ],
    )


def _make_tuner(catalog, **overrides):
    overrides.setdefault("epoch_length", 5)
    overrides.setdefault("storage_budget_pages", 5000.0)
    return BanditTuner(catalog, BanditConfig(**overrides))


def _metric_total(tuner, name):
    for family in tuner.metrics_snapshot()["metrics"]:
        if family["name"] == name:
            return sum(sample["value"] for sample in family["samples"])
    return 0.0


class TestEpochLoop:
    def test_epoch_boundaries_carry_reorganizations(self, small_catalog):
        tuner = _make_tuner(small_catalog)
        outcomes = tuner.run([_eq_query(i + 1) for i in range(12)])
        assert len(outcomes) == 12
        for i, outcome in enumerate(outcomes):
            if i in (4, 9):
                assert outcome.epoch_ended
                assert outcome.reorganization is not None
            else:
                assert not outcome.epoch_ended
                assert outcome.reorganization is None
        assert tuner.epochs_closed == 2

    def test_forced_exploration_materializes_arms(self, small_catalog):
        tuner = _make_tuner(small_catalog)
        rng = random.Random(0)
        tuner.run([_eq_query(rng.randint(1, 10_000)) for _ in range(30)])
        # The first forced_exploration_epochs rounds select optimistically
        # (no build-cost hysteresis), so the hot candidate gets built.
        assert tuner.materialized_set
        assert _metric_total(tuner, "bandit_reward_samples_total") >= 1
        # One reward-magnitude observation per model update.
        assert tuner.metrics.get("bandit_reward").count() == _metric_total(
            tuner, "bandit_reward_samples_total"
        )

    def test_outcome_ledger_is_cost_consistent(self, small_catalog):
        tuner = _make_tuner(small_catalog)
        for outcome in tuner.run([_eq_query(i + 1) for i in range(10)]):
            assert outcome.total_cost >= outcome.execution_cost
            assert outcome.total_cost == pytest.approx(
                outcome.execution_cost
                + outcome.whatif_overhead
                + outcome.verify_overhead
                + outcome.build_cost
            )

    def test_queries_metric_counts_queries(self, small_catalog):
        tuner = _make_tuner(small_catalog)
        tuner.run([_eq_query(i + 1) for i in range(7)])
        assert _metric_total(tuner, "bandit_queries_total") == 7
        assert tuner.queries_seen == 7


class TestRunErrors:
    def test_invalid_on_error_rejected(self, small_catalog):
        tuner = _make_tuner(small_catalog)
        with pytest.raises(ValueError, match="on_error"):
            tuner.run([], on_error="ignore")

    def test_raise_mode_propagates(self, small_catalog):
        tuner = _make_tuner(small_catalog)
        with pytest.raises(Exception):
            tuner.run([_eq_query(1, table="no_such_table")])

    def test_skip_mode_records_failure_and_continues(self, small_catalog):
        tuner = _make_tuner(small_catalog)
        queries = [_eq_query(1), _eq_query(2, table="no_such_table"), _eq_query(3)]
        outcomes = tuner.run(queries, on_error="skip")
        assert len(outcomes) == 3
        assert not outcomes[0].failed
        assert outcomes[1].failed
        assert outcomes[1].error is not None
        assert outcomes[1].total_cost == 0.0
        assert not outcomes[2].failed
        # The epoch clock keeps ticking through the failure.
        assert tuner.queries_seen == 3
        assert _metric_total(tuner, "bandit_queries_total") == 2


class TestInserts:
    def test_requires_rows_or_count(self, small_catalog):
        tuner = _make_tuner(small_catalog)
        with pytest.raises(ValueError):
            tuner.process_insert("events")

    def test_count_mode_grows_table(self, small_catalog):
        tuner = _make_tuner(small_catalog)
        before = small_catalog.table("events").row_count
        outcome = tuner.process_insert("events", count=500)
        assert outcome.count == 500
        assert small_catalog.table("events").row_count == before + 500
        assert outcome.total_cost >= outcome.heap_cost > 0.0


class TestSafetyFallback:
    """The safety stage (``tuner.safety``) as the close runs it."""

    def _index(self):
        return IndexDef("events", "user_id", DataType.INT)

    def test_regression_bans_the_added_arms(self, small_catalog):
        tuner = _make_tuner(small_catalog)
        ix = self._index()
        tuner.materialized.add(ix)
        tuner.safety.watch = ([ix], 10.0)
        # safety_factor defaults to 1.5: 100 > 1.5 * 10 trips the rail.
        rulings = tuner.safety.rulings(7, 100.0, tuner.materialized)
        cooldown = tuner.config.safety_cooldown_epochs
        assert rulings == (
            Ruling(ix, "ban", "safety", reason=rulings[0].reason, until=7 + cooldown),
        )
        assert tuner.safety.bans[ix] == cooldown
        assert tuner.safety.watch is None
        assert _metric_total(tuner, "bandit_safety_fallbacks_total") == 1

    def test_no_trip_within_safety_factor(self, small_catalog):
        tuner = _make_tuner(small_catalog)
        ix = self._index()
        tuner.materialized.add(ix)
        tuner.safety.watch = ([ix], 10.0)
        assert tuner.safety.rulings(0, 14.0, tuner.materialized) == ()  # < 1.5x
        assert not tuner.safety.bans
        assert _metric_total(tuner, "bandit_safety_fallbacks_total") == 0

    def test_dropped_arm_cannot_trip(self, small_catalog):
        # The watched index was already dropped again: nothing to revert.
        tuner = _make_tuner(small_catalog)
        tuner.safety.watch = ([self._index()], 10.0)
        assert tuner.safety.rulings(0, 100.0, tuner.materialized) == ()
        assert not tuner.safety.bans

    def test_bans_expire_after_cooldown(self, small_catalog):
        tuner = _make_tuner(small_catalog, safety_cooldown_epochs=2)
        ix = self._index()
        tuner.safety.bans[ix] = 2
        assert [r.until for r in tuner.safety.rulings(3, 0.0, set())] == [4]
        assert tuner.safety.bans[ix] == 1
        assert tuner.safety.rulings(4, 0.0, set()) == ()
        assert ix not in tuner.safety.bans

    def test_only_built_arms_are_watched(self, small_catalog):
        tuner = _make_tuner(small_catalog)
        built, failed = self._index(), IndexDef("events", "day", DataType.DATE)
        tuner.safety.rulings(0, 10.0, tuner.materialized)  # the round's cost
        reorg = ReorganizationResult(
            materialize=[built, failed],
            drop=[],
            hot=[],
            whatif_budget=0,
            improvement_ratio=1.0,
            build_failures=[failed],
        )
        tuner.safety.applied(reorg)
        assert tuner.safety.watch == ([built], 10.0)
        reorg.build_failures = [built, failed]
        tuner.safety.applied(reorg)
        assert tuner.safety.watch is None


class TestWiring:
    def test_custom_breaker_guards_probes(self, small_catalog):
        breaker = CircuitBreaker(failure_threshold=1)
        tuner = _make_tuner(small_catalog)
        assert tuner.profiler.breaker is not breaker
        tuner = BanditTuner(
            small_catalog, BanditConfig(epoch_length=5), breaker=breaker
        )
        assert tuner.profiler.breaker is breaker

    def test_registry_receives_bandit_families(self, small_catalog):
        registry = MetricsRegistry()
        tuner = BanditTuner(
            small_catalog, BanditConfig(epoch_length=5), registry=registry
        )
        tuner.run([_eq_query(i + 1) for i in range(6)])
        names = {f["name"] for f in registry.snapshot()}
        assert "bandit_queries_total" in names
        assert "bandit_reward_samples_total" in names

    def test_colt_surface_attributes_present(self, small_catalog):
        # The fleet, guardrails and CLI reach these attributes on either
        # engine; their absence would break engine swapping.
        tuner = _make_tuner(small_catalog)
        for attr in (
            "run",
            "process_query",
            "process_insert",
            "materialized_set",
            "hot_set",
            "metrics_snapshot",
            "backend",
            "whatif",
            "scheduler",
            "profiler",
            "dashboard",
            "config",
        ):
            assert hasattr(tuner, attr), attr
        assert hasattr(tuner.profiler, "breaker")
        assert hasattr(tuner.profiler, "candidates")
        assert hasattr(tuner.profiler, "gain_cache")
