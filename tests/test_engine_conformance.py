"""Engine conformance: what every row of the engine table must satisfy.

Parametrized over :data:`repro.engines.ENGINES`, so an engine that
registers but does not honour the :class:`~repro.core.loop.TuningLoop`
contract fails here rather than in a fleet, a snapshot or the CLI.
Engine-specific behaviour (COLT's re-budgeting, the bandit's safety
fallback, ...) stays in ``tests/core`` and ``tests/bandit``.
"""

import copy
import json
import random

import pytest

from repro.backend.local import LocalBackend
from repro.core import ColtConfig
from repro.core.knapsack import Ruling
from repro.core.loop import TuningLoop
from repro.engines import ENGINES, engine_spec
from repro.guardrails.advice import AdviceBook, AdviceDirective
from repro.guardrails.manager import GuardrailManager
from repro.obs.registry import MetricsRegistry
from repro.persist import SnapshotError, restore_any, snapshot_any
from repro.resilience import FaultInjector, FaultPlan, FaultSpec
from repro.resilience.breaker import CircuitBreaker
from repro.sql.ast import (
    ColumnExpr,
    CompareOp,
    ComparisonPredicate,
    Query,
    SelectItem,
)

from tests.obs.test_instrumentation import clock_reads

pytestmark = pytest.mark.parametrize("engine", list(ENGINES))


def _eq_query(value, column="user_id"):
    return Query(
        tables=["events"],
        select=[SelectItem(expr=ColumnExpr("amount", "events"))],
        filters=[
            ComparisonPredicate(ColumnExpr(column, "events"), CompareOp.EQ, value)
        ],
    )


def _bad_query():
    return Query(
        tables=["no_such_table"],
        select=[SelectItem(expr=ColumnExpr("x", "no_such_table"))],
        filters=[],
    )


def _stream(n, seed=0):
    rng = random.Random(seed)
    return [_eq_query(rng.randint(1, 10_000)) for _ in range(n)]


def _make(engine, catalog, epoch_length=5, **kwargs):
    config = ColtConfig(epoch_length=epoch_length, storage_budget_pages=5000.0)
    return engine_spec(engine).build(catalog, config, **kwargs)


def _advised(engine, catalog, *directives):
    """A tuner under DBA advice and no guardrail manager."""
    return _make(engine, catalog, advice=AdviceBook(directives))


PIN_SCORE = AdviceDirective("pin", "users", ("score",))


class TestConstruction:
    def test_table_row_is_a_loop_engine(self, engine, small_catalog):
        spec = ENGINES[engine]
        assert issubclass(spec.tuner, TuningLoop)
        assert spec.name == engine == spec.tuner.engine_name
        # Every engine reads the ColtConfig it is built with, as given.
        config = ColtConfig(epoch_length=7, storage_budget_pages=4000.0, seed=3)
        assert spec.build(small_catalog, config).config is config
        assert spec.tuner.budget_label

    def test_defaults(self, engine, small_catalog):
        tuner = ENGINES[engine].tuner(small_catalog)
        assert tuner.config == ColtConfig()
        assert tuner.backend.catalog is small_catalog
        assert tuner.metrics is tuner.registry
        assert tuner.queries_seen == 0
        assert tuner.materialized_set == [] and tuner.hot_set == []

    def test_backend_must_share_the_catalog(self, engine, small_catalog):
        other = copy.deepcopy(small_catalog)
        with pytest.raises(ValueError, match="share one catalog"):
            _make(engine, small_catalog, backend=LocalBackend(other))

    def test_injected_components_are_used(self, engine, small_catalog):
        breaker = CircuitBreaker(failure_threshold=1, cooldown_ticks=3)
        registry = MetricsRegistry()
        backend = LocalBackend(small_catalog)
        tuner = _make(
            engine, small_catalog, breaker=breaker, registry=registry, backend=backend
        )
        assert tuner.profiler.breaker is breaker
        assert tuner.registry is registry
        assert tuner.backend is backend and tuner.whatif.backend is backend

    def test_adopts_preexisting_materialized_set(self, engine, small_catalog):
        index = small_catalog.index_for("events", "user_id")
        small_catalog.materialize_index(index)
        assert _make(engine, small_catalog).materialized_set == [index]

    def test_component_surface_the_fleet_and_faults_reach(self, engine, small_catalog):
        tuner = _make(engine, small_catalog)
        for name in ("whatif", "backend", "scheduler", "catalog", "dashboard"):
            assert getattr(tuner, name) is not None
        for name in ("breaker", "candidates", "gain_cache"):
            assert hasattr(tuner.profiler, name)


class TestRun:
    def test_epoch_cadence_and_ledger_identity(self, engine, small_catalog):
        tuner = _make(engine, small_catalog)
        outcomes = tuner.run(_stream(23))
        assert [o.index for o in outcomes] == list(range(23))
        assert [o.index for o in outcomes if o.epoch_ended] == [4, 9, 14, 19]
        for o in outcomes:
            assert (o.reorganization is not None) == o.epoch_ended
            assert o.total_cost == pytest.approx(
                o.execution_cost + o.whatif_overhead + o.verify_overhead + o.build_cost
            )
        assert len(tuner.dashboard.records) == 4
        assert tuner.queries_seen == 23

    def test_metrics_snapshot_is_metrics_and_overhead(self, engine, small_catalog):
        tuner = _make(engine, small_catalog)
        tuner.run(_stream(12))
        snapshot = tuner.metrics_snapshot()
        assert set(snapshot) == {"format", "version", "metrics", "overhead"}
        assert len(snapshot["overhead"]) == len(tuner.dashboard.records) == 2

    def test_no_arrival_reads_a_clock(self, engine, small_catalog):
        # The loop is counted, not timed: wall-clock timing lives in perf/.
        tuner = _make(engine, small_catalog)
        stream = [*_stream(9), _bad_query(), *_stream(3, seed=1)]
        outcomes, reads = clock_reads(tuner.run, stream, on_error="skip")
        assert [o.index for o in outcomes if o.epoch_ended] == [4, 9]
        assert outcomes[9].failed and reads == 0
        assert clock_reads(tuner.process_insert, "events", count=40)[1] == 0

    def test_unknown_mode_rejected(self, engine, small_catalog):
        with pytest.raises(ValueError, match="on_error"):
            _make(engine, small_catalog).run([], on_error="ignore")

    def test_raise_mode_propagates(self, engine, small_catalog):
        tuner = _make(engine, small_catalog)
        with pytest.raises(Exception):
            tuner.run([_eq_query(1), _bad_query(), _eq_query(2)])
        assert tuner.queries_seen == 1

    def test_skip_mode_records_failure_and_continues(self, engine, small_catalog):
        tuner = _make(engine, small_catalog)
        outcomes = tuner.run([_eq_query(1), _bad_query(), _eq_query(2)], on_error="skip")
        assert [o.failed for o in outcomes] == [False, True, False]
        assert outcomes[1].total_cost == 0.0 and outcomes[1].plan is None
        assert [o.index for o in outcomes] == [0, 1, 2]
        assert tuner.queries_seen == 3

    @pytest.mark.parametrize("failing_arrival", [9, 4])
    def test_failed_arrival_on_the_boundary_still_closes_the_epoch(
        self, engine, small_catalog, failing_arrival
    ):
        # Regression: the failed arrival advanced the clock past the
        # boundary, so that epoch was never closed -- no reorganization,
        # no re-budget, and the engine's per-epoch spend was not reset.
        tuner = _make(engine, small_catalog, epoch_length=10)
        begin_query = tuner.whatif.begin_query

        def flaky(query):
            if tuner.queries_seen == failing_arrival:
                raise RuntimeError("backend hiccup")
            return begin_query(query)

        tuner.whatif.begin_query = flaky
        outcomes = tuner.run(_stream(30), on_error="skip")
        closed = [o.index for o in outcomes if o.epoch_ended]
        assert closed == [9, 19, 29]
        assert len(tuner.dashboard.records) == 3
        failed = outcomes[failing_arrival]
        assert failed.failed and isinstance(failed.error, RuntimeError)
        if failing_arrival == 9:
            assert failed.reorganization is not None
            assert failed.total_cost == failed.build_cost
        else:
            assert failed.reorganization is None and failed.total_cost == 0.0
        # Every boundary started the next epoch with its spend reset.
        assert tuner._epoch_budget()[2] == 0


class TestBuilds:
    """Builds run at the boundary that requests them (the immediate policy)."""

    def test_there_is_no_policy_to_choose(self, engine, small_catalog):
        with pytest.raises(TypeError, match="policy"):
            _make(engine, small_catalog, policy="idle")

    def test_a_requested_build_is_charged_and_usable_at_its_boundary(
        self, engine, small_catalog
    ):
        tuner = _make(engine, small_catalog)
        built = []
        for outcome in tuner.run(_stream(60)):
            reorg = outcome.reorganization
            if reorg is None or not reorg.materialize:
                continue
            assert outcome.build_cost == pytest.approx(
                sum(small_catalog.index_build_cost(ix) for ix in reorg.materialize)
            )
            assert all(small_catalog.is_materialized(ix) for ix in reorg.materialize)
            built.extend(reorg.materialize)
        assert built, "expected the stream to materialize an index"
        assert {b.index for b in tuner.scheduler.builds} == set(built)

    def test_a_failed_build_stays_out_of_m_and_is_surfaced(
        self, engine, small_catalog
    ):
        injector = FaultInjector(FaultPlan(build=FaultSpec(every=1)))
        tuner = _make(engine, small_catalog, fault_injector=injector)
        failures = []
        for outcome in tuner.run(_stream(60)):
            reorg = outcome.reorganization
            if reorg is not None:
                assert reorg.build_failures == list(reorg.materialize)
                assert tuner.materialized_set == []
                failures.extend(reorg.build_failures)
            assert outcome.build_cost == 0.0
        assert failures, "expected the stream to request a build"
        assert not small_catalog.materialized_indexes()
        assert {f.index for f in tuner.scheduler.retry_queue} <= set(failures)

    def test_a_retried_build_rejoins_m(self, engine, small_catalog):
        injector = FaultInjector(FaultPlan(build=FaultSpec(at_calls=(1,))))
        tuner = _make(engine, small_catalog, fault_injector=injector)
        outcomes = tuner.run(_stream(60))
        failed = [
            ix
            for o in outcomes
            if o.reorganization
            for ix in o.reorganization.build_failures
        ]
        recovered = [
            ix
            for o in outcomes
            if o.reorganization
            for ix in o.reorganization.recovered_builds
        ]
        assert len(failed) == 1 and recovered == failed
        assert set(tuner.materialized_set) == set(small_catalog.materialized_indexes())

class TestInserts:
    def test_requires_rows_or_count(self, engine, small_catalog):
        with pytest.raises(ValueError, match="rows or count"):
            _make(engine, small_catalog).process_insert("events")

    def test_ledger_identity(self, engine, small_catalog):
        index = small_catalog.index_for("events", "user_id")
        small_catalog.materialize_index(index)
        tuner = _make(engine, small_catalog)
        before = small_catalog.table("events").row_count
        outcome = tuner.process_insert("events", count=250)
        params = small_catalog.params
        assert outcome.count == 250
        assert small_catalog.table("events").row_count == before + 250
        assert outcome.heap_cost == 250 * params.cpu_tuple_cost
        assert outcome.maintenance_cost == (
            250 * 1 * params.index_maintain_cost_per_tuple
        )
        assert outcome.total_cost == outcome.heap_cost + outcome.maintenance_cost

    def test_negative_count_rejected_before_any_mutation(self, engine, small_catalog):
        # Regression: one engine returned a negative-cost outcome and
        # shrank the table, the other mutated first and raised later.
        tuner = _make(engine, small_catalog)
        tuner.run(_stream(7))
        table = small_catalog.table("events")
        rows, version = table.row_count, small_catalog.stats_version("events")
        snapshot = snapshot_any(tuner)
        with pytest.raises(ValueError, match="non-negative"):
            tuner.process_insert("events", count=-5)
        assert table.row_count == rows
        assert small_catalog.stats_version("events") == version
        assert snapshot_any(tuner) == snapshot

    def test_store_requires_concrete_rows(self, engine, small_store):
        tuner = _make(engine, small_store.catalog, store=small_store)
        with pytest.raises(ValueError, match="concrete rows"):
            tuner.process_insert("events", count=3)


def _prefer(index, weight):
    return Ruling(index, "prefer", "advisory", weight)


class TestPushedRulings:
    def test_a_pushed_preference_seeds_the_candidate_pool(self, engine, small_catalog):
        tuner = _make(engine, small_catalog)
        index = small_catalog.index_for("events", "day")
        assert tuner.profiler.candidates.stats_for(index) is None
        tuner.push_rulings("advisory", [_prefer(index, 2.0)])
        assert tuner.profiler.candidates.stats_for(index) is not None
        tuner.push_rulings("advisory", [])
        assert tuner.standing_rulings == ()

    def test_a_pushed_ban_seeds_nothing(self, engine, small_catalog):
        tuner = _make(engine, small_catalog)
        index = small_catalog.index_for("events", "day")
        tuner.push_rulings("rollout", [Ruling(index, "ban", "rollout")])
        assert tuner.profiler.candidates.stats_for(index) is None
        assert tuner.standing_rulings == (Ruling(index, "ban", "rollout"),)

    def test_pushed_order_is_canonical(self, engine, small_catalog):
        a = small_catalog.index_for("events", "day")
        b = small_catalog.index_for("events", "user_id")
        first, second = _make(engine, small_catalog), _make(engine, small_catalog)
        first.push_rulings("advisory", [_prefer(a, 2.0), _prefer(b, 1.5)])
        second.push_rulings("advisory", [_prefer(b, 1.5), _prefer(a, 2.0)])
        assert first.standing_rulings == second.standing_rulings

    def test_every_close_keeps_its_rulings(self, engine, small_catalog):
        index = small_catalog.index_for("events", "day")
        tuner = _advised(engine, small_catalog, PIN_SCORE)
        tuner.push_rulings("rollout", [Ruling(index, "ban", "rollout")])
        reorg = tuner.run(_stream(5))[4].reorganization
        assert [(r.source, r.kind) for r in reorg.rulings] == [
            ("dba", "pin"),
            ("rollout", "ban"),
        ]


class TestConstraints:
    """DBA advice reaches the knapsack with no guardrail manager."""

    def test_pin_reaches_the_knapsack(self, engine, small_catalog):
        # Nothing in the stream touches users.score: only the pin can
        # put it into M.
        tuner = _advised(engine, small_catalog, PIN_SCORE)
        outcomes = tuner.run(_stream(10))
        pinned = small_catalog.index_for("users", "score")
        assert pinned in outcomes[4].reorganization.materialize
        assert pinned in tuner.materialized_set

    def test_ban_reaches_the_knapsack(self, engine, small_catalog):
        banned = small_catalog.index_for("events", "user_id")
        free = _make(engine, small_catalog)
        free.run(_stream(60))
        assert banned in free.materialized_set  # the ban is what removes it
        tuner = _advised(
            engine,
            copy.deepcopy(small_catalog),
            AdviceDirective("ban", "events", ("user_id",)),
        )
        outcomes = tuner.run(_stream(60))
        assert all(
            ix.columns != ("user_id",)
            for o in outcomes
            if o.reorganization is not None
            for ix in o.reorganization.materialize
        )
        assert all(ix.columns != ("user_id",) for ix in tuner.materialized_set)

    def test_verification_is_charged_on_the_ledger(self, engine, small_catalog):
        index = small_catalog.index_for("events", "user_id")
        small_catalog.materialize_index(index)
        tuner = _make(engine, small_catalog, guardrails=GuardrailManager())
        outcomes = tuner.run(_stream(5))
        verified = [o for o in outcomes if o.verify_calls]
        assert verified
        for o in verified:
            assert o.verify_overhead >= o.verify_calls * tuner.config.whatif_call_cost


class TestSnapshots:
    def test_snapshot_is_json_and_engine_tagged(self, engine, small_catalog):
        tuner = _make(engine, small_catalog)
        tuner.run(_stream(20))
        snapshot = snapshot_any(tuner)
        assert json.loads(json.dumps(snapshot)) == snapshot
        assert snapshot.get("engine", "colt") == engine
        assert snapshot == ENGINES[engine].snapshot(tuner)

    def test_advice_round_trips_without_guardrails(self, engine, small_catalog):
        tuner = _advised(engine, small_catalog, PIN_SCORE)
        tuner.run(_stream(7))
        snapshot = snapshot_any(tuner)
        assert snapshot["advice"] == ["pin users.score"]
        assert "guardrails" not in snapshot
        restored = restore_any(copy.deepcopy(small_catalog), snapshot)
        assert restored.guardrails is None
        assert restored.standing_rulings == tuner.standing_rulings

    def test_no_advice_writes_no_advice_key(self, engine, small_catalog):
        assert "advice" not in snapshot_any(_make(engine, small_catalog))

    def test_restore_any_checks_the_requested_engine(self, engine, small_catalog):
        tuner = _make(engine, small_catalog)
        snapshot = snapshot_any(tuner)
        for other in ENGINES:
            if other != engine:
                with pytest.raises(SnapshotError, match="engine mismatch"):
                    restore_any(small_catalog, snapshot, engine=other)
                with pytest.raises(SnapshotError, match="engine mismatch"):
                    ENGINES[other].restore(small_catalog, snapshot)

    def test_restore_then_continue_equals_uninterrupted_run(
        self, engine, small_catalog
    ):
        # Snapshot at an epoch boundary, restore over a fresh catalog,
        # and feed both tuners the same remaining stream: the restored
        # tuner re-derives nothing it was supposed to remember.
        head, tail = _stream(40, seed=1), _stream(40, seed=2)
        fresh = copy.deepcopy(small_catalog)
        original = _make(engine, small_catalog)
        original.run(head)
        snapshot = json.loads(json.dumps(snapshot_any(original)))

        restored = restore_any(fresh, snapshot, engine=engine)
        assert type(restored) is type(original)
        assert restored.config == original.config
        assert restored.materialized_set == original.materialized_set
        assert restored.hot_set == original.hot_set
        assert snapshot_any(restored) == snapshot
        for index in restored.materialized_set:
            assert fresh.is_materialized(index)

        continued = original.run(tail)
        resumed = restored.run(tail)
        assert [o.epoch_ended for o in resumed] == [o.epoch_ended for o in continued]
        assert restored.materialized_set == original.materialized_set
        assert sum(o.build_cost for o in resumed) == sum(
            o.build_cost for o in continued
        )
        assert sum(o.execution_cost for o in resumed) == pytest.approx(
            sum(o.execution_cost for o in continued)
        )

    def test_mid_epoch_restore_closes_at_the_live_arrival(self, engine, small_catalog):
        # 23 arrivals with epochs of 5: four closes, three queries into
        # the fifth epoch.  The restored clock closes it two arrivals
        # later, as the live tuner does.  Decisions may differ: gain
        # samples are not persisted.
        head, tail = _stream(23, seed=1), _stream(12, seed=2)
        fresh = copy.deepcopy(small_catalog)
        live = _make(engine, small_catalog)
        live.run(head)
        snapshot = json.loads(json.dumps(snapshot_any(live)))
        assert snapshot["queries_seen"] == 23

        restored = restore_any(fresh, snapshot, engine=engine)
        assert restored.queries_seen == 23
        assert restored.dashboard.epochs == live.dashboard.epochs == 4
        continued, resumed = live.run(tail), restored.run(tail)
        assert [o.index for o in resumed] == [o.index for o in continued]
        closes = [o.index for o in resumed if o.epoch_ended]
        assert closes == [o.index for o in continued if o.epoch_ended] == [24, 29, 34]
        assert [r.epoch for r in restored.dashboard.records] == [4, 5, 6]

    def test_a_snapshot_without_the_clock_restarts_it(self, engine, small_catalog):
        # Snapshots written before the clock was persisted restore at 0.
        live = _make(engine, copy.deepcopy(small_catalog))
        live.run(_stream(23))
        snapshot = snapshot_any(live)
        del snapshot["queries_seen"]
        restored = restore_any(small_catalog, snapshot)
        assert restored.queries_seen == restored.dashboard.epochs == 0

    def test_a_negative_clock_is_refused(self, engine, small_catalog):
        snapshot = snapshot_any(_make(engine, copy.deepcopy(small_catalog)))
        snapshot["queries_seen"] = -1
        with pytest.raises(SnapshotError, match="queries_seen"):
            restore_any(small_catalog, snapshot)

    def test_a_clock_that_is_no_count_is_refused(self, engine, small_catalog):
        snapshot = snapshot_any(_make(engine, copy.deepcopy(small_catalog)))
        snapshot["queries_seen"] = "twenty-three"
        with pytest.raises(SnapshotError, match="malformed snapshot"):
            restore_any(small_catalog, snapshot)

    def test_unknown_tuner_type_has_no_serializer(self, engine):
        with pytest.raises(SnapshotError, match="no snapshot serializer"):
            snapshot_any(object())
