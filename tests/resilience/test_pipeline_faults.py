"""End-to-end fault injection through the ColtTuner pipeline.

Covers the degraded-profiling circuit (open -> half-open -> closed)
and build-failure surfacing/recovery in ``ReorganizationResult``.
"""

import random

import pytest

from repro.core import ColtConfig, ColtTuner
from repro.resilience import (
    BreakerState,
    CircuitBreaker,
    FaultInjector,
    FaultPlan,
    FaultSpec,
)
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


def _stream(tuner, n, seed=0):
    rng = random.Random(seed)
    return [tuner.process_query(_eq_query(rng.randint(1, 10_000))) for _ in range(n)]


def _config(**overrides):
    defaults = dict(storage_budget_pages=5000.0, min_history_epochs=2)
    defaults.update(overrides)
    return ColtConfig(**defaults)


class TestBreakerCircuit:
    def test_open_half_open_closed_cycle(self, small_catalog):
        breaker = CircuitBreaker(
            failure_threshold=3, cooldown_ticks=15, recovery_threshold=1
        )
        injector = FaultInjector(
            FaultPlan(whatif=FaultSpec(every=1, limit=6)), seed=0
        )
        tuner = ColtTuner(
            small_catalog, _config(), breaker=breaker, fault_injector=injector
        )
        outcomes = _stream(tuner, 200)

        states = [(frm, to) for frm, to, _ in breaker.transitions]
        assert ("closed", "open") in states
        assert ("open", "half_open") in states
        assert ("half_open", "closed") in states
        assert breaker.state is BreakerState.CLOSED
        assert tuner.profiler.probe_failures >= 3
        # The run survived the storm end to end.
        assert len(outcomes) == 200

    def test_open_breaker_suspends_whatif_calls(self, small_catalog):
        breaker = CircuitBreaker(
            failure_threshold=1, cooldown_ticks=10_000, recovery_threshold=1
        )
        injector = FaultInjector(FaultPlan(whatif=FaultSpec(every=1, limit=1)))
        tuner = ColtTuner(
            small_catalog, _config(), breaker=breaker, fault_injector=injector
        )
        _stream(tuner, 120)
        assert breaker.is_open
        assert tuner.profiler.effective_budget == 0
        # Exactly one probe was attempted (the one that tripped it).
        assert tuner.whatif.call_count == 1
        assert tuner.profiler.degraded_queries > 0

    def test_degraded_mode_keeps_crude_statistics(self, small_catalog):
        breaker = CircuitBreaker(
            failure_threshold=1, cooldown_ticks=10_000, recovery_threshold=1
        )
        injector = FaultInjector(FaultPlan(whatif=FaultSpec(every=1, limit=1)))
        tuner = ColtTuner(
            small_catalog, _config(), breaker=breaker, fault_injector=injector
        )
        _stream(tuner, 100)
        # Crude BenefitC tracking never stopped.
        assert tuner.profiler.candidates.ranked()
        # Epoch boundaries report the breaker on the ledger.
        assert tuner.self_organizer is not None

    def test_reorganization_reports_breaker_state(self, small_catalog):
        breaker = CircuitBreaker(
            failure_threshold=1, cooldown_ticks=10_000, recovery_threshold=1
        )
        injector = FaultInjector(FaultPlan(whatif=FaultSpec(every=1, limit=1)))
        tuner = ColtTuner(
            small_catalog, _config(), breaker=breaker, fault_injector=injector
        )
        outcomes = _stream(tuner, 60)
        reorgs = [o.reorganization for o in outcomes if o.epoch_ended]
        assert reorgs
        assert reorgs[-1].breaker_state == "open"


class TestBuildFaultsThroughTuner:
    def test_failed_build_surfaced_and_excluded_from_m(self, small_catalog):
        injector = FaultInjector(FaultPlan(build=FaultSpec(every=1)))
        tuner = ColtTuner(small_catalog, _config(), fault_injector=injector)
        outcomes = _stream(tuner, 120)
        failures = [
            o.reorganization
            for o in outcomes
            if o.reorganization and o.reorganization.build_failures
        ]
        assert failures, "expected at least one failed materialization"
        # Every build failed, so nothing may ever be materialized.
        assert tuner.materialized_set == []
        assert not small_catalog.materialized_indexes()
        # No build cost was ever charged.
        assert all(o.build_cost == 0.0 for o in outcomes)

    def test_retry_recovers_after_transient_failure(self, small_catalog):
        injector = FaultInjector(FaultPlan(build=FaultSpec(at_calls=(1,))))
        tuner = ColtTuner(small_catalog, _config(), fault_injector=injector)
        outcomes = _stream(tuner, 160)
        recovered = [
            o.reorganization
            for o in outcomes
            if o.reorganization and o.reorganization.recovered_builds
        ]
        assert recovered, "expected the failed build to recover via retry"
        assert tuner.materialized_set  # M healed
        # The recovered index is really materialized in the catalog.
        for ix in tuner.materialized_set:
            assert small_catalog.is_materialized(ix)

    def test_unhandled_exception_free_under_combined_storm(self, small_catalog):
        injector = FaultInjector(
            FaultPlan(
                whatif=FaultSpec(probability=0.3),
                build=FaultSpec(probability=0.5),
            ),
            seed=42,
        )
        tuner = ColtTuner(small_catalog, _config(), fault_injector=injector)
        outcomes = _stream(tuner, 250)
        assert len(outcomes) == 250
        assert injector.injected["whatif"] > 0


class TestRunOnError:
    def _bad_query(self):
        return Query(
            tables=["no_such_table"],
            select=[SelectItem(expr=ColumnExpr("x", "no_such_table"))],
            filters=[],
        )

    def test_raise_mode_propagates(self, small_catalog):
        tuner = ColtTuner(small_catalog, _config())
        with pytest.raises(Exception):
            tuner.run([_eq_query(1), self._bad_query()])

    def test_skip_mode_records_failure_and_continues(self, small_catalog):
        tuner = ColtTuner(small_catalog, _config())
        queries = [_eq_query(1), self._bad_query(), _eq_query(2)]
        outcomes = tuner.run(queries, on_error="skip")
        assert len(outcomes) == 3
        assert not outcomes[0].failed
        assert outcomes[1].failed
        assert isinstance(outcomes[1].error, Exception)
        assert outcomes[1].total_cost == 0.0
        assert not outcomes[2].failed
        # The failed arrival still advanced the epoch clock.
        assert tuner.queries_seen == 3

    def test_skip_mode_preserves_epoch_cadence(self, small_catalog):
        tuner = ColtTuner(small_catalog, _config(epoch_length=5))
        queries = [
            self._bad_query() if i % 3 == 1 else _eq_query(i + 1)
            for i in range(20)
        ]
        outcomes = tuner.run(queries, on_error="skip")
        ended = [o.index for o in outcomes if o.epoch_ended]
        # Failed arrivals tick the epoch clock and, landing on a
        # boundary, close it: queries 4 and 19 failed, yet no epoch is
        # skipped (a skipped close would leave #WI_lim pre-spent).
        assert ended == [4, 9, 14, 19]
        assert outcomes[4].failed and outcomes[4].reorganization is not None
        assert tuner.queries_seen == 20

    def test_unknown_mode_rejected(self, small_catalog):
        tuner = ColtTuner(small_catalog, _config())
        with pytest.raises(ValueError):
            tuner.run([], on_error="ignore")
