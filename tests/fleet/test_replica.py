"""Tests for the fleet replica wrapper."""

import pytest

from repro.core.config import ColtConfig
from repro.fleet.replica import ReplicaHealth, TunerReplica
from repro.resilience.breaker import BreakerState, CircuitBreaker

from tests.fleet.workloads import bad_query, build_small_catalog, eq_query


def make_replica(replica_id=0, breaker=None, **config_kwargs):
    config_kwargs.setdefault("storage_budget_pages", 6000.0)
    config_kwargs.setdefault("min_history_epochs", 2)
    return TunerReplica(
        replica_id,
        build_small_catalog(),
        ColtConfig(**config_kwargs),
        breaker=breaker,
    )


class TestConstruction:
    def test_a_replica_tuner_runs_without_a_guardrail_manager(self):
        from repro.guardrails import GuardrailManager

        assert make_replica().tuner.guardrails is None
        assert not hasattr(TunerReplica, "quarantined_names")
        with pytest.raises(TypeError, match="guardrails"):
            TunerReplica(
                0,
                build_small_catalog(),
                guardrails=GuardrailManager(),
            )


class TestHealth:
    def test_fresh_replica_is_healthy(self):
        assert make_replica().health is ReplicaHealth.HEALTHY

    def test_open_breaker_means_drained(self):
        breaker = CircuitBreaker(failure_threshold=1)
        replica = make_replica(breaker=breaker)
        breaker.record_failure()
        assert replica.breaker.state is BreakerState.OPEN
        assert replica.health is ReplicaHealth.DRAINED

    def test_half_open_breaker_means_degraded(self):
        breaker = CircuitBreaker(failure_threshold=1, cooldown_ticks=2)
        replica = make_replica(breaker=breaker)
        breaker.record_failure()
        replica.idle_tick()
        replica.idle_tick()
        assert replica.breaker.state is BreakerState.HALF_OPEN
        assert replica.health is ReplicaHealth.DEGRADED

    @pytest.mark.parametrize(
        "state,health",
        [
            (BreakerState.CLOSED, ReplicaHealth.HEALTHY),
            (BreakerState.HALF_OPEN, ReplicaHealth.DEGRADED),
            (BreakerState.OPEN, ReplicaHealth.DRAINED),
        ],
    )
    def test_mapping_is_total(self, state, health):
        assert ReplicaHealth.from_breaker(state) is health


class TestProcessing:
    def test_stats_accumulate(self):
        replica = make_replica()
        for i in range(5):
            outcome = replica.process(eq_query(i + 1))
        assert replica.stats.queries == 5
        assert replica.stats.execution_cost > 0
        assert replica.stats.total_cost >= replica.stats.execution_cost
        assert outcome.index == 4

    def test_skip_mode_records_failures(self):
        replica = make_replica()
        outcome = replica.process(bad_query(), on_error="skip")
        assert outcome.failed
        assert replica.stats.failed == 1
        assert replica.stats.queries == 1

    def test_trace_grows_one_entry_per_epoch(self):
        replica = make_replica(epoch_length=5)
        for i in range(17):
            replica.process(eq_query(i + 1))
        trace = replica.trace()
        assert len(trace.epochs) == 3
        assert [e.epoch for e in trace.epochs] == [0, 1, 2]
        # Per-epoch costs partition the running totals (last partial
        # epoch still open).
        assert sum(e.total_cost for e in trace.epochs) <= replica.stats.total_cost

    def test_trace_keeps_the_newest_window_with_exact_totals(self):
        from repro.bench.tracing import TunerTrace
        from repro.obs.dashboard import WINDOW_EPOCHS

        from tests.bench import oracle

        replica = make_replica(epoch_length=1)
        reference = oracle.TraceAccumulator(replica.tuner)
        closes = WINDOW_EPOCHS + 40
        for i in range(closes):
            reference.add(replica.process(eq_query(i % 9 + 1)))
        trace, full = replica.trace(), reference.trace()
        assert len(replica.tuner.dashboard.records) == len(trace.epochs) == WINDOW_EPOCHS
        assert trace.epochs == full.epochs[-WINDOW_EPOCHS:]
        assert trace.epochs[0].epoch == 40
        assert trace.total_whatif == full.total_whatif > 0
        assert trace.total_cost == pytest.approx(full.total_cost, rel=1e-12)
        restored = TunerTrace.from_json(trace.to_json())
        assert restored.epochs == trace.epochs
        assert (restored.total_cost, restored.total_whatif) == (
            trace.total_cost,
            trace.total_whatif,
        )
