"""Tests for fleet coordination: epochs, drains, restores, divergence."""

import pytest

from repro.backend.local import LocalBackend
from repro.core.config import ColtConfig
from repro.engines import ENGINES
from repro.fleet.coordinator import FleetCoordinator
from repro.fleet.replica import ReplicaHealth
from repro.guardrails.advice import AdviceBook
from repro.resilience.breaker import CircuitBreaker
from repro.workload.phases import Workload

from tests.fleet.workloads import (
    build_small_catalog,
    day_query,
    eq_query,
    score_query,
)


def make_fleet(
    n=3, policy="affinity", fleet_epoch_length=10, breakers=None, engine="colt", **cfg
):
    cfg.setdefault("storage_budget_pages", 6000.0)
    cfg.setdefault("min_history_epochs", 2)
    return FleetCoordinator(
        build_small_catalog,
        n_replicas=n,
        config=ColtConfig(**cfg),
        policy=policy,
        fleet_epoch_length=fleet_epoch_length,
        breakers=breakers,
        engine=engine,
    )


def mixed_queries(n):
    makers = [eq_query, day_query, score_query]
    return [makers[i % 3](8000 + i if i % 3 == 1 else i + 1) for i in range(n)]


class TestValidation:
    def test_rejects_empty_fleet(self):
        with pytest.raises(ValueError):
            make_fleet(n=0)

    def test_rejects_bad_epoch_length(self):
        with pytest.raises(ValueError):
            make_fleet(fleet_epoch_length=0)

    @pytest.mark.parametrize("engine", list(ENGINES))
    def test_each_replica_prices_on_its_own_local_backend(self, engine):
        fleet = make_fleet(n=2, engine=engine)
        for replica in fleet.replicas:
            assert type(replica.tuner.backend) is LocalBackend
            assert replica.tuner.backend.catalog is replica.catalog
        assert fleet.replicas[0].catalog is not fleet.replicas[1].catalog

    def test_guardrails_parameter_is_gone(self):
        from repro.guardrails import GuardrailManager

        with pytest.raises(TypeError, match="guardrails"):
            FleetCoordinator(build_small_catalog, guardrails=GuardrailManager())

    def test_advice_needs_no_guardrails(self):
        fleet = FleetCoordinator(
            build_small_catalog,
            n_replicas=2,
            advice=AdviceBook.parse("pin users.score"),
        )
        fleet.run(mixed_queries(60))
        for replica in fleet.replicas:
            assert replica.tuner.guardrails is None
            assert "ix_users_score" in replica.materialized_names


class TestOneReplica:
    @pytest.mark.parametrize("engine", list(ENGINES))
    @pytest.mark.parametrize("policy", ["round-robin", "affinity", "client"])
    def test_one_replica_fleet_matches_serial(self, policy, engine):
        # A fleet of one is the serial tuner behind a router: the
        # ledger anchors -- what-if calls included -- must be equal.
        base = mixed_queries(30)
        queries = [base[i % len(base)] for i in range(200)]
        tuner = ENGINES[engine].build(
            build_small_catalog(),
            ColtConfig(storage_budget_pages=6000.0, min_history_epochs=2),
        )
        serial = [tuner.process_query(q) for q in queries]
        fleet = make_fleet(n=1, policy=policy, fleet_epoch_length=20, engine=engine)
        fleet.run(queries)
        (replica,) = fleet.replicas
        whatif_calls = sum(o.whatif_calls for o in serial)
        assert whatif_calls > 0
        assert replica.stats.whatif_calls == whatif_calls
        assert replica.stats.total_cost == sum(o.total_cost for o in serial)


class TestEpochs:
    def test_reorganizes_every_fleet_epoch(self):
        fleet = make_fleet(fleet_epoch_length=10)
        run = fleet.run(mixed_queries(35))
        assert len(run.reorganizations) == 3
        assert [r.epoch for r in run.reorganizations] == [0, 1, 2]
        boundaries = [o.index for o in run.outcomes if o.reorganization]
        assert boundaries == [9, 19, 29]

    def test_run_ledger_is_complete(self):
        fleet = make_fleet()
        queries = mixed_queries(30)
        run = fleet.run(queries)
        assert len(run.outcomes) == 30
        assert sum(run.queries_per_replica) == 30
        assert run.execution_cost > 0
        assert run.total_cost >= run.execution_cost
        assert run.failed_queries == 0
        assert run.policy == "affinity"

    def test_boundary_results_carry_no_guardrail_fields(self):
        import dataclasses

        from repro.fleet.coordinator import FleetReorganizationResult, ReplicaStatus

        fleet = make_fleet(n=2)
        run = fleet.run(mixed_queries(20))
        assert {f.name for f in dataclasses.fields(ReplicaStatus)} == {
            "replica_id", "health", "breaker_state", "queries", "materialized",
        }
        assert "rollout" not in {
            f.name for f in dataclasses.fields(FleetReorganizationResult)
        }
        assert not hasattr(fleet, "rollout")
        last = run.reorganizations[-1]
        assert [s.replica_id for s in last.replicas] == [0, 1]
        assert [s.queries for s in last.replicas] == [
            r.stats.queries for r in fleet.replicas
        ]
        assert [s.materialized for s in last.replicas] == [
            len(r.materialized_names) for r in fleet.replicas
        ]

    def test_routed_counter_matches_the_per_replica_ledger(self):
        fleet = make_fleet()
        run = fleet.run(mixed_queries(30))
        routed = fleet.metrics.get("fleet_queries_routed_total")
        assert [
            routed.value(replica=r.replica_id) for r in fleet.replicas
        ] == run.queries_per_replica

    def test_workload_client_ids_flow_to_router(self):
        queries = [eq_query(i + 1) for i in range(20)]
        workload = Workload(
            queries=queries,
            source=["x"] * 20,
            description="two clients",
            client_ids=[i % 2 for i in range(20)],
        )
        fleet = make_fleet(n=2, policy="client")
        run = fleet.run(workload)
        by_client = {0: set(), 1: set()}
        for outcome, client in zip(run.outcomes, workload.client_ids):
            by_client[client].add(outcome.replica_id)
        # Every client's queries stayed on one replica, and the two
        # clients landed on different replicas.
        assert all(len(v) == 1 for v in by_client.values())
        assert by_client[0] != by_client[1]


class TestDrain:
    def _fleet_with_tripped_replica(self, cooldown=30):
        breakers = [
            CircuitBreaker(failure_threshold=1, cooldown_ticks=cooldown,
                           recovery_threshold=1),
            None,
            None,
        ]
        fleet = make_fleet(breakers=breakers, fleet_epoch_length=10)
        # Warm the router so replica 0 owns at least one assignment.
        for query in mixed_queries(10):
            fleet.process_query(query)
        assert 0 in fleet.router.assignments.values()
        fleet.replicas[0].breaker.record_failure()  # trips OPEN
        assert fleet.replicas[0].health is ReplicaHealth.DRAINED
        return fleet

    def test_open_replica_is_drained_without_dropping_queries(self):
        fleet = self._fleet_with_tripped_replica(cooldown=1000)
        outcomes = [fleet.process_query(q) for q in mixed_queries(30)]
        # The drain is recorded on the first boundary after the trip.
        drains = [o.reorganization for o in outcomes if o.reorganization]
        assert drains[0].drained == [0]
        assert drains[0].drained_total == [0]
        assert drains[0].moved_assignments >= 1
        statuses = {s.replica_id: s.health for s in drains[0].replicas}
        assert statuses[0] == "drained"
        # Every query completed; after the drain boundary none reached
        # the drained replica.
        assert all(not o.outcome.failed for o in outcomes)
        boundary = next(i for i, o in enumerate(outcomes) if o.reorganization)
        after_drain = outcomes[boundary + 1:]
        assert after_drain
        assert all(o.replica_id != 0 for o in after_drain)

    def test_drained_replica_recovers_and_is_restored(self):
        fleet = self._fleet_with_tripped_replica(cooldown=15)
        outcomes = [fleet.process_query(q) for q in mixed_queries(60)]
        reorgs = [o.reorganization for o in outcomes if o.reorganization]
        assert any(r.drained == [0] for r in reorgs)
        restored = [r for r in reorgs if r.restored == [0]]
        # Idle ticks advanced the breaker through cooldown; the replica
        # re-entered the rotation at a later boundary.
        assert restored
        assert restored[0].drained_total == []
        # Rebalancing handed the starved, just-restored replica some
        # assignments back, so it serves traffic again.
        position = next(
            i for i, o in enumerate(outcomes)
            if o.reorganization is restored[0]
        )
        assert any(o.replica_id == 0 for o in outcomes[position + 1:])


class TestDivergence:
    def test_identical_sets_are_zero(self):
        fleet = make_fleet(n=2)
        for replica in fleet.replicas:
            ix = replica.catalog.index_for("events", "user_id")
            replica.tuner.self_organizer.materialized.add(ix)
        assert fleet.configuration_divergence() == 0.0

    def test_disjoint_sets_are_one(self):
        fleet = make_fleet(n=2)
        ix0 = fleet.replicas[0].catalog.index_for("events", "user_id")
        ix1 = fleet.replicas[1].catalog.index_for("events", "day")
        fleet.replicas[0].tuner.self_organizer.materialized.add(ix0)
        fleet.replicas[1].tuner.self_organizer.materialized.add(ix1)
        assert fleet.configuration_divergence() == 1.0

    def test_empty_sets_are_zero(self):
        assert make_fleet(n=2).configuration_divergence() == 0.0

    def test_single_replica_is_zero(self):
        assert make_fleet(n=1).configuration_divergence() == 0.0


class TestSpecialization:
    def test_affinity_specializes_replicas(self):
        fleet = make_fleet(n=3, policy="affinity", epoch_length=5)
        fleet.run(mixed_queries(120))
        # Each replica saw one coherent cluster and materialized for it;
        # the sets must have diverged.
        assert fleet.configuration_divergence() > 0.5
        materialized = [set(r.materialized_names) for r in fleet.replicas]
        assert sum(1 for m in materialized if m) >= 2
