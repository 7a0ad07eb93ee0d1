"""The fleet contract on every routing policy and engine.

A fleet has three routing policies (``round-robin``, ``affinity``,
``client``) and two replica engines (``colt``, ``bandit``).  The
single-policy tests elsewhere in this package pin each mechanism once;
this file runs the same small contract on all six combinations, so a
change to the shared routing or epoch-boundary path cannot break one
combination unseen:

* a run is a pure function of its arrivals;
* routing charges nothing -- a query's fleet cost is its replica cost;
* one reorganization closes every fleet epoch;
* no arrival or reorganization reads a wall clock;
* a tripped replica is drained at the next boundary and serves nothing
  after it, with no query dropped;
* a snapshot restores every replica exactly;
* the multiprocess fleet reproduces the in-process one bit for bit.
"""

import json

import pytest

from repro.core.config import ColtConfig
from repro.fleet import FleetCoordinator
from repro.fleet.router import make_router
from repro.fleet.snapshots import load_manifest, restore_fleet, save_fleet
from repro.resilience.breaker import CircuitBreaker
from repro.workload.phases import Workload

from tests.fleet.workloads import (
    build_small_catalog,
    day_query,
    eq_query,
    score_query,
)
from tests.obs.test_instrumentation import clock_reads

POLICIES = ["round-robin", "affinity", "client"]
ENGINES = ["colt", "bandit"]
EPOCH = 10

matrix = pytest.mark.parametrize(
    "policy, engine", [(p, e) for p in POLICIES for e in ENGINES]
)


def mixed_workload(n):
    makers = [eq_query, day_query, score_query]
    queries = [makers[i % 3](8000 + i if i % 3 == 1 else i + 1) for i in range(n)]
    return Workload(
        queries=queries,
        source=["mixed"] * n,
        description="three shapes, two clients",
        client_ids=[(i // 4) % 2 for i in range(n)],
    )


def make_config(engine):
    cfg = {"storage_budget_pages": 6000.0, "min_history_epochs": 2}
    if engine == "bandit":
        cfg["epoch_length"] = 5
    return ColtConfig(**cfg)


def make_fleet(policy, engine, n=2, **kwargs):
    if "workers" not in kwargs:
        kwargs["n_replicas"] = n
    return FleetCoordinator(
        build_small_catalog,
        config=make_config(engine),
        policy=policy,
        fleet_epoch_length=EPOCH,
        engine=engine,
        **kwargs,
    )


def outcome_key(fleet_outcome):
    o = fleet_outcome.outcome
    return (
        fleet_outcome.index,
        fleet_outcome.replica_id,
        o.execution_cost,
        o.whatif_calls,
        o.build_cost,
        o.total_cost,
        o.failed,
    )


def run_key(fleet, run):
    return (
        [outcome_key(o) for o in run.outcomes],
        run.total_cost,
        run.queries_per_replica,
        [sorted(r.materialized_names) for r in fleet.replicas],
        [json.loads(r.trace().to_json()) for r in fleet.replicas],
    )


class TestFleetContract:
    @matrix
    def test_run_is_deterministic(self, policy, engine):
        workload = mixed_workload(45)
        first, second = make_fleet(policy, engine), make_fleet(policy, engine)
        assert run_key(first, first.run(workload)) == run_key(
            second, second.run(workload)
        )

    @matrix
    def test_routing_charges_nothing(self, policy, engine):
        fleet = make_fleet(policy, engine)
        run = fleet.run(mixed_workload(40))
        assert all(o.routing_overhead == 0.0 for o in run.outcomes)
        assert all(o.total_cost == o.outcome.total_cost for o in run.outcomes)
        assert run.total_cost == pytest.approx(
            sum(s.total_cost for s in run.replica_stats)
        )

    @matrix
    def test_one_reorganization_per_fleet_epoch(self, policy, engine):
        fleet = make_fleet(policy, engine)
        run = fleet.run(mixed_workload(35))
        assert [r.epoch for r in run.reorganizations] == [0, 1, 2]
        assert [o.index for o in run.outcomes if o.reorganization] == [9, 19, 29]
        assert run.policy == policy
        assert run.failed_queries == 0

    @matrix
    def test_arrivals_and_reorganizations_read_no_clock(self, policy, engine):
        fleet = make_fleet(policy, engine)
        run, reads = clock_reads(fleet.run, mixed_workload(35))
        assert len(run.reorganizations) == 3 and reads == 0

    @matrix
    def test_routed_counter_matches_the_per_replica_ledger(self, policy, engine):
        fleet = make_fleet(policy, engine)
        run = fleet.run(mixed_workload(30))
        routed = fleet.metrics.get("fleet_queries_routed_total")
        assert sum(run.queries_per_replica) == 30
        assert [
            routed.value(replica=r.replica_id) for r in fleet.replicas
        ] == run.queries_per_replica

    @matrix
    def test_tripped_replica_serves_nothing_after_the_boundary(
        self, policy, engine
    ):
        breakers = [
            CircuitBreaker(
                failure_threshold=1, cooldown_ticks=1000, recovery_threshold=1
            ),
            None,
        ]
        fleet = make_fleet(policy, engine, breakers=breakers)
        workload = mixed_workload(40)
        first = fleet.run(workload.queries[:5], client_ids=workload.client_ids[:5])
        assert 0 in {o.replica_id for o in first.outcomes}
        fleet.replicas[0].breaker.record_failure()  # trips OPEN
        rest = fleet.run(workload.queries[5:], client_ids=workload.client_ids[5:])
        boundary = next(
            i for i, o in enumerate(rest.outcomes) if o.reorganization
        )
        assert rest.outcomes[boundary].reorganization.drained == [0]
        after = rest.outcomes[boundary + 1:]
        assert after and all(o.replica_id == 1 for o in after)
        assert all(not o.outcome.failed for o in rest.outcomes)

    @matrix
    def test_snapshot_restores_every_replica_exactly(
        self, policy, engine, tmp_path
    ):
        fleet = make_fleet(policy, engine)
        fleet.run(mixed_workload(40))
        save_fleet(tmp_path, fleet)
        manifest = load_manifest(tmp_path)
        assert manifest["policy"] == policy
        assert {e["engine"] for e in manifest["replicas"]} == {engine}
        restored = restore_fleet(tmp_path, build_small_catalog)
        assert restored.policy == policy
        assert restored.replica_snapshots() == fleet.replica_snapshots()
        outcome = restored.process_query(eq_query(123))
        assert not outcome.outcome.failed

    @matrix
    def test_workers_match_in_process(self, policy, engine):
        workload = mixed_workload(40)
        serial = make_fleet(policy, engine)
        serial_run = serial.run(workload)
        with make_fleet(policy, engine, workers=2) as fleet:
            worker_run = fleet.run(workload)
            assert [outcome_key(o) for o in worker_run.outcomes] == [
                outcome_key(o) for o in serial_run.outcomes
            ]
            assert worker_run.total_cost == serial_run.total_cost
            assert fleet.replica_traces() == [
                json.loads(r.trace().to_json()) for r in serial.replicas
            ]


class TestRouterContract:
    @staticmethod
    def arrivals(n=30):
        workload = mixed_workload(n)
        return list(zip(workload.queries, workload.client_ids))

    @pytest.mark.parametrize("policy", POLICIES)
    def test_routes_stay_inside_the_fleet_and_count_load(self, policy):
        router = make_router(policy, 3, build_small_catalog())
        assert router.name == policy
        chosen = [router.route(q, c) for q, c in self.arrivals()]
        assert set(chosen) <= {0, 1, 2}
        assert router.load == [chosen.count(i) for i in range(3)]

    @pytest.mark.parametrize("policy", POLICIES)
    def test_never_routes_to_a_drained_replica(self, policy):
        router = make_router(policy, 3, build_small_catalog())
        arrivals = self.arrivals()
        for query, client in arrivals[:10]:
            router.route(query, client)
        router.set_drained([1])
        router.roll_epoch()
        chosen = {router.route(q, c) for q, c in arrivals[10:]}
        assert chosen and 1 not in chosen

    @pytest.mark.parametrize("policy", POLICIES)
    def test_all_drained_still_routes(self, policy):
        # Degraded service beats dropping queries.
        router = make_router(policy, 2, build_small_catalog())
        router.set_drained([0, 1])
        chosen = [router.route(q, c) for q, c in self.arrivals(12)]
        assert len(chosen) == 12
        assert set(chosen) <= {0, 1}
