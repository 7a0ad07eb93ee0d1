"""Replay-driver tests: stream semantics and decision parity.

The replay driver (``repro.bench.replay``) is a throughput benchmark,
so its numbers only mean something if the *decisions* are mode-
invariant: fleet modes must spend exactly the same cost-model totals
and what-if calls as the serial baseline, and a stream that repeats its
query objects (which the backend recognizes) exactly what a stream of
fresh copies spends.  These tests pin that anchor along with the
stream's determinism.
"""

import copy

import pytest

from repro.bench.replay import (
    ReplayStream,
    build_replay_tuner,
    replay_fleet,
    replay_serial,
)
from repro.core.config import ColtConfig
from repro.engines import ENGINES
from repro.fleet import FleetCoordinator
from repro.obs.registry import MetricsRegistry
from repro.workload.phases import Workload

from tests.fleet.workloads import (
    build_small_catalog,
    day_query,
    eq_query,
    score_query,
)


def mixed_queries(n):
    makers = [eq_query, day_query, score_query]
    return [makers[i % 3](8000 + i if i % 3 == 1 else i + 1) for i in range(n)]


def make_config(**cfg):
    cfg.setdefault("storage_budget_pages", 6000.0)
    cfg.setdefault("min_history_epochs", 2)
    return ColtConfig(**cfg)


def make_stream(events=200, seed=3):
    return ReplayStream(mixed_queries(30), events=events, seed=seed)


class TestStream:
    def test_same_seed_same_arrivals(self):
        a = list(make_stream(seed=5))
        b = list(make_stream(seed=5))
        assert [e.timestamp for e in a] == [e.timestamp for e in b]
        assert [e.index for e in a] == list(range(200))

    def test_different_seed_different_timestamps(self):
        a = list(make_stream(seed=5))
        b = list(make_stream(seed=6))
        assert [e.timestamp for e in a] != [e.timestamp for e in b]

    def test_timestamps_are_monotone(self):
        events = list(make_stream())
        stamps = [e.timestamp for e in events]
        assert stamps == sorted(stamps)
        assert stamps[0] > 0

    def test_cycling_reuses_query_objects(self):
        queries = mixed_queries(10)
        stream = ReplayStream(queries, events=25, seed=0)
        events = list(stream)
        assert len(events) == 25
        # Identity, not just equality: the backend keeps a plan cache
        # per live object.
        assert events[13].query is queries[3]

    def test_from_workload_carries_client_ids(self):
        queries = mixed_queries(10)
        workload = Workload(
            queries=queries,
            source=["x"] * 10,
            description="tagged",
            client_ids=[i % 2 for i in range(10)],
        )
        stream = ReplayStream.from_workload(workload, events=14)
        events = list(stream)
        assert [e.client_id for e in events[:4]] == [0, 1, 0, 1]
        assert events[12].client_id == 0  # cycled with the queries

    def test_validation(self):
        with pytest.raises(ValueError):
            ReplayStream([])
        with pytest.raises(ValueError):
            ReplayStream(mixed_queries(4), client_ids=[0])
        with pytest.raises(ValueError):
            ReplayStream(mixed_queries(4), arrival_rate=0.0)
        with pytest.raises(ValueError):
            ReplayStream(mixed_queries(4), events=0)


class TestDecisionParity:
    @pytest.mark.parametrize("engine", list(ENGINES))
    def test_repeating_stream_matches_fresh_copies_exactly(self, engine):
        # A cycling stream hands the backend the same objects again, so
        # sessions open on retained plan caches; the same stream as
        # never-repeating deep copies opens every session from scratch.
        # No knob selects between the two, so this is the differential:
        # the ledgers must be identical, row by row.
        cycling = make_stream(events=300)
        fresh = ReplayStream(
            [copy.deepcopy(e.query) for e in cycling], seed=cycling.seed
        )
        assert len({id(e.query) for e in fresh}) == 300

        def ledger(stream):
            tuner = ENGINES[engine].build(build_small_catalog(), make_config())
            rows = [
                (
                    o.execution_cost,
                    o.whatif_calls,
                    o.whatif_overhead,
                    o.build_cost,
                    o.total_cost,
                    o.epoch_ended,
                    o.failed,
                    o.plan,
                    o.reorganization
                    and (
                        sorted(map(str, o.reorganization.materialize)),
                        sorted(map(str, o.reorganization.drop)),
                        o.reorganization.whatif_budget,
                    ),
                )
                for o in (tuner.process_query(e.query) for e in stream)
            ]
            return rows, replay_serial(
                ENGINES[engine].build(build_small_catalog(), make_config()), stream
            )

        rows, report = ledger(cycling)
        fresh_rows, fresh_report = ledger(fresh)
        assert rows == fresh_rows
        assert report.total_cost == fresh_report.total_cost
        assert report.whatif_calls == fresh_report.whatif_calls > 0
        assert report.failed == fresh_report.failed == 0
        assert report.events == fresh_report.events == 300
        assert report.detail["engine"] == engine

    def test_latency_summary_is_populated(self):
        report = replay_serial(
            build_replay_tuner(build_small_catalog(), make_config()),
            make_stream(events=100),
        )
        assert report.latency["count"] == 100
        assert report.latency["p50"] is not None
        assert report.latency["p50"] <= report.latency["p95"]
        assert report.qps > 0
        assert report.wall_seconds > 0

    @pytest.mark.parametrize("fleet", [False, True], ids=["serial", "fleet-serial"])
    def test_driver_families_count_the_replayed_events(self, fleet):
        registry = MetricsRegistry()
        stream = make_stream(events=60)
        if fleet:
            coordinator = FleetCoordinator(
                build_small_catalog, n_replicas=2, config=make_config()
            )
            report = replay_fleet(coordinator, stream, registry=registry)
        else:
            tuner = build_replay_tuner(build_small_catalog(), make_config())
            report = replay_serial(tuner, stream, registry=registry)
        assert registry.get("replay_queries_total").value() == report.events == 60
        latency = registry.get("replay_query_latency_seconds")
        assert latency.count() == report.latency["count"] == 60
        assert latency.sum() >= 0.0

    def test_fleet_serial_replay(self):
        fleet = FleetCoordinator(
            build_small_catalog,
            n_replicas=2,
            config=make_config(),
            fleet_epoch_length=20,
        )
        report = replay_fleet(fleet, make_stream(events=100))
        assert report.mode == "fleet-serial"
        assert report.events == 100
        assert report.detail["replicas"] == 2
        assert report.total_cost > 0
        assert report.failed == 0

    @pytest.mark.parametrize("policy", ["round-robin", "affinity", "client"])
    def test_one_replica_fleet_matches_serial(self, policy):
        # A fleet of one is the serial tuner behind a router: the
        # ledger anchors -- what-if calls included -- must be equal.
        stream = make_stream(events=200)
        serial = replay_serial(
            build_replay_tuner(build_small_catalog(), make_config()), stream
        )
        fleet = FleetCoordinator(
            build_small_catalog,
            n_replicas=1,
            config=make_config(),
            fleet_epoch_length=20,
            policy=policy,
        )
        report = replay_fleet(fleet, stream)
        assert serial.whatif_calls > 0
        assert report.whatif_calls == serial.whatif_calls
        assert report.total_cost == serial.total_cost

    def test_workers_replay_matches_fleet_serial_decisions(self):
        stream = make_stream(events=200)
        serial_fleet = FleetCoordinator(
            build_small_catalog,
            n_replicas=2,
            config=make_config(),
            fleet_epoch_length=20,
        )
        serial_report = replay_fleet(serial_fleet, stream)
        with FleetCoordinator(
            build_small_catalog,
            config=make_config(),
            fleet_epoch_length=20,
            workers=2,
        ) as fleet:
            worker_report = replay_fleet(fleet, stream)
            assert worker_report.mode == "workers"
            assert worker_report.detail["workers"] == 2
            assert worker_report.events == 200
            # Same routing, same per-replica decisions: the cost-model
            # anchors agree exactly with the single-process fleet.
            assert worker_report.total_cost == serial_report.total_cost
            assert serial_report.whatif_calls > 0
            assert worker_report.whatif_calls == serial_report.whatif_calls
            assert worker_report.whatif_calls == sum(
                r.stats.whatif_calls for r in fleet.replicas
            )
            assert worker_report.latency["count"] == 200

