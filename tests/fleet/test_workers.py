"""Multiprocess fleet tests: serial parity, crash handling, validation.

The headline invariant (ISSUE: parity satellite): running
``FleetCoordinator(..., workers=N)`` routes every arrival parent-side
and ships each replica its own serial-order event sequence, so every
per-replica epoch decision -- and therefore the final index
configuration -- is **bit-identical** to the single-process
coordinator's.  The crash tests pin the regression fix: a worker
hard-killed mid-epoch trips its breaker and is drained at the next
boundary instead of deadlocking the coordinator.
"""

import copy
import functools
import json
import os
import signal
import time

import pytest

from repro.core.config import ColtConfig
from repro.fleet import FleetCoordinator, WorkerCrash, WorkerFleetCoordinator
from repro.fleet.replica import ReplicaHealth
from repro.fleet.snapshots import restore_fleet, save_fleet
from repro.fleet.workers import WorkerHandle
from repro.obs.names import CATALOG

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


def make_worker_fleet(workers=2, policy="affinity", fleet_epoch_length=10,
                      **kwargs):
    return FleetCoordinator(
        build_small_catalog,
        config=make_config(),
        policy=policy,
        fleet_epoch_length=fleet_epoch_length,
        workers=workers,
        **kwargs,
    )


def make_serial_fleet(n=2, policy="affinity", fleet_epoch_length=10):
    return FleetCoordinator(
        build_small_catalog,
        n_replicas=n,
        config=make_config(),
        policy=policy,
        fleet_epoch_length=fleet_epoch_length,
    )


def outcome_key(fleet_outcome):
    """The decision-relevant fields of one outcome (plans stay worker-side)."""
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


class TestParity:
    """Multiprocess run is bit-identical to the serial coordinator."""

    @pytest.mark.parametrize("policy", ["affinity", "round-robin"])
    def test_bit_identical_decisions_and_configs(self, policy):
        queries = mixed_queries(60)
        serial = make_serial_fleet(n=2, policy=policy)
        serial_run = serial.run(queries)
        with make_worker_fleet(workers=2, policy=policy) as fleet:
            worker_run = fleet.run(queries)

            # Every per-query decision matches exactly: same routing,
            # same costs, same what-if ledger.  No tolerance.
            assert [outcome_key(o) for o in worker_run.outcomes] == [
                outcome_key(o) for o in serial_run.outcomes
            ]
            assert worker_run.total_cost == serial_run.total_cost
            assert worker_run.queries_per_replica == (
                serial_run.queries_per_replica
            )
            assert len(worker_run.reorganizations) == len(
                serial_run.reorganizations
            )

            # Final per-replica index configurations match by name.
            assert [
                sorted(h.materialized_names) for h in fleet.replicas
            ] == [sorted(r.materialized_names) for r in serial.replicas]

            # Full per-epoch decision traces are identical JSON.
            worker_traces = fleet.replica_traces()
            serial_traces = [
                json.loads(r.trace().to_json()) for r in serial.replicas
            ]
            assert worker_traces == serial_traces

    def test_bandit_worker_traces_load_and_match_serial(self):
        # Regression: a bandit replica's trace payload could not be
        # loaded (from_json assumed ColtConfig).
        from repro.bench.tracing import TunerTrace

        queries = mixed_queries(40)
        serial = FleetCoordinator(
            build_small_catalog,
            n_replicas=2,
            config=make_config(),
            fleet_epoch_length=10,
            engine="bandit",
        )
        serial.run(queries)
        with make_worker_fleet(workers=2, engine="bandit") as fleet:
            fleet.run(queries)
            payloads = fleet.replica_traces()
        traces = [TunerTrace.from_json(payload) for payload in payloads]
        assert [t.engine for t in traces] == ["bandit", "bandit"]
        assert [t.epochs for t in traces] == [r.trace().epochs for r in serial.replicas]
        assert any(t.epochs for t in traces)

    def test_client_ids_route_identically(self):
        queries = [eq_query(i + 1) for i in range(40)]
        client_ids = [i % 2 for i in range(40)]
        serial = make_serial_fleet(n=2, policy="client")
        serial_run = serial.run(queries, client_ids=client_ids)
        with make_worker_fleet(workers=2, policy="client") as fleet:
            worker_run = fleet.run(queries, client_ids=client_ids)
            assert [o.replica_id for o in worker_run.outcomes] == [
                o.replica_id for o in serial_run.outcomes
            ]
            assert worker_run.total_cost == serial_run.total_cost

    def test_three_workers_client_policy_over_partial_last_chunk(self):
        queries = mixed_queries(47)  # four full chunks and a partial one
        client_ids = [(i * 7) % 5 for i in range(47)]
        serial = make_serial_fleet(n=3, policy="client")
        serial_run = serial.run(queries, client_ids=client_ids)
        with make_worker_fleet(workers=3, policy="client") as fleet:
            worker_run = fleet.run(queries, client_ids=client_ids)
            assert [outcome_key(o) for o in worker_run.outcomes] == [
                outcome_key(o) for o in serial_run.outcomes
            ]
            assert [o.reorganization is not None for o in worker_run.outcomes] == [
                o.reorganization is not None for o in serial_run.outcomes
            ]
            assert fleet.replica_traces() == [
                json.loads(r.trace().to_json()) for r in serial.replicas
            ]
            # Counted once per chunk instead of once per arrival: same totals.
            assert fleet.queries_routed == serial.queries_routed == 47
            name = "fleet_queries_routed_total"
            assert (
                fleet.registry.get(name).samples()
                == serial.registry.get(name).samples()
            )

    @pytest.mark.parametrize("order", [(0, 1), (1, 0)])
    def test_outcomes_do_not_depend_on_which_reply_lands_first(self, order):
        queries = mixed_queries(40)
        serial_run = make_serial_fleet(n=2, policy="round-robin").run(queries)
        with make_worker_fleet(workers=2, policy="round-robin") as fleet:

            def landing(handle, peers=()):
                # A real receive, on the awaited worker `order` puts first.
                waiting = (handle, *peers)
                return WorkerHandle.receive(
                    next(h for i in order for h in waiting if h.replica_id == i)
                )

            for handle in fleet.replicas:
                handle.receive = functools.partial(landing, handle)
            worker_run = fleet.run(queries)
        assert [outcome_key(o) for o in worker_run.outcomes] == [
            outcome_key(o) for o in serial_run.outcomes
        ]
        assert worker_run.queries_per_replica == serial_run.queries_per_replica

    def test_repeating_stream_matches_fresh_copies(self):
        # The parent ships each query object once and then its key, so
        # a repeat reaches the worker as the object it already holds and
        # its backend opens the session on retained plans; deep copies
        # cross as new queries every time.  The decisions must not tell
        # the two apart.
        base = mixed_queries(15)
        cycling = [base[i % len(base)] for i in range(90)]
        fresh = [copy.deepcopy(q) for q in cycling]
        runs = []
        for stream in (cycling, fresh):
            with make_worker_fleet(workers=2) as fleet:
                run = fleet.run(stream)
                runs.append(
                    ([outcome_key(o) for o in run.outcomes], fleet.replica_traces())
                )
        assert runs[0] == runs[1]
        assert sum(key[3] for key in runs[0][0]) > 0  # what-if calls

    def test_latency_summary_merges_worker_histograms(self):
        buckets = CATALOG["worker_query_latency_seconds"].buckets
        with make_worker_fleet(workers=2) as fleet:
            run = fleet.run(mixed_queries(30))
            # Each worker ships its latency family's bucket counts, one
            # observation per query it served.
            for handle, served in zip(fleet.replicas, run.queries_per_replica):
                (sample,) = handle.request(("latency",))
                assert list(sample["buckets"]) == [repr(b) for b in buckets] + ["+Inf"]
                assert sample["count"] == served
            summary = fleet.latency_summary()
            assert summary["count"] == 30
            assert summary["p50"] is not None
            assert summary["p50"] <= summary["p95"] <= summary["p99"]

    def test_snapshot_roundtrip_restores_serial_fleet(self, tmp_path):
        queries = mixed_queries(40)
        with make_worker_fleet(workers=2) as fleet:
            fleet.run(queries)
            save_fleet(tmp_path, fleet)
            expected = [sorted(h.materialized_names) for h in fleet.replicas]
        restored = restore_fleet(tmp_path, build_small_catalog)
        assert not isinstance(restored, WorkerFleetCoordinator)
        assert [
            sorted(r.materialized_names) for r in restored.replicas
        ] == expected


class TestCrashHandling:
    """A worker killed mid-epoch must drain, not deadlock (regression)."""

    def test_crash_mid_epoch_skip_mode_drains_and_continues(self):
        # round-robin so both replicas receive queries; affinity can
        # starve the crashing replica and never exercise the kill.
        with make_worker_fleet(
            workers=2, policy="round-robin", _crash_plan={1: 5}
        ) as fleet:
            run = fleet.run(mixed_queries(40), on_error="skip")

            # The run completed (no deadlock) and accounted for every
            # arrival; the crashed worker's unacknowledged chunk came
            # back as failed outcomes.
            assert len(run.outcomes) == 40
            assert run.failed_queries > 0
            failed = [o for o in run.outcomes if o.outcome.failed]
            assert {o.replica_id for o in failed} == {1}
            assert all(
                isinstance(o.outcome.error, WorkerCrash) for o in failed
            )

            # The crash tripped the handle's breaker: the replica reads
            # as drained.
            handle = fleet.replicas[1]
            assert handle.crashed
            assert handle.health is ReplicaHealth.DRAINED
            assert sum(h.crashed for h in fleet.replicas) >= 1

            # After the drain boundary, arrivals are reassigned to the
            # surviving replica instead of the dead one.
            drains = [r for r in run.reorganizations if 1 in r.drained_total]
            assert drains
            boundary = next(
                i for i, o in enumerate(run.outcomes) if o.reorganization
                and 1 in o.reorganization.drained_total
            )
            tail = run.outcomes[boundary + 1:]
            assert tail
            assert all(o.replica_id == 0 for o in tail)
            assert all(not o.outcome.failed for o in tail)

    def test_crash_mid_epoch_raise_mode_surfaces_worker_crash(self):
        with make_worker_fleet(
            workers=2, policy="round-robin", _crash_plan={1: 5}
        ) as fleet:
            with pytest.raises(WorkerCrash):
                fleet.run(mixed_queries(40), on_error="raise")

    def test_wedged_worker_is_terminated_a_timeout_after_its_batch_was_sent(self):
        with make_worker_fleet(
            workers=2, policy="round-robin", worker_timeout=0.3
        ) as fleet:
            fleet.run(mixed_queries(10))
            wedged = fleet.replicas[1]
            os.kill(wedged.process.pid, signal.SIGSTOP)  # alive, never replies
            try:
                started = time.monotonic()
                run = fleet.run(mixed_queries(10), on_error="skip")
                waited = time.monotonic() - started
            finally:
                os.kill(wedged.process.pid, signal.SIGCONT)  # lets SIGTERM land
            assert wedged.crashed and 0.3 <= waited < 3.0
            assert sum(h.crashed for h in fleet.replicas) == 1
            # Replica 0's reply landed first and was kept; replica 1's
            # arrivals are the failed ones, in arrival order.
            assert [o.replica_id for o in run.outcomes] == [0, 1] * 5
            assert [o.outcome.failed for o in run.outcomes] == [False, True] * 5

    def test_snapshot_of_crashed_fleet_refuses_partial_manifest(self):
        with make_worker_fleet(
            workers=2, policy="round-robin", _crash_plan={1: 5}
        ) as fleet:
            fleet.run(mixed_queries(40), on_error="skip")
            with pytest.raises(WorkerCrash):
                fleet.replica_snapshots()


class TestErrorReplies:
    """A command the worker cannot serve comes back as one readable error."""

    @pytest.mark.parametrize(
        "command, message",
        [
            (("batch", [999999], "raise"), "KeyError: 999999"),
            # The retired what-if probe op is an unknown command now.
            (("probe", [999999]), "unknown worker command 'probe'"),
            (("no-such-op",), "unknown worker command 'no-such-op'"),
            # So is the retired advisory push.
            (("advise", []), "unknown worker command 'advise'"),
        ],
    )
    def test_error_reply_raises_and_worker_keeps_serving(self, command, message):
        with make_worker_fleet(workers=2) as fleet:
            handle = fleet.replicas[0]
            with pytest.raises(RuntimeError, match="replica 0 worker error: .*" + message):
                handle.request(command)
            assert handle.request(("status",)) is None and not handle.crashed

    def test_failed_chunk_leaves_no_reply_behind(self):
        # Regression: chunk 1 raises on replica 0's error reply while
        # replica 1's reply sat unread in its pipe, so chunk 2 read
        # chunk 1's outcomes as its own.
        chunks = [mixed_queries(30)[i : i + 10] for i in (0, 10, 20)]
        serial = make_serial_fleet(n=2, policy="round-robin")
        with make_worker_fleet(workers=2, policy="round-robin") as fleet:
            assert [outcome_key(o) for o in fleet.run(chunks[0]).outcomes] == [
                outcome_key(o) for o in serial.run(chunks[0]).outcomes
            ]
            # Chunk 1: replica 0 is sent a key it never saw, replica 1 serves.
            broken = fleet.replicas[0]
            broken.encode_query = lambda query: 999999
            with pytest.raises(RuntimeError, match="replica 0 worker error"):
                fleet.run(chunks[1])
            del broken.encode_query
            assert not any(h.conn.poll() for h in fleet.replicas)
            # The in-process fleet, fed the same arrivals: routed in
            # full, served by replica 1 only, no fleet epoch closed.
            for query in chunks[1]:
                if serial.router.route(query, None) == 1:
                    serial.replicas[1].process(query)
            serial.queries_routed += 10

            worker_run, serial_run = fleet.run(chunks[2]), serial.run(chunks[2])
            assert [outcome_key(o)[1:] for o in worker_run.outcomes] == [
                outcome_key(o)[1:] for o in serial_run.outcomes
            ]
            assert fleet.replica_traces() == [
                json.loads(r.trace().to_json()) for r in serial.replicas
            ]


class TestValidation:
    def test_front_door_dispatches_to_worker_subclass(self):
        with make_worker_fleet(workers=2) as fleet:
            assert isinstance(fleet, WorkerFleetCoordinator)
            assert len(fleet.replicas) == 2

    def test_workers_must_be_positive(self):
        with pytest.raises(ValueError):
            WorkerFleetCoordinator(
                build_small_catalog, config=make_config(), workers=0
            )

    def test_guardrails_rejected(self):
        from repro.guardrails import GuardrailManager

        with pytest.raises(TypeError, match="guardrails"):
            make_worker_fleet(workers=2, guardrails=GuardrailManager())

    def test_advice_rejected(self):
        from repro.guardrails import AdviceBook

        with pytest.raises(ValueError, match="advice is not supported"):
            make_worker_fleet(workers=2, advice=AdviceBook.parse("pin users.score"))

    def test_breakers_rejected(self):
        with pytest.raises(ValueError, match="breaker"):
            make_worker_fleet(workers=2, breakers=[None, None])

    def test_cost_policy_rejected(self):
        # What-if probe routing was retired: "cost" is an unknown policy,
        # refused before any worker process starts.
        with pytest.raises(ValueError, match="unknown routing policy 'cost'"):
            make_worker_fleet(workers=2, policy="cost")

    def test_process_query_not_supported(self):
        with make_worker_fleet(workers=2) as fleet:
            with pytest.raises(NotImplementedError):
                fleet.process_query(eq_query(1))

    def test_close_is_idempotent(self):
        fleet = make_worker_fleet(workers=2)
        fleet.run(mixed_queries(10))
        fleet.close()
        fleet.close()
