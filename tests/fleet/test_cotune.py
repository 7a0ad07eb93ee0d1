"""Co-tuning loop tests: differential parity plus loop mechanics.

Two differential contracts anchor this file (ISSUE: parity satellite):

* **off = today.**  A fleet constructed with ``cotune=False`` (or with
  the argument omitted) must be bit-identical to the pre-co-tuning
  coordinator across every routing policy and engine -- same outcomes,
  same what-if ledger, same total cost, same decision traces.  The
  co-tuning hooks sit on the routing hot path and inside the tuning
  loop's epoch close, so "dormant" has to be proven, not assumed.
* **serial = workers at cotune=on.**  Partition routing, boundary
  probes, and advisory pushes all travel the worker pipe chunk-aligned;
  the multiprocess fleet must reproduce the serial coordinator's run
  bit for bit, including the co-tuning history.

The remaining tests pin the loop mechanics: inherit-then-refine
placement, hysteresis-gated migration, convergence freeze/resume, and
the self-regulating probe budget.
"""

import json

import pytest

from repro.core.config import ColtConfig
from repro.fleet import FleetCoordinator
from repro.fleet.cotune import CotuneConfig, CotuneController
from repro.fleet.snapshots import restore_fleet, save_fleet

from tests.fleet.workloads import (
    build_small_catalog,
    day_query,
    eq_query,
    score_query,
)

POLICIES = ["round-robin", "affinity", "client", "cost"]
ENGINES = ["colt", "bandit"]


def mixed_queries(n):
    makers = [eq_query, day_query, score_query]
    return [
        makers[i % 3](8000 + i if i % 3 == 1 else i + 1) for i in range(n)
    ]


def make_fleet(n=2, policy="affinity", engine="colt", cotune=None, **cfg):
    cfg.setdefault("storage_budget_pages", 6000.0)
    cfg.setdefault("min_history_epochs", 2)
    if engine == "bandit":
        cfg.setdefault("epoch_length", 5)
    kwargs = {} if cotune is None else {"cotune": cotune}
    return FleetCoordinator(
        build_small_catalog,
        n_replicas=n,
        config=ColtConfig(**cfg),
        policy=policy,
        fleet_epoch_length=10,
        engine=engine,
        **kwargs,
    )


def outcome_key(fleet_outcome):
    o = fleet_outcome.outcome
    return (
        fleet_outcome.index,
        fleet_outcome.replica_id,
        fleet_outcome.routing_overhead,
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
        [sorted(r.materialized_names) for r in fleet.replicas],
        [json.loads(r.trace().to_json()) for r in fleet.replicas],
    )


class TestOffParity:
    """cotune=off is bit-identical to the pre-co-tuning fleet."""

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("policy", POLICIES)
    def test_off_matches_default_everywhere(self, policy, engine):
        queries = mixed_queries(45)
        baseline = make_fleet(policy=policy, engine=engine)
        explicit = make_fleet(policy=policy, engine=engine, cotune=False)
        assert baseline.cotune is None
        assert explicit.cotune is None
        baseline_run = baseline.run(queries)
        explicit_run = explicit.run(queries)
        assert run_key(explicit, explicit_run) == run_key(
            baseline, baseline_run
        )
        # Dormant means dormant: no boundary ever produced a report.
        assert all(
            r.cotune is None for r in baseline_run.reorganizations
        )


class TestOnVsOffDifferential:
    """Enabling co-tuning inherits the incumbent layout, not a reshuffle.

    On a stream the affinity policy already partitions cleanly, the
    fallback-hint placement makes cotune=on reproduce cotune=off's
    *execution* decisions exactly; the runs differ only by the probe
    overhead charged at boundaries.  This is the regression test for
    the inherit-then-refine design -- a partitioner that reshuffles the
    working layout on enable shows up here as an execution-cost split.
    """

    def test_on_inherits_off_layout_under_affinity(self):
        queries = mixed_queries(90)
        off = make_fleet(n=3, policy="affinity")
        on = make_fleet(n=3, policy="affinity", cotune=True)
        off_run = off.run(queries)
        on_run = on.run(queries)
        assert on_run.execution_cost == off_run.execution_cost
        assert [sorted(r.materialized_names) for r in on.replicas] == [
            sorted(r.materialized_names) for r in off.replicas
        ]
        probe_cost = sum(
            r.cotune.probe_cost
            for r in on_run.reorganizations
            if r.cotune
        )
        assert probe_cost > 0
        assert on_run.total_cost == pytest.approx(
            off_run.total_cost + probe_cost
        )

    def test_reports_appear_at_every_boundary(self):
        fleet = make_fleet(n=2, cotune=True)
        run = fleet.run(mixed_queries(40))
        reports = [r.cotune for r in run.reorganizations]
        assert reports and all(r is not None for r in reports)
        assert [r.epoch for r in reports] == list(range(len(reports)))
        assert fleet.cotune.epochs == len(reports)


class TestWorkersParity:
    """Serial and multiprocess co-tuned fleets agree bit for bit."""

    @pytest.mark.parametrize("engine", ENGINES)
    def test_cotune_on_parity(self, engine):
        queries = mixed_queries(60)
        serial = make_fleet(n=2, engine=engine, cotune=True)
        serial_run = serial.run(queries)
        cfg = {"storage_budget_pages": 6000.0, "min_history_epochs": 2}
        if engine == "bandit":
            cfg["epoch_length"] = 5
        with FleetCoordinator(
            build_small_catalog,
            config=ColtConfig(**cfg),
            policy="affinity",
            fleet_epoch_length=10,
            engine=engine,
            workers=2,
            cotune=True,
        ) as fleet:
            worker_run = fleet.run(queries)
            assert [outcome_key(o) for o in worker_run.outcomes] == [
                outcome_key(o) for o in serial_run.outcomes
            ]
            assert worker_run.total_cost == serial_run.total_cost
            assert worker_run.queries_per_replica == (
                serial_run.queries_per_replica
            )
            assert [
                sorted(h.materialized_names) for h in fleet.replicas
            ] == [sorted(r.materialized_names) for r in serial.replicas]
            assert fleet.replica_traces() == [
                json.loads(r.trace().to_json()) for r in serial.replicas
            ]
            # The co-tuning ledgers match too: same partitions, same
            # probes, same convergence trajectory.
            assert fleet.cotune.history == serial.cotune.history
            assert fleet.cotune.assignment == serial.cotune.assignment


class TestPartitionRouting:
    def test_assigned_signatures_route_to_their_partition(self):
        fleet = make_fleet(n=2, cotune=True)
        fleet.run(mixed_queries(20))  # past the first boundary
        assignment = dict(fleet.cotune.assignment)
        assert assignment
        for query in mixed_queries(20):
            sig = fleet.cotune.signature_of(query)
            if sig in assignment:
                outcome = fleet.process_query(query)
                assert outcome.replica_id == assignment[sig]

    def test_drained_partition_falls_back_to_base_router(self):
        controller = CotuneController(2, build_small_catalog())
        query = eq_query(1)
        controller.admit(query, drained=())
        controller.end_epoch(
            active=[0, 1],
            cost_per_query=10.0,
            epoch_queries=1,
            probe_costs=lambda reps, ids: {},
        )
        sig = controller.signature_of(query)
        home = controller.assignment[sig]
        assert controller.admit(query, drained=()) == home
        assert controller.admit(query, drained=(home,)) is None


class TestRefinement:
    def probe_map(self, prices):
        """A probe_costs callback quoting fixed per-replica prices."""
        return lambda reps, ids: {
            r: [prices[r]] * len(reps) for r in ids if r in prices
        }

    def seeded(self):
        controller = CotuneController(
            2, build_small_catalog(), config=CotuneConfig(hysteresis=0.1)
        )
        controller.admit(eq_query(1), drained=())
        controller.end_epoch(
            active=[0, 1],
            cost_per_query=10.0,
            epoch_queries=1,
            probe_costs=lambda reps, ids: {},
        )
        controller.admit(eq_query(1), drained=())
        return controller, controller.assignment[
            controller.signature_of(eq_query(1))
        ]

    def test_migrates_past_the_hysteresis_band(self):
        controller, home = self.seeded()
        other = 1 - home
        report = controller.end_epoch(
            active=[0, 1],
            cost_per_query=10.0,
            epoch_queries=1,
            probe_costs=self.probe_map({home: 100.0, other: 50.0}),
        )
        assert report.migrations == 1
        assert controller.assignment[
            controller.signature_of(eq_query(1))
        ] == other

    def test_stays_inside_the_hysteresis_band(self):
        controller, home = self.seeded()
        other = 1 - home
        report = controller.end_epoch(
            active=[0, 1],
            cost_per_query=10.0,
            epoch_queries=1,
            # 5% cheaper: inside the 10% band, must not thrash.
            probe_costs=self.probe_map({home: 100.0, other: 95.0}),
        )
        assert report.migrations == 0
        assert controller.assignment[
            controller.signature_of(eq_query(1))
        ] == home

    def test_drain_orphans_are_reassigned(self):
        controller, home = self.seeded()
        report = controller.end_epoch(
            active=[1 - home],
            cost_per_query=10.0,
            epoch_queries=1,
            probe_costs=lambda reps, ids: {},
        )
        assert report.forced_moves == 1
        assert set(controller.assignment.values()) == {1 - home}


class TestConvergence:
    def close_flat_epoch(self, controller, cost=10.0):
        controller.admit(eq_query(1), drained=())
        controller.admit(day_query(8000), drained=())
        return controller.end_epoch(
            active=[0, 1],
            cost_per_query=cost,
            epoch_queries=2,
            probe_costs=lambda reps, ids: {r: [5.0, 5.0] for r in ids},
        )

    def make(self, patience=2):
        return CotuneController(
            2,
            build_small_catalog(),
            config=CotuneConfig(patience=patience, probe_budget=8),
        )

    def test_flat_cost_freezes_after_patience(self):
        controller = self.make(patience=2)
        reports = [self.close_flat_epoch(controller) for _ in range(4)]
        assert not reports[0].converged
        assert reports[-1].converged
        # Frozen boundaries spend no probes.
        assert self.close_flat_epoch(controller).probes == 0

    def test_new_signature_resumes_refinement(self):
        controller = self.make(patience=2)
        for _ in range(4):
            self.close_flat_epoch(controller)
        assert controller.converged
        controller.admit(score_query(3), drained=())
        report = controller.end_epoch(
            active=[0, 1],
            cost_per_query=10.0,
            epoch_queries=1,
            probe_costs=lambda reps, ids: {},
        )
        assert not report.converged

    def test_cost_regression_resumes_refinement(self):
        controller = self.make(patience=2)
        for _ in range(4):
            self.close_flat_epoch(controller)
        assert controller.converged
        report = self.close_flat_epoch(controller, cost=100.0)
        assert not report.converged

    def test_probe_budget_halves_when_quiet_and_regrants_on_change(self):
        controller = self.make(patience=10)
        first = self.close_flat_epoch(controller)
        assert first.probe_budget == controller.config.probe_budget
        quiet = self.close_flat_epoch(controller)
        assert quiet.probe_budget < first.probe_budget
        controller.admit(score_query(3), drained=())
        regrant = controller.end_epoch(
            active=[0, 1],
            cost_per_query=10.0,
            epoch_queries=1,
            probe_costs=lambda reps, ids: {},
        )
        assert regrant.probe_budget == controller.config.probe_budget


class TestAdvisory:
    def test_payloads_cover_partition_footprints(self):
        fleet = make_fleet(n=2, cotune=True)
        fleet.run(mixed_queries(30))
        payloads = fleet.cotune.advisory_payloads()
        assert set(payloads) == {0, 1}
        for replica_id, entries in payloads.items():
            footprint = {
                pair
                for sig, r in fleet.cotune.assignment.items()
                if r == replica_id
                for pair in sig
            }
            assert {
                (table, columns[0]) for table, columns, _ in entries
            } == footprint

    def test_advice_reaches_replica_tuners(self):
        fleet = make_fleet(n=2, cotune=True)
        fleet.run(mixed_queries(30))
        advised = [
            {
                (r.index.table, tuple(r.index.columns))
                for r in replica.tuner.standing_rulings
                if r.source == "advisory"
            }
            for replica in fleet.replicas
        ]
        expected = [
            {
                (pair[0], (pair[1],))
                for sig, r in fleet.cotune.assignment.items()
                if r == replica.replica_id
                for pair in sig
            }
            for replica in fleet.replicas
        ]
        assert advised == expected


class TestSnapshotIntegration:
    def test_cotuned_fleet_round_trips(self, tmp_path):
        fleet = make_fleet(n=2, cotune=True)
        fleet.run(mixed_queries(40))
        save_fleet(tmp_path, fleet)
        restored = restore_fleet(tmp_path, build_small_catalog)
        assert restored.cotune is not None
        assert restored.cotune.assignment == fleet.cotune.assignment
        assert restored.cotune.weights == fleet.cotune.weights
        assert restored.cotune.converged == fleet.cotune.converged
        assert restored.cotune.history == fleet.cotune.history

    def test_off_fleet_manifest_has_no_cotune_key(self, tmp_path):
        fleet = make_fleet(n=2)
        fleet.run(mixed_queries(20))
        save_fleet(tmp_path, fleet)
        manifest = json.loads((tmp_path / "fleet.json").read_text())
        assert "cotune" not in manifest.get("payload", manifest)
        restored = restore_fleet(tmp_path, build_small_catalog)
        assert restored.cotune is None
