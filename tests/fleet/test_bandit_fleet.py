"""Tests for fleets running the bandit engine end to end."""

import pytest

from repro.bandit.tuner import BanditTuner
from repro.core.config import ColtConfig
from repro.fleet.coordinator import FleetCoordinator
from repro.fleet.snapshots import restore_fleet, save_fleet, snapshot_fleet

from tests.fleet.workloads import build_small_catalog, day_query, eq_query


def make_bandit_fleet(n=2, policy="round-robin", **cfg):
    cfg.setdefault("storage_budget_pages", 6000.0)
    cfg.setdefault("epoch_length", 5)
    return FleetCoordinator(
        build_small_catalog,
        n_replicas=n,
        config=ColtConfig(**cfg),
        policy=policy,
        fleet_epoch_length=10,
        engine="bandit",
    )


def mixed_queries(n):
    return [
        eq_query(i + 1) if i % 2 == 0 else day_query(8000 + i)
        for i in range(n)
    ]


class TestConstruction:
    def test_replicas_run_bandit_tuners(self):
        fleet = make_bandit_fleet()
        assert fleet.engine == "bandit"
        for replica in fleet.replicas:
            assert isinstance(replica.tuner, BanditTuner)
            assert replica.engine == "bandit"

    def test_default_engine_is_colt(self):
        fleet = FleetCoordinator(
            build_small_catalog, n_replicas=2, fleet_epoch_length=10
        )
        assert fleet.engine == "colt"
        assert all(r.engine == "colt" for r in fleet.replicas)

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError, match="engine"):
            FleetCoordinator(
                build_small_catalog,
                n_replicas=2,
                fleet_epoch_length=10,
                engine="quantum",
            )

    def test_colt_budget_carries_over(self):
        fleet = make_bandit_fleet(storage_budget_pages=1234.0)
        for replica in fleet.replicas:
            assert replica.tuner.config.storage_budget_pages == 1234.0


class TestRuns:
    def test_fleet_run_completes_with_ledger(self):
        fleet = make_bandit_fleet()
        run = fleet.run(mixed_queries(30))
        assert len(run.outcomes) == 30
        assert sum(run.queries_per_replica) == 30
        assert run.execution_cost > 0
        assert run.failed_queries == 0

    def test_metrics_snapshot_merges_bandit_families(self):
        fleet = make_bandit_fleet()
        fleet.run(mixed_queries(30))
        names = {f["name"] for f in fleet.metrics_snapshot()["metrics"]}
        assert "bandit_queries_total" in names
        assert "bandit_reward_samples_total" in names
        assert "fleet_queries_routed_total" in names


class TestSnapshots:
    def test_manifest_entries_carry_engine(self):
        fleet = make_bandit_fleet()
        fleet.run(mixed_queries(20))
        manifest = snapshot_fleet(fleet)
        assert all(e["engine"] == "bandit" for e in manifest["replicas"])

    def test_round_trip_preserves_engine_and_state(self, tmp_path):
        fleet = make_bandit_fleet()
        fleet.run(mixed_queries(30))
        save_fleet(tmp_path, fleet)
        restored = restore_fleet(tmp_path, build_small_catalog)
        assert restored.engine == "bandit"
        for before, after in zip(fleet.replicas, restored.replicas):
            assert isinstance(after.tuner, BanditTuner)
            assert after.engine == "bandit"
            assert after.materialized_names == before.materialized_names
            assert after.tuner.model.v == before.tuner.model.v

    def test_restored_bandit_fleet_keeps_running(self, tmp_path):
        fleet = make_bandit_fleet()
        fleet.run(mixed_queries(20))
        save_fleet(tmp_path, fleet)
        restored = restore_fleet(tmp_path, build_small_catalog)
        run = restored.run(mixed_queries(20))
        assert len(run.outcomes) == 20
        assert run.failed_queries == 0
