"""Tests for atomic fleet snapshots and manifest-bound restore."""

import json

import pytest

from repro.core.config import ColtConfig
from repro.fleet.coordinator import FleetCoordinator
from repro.fleet.snapshots import (
    FLEET_MANIFEST,
    FLEET_SNAPSHOT_VERSION,
    load_manifest,
    restore_fleet,
    save_fleet,
    snapshot_fleet,
)
from repro.persist import SnapshotError, load_json, save_json

from tests.fleet.workloads import build_small_catalog, day_query, eq_query


def make_fleet(n=2, policy="affinity", **cfg):
    cfg.setdefault("storage_budget_pages", 6000.0)
    cfg.setdefault("epoch_length", 5)
    cfg.setdefault("min_history_epochs", 2)
    return FleetCoordinator(
        build_small_catalog,
        n_replicas=n,
        config=ColtConfig(**cfg),
        policy=policy,
        fleet_epoch_length=10,
    )


def warm_fleet(fleet, n=40):
    for i in range(n):
        query = eq_query(i + 1) if i % 2 == 0 else day_query(8000 + i)
        fleet.process_query(query)
    return fleet


class TestManifest:
    def test_snapshot_fleet_structure(self):
        fleet = warm_fleet(make_fleet())
        manifest = snapshot_fleet(fleet)
        assert manifest["version"] == FLEET_SNAPSHOT_VERSION
        assert manifest["policy"] == "affinity"
        assert manifest["fleet_epoch_length"] == 10
        assert manifest["queries_routed"] == 40
        assert len(manifest["replicas"]) == 2
        for entry in manifest["replicas"]:
            assert {"replica_id", "file", "checksum", "health"} <= set(entry)

    def test_manifest_carries_no_guardrail_state(self):
        manifest = snapshot_fleet(warm_fleet(make_fleet()))
        assert set(manifest) == {
            "version", "policy", "fleet_epoch_length", "queries_routed", "replicas",
        }
        for entry in manifest["replicas"]:
            assert "quarantined" not in entry

    def test_save_writes_manifest_and_replica_files(self, tmp_path):
        fleet = warm_fleet(make_fleet())
        path = save_fleet(tmp_path, fleet)
        assert path == tmp_path / FLEET_MANIFEST
        assert path.exists()
        manifest = load_manifest(tmp_path)
        for entry in manifest["replicas"]:
            assert (tmp_path / entry["file"]).exists()

    def test_load_manifest_rejects_missing_directory(self, tmp_path):
        with pytest.raises(SnapshotError):
            load_manifest(tmp_path / "nowhere")

    def test_load_manifest_rejects_bad_version(self, tmp_path):
        save_json(tmp_path / FLEET_MANIFEST, {"version": 99, "replicas": []})
        with pytest.raises(SnapshotError, match="version"):
            load_manifest(tmp_path)

    def test_load_manifest_rejects_empty_replica_list(self, tmp_path):
        save_json(
            tmp_path / FLEET_MANIFEST,
            {"version": FLEET_SNAPSHOT_VERSION, "replicas": []},
        )
        with pytest.raises(SnapshotError, match="no replicas"):
            load_manifest(tmp_path)

    def test_load_manifest_rejects_malformed_entry(self, tmp_path):
        save_json(
            tmp_path / FLEET_MANIFEST,
            {
                "version": FLEET_SNAPSHOT_VERSION,
                "replicas": [{"replica_id": 0}],  # no file/checksum
            },
        )
        with pytest.raises(SnapshotError, match="malformed"):
            load_manifest(tmp_path)


class TestRoundtrip:
    def test_restore_preserves_materialized_sets(self, tmp_path):
        fleet = warm_fleet(make_fleet())
        before = [set(r.materialized_names) for r in fleet.replicas]
        assert any(before)  # the warmup materialized something
        save_fleet(tmp_path, fleet)
        restored = restore_fleet(tmp_path, build_small_catalog)
        after = [set(r.materialized_names) for r in restored.replicas]
        assert after == before
        assert restored.policy == "affinity"
        assert restored.fleet_epoch_length == 10

    def test_restored_fleet_keeps_serving(self, tmp_path):
        fleet = warm_fleet(make_fleet())
        save_fleet(tmp_path, fleet)
        restored = restore_fleet(tmp_path, build_small_catalog)
        outcome = restored.process_query(eq_query(123))
        assert not outcome.outcome.failed
        assert restored.replicas[outcome.replica_id].stats.queries == 1

    def test_restore_on_epoch_boundaries_continues_like_the_original(self, tmp_path):
        # The warmup ends on a fleet-epoch boundary (40 queries, epochs of
        # 10) and on every replica's tuner-epoch boundary (20 each, epochs
        # of 5), where no gain sample is pending: a restored fleet
        # resumes in step with the live one, decisions included.
        fleet = warm_fleet(make_fleet())
        assert [r.tuner.queries_seen % 5 for r in fleet.replicas] == [0, 0]
        save_fleet(tmp_path, fleet)
        restored = restore_fleet(tmp_path, build_small_catalog)
        more = [day_query(9000 + i) if i % 3 else eq_query(i + 1) for i in range(30)]
        original_run, restored_run = fleet.run(more), restored.run(more)
        assert [o.replica_id for o in restored_run.outcomes] == [
            o.replica_id for o in original_run.outcomes
        ]
        assert restored_run.total_cost == pytest.approx(original_run.total_cost)
        assert [sorted(r.materialized_names) for r in restored.replicas] == [
            sorted(r.materialized_names) for r in fleet.replicas
        ]

    def test_restore_off_a_fleet_epoch_boundary_reorganizes_with_the_live_fleet(
        self, tmp_path
    ):
        # 43 arrivals, fleet epochs of 10: both epoch clocks resume from
        # the snapshot, so the next reorganizations land on the same
        # arrivals (routing may differ: the router starts fresh).
        fleet = warm_fleet(make_fleet(), n=43)
        save_fleet(tmp_path, fleet)
        restored = restore_fleet(tmp_path, build_small_catalog)
        assert restored.queries_routed == 43
        assert [r.tuner.queries_seen for r in restored.replicas] == [
            r.tuner.queries_seen for r in fleet.replicas
        ]
        more = [day_query(9000 + i) if i % 3 else eq_query(i + 1) for i in range(25)]
        original_run, restored_run = fleet.run(more), restored.run(more)
        assert [o.index for o in restored_run.outcomes] == list(range(43, 68))
        reorganized = [o.index for o in restored_run.outcomes if o.reorganization]
        assert reorganized == [
            o.index for o in original_run.outcomes if o.reorganization
        ] == [49, 59]

    def test_restore_honours_policy_override(self, tmp_path):
        fleet = warm_fleet(make_fleet(policy="round-robin"))
        save_fleet(tmp_path, fleet)
        restored = restore_fleet(tmp_path, build_small_catalog, policy="affinity")
        assert restored.policy == "affinity"
        assert restored.process_query(eq_query(1)).outcome.execution_cost > 0

    def test_save_is_idempotent(self, tmp_path):
        fleet = warm_fleet(make_fleet())
        save_fleet(tmp_path, fleet)
        save_fleet(tmp_path, fleet)  # overwrite in place
        restored = restore_fleet(tmp_path, build_small_catalog)
        assert len(restored.replicas) == 2


def _rewrite_manifest(directory, **changes):
    manifest = load_manifest(directory)
    manifest.update(changes)
    save_json(directory / FLEET_MANIFEST, manifest)


class TestRetiredFeatures:
    """Manifests written by a fleet feature that no longer exists."""

    def test_cost_policy_needs_an_override(self, tmp_path):
        save_fleet(tmp_path, warm_fleet(make_fleet()))
        _rewrite_manifest(tmp_path, policy="cost")
        with pytest.raises(SnapshotError, match="retired 'cost' routing policy"):
            restore_fleet(tmp_path, build_small_catalog)
        restored = restore_fleet(tmp_path, build_small_catalog, policy="affinity")
        assert restored.policy == "affinity"
        assert not restored.process_query(eq_query(1)).outcome.failed

    def test_cotune_block_is_refused(self, tmp_path):
        save_fleet(tmp_path, warm_fleet(make_fleet()))
        _rewrite_manifest(
            tmp_path,
            cotune={"assignment": [], "epochs": 3, "converged": False},
        )
        for policy in (None, "affinity"):
            with pytest.raises(SnapshotError, match="co-tuning .* was retired"):
                restore_fleet(tmp_path, build_small_catalog, policy=policy)


class TestTornWrites:
    def test_checksum_mismatch_detected_on_restore(self, tmp_path):
        fleet = warm_fleet(make_fleet())
        save_fleet(tmp_path, fleet)
        # Simulate a crash that rewrote one replica file after the
        # manifest was fixed: valid envelope, different payload.
        stale = load_json(tmp_path / "replica-0.json")
        stale["queries_seen"] = 9999
        save_json(tmp_path / "replica-0.json", stale)
        with pytest.raises(SnapshotError, match="checksum mismatch"):
            restore_fleet(tmp_path, build_small_catalog)

    def test_missing_replica_file_detected(self, tmp_path):
        fleet = warm_fleet(make_fleet())
        save_fleet(tmp_path, fleet)
        (tmp_path / "replica-1.json").unlink()
        with pytest.raises(SnapshotError):
            restore_fleet(tmp_path, build_small_catalog)

    def test_corrupt_replica_file_detected(self, tmp_path):
        fleet = warm_fleet(make_fleet())
        save_fleet(tmp_path, fleet)
        target = tmp_path / "replica-0.json"
        payload = json.loads(target.read_text())
        payload["snapshot"]["queries_seen"] = 12345  # envelope checksum broken
        target.write_text(json.dumps(payload))
        with pytest.raises(SnapshotError):
            restore_fleet(tmp_path, build_small_catalog)
