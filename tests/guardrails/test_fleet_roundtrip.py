"""Fleet manifests written before the fleet's guardrails were retired.

A guarded fleet wrote a ``"rollout"`` block (its staged-rollout canary
records) and a ``"quarantined"`` list per replica entry; an unguarded
one wrote the lists (always empty) and no block.  The first is refused
by name, the second still restores.
"""

import pytest

from repro.core.config import ColtConfig
from repro.fleet.coordinator import FleetCoordinator
from repro.fleet.snapshots import (
    FLEET_MANIFEST,
    restore_fleet,
    save_fleet,
    snapshot_fleet,
)
from repro.persist import SnapshotError, save_json
from tests.fleet.workloads import build_small_catalog, day_query, eq_query


def warm_fleet(fleet, n=40):
    for i in range(n):
        query = eq_query(i + 1) if i % 2 == 0 else day_query(8000 + i)
        fleet.process_query(query)
    return fleet


def parent_shaped_snapshot(directory, **blocks):
    """Save a warmed fleet, then rewrite its manifest in the older shape:
    a ``"quarantined"`` list in every entry, plus ``blocks``."""
    fleet = warm_fleet(
        FleetCoordinator(
            build_small_catalog,
            n_replicas=2,
            config=ColtConfig(
                storage_budget_pages=6000.0, epoch_length=5, min_history_epochs=2
            ),
            policy="affinity",
            fleet_epoch_length=10,
        )
    )
    save_fleet(directory, fleet)
    manifest = snapshot_fleet(fleet)
    for entry in manifest["replicas"]:
        entry["quarantined"] = []
    manifest.update(blocks)
    save_json(directory / FLEET_MANIFEST, manifest)
    return fleet


def test_rollout_block_is_refused(tmp_path):
    rollout = {
        "epoch": 4,
        "rollback_cooldown": 3,
        "baseline": [],
        "records": [
            {
                "table": "events",
                "columns": ["kind"],
                "stage": "canary",
                "canary_id": 0,
                "started_epoch": 3,
                "decided_epoch": None,
                "cooldown_remaining": 0,
                "reassignments": 0,
            }
        ],
    }
    parent_shaped_snapshot(tmp_path, rollout=rollout)
    for policy in (None, "affinity"):
        with pytest.raises(SnapshotError, match="staged rollout .* was retired"):
            restore_fleet(tmp_path, build_small_catalog, policy=policy)


def test_an_empty_rollout_block_is_refused(tmp_path):
    parent_shaped_snapshot(
        tmp_path, rollout={"epoch": 0, "rollback_cooldown": 3, "baseline": [], "records": []}
    )
    with pytest.raises(SnapshotError, match="'rollout' block"):
        restore_fleet(tmp_path, build_small_catalog)


def test_unguarded_parent_manifest_restores_and_keeps_tuning(tmp_path):
    fleet = parent_shaped_snapshot(tmp_path)
    restored = restore_fleet(tmp_path, build_small_catalog)
    assert [r.materialized_names for r in restored.replicas] == [
        r.materialized_names for r in fleet.replicas
    ]
    assert all(r.tuner.guardrails is None for r in restored.replicas)
    run = restored.run([eq_query(i + 1) for i in range(30)])
    assert run.failed_queries == 0
    assert sum(run.queries_per_replica) == 30
    assert len(run.reorganizations) == 3
