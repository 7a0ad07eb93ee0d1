"""Fleet persistence: atomic per-replica snapshots plus a manifest.

Extends ``repro.persist`` from one tuner to a fleet.  Each replica's
durable state is written with the same crash-safe machinery
(:func:`repro.persist.save_json`: temp file + fsync + rename, embedded
checksum), and a *fleet manifest* (``fleet.json``) binds the set
together: it names every replica file and records the checksum of the
snapshot it expects inside, so a restore detects any torn combination
of old and new files -- the manifest is written last, and a crash
between replica writes leaves a checksum mismatch rather than a
silently inconsistent fleet.

Usage::

    save_fleet("state/", coordinator)
    ...
    coordinator = restore_fleet("state/", build_catalog, policy="affinity")
"""

from __future__ import annotations

import pathlib
from typing import TYPE_CHECKING, Dict, List, Optional, Union

from repro.fleet.coordinator import FleetCoordinator
from repro.fleet.replica import TunerReplica
from repro.persist import (
    SnapshotError,
    checksum,
    load_json,
    restore_any,
    save_json,
)

if TYPE_CHECKING:
    from repro.engine.catalog import Catalog
    from repro.fleet.coordinator import CatalogFactory

FLEET_SNAPSHOT_VERSION = 1

#: File name of the fleet manifest inside a snapshot directory.
FLEET_MANIFEST = "fleet.json"


#: Manifest blocks of retired fleet features, with the feature each
#: one recorded.  A manifest carrying one is refused by name.
_RETIRED_BLOCKS = {
    "cotune": "divergent-design co-tuning (its partition map)",
    "rollout": "the fleet's staged rollout (its canary records)",
}


def _replica_file(replica_id: int) -> str:
    return f"replica-{replica_id}.json"


def snapshot_fleet(
    coordinator: FleetCoordinator,
    replica_snapshots: Optional[List[Dict]] = None,
) -> Dict:
    """Serialize a fleet's manifest to a JSON-compatible dict.

    Args:
        coordinator: The live fleet.
        replica_snapshots: Pre-computed per-replica snapshots (so
            :func:`save_fleet` checksums exactly the bytes it writes);
            computed on the fly when omitted.
    """
    if replica_snapshots is None:
        replica_snapshots = coordinator.replica_snapshots()
    entries = []
    for replica, snap in zip(coordinator.replicas, replica_snapshots):
        entries.append(
            {
                "replica_id": replica.replica_id,
                "file": _replica_file(replica.replica_id),
                "checksum": checksum(snap),
                "engine": snap.get("engine", "colt"),
                "health": replica.health.value,
                "queries": replica.stats.queries,
                "materialized": len(replica.materialized_names),
            }
        )
    return {
        "version": FLEET_SNAPSHOT_VERSION,
        "policy": coordinator.policy,
        "fleet_epoch_length": coordinator.fleet_epoch_length,
        "queries_routed": coordinator.queries_routed,
        "replicas": entries,
    }


def save_fleet(
    directory: Union[str, pathlib.Path], coordinator: FleetCoordinator
) -> pathlib.Path:
    """Atomically snapshot every replica plus the fleet manifest.

    Each file is written with the crash-safe envelope of
    :func:`repro.persist.save_json`; the manifest goes last so its
    checksums always describe a replica set that was fully written.

    Returns:
        The path of the written manifest.
    """
    root = pathlib.Path(directory)
    root.mkdir(parents=True, exist_ok=True)
    snapshots = coordinator.replica_snapshots()
    for replica, snap in zip(coordinator.replicas, snapshots):
        save_json(root / _replica_file(replica.replica_id), snap)
    manifest = snapshot_fleet(coordinator, replica_snapshots=snapshots)
    path = root / FLEET_MANIFEST
    save_json(path, manifest)
    return path


def load_manifest(directory: Union[str, pathlib.Path]) -> Dict:
    """Read and structurally validate a fleet manifest.

    Raises:
        SnapshotError: if the manifest is missing, corrupt, from an
            unsupported version, or structurally malformed.
    """
    root = pathlib.Path(directory)
    manifest = load_json(root / FLEET_MANIFEST)
    if manifest.get("version") != FLEET_SNAPSHOT_VERSION:
        raise SnapshotError(
            f"unsupported fleet snapshot version {manifest.get('version')!r}"
        )
    replicas = manifest.get("replicas")
    if not isinstance(replicas, list) or not replicas:
        raise SnapshotError("fleet manifest lists no replicas")
    for entry in replicas:
        if not isinstance(entry, dict) or not {
            "replica_id",
            "file",
            "checksum",
        } <= set(entry):
            raise SnapshotError(f"malformed fleet manifest entry: {entry!r}")
    return manifest


def restore_fleet(
    directory: Union[str, pathlib.Path],
    catalog_factory: CatalogFactory,
    policy: Optional[str] = None,
) -> FleetCoordinator:
    """Rebuild a fleet coordinator from a snapshot directory.

    Every replica file's payload is verified against the manifest's
    recorded checksum, so a crash that replaced only some replica files
    (manifest not yet rewritten) is detected rather than restored.

    Args:
        directory: Snapshot directory written by :func:`save_fleet`.
        catalog_factory: Produces one fresh catalog per replica (plus
            one for routing).
        policy: Routing policy override; the manifest's policy is used
            when omitted.

    Raises:
        SnapshotError: on any missing/corrupt file or checksum mismatch,
            and on a manifest of a retired fleet feature: ``cost``
            routing (restorable under a ``policy`` override),
            divergent-design co-tuning (its partition-map block) or
            staged rollout (its canary block).
    """
    root = pathlib.Path(directory)
    manifest = load_manifest(root)
    for block, feature in _RETIRED_BLOCKS.items():
        if block in manifest:
            raise SnapshotError(
                f"fleet manifest carries a {block!r} block; {feature} was "
                "retired and its state cannot be restored"
            )
    if not policy:
        policy = str(manifest["policy"])
        if policy == "cost":
            raise SnapshotError(
                "fleet manifest names the retired 'cost' routing policy; "
                "restore it with a policy= override (e.g. 'affinity')"
            )
    replicas: List[TunerReplica] = []
    for entry in sorted(manifest["replicas"], key=lambda e: e["replica_id"]):
        snap = load_json(root / entry["file"])
        if checksum(snap) != entry["checksum"]:
            raise SnapshotError(
                f"fleet manifest checksum mismatch for {entry['file']}: "
                "replica snapshot and manifest were not written together"
            )
        catalog: Catalog = catalog_factory()
        # Each replica file carries its own engine tag, so a fleet mixing
        # COLT and bandit replicas round-trips without coordination.
        tuner = restore_any(catalog, snap)
        replicas.append(
            TunerReplica(int(entry["replica_id"]), catalog, tuner=tuner)
        )
    return FleetCoordinator.adopt(
        replicas,
        routing_catalog=catalog_factory(),
        policy=policy,
        fleet_epoch_length=int(manifest["fleet_epoch_length"]),
        queries_routed=int(manifest["queries_routed"]),
    )
