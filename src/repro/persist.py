"""Persistence: snapshot and restore a tuner's learned state.

A production on-line tuner must survive server restarts without
re-learning the workload from scratch.  This module serializes the
durable parts of a :class:`~repro.core.colt.ColtTuner` -- the
materialized and hot sets, per-index benefit histories, candidate
statistics, the current what-if budget and the epoch clock -- to a
plain JSON-compatible dictionary, and restores them into a fresh tuner
over a structurally equivalent catalog.

What is deliberately *not* persisted: per-(index, cluster) gain samples.
Their validity is tied to the precise materialized configuration and to
live cluster identities; after a restart the profiler re-gathers them
quickly, guided by the restored benefit histories.

Durability: :func:`save_json` writes atomically (temp file in the same
directory, ``fsync``, then ``os.replace``) and embeds a SHA-256 checksum
of the payload, so a crash mid-write can never leave a half-written
snapshot in place and silent corruption is detected on load.  Every
malformed-snapshot path -- truncated file, checksum mismatch, version
skew, unknown tables/columns, missing keys -- raises
:class:`SnapshotError`; :func:`load_or_quarantine` converts that into
"move the bad file aside and restart fresh" for callers that must come
up regardless.

Usage::

    snapshot = snapshot_tuner(tuner)
    save_json("colt_state.json", snapshot)
    ...
    tuner = restore_tuner(catalog, load_json("colt_state.json"))
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import pathlib
import tempfile
from typing import TYPE_CHECKING, Dict, Optional, Union

from repro.core.colt import ColtTuner
from repro.core.config import stored_config
from repro.core.forecast import BenefitHistory
from repro.guardrails.advice import AdviceBook

if TYPE_CHECKING:
    from repro.engine.catalog import Catalog
    from repro.engine.index import IndexDef
    from repro.engine.storage import PhysicalStore
    from repro.guardrails.verify import CostObserver

SNAPSHOT_VERSION = 1

#: Marker identifying the checksummed on-disk envelope format.
SNAPSHOT_FORMAT = "colt-snapshot"


class SnapshotError(ValueError):
    """Raised when a snapshot cannot be produced or restored."""


def snapshot_tuner(tuner: ColtTuner) -> Dict:
    """Serialize a tuner's durable state to a JSON-compatible dict.

    When a guardrail manager is attached its state rides along under a
    ``"guardrails"`` key (additive -- snapshots without it restore to a
    guardrail-free tuner), so a restart cannot amnesty a quarantined
    index; DBA advice, when there is any, under an ``"advice"`` key.
    """
    records = tuner.self_organizer.records()
    return {
        "version": SNAPSHOT_VERSION,
        "config": dataclasses.asdict(tuner.config),
        "materialized": [
            [ix.table, list(ix.columns)] for ix in tuner.materialized_set
        ],
        "hot": [[ix.table, list(ix.columns)] for ix in tuner.hot_set],
        # Three sections with their own key sets: an index has a "high"
        # window from promotion, a "low" one from its first report, and
        # keeps its "measured" count when a drop forgets both windows.
        "histories": {
            "low": {
                _key_text(rec.index): rec.low.values()
                for rec in records
                if rec.low is not None
            },
            "high": {
                _key_text(rec.index): rec.high.values()
                for rec in records
                if rec.high is not None
            },
            "measured": {
                _key_text(rec.index): rec.measured
                for rec in records
                if rec.measured is not None
            },
        },
        "candidates": _snapshot_candidates(tuner),
        "whatif_budget": tuner.profiler.whatif_budget,
        **_snapshot_loop_state(tuner),
    }


def restore_tuner(
    catalog: Catalog,
    snapshot: Dict,
    store: Optional[PhysicalStore] = None,
    observer: Optional[CostObserver] = None,
) -> ColtTuner:
    """Rebuild a tuner from a snapshot over an equivalent catalog.

    Restored materialized indexes are re-registered in the catalog (and,
    when a physical store is given, physically rebuilt) without charging
    build cost -- they already exist on disk in the scenario this models.
    A snapshot carrying guardrail state gets its guardrail manager back,
    quarantine clocks and all, and its DBA advice (also from the
    guardrail block, where older snapshots kept it); ``observer``
    re-attaches a live cost observer (observers hold stores and never
    serialize).

    Raises:
        SnapshotError: on version or engine-tag mismatch, references to
            tables or columns absent from the catalog, or any
            structurally malformed snapshot (missing keys, wrong value
            types).
    """
    return _checked_restore("colt", _restore_tuner, catalog, snapshot, store, observer)


def _checked_restore(engine: str, restore, catalog, snapshot, store, observer):
    """Validate a snapshot's envelope for ``engine``, then ``restore`` it.

    Every structural failure inside ``restore`` surfaces as
    :class:`SnapshotError`.
    """
    if not isinstance(snapshot, dict):
        raise SnapshotError(f"snapshot must be a dict, got {type(snapshot).__name__}")
    if snapshot.get("version") != SNAPSHOT_VERSION:
        raise SnapshotError(
            f"unsupported snapshot version {snapshot.get('version')!r}"
        )
    tagged = snapshot.get("engine", "colt")
    if tagged != engine:
        raise SnapshotError(
            f"engine mismatch: snapshot was written by the {tagged!r} "
            f"engine, but a {engine!r} tuner was requested (use restore_any, "
            "or restore with the matching --engine)"
        )
    try:
        tuner = restore(catalog, snapshot, store, observer)
        seen = int(snapshot.get("queries_seen", 0))
    except SnapshotError:
        raise
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise SnapshotError(f"malformed snapshot: {exc!r}") from exc
    if seen < 0:
        raise SnapshotError(f"malformed snapshot: queries_seen {seen}")
    # The epoch clock resumes where it stopped (a snapshot written before
    # the clock was persisted restarts it at 0), and so does the epoch
    # log's numbering; the log's rows and totals start empty.
    tuner._queries_seen = seen  # noqa: SLF001 - the clock has no setter
    tuner.dashboard.epochs = seen // tuner.config.epoch_length
    return tuner


def _restore_tuner(
    catalog: Catalog,
    snapshot: Dict,
    store: Optional[PhysicalStore],
    observer: Optional[CostObserver] = None,
) -> ColtTuner:
    config = stored_config(snapshot["config"])
    tuner = ColtTuner(
        catalog,
        config,
        store=store,
        **_restore_advice_and_guardrails(catalog, snapshot, observer),
    )
    so = tuner.self_organizer
    _restore_materialized(tuner, snapshot["materialized"], store)
    for table, columns in snapshot["hot"]:
        so.hot.add(_resolve(catalog, table, columns))

    h = config.history_epochs
    for kind in ("low", "high"):
        for key_text, values in snapshot["histories"][kind].items():
            history = BenefitHistory(h)
            for value in values[-h:]:
                history.record(float(value))
            setattr(so.record(_parse_index(catalog, key_text)), kind, history)
    for key_text, count in snapshot["histories"]["measured"].items():
        so.record(_parse_index(catalog, key_text)).measured = int(count)

    _restore_candidates(tuner, snapshot["candidates"], config)
    tuner.profiler.set_budget(int(snapshot["whatif_budget"]))
    return tuner


def snapshot_any(tuner) -> Dict:
    """Serialize any supported tuner, tagging the snapshot's engine.

    COLT snapshots stay byte-identical to :func:`snapshot_tuner` output
    (no ``"engine"`` key -- old snapshots keep restoring); every other
    engine's serializer tags its own name for dispatch on load.

    Raises:
        SnapshotError: for a tuner type the engine table does not list.
    """
    # Deferred import: the engine table imports this module's helpers.
    from repro.engines import ENGINES

    spec = ENGINES.get(getattr(tuner, "engine_name", None))
    if spec is None:
        raise SnapshotError(
            f"no snapshot serializer for tuner type {type(tuner).__name__}"
        )
    return spec.snapshot(tuner)


def restore_any(
    catalog: Catalog,
    snapshot: Dict,
    store: Optional[PhysicalStore] = None,
    observer: Optional[CostObserver] = None,
    engine: Optional[str] = None,
):
    """Restore whichever tuner engine wrote the snapshot.

    Dispatches on the snapshot's ``"engine"`` key through the engine
    table (:data:`repro.engines.ENGINES`); an absent key means COLT.

    Args:
        engine: Expected engine tag; when given, a snapshot written by
            a different engine fails with a clear error instead of
            restoring the wrong tuner type.

    Raises:
        SnapshotError: for an unknown engine tag, a tag that does not
            match the requested ``engine``, or any malformed snapshot
            (same guarantees as the per-engine restorers).
    """
    from repro.engines import ENGINES

    if not isinstance(snapshot, dict):
        raise SnapshotError(f"snapshot must be a dict, got {type(snapshot).__name__}")
    tagged = snapshot.get("engine", "colt")
    if engine is not None and tagged != engine:
        raise SnapshotError(
            f"engine mismatch: snapshot was written by the {tagged!r} "
            f"engine, but --engine {engine} was requested"
        )
    spec = ENGINES.get(tagged)
    if spec is None:
        raise SnapshotError(f"unknown snapshot engine {tagged!r}")
    return spec.restore(catalog, snapshot, store=store, observer=observer)


def checksum(snapshot: Dict) -> str:
    """SHA-256 over the snapshot's canonical JSON encoding."""
    canonical = json.dumps(snapshot, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def save_json(path: Union[str, pathlib.Path], snapshot: Dict) -> None:
    """Write a snapshot to a JSON file atomically, with a checksum.

    The bytes land in a temporary file in the destination directory,
    are fsynced, and only then renamed over the target with
    ``os.replace`` -- a crash at any point leaves either the old
    snapshot or the new one, never a torn file.
    """
    target = pathlib.Path(path)
    envelope = {
        "format": SNAPSHOT_FORMAT,
        "checksum": checksum(snapshot),
        "snapshot": snapshot,
    }
    data = json.dumps(envelope, indent=1)
    fd, tmp_name = tempfile.mkstemp(
        dir=str(target.parent) or ".", prefix=target.name, suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_name, target)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    # Persist the rename itself (best effort; not all filesystems
    # support fsync on directories).
    try:
        dir_fd = os.open(str(target.parent) or ".", os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(dir_fd)
    except OSError:
        pass
    finally:
        os.close(dir_fd)


def load_json(path: Union[str, pathlib.Path]) -> Dict:
    """Read and verify a snapshot from a JSON file.

    Accepts both the checksummed envelope written by :func:`save_json`
    and legacy bare-snapshot files (no checksum to verify).

    Raises:
        SnapshotError: if the file is unreadable, not valid JSON
            (e.g. truncated by a crash mid-write), or its embedded
            checksum does not match the payload.
    """
    p = pathlib.Path(path)
    try:
        text = p.read_text()
    except OSError as exc:
        raise SnapshotError(f"cannot read snapshot {p}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SnapshotError(f"corrupt snapshot {p}: {exc}") from exc
    if not isinstance(data, dict):
        raise SnapshotError(f"corrupt snapshot {p}: not a JSON object")
    if data.get("format") == SNAPSHOT_FORMAT:
        if "checksum" not in data or "snapshot" not in data:
            raise SnapshotError(f"corrupt snapshot {p}: incomplete envelope")
        snapshot = data["snapshot"]
        if checksum(snapshot) != data["checksum"]:
            raise SnapshotError(f"corrupt snapshot {p}: checksum mismatch")
        return snapshot
    # Legacy bare snapshot (pre-envelope format).
    return data


def load_or_quarantine(path: Union[str, pathlib.Path]) -> Optional[Dict]:
    """Load a snapshot, quarantining it instead of raising if corrupt.

    A malformed file is renamed to ``<name>.corrupt`` (``.corrupt.1``,
    ``.corrupt.2``, ... if that exists) next to the original so it can
    be inspected later, and None is returned -- the caller starts with
    a fresh tuner instead of crashing.  A missing file also returns
    None (nothing to quarantine).
    """
    p = pathlib.Path(path)
    if not p.exists():
        return None
    try:
        return load_json(p)
    except SnapshotError:
        quarantine = p.with_name(p.name + ".corrupt")
        n = 0
        while quarantine.exists():
            n += 1
            quarantine = p.with_name(f"{p.name}.corrupt.{n}")
        os.replace(p, quarantine)
        return None


# ----------------------------------------------------------------------
def _key_text(index: IndexDef) -> str:
    return f"{index.table}:{','.join(index.columns)}"


def _resolve(catalog: Catalog, table: str, columns):
    if isinstance(columns, str):
        columns = [columns]
    if not catalog.has_table(table):
        raise SnapshotError(f"snapshot references unknown table {table!r}")
    for column in columns:
        if not catalog.table(table).has_column(column):
            raise SnapshotError(
                f"snapshot references unknown column {table}.{column}"
            )
    return catalog.composite_index_for(table, columns)


def _parse_index(catalog: Catalog, text: str):
    table, _, rest = text.partition(":")
    return _resolve(catalog, table, rest.split(","))


def _snapshot_loop_state(tuner) -> Dict:
    """What every engine's snapshot carries from the tuning loop: the
    epoch clock's ``"queries_seen"``, and the ``"guardrails"`` and
    ``"advice"`` keys the tuner has state for."""
    keys = {"queries_seen": tuner.queries_seen}
    if tuner.guardrails is not None:
        keys["guardrails"] = tuner.guardrails.to_snapshot()
    if len(tuner.advice):
        keys["advice"] = tuner.advice.to_snapshot()
    return keys


def _restore_advice_and_guardrails(
    catalog: Catalog, snapshot: Dict, observer: Optional[CostObserver]
) -> Dict:
    """``guardrails=`` / ``advice=`` for the restored tuner.

    Snapshots written before advice moved onto the tuner keep it in the
    guardrail block.
    """
    guardrails = snapshot.get("guardrails")
    lines = snapshot.get("advice", (guardrails or {}).get("advice", []))
    manager = None
    if guardrails is not None:
        # Guardrails load only for a tuner that had them.
        from repro.guardrails.manager import GuardrailManager

        manager = GuardrailManager.from_snapshot(guardrails, catalog, observer=observer)
    return {"guardrails": manager, "advice": AdviceBook.from_snapshot(lines)}


def _restore_materialized(tuner, entries, store: Optional[PhysicalStore]) -> None:
    """Re-register ``M`` (physically rebuilt on a store), free of charge."""
    for table, columns in entries:
        index = _resolve(tuner.catalog, table, columns)
        if store is not None:
            store.build_index(index)
        else:
            tuner.catalog.materialize_index(index)
        tuner.materialized.add(index)


def _snapshot_candidates(tuner) -> list:
    return [
        {
            "table": stats.index.table,
            "columns": list(stats.index.columns),
            "window": list(stats._window),  # noqa: SLF001 - owner module
            "smoothed": stats.smoothed_benefit,
        }
        for stats in tuner.profiler.candidates.ranked()
    ]


def _restore_candidates(tuner, entries, config) -> None:
    from repro.core.candidates import CandidateStats

    tracker = tuner.profiler.candidates
    for entry in entries:
        index = _resolve(tuner.catalog, entry["table"], entry["columns"])
        stats = CandidateStats(index, config.history_epochs, config.smoothing)
        window = entry["window"][-config.history_epochs :]
        stats.load(map(float, window), float(entry["smoothed"]))
        tracker._stats[index] = stats  # noqa: SLF001
