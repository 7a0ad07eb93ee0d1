"""Snapshot and restore for the bandit tuner's learned state.

Persists everything the bandit would otherwise have to re-learn: the
ridge model (``V``, ``b``), the materialized and hot sets, candidate
crude-benefit windows, the feature map's read/write EWMA rates, the
safety-fallback state (live bans and the watched change), the
decision-round clock and the epoch clock.  DBA advice and guardrail
state ride along exactly as for COLT snapshots.

The produced dictionaries are JSON-compatible and carry
``"engine": "bandit"`` so :func:`repro.persist.snapshot_any` /
:func:`repro.persist.restore_any` can dispatch on the engine without
the caller knowing which tuner wrote the file.  The on-disk envelope
(checksum, atomic write) is shared with COLT via
:func:`repro.persist.save_json`.
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING, Dict, Optional

from repro.bandit.linucb import RidgeModel
from repro.bandit.tuner import BanditTuner
from repro.core.config import stored_config
from repro.core.profiler import _name
from repro.persist import (
    SNAPSHOT_VERSION,
    SnapshotError,
    _checked_restore,
    _key_text,
    _parse_index,
    _resolve,
    _restore_advice_and_guardrails,
    _restore_candidates,
    _restore_materialized,
    _snapshot_candidates,
    _snapshot_loop_state,
)

if TYPE_CHECKING:
    from repro.engine.catalog import Catalog
    from repro.engine.storage import PhysicalStore
    from repro.guardrails.verify import CostObserver

#: Engine tag embedded in every bandit snapshot.
ENGINE = "bandit"


def snapshot_bandit_tuner(tuner: BanditTuner) -> Dict:
    """Serialize a bandit tuner's durable state to a JSON dict."""
    safety, watch = tuner.safety, None
    if safety.watch is not None:
        added, baseline = safety.watch
        watch = {
            "added": [[ix.table, list(ix.columns)] for ix in added],
            "baseline": baseline,
        }
    return {
        "version": SNAPSHOT_VERSION,
        "engine": ENGINE,
        "config": dataclasses.asdict(tuner.config),
        "materialized": [
            [ix.table, list(ix.columns)] for ix in tuner.materialized_set
        ],
        "hot": [[ix.table, list(ix.columns)] for ix in tuner.hot_set],
        "candidates": _snapshot_candidates(tuner),
        "model": tuner.model.to_snapshot(),
        "features": tuner.features.to_snapshot(),
        "epochs_closed": tuner.epochs_closed,
        "prev_solution_value": tuner._prev_solution_value,  # noqa: SLF001
        "safety": {
            "bans": {
                _key_text(ix): safety.bans[ix]
                for ix in sorted(safety.bans, key=_name)
            },
            "watch": watch,
        },
        **_snapshot_loop_state(tuner),
    }


def restore_bandit_tuner(
    catalog: Catalog,
    snapshot: Dict,
    store: Optional[PhysicalStore] = None,
    observer: Optional[CostObserver] = None,
) -> BanditTuner:
    """Rebuild a bandit tuner from a snapshot over an equivalent catalog.

    Materialized indexes are re-registered (and physically rebuilt when
    a store is given) without charging build cost, matching the COLT
    restore semantics.

    Raises:
        SnapshotError: on version or engine mismatch, references to
            unknown tables/columns, or any malformed structure.
    """
    return _checked_restore(ENGINE, _restore, catalog, snapshot, store, observer)


def _restore(
    catalog: Catalog,
    snapshot: Dict,
    store: Optional[PhysicalStore],
    observer: Optional[CostObserver],
) -> BanditTuner:
    config = stored_config(snapshot["config"])
    tuner = BanditTuner(
        catalog,
        config,
        store=store,
        **_restore_advice_and_guardrails(catalog, snapshot, observer),
    )
    _restore_materialized(tuner, snapshot["materialized"], store)
    tuner.hot = [
        _resolve(catalog, table, columns) for table, columns in snapshot["hot"]
    ]

    _restore_candidates(tuner, snapshot["candidates"], config)

    model = RidgeModel.from_snapshot(snapshot["model"])
    if model.dim != tuner.model.dim:
        raise SnapshotError(
            f"model dimension {model.dim} does not match the feature map"
            f" ({tuner.model.dim})"
        )
    tuner.model = model
    tuner.features.restore(snapshot.get("features"))
    tuner._epochs_closed = int(snapshot.get("epochs_closed", 0))  # noqa: SLF001
    tuner._prev_solution_value = float(  # noqa: SLF001
        snapshot.get("prev_solution_value", 0.0)
    )

    safety = snapshot.get("safety", {})
    for key_text, remaining in safety.get("bans", {}).items():
        index = _parse_index(catalog, key_text)
        tuner.safety.bans[index] = int(remaining)
    watch = safety.get("watch")
    if watch:
        tuner.safety.watch = (
            [_resolve(catalog, t, cols) for t, cols in watch["added"]],
            float(watch["baseline"]),
        )
    return tuner
