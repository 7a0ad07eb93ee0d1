"""Tests for tuner state persistence."""

import json
import pathlib
import random

import pytest

from repro.core import ColtConfig, ColtTuner
from repro.persist import (
    SnapshotError,
    checksum,
    load_json,
    load_or_quarantine,
    restore_tuner,
    save_json,
    snapshot_tuner,
)
from repro.resilience import FaultInjector
from repro.sql.ast import (
    ColumnExpr,
    CompareOp,
    ComparisonPredicate,
    Query,
    SelectItem,
)

DATA_DIR = pathlib.Path(__file__).parent / "data"


def _eq_query(value):
    return Query(
        tables=["events"],
        select=[SelectItem(expr=ColumnExpr("amount", "events"))],
        filters=[
            ComparisonPredicate(
                ColumnExpr("user_id", "events"), CompareOp.EQ, value
            )
        ],
    )


def _trained_tuner(catalog, queries=80):
    tuner = ColtTuner(
        catalog,
        ColtConfig(storage_budget_pages=5000.0, min_history_epochs=2),
    )
    rng = random.Random(0)
    for _ in range(queries):
        tuner.process_query(_eq_query(rng.randint(1, 10_000)))
    return tuner


class TestRoundtrip:
    def test_snapshot_is_json_serializable(self, small_catalog, tmp_path):
        tuner = _trained_tuner(small_catalog)
        snapshot = snapshot_tuner(tuner)
        path = tmp_path / "state.json"
        save_json(path, snapshot)
        assert load_json(path) == snapshot

    def test_materialized_set_restored(self, small_catalog, tmp_path):
        import copy

        tuner = _trained_tuner(small_catalog)
        assert tuner.materialized_set  # trained to have indexes
        snapshot = snapshot_tuner(tuner)

        fresh_catalog = copy.deepcopy(small_catalog)
        for ix in fresh_catalog.materialized_indexes():
            fresh_catalog.drop_index(ix)
        restored = restore_tuner(fresh_catalog, snapshot)
        assert restored.materialized_set == tuner.materialized_set
        assert fresh_catalog.materialized_indexes()

    def test_histories_restored(self, small_catalog):
        import copy

        tuner = _trained_tuner(small_catalog)
        snapshot = snapshot_tuner(tuner)
        restored = restore_tuner(copy.deepcopy(small_catalog), snapshot)
        def windows(organizer, view):
            held = ((rec.index, getattr(rec, view)) for rec in organizer.records())
            return {key: h.values() for key, h in held if h is not None}

        assert windows(tuner.self_organizer, "low")
        for view in ("low", "high"):
            assert windows(tuner.self_organizer, view) == windows(
                restored.self_organizer, view
            )

    def test_restored_tuner_keeps_tuning_without_rebuilds(self, small_catalog):
        """After restore, a stable workload causes no immediate rebuild
        churn: the learned state carries over."""
        import copy

        tuner = _trained_tuner(small_catalog)
        snapshot = snapshot_tuner(tuner)
        restored = restore_tuner(copy.deepcopy(small_catalog), snapshot)
        rng = random.Random(1)
        build_cost = sum(
            restored.process_query(_eq_query(rng.randint(1, 10_000))).build_cost
            for _ in range(40)
        )
        assert build_cost == 0.0
        assert restored.materialized_set == tuner.materialized_set

    def test_budget_restored(self, small_catalog):
        import copy

        tuner = _trained_tuner(small_catalog)
        tuner.profiler.set_budget(7)
        snapshot = snapshot_tuner(tuner)
        restored = restore_tuner(copy.deepcopy(small_catalog), snapshot)
        assert restored.profiler.whatif_budget == 7


class TestCompositeRoundtrip:
    def test_composite_indexes_survive_snapshot(self, small_catalog):
        import copy

        from repro.core import ColtConfig, ColtTuner
        from repro.sql.ast import BetweenPredicate

        config = ColtConfig(
            storage_budget_pages=9000.0,
            composite_candidates=True,
            min_history_epochs=2,
        )
        tuner = ColtTuner(small_catalog, config)
        rng = random.Random(5)
        for _ in range(150):
            q = Query(
                tables=["events"],
                select=[SelectItem(expr=ColumnExpr("amount", "events"))],
                filters=[
                    ComparisonPredicate(
                        ColumnExpr("user_id", "events"),
                        CompareOp.EQ,
                        rng.randint(1, 10_000),
                    ),
                    BetweenPredicate(
                        ColumnExpr("day", "events"), 8000, 8000 + rng.randint(10, 60)
                    ),
                ],
            )
            tuner.process_query(q)
        if not any(ix.is_composite for ix in tuner.materialized_set):
            pytest.skip("run did not materialize a composite this seed")
        snapshot = snapshot_tuner(tuner)
        restored = restore_tuner(copy.deepcopy(small_catalog), snapshot)
        assert restored.materialized_set == tuner.materialized_set
        assert any(ix.is_composite for ix in restored.materialized_set)


class TestValidation:
    def test_version_check(self, small_catalog):
        with pytest.raises(SnapshotError):
            restore_tuner(small_catalog, {"version": 99})

    def test_unknown_table_rejected(self, small_catalog):
        tuner = _trained_tuner(small_catalog)
        snapshot = snapshot_tuner(tuner)
        snapshot["materialized"].append(["no_such_table", "x"])
        import copy

        with pytest.raises(SnapshotError):
            restore_tuner(copy.deepcopy(small_catalog), snapshot)

    def test_unknown_column_rejected(self, small_catalog):
        tuner = _trained_tuner(small_catalog)
        snapshot = snapshot_tuner(tuner)
        snapshot["hot"].append(["events", "no_such_column"])
        import copy

        with pytest.raises(SnapshotError):
            restore_tuner(copy.deepcopy(small_catalog), snapshot)


class TestRetiredConfigFields:
    """A stored ``config`` block may carry fields this version retired."""

    def test_snapshot_written_before_the_retirement_restores(self):
        from repro.persist import SNAPSHOT_VERSION
        from repro.workload import build_catalog

        stored = json.loads((DATA_DIR / "parent_snapshot.json").read_text())
        assert stored["version"] == SNAPSHOT_VERSION
        assert stored["config"]["knapsack_warm_start"] is True
        tuner = restore_tuner(build_catalog(), stored)
        assert tuner.config == ColtConfig()
        assert "knapsack_warm_start" not in snapshot_tuner(tuner)["config"]

    def test_any_other_unknown_field_still_fails(self, small_catalog):
        snapshot = snapshot_tuner(_trained_tuner(small_catalog))
        snapshot["config"]["no_such_field"] = 1
        import copy

        with pytest.raises(SnapshotError):
            restore_tuner(copy.deepcopy(small_catalog), snapshot)


class TestCrashSafety:
    def test_save_is_atomic_no_temp_left_behind(self, small_catalog, tmp_path):
        tuner = _trained_tuner(small_catalog)
        path = tmp_path / "state.json"
        save_json(path, snapshot_tuner(tuner))
        save_json(path, snapshot_tuner(tuner))  # overwrite in place
        assert [p.name for p in tmp_path.iterdir()] == ["state.json"]

    def test_envelope_carries_matching_checksum(self, small_catalog, tmp_path):
        tuner = _trained_tuner(small_catalog)
        snapshot = snapshot_tuner(tuner)
        path = tmp_path / "state.json"
        save_json(path, snapshot)
        envelope = json.loads(path.read_text())
        assert envelope["format"] == "colt-snapshot"
        assert envelope["checksum"] == checksum(snapshot)

    def test_truncated_file_raises_snapshot_error(self, small_catalog, tmp_path):
        tuner = _trained_tuner(small_catalog)
        path = tmp_path / "state.json"
        save_json(path, snapshot_tuner(tuner))
        FaultInjector().corrupt_file(path, mode="truncate")
        with pytest.raises(SnapshotError):
            load_json(path)

    def test_empty_file_raises_snapshot_error(self, small_catalog, tmp_path):
        path = tmp_path / "state.json"
        path.write_text("")
        with pytest.raises(SnapshotError):
            load_json(path)

    def test_bad_checksum_raises_snapshot_error(self, small_catalog, tmp_path):
        tuner = _trained_tuner(small_catalog)
        snapshot = snapshot_tuner(tuner)
        path = tmp_path / "state.json"
        save_json(path, snapshot)
        envelope = json.loads(path.read_text())
        envelope["snapshot"]["whatif_budget"] = 999  # silent payload edit
        path.write_text(json.dumps(envelope))
        with pytest.raises(SnapshotError, match="checksum"):
            load_json(path)

    def test_missing_file_raises_snapshot_error(self, tmp_path):
        with pytest.raises(SnapshotError):
            load_json(tmp_path / "nope.json")

    def test_non_object_json_raises_snapshot_error(self, tmp_path):
        path = tmp_path / "state.json"
        path.write_text("[1, 2, 3]")
        with pytest.raises(SnapshotError):
            load_json(path)

    def test_legacy_bare_snapshot_still_loads(self, small_catalog, tmp_path):
        import copy

        tuner = _trained_tuner(small_catalog)
        snapshot = snapshot_tuner(tuner)
        path = tmp_path / "legacy.json"
        path.write_text(json.dumps(snapshot))  # pre-envelope format
        restored = restore_tuner(copy.deepcopy(small_catalog), load_json(path))
        assert restored.materialized_set == tuner.materialized_set


class TestQuarantine:
    def test_corrupt_file_quarantined_and_none_returned(
        self, small_catalog, tmp_path
    ):
        tuner = _trained_tuner(small_catalog)
        path = tmp_path / "state.json"
        save_json(path, snapshot_tuner(tuner))
        FaultInjector().corrupt_file(path, mode="truncate")
        assert load_or_quarantine(path) is None
        assert not path.exists()
        assert (tmp_path / "state.json.corrupt").exists()

    def test_quarantine_names_do_not_collide(self, small_catalog, tmp_path):
        tuner = _trained_tuner(small_catalog)
        path = tmp_path / "state.json"
        for _ in range(2):
            save_json(path, snapshot_tuner(tuner))
            FaultInjector().corrupt_file(path, mode="truncate")
            assert load_or_quarantine(path) is None
        assert (tmp_path / "state.json.corrupt").exists()
        assert (tmp_path / "state.json.corrupt.1").exists()

    def test_healthy_file_loads_normally(self, small_catalog, tmp_path):
        tuner = _trained_tuner(small_catalog)
        snapshot = snapshot_tuner(tuner)
        path = tmp_path / "state.json"
        save_json(path, snapshot)
        assert load_or_quarantine(path) == snapshot
        assert path.exists()

    def test_missing_file_returns_none(self, tmp_path):
        assert load_or_quarantine(tmp_path / "nope.json") is None


class TestMalformedStructure:
    def test_missing_keys_raise_snapshot_error(self, small_catalog):
        with pytest.raises(SnapshotError):
            restore_tuner(small_catalog, {"version": 1})

    def test_non_dict_snapshot_rejected(self, small_catalog):
        with pytest.raises(SnapshotError):
            restore_tuner(small_catalog, ["not", "a", "dict"])

    def test_bad_config_keys_raise_snapshot_error(self, small_catalog):
        tuner = _trained_tuner(small_catalog)
        snapshot = snapshot_tuner(tuner)
        snapshot["config"]["no_such_option"] = True
        import copy

        with pytest.raises(SnapshotError):
            restore_tuner(copy.deepcopy(small_catalog), snapshot)

    def test_bad_history_values_raise_snapshot_error(self, small_catalog):
        tuner = _trained_tuner(small_catalog)
        snapshot = snapshot_tuner(tuner)
        snapshot["histories"]["low"] = "oops"
        import copy

        with pytest.raises(SnapshotError):
            restore_tuner(copy.deepcopy(small_catalog), snapshot)


class TestPhysicalRestore:
    def test_trees_rebuilt_through_store(self, small_store):
        catalog = small_store.catalog
        tuner = ColtTuner(
            catalog,
            ColtConfig(storage_budget_pages=5000.0, min_history_epochs=2),
            store=small_store,
        )
        rng = random.Random(2)
        for _ in range(80):
            tuner.process_query(_eq_query(rng.randint(1, 500)))
        if not tuner.materialized_set:
            pytest.skip("tuner did not materialize on this data")
        snapshot = snapshot_tuner(tuner)

        for ix in list(catalog.materialized_indexes()):
            small_store.drop_index(ix)
        restored = restore_tuner(catalog, snapshot, store=small_store)
        for index in restored.materialized_set:
            assert small_store.tree(index) is not None
