"""Tests for bandit snapshot/restore and engine-dispatch persistence."""

import json
import math
import random

import pytest

from repro.bandit import BanditTuner
from repro.bandit.linucb import RidgeModel
from repro.bandit.persist import (
    ENGINE,
    restore_bandit_tuner,
    snapshot_bandit_tuner,
)
from repro.core import ColtConfig, ColtTuner
from repro.persist import (
    SnapshotError,
    load_json,
    restore_any,
    save_json,
    snapshot_any,
    snapshot_tuner,
)
from repro.sql.ast import (
    ColumnExpr,
    CompareOp,
    ComparisonPredicate,
    Query,
    SelectItem,
)

from tests.fleet.workloads import build_small_catalog


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


def _trained_bandit(catalog, queries=40):
    tuner = BanditTuner(catalog, ColtConfig(epoch_length=5, storage_budget_pages=5000.0))
    rng = random.Random(0)
    for _ in range(queries):
        tuner.process_query(_eq_query(rng.randint(1, 10_000)))
    return tuner


class TestRoundtrip:
    def test_snapshot_is_json_serializable(self, small_catalog, tmp_path):
        tuner = _trained_bandit(small_catalog)
        snap = snapshot_bandit_tuner(tuner)
        assert snap["engine"] == ENGINE
        assert json.loads(json.dumps(snap)) == snap
        save_json(tmp_path / "b.json", snap)
        assert load_json(tmp_path / "b.json") == snap

    def test_learned_state_restored(self, small_catalog):
        tuner = _trained_bandit(small_catalog)
        snap = snapshot_bandit_tuner(tuner)
        restored = restore_bandit_tuner(build_small_catalog(), snap)
        assert [str(ix) for ix in restored.materialized_set] == [
            str(ix) for ix in tuner.materialized_set
        ]
        assert [str(ix) for ix in restored.hot_set] == [
            str(ix) for ix in tuner.hot_set
        ]
        assert restored.model.v == tuner.model.v
        assert restored.model.b == tuner.model.b
        assert restored.epochs_closed == tuner.epochs_closed
        assert restored.config == tuner.config
        assert restored.features.to_snapshot() == tuner.features.to_snapshot()

    def test_restored_tuner_keeps_tuning(self, small_catalog):
        tuner = _trained_bandit(small_catalog)
        snap = snapshot_bandit_tuner(tuner)
        restored = restore_bandit_tuner(build_small_catalog(), snap)
        rng = random.Random(1)
        outcomes = restored.run(
            [_eq_query(rng.randint(1, 10_000)) for _ in range(10)]
        )
        assert len(outcomes) == 10
        assert restored.epochs_closed == tuner.epochs_closed + 2

    def test_safety_state_round_trips(self, small_catalog):
        from repro.engine.datatypes import DataType
        from repro.engine.index import IndexDef

        tuner = _trained_bandit(small_catalog)
        ix = IndexDef("events", "user_id", DataType.INT)
        tuner.safety.bans[ix] = 3
        tuner.safety.watch = ([ix], 42.0)
        snap = snapshot_bandit_tuner(tuner)
        restored = restore_bandit_tuner(build_small_catalog(), snap)
        assert ix in restored.safety.bans
        assert restored.safety.bans[ix] == 3
        watched, baseline = restored.safety.watch
        assert baseline == 42.0
        assert [str(w) for w in watched] == [str(ix)]


class TestEngineDispatch:
    def test_snapshot_any_tags_bandit(self, small_catalog):
        snap = snapshot_any(_trained_bandit(small_catalog))
        assert snap["engine"] == "bandit"

    def test_snapshot_any_matches_colt_snapshot(self, small_catalog):
        tuner = ColtTuner(small_catalog, ColtConfig())
        assert snapshot_any(tuner) == snapshot_tuner(tuner)

    def test_restore_any_returns_bandit_tuner(self, small_catalog):
        snap = snapshot_any(_trained_bandit(small_catalog))
        restored = restore_any(build_small_catalog(), snap)
        assert isinstance(restored, BanditTuner)

    def test_restore_any_defaults_to_colt(self, small_catalog):
        # Pre-bandit snapshots carry no engine key: they are COLT's.
        tuner = ColtTuner(small_catalog, ColtConfig())
        snap = snapshot_tuner(tuner)
        assert "engine" not in snap or snap["engine"] == "colt"
        restored = restore_any(build_small_catalog(), snap)
        assert isinstance(restored, ColtTuner)

    def test_restore_any_rejects_unknown_engine(self, small_catalog):
        snap = snapshot_any(_trained_bandit(small_catalog))
        snap["engine"] = "quantum"
        with pytest.raises(SnapshotError, match="engine"):
            restore_any(build_small_catalog(), snap)

    def test_restore_any_asserts_requested_engine(self, small_catalog):
        bandit_snap = snapshot_any(_trained_bandit(small_catalog))
        colt_snap = snapshot_any(ColtTuner(small_catalog, ColtConfig()))
        with pytest.raises(SnapshotError, match="engine mismatch"):
            restore_any(build_small_catalog(), bandit_snap, engine="colt")
        with pytest.raises(SnapshotError, match="engine mismatch"):
            restore_any(build_small_catalog(), colt_snap, engine="bandit")
        # Matching assertions restore normally.
        assert isinstance(
            restore_any(build_small_catalog(), bandit_snap, engine="bandit"),
            BanditTuner,
        )
        assert isinstance(
            restore_any(build_small_catalog(), colt_snap, engine="colt"),
            ColtTuner,
        )

    def test_colt_restore_rejects_bandit_snapshot(self, small_catalog):
        from repro.persist import restore_tuner

        snap = snapshot_any(_trained_bandit(small_catalog))
        with pytest.raises(SnapshotError, match="engine mismatch"):
            restore_tuner(build_small_catalog(), snap)


# Models that are not a ridge model's.  Each restored cleanly before V was
# factored at restore: the NaN made every UCB NaN (the knapsack never
# selected an arm again, with no error anywhere), the zero V raised at
# every later close, the asymmetric V was accepted as it stood.
def _nan_v(model):
    model["v"][2][3] = model["v"][3][2] = math.nan


def _zero_v(model):
    model["forgetting"] = 1.0  # decay never re-anchors V at the prior
    model["v"] = [[0.0] * len(row) for row in model["v"]]


def _asymmetric_v(model):
    model["v"][0][4] += 1.0


def _infinite_b(model):
    model["b"][1] = math.inf


class TestValidation:
    def test_colt_snapshot_rejected(self, small_catalog):
        snap = snapshot_tuner(ColtTuner(small_catalog, ColtConfig()))
        with pytest.raises(SnapshotError, match="engine"):
            restore_bandit_tuner(build_small_catalog(), snap)

    def test_version_skew_rejected(self, small_catalog):
        snap = snapshot_bandit_tuner(_trained_bandit(small_catalog))
        snap["version"] = 999
        with pytest.raises(SnapshotError, match="version"):
            restore_bandit_tuner(build_small_catalog(), snap)

    def test_non_dict_rejected(self):
        with pytest.raises(SnapshotError):
            restore_bandit_tuner(build_small_catalog(), ["not", "a", "dict"])

    def test_model_dimension_mismatch_rejected(self, small_catalog):
        snap = snapshot_bandit_tuner(_trained_bandit(small_catalog))
        snap["model"] = RidgeModel(3).to_snapshot()
        with pytest.raises(SnapshotError, match="dimension"):
            restore_bandit_tuner(build_small_catalog(), snap)

    def test_unknown_table_rejected(self, small_catalog):
        snap = snapshot_bandit_tuner(_trained_bandit(small_catalog))
        snap["materialized"] = [["no_such_table", ["x"]]]
        with pytest.raises(SnapshotError):
            restore_bandit_tuner(build_small_catalog(), snap)

    def test_malformed_structure_is_snapshot_error(self, small_catalog):
        snap = snapshot_bandit_tuner(_trained_bandit(small_catalog))
        del snap["model"]
        with pytest.raises(SnapshotError, match="malformed"):
            restore_bandit_tuner(build_small_catalog(), snap)

    @pytest.mark.parametrize(
        "corrupt, message",
        [
            (_nan_v, "finite"),
            (_zero_v, "positive definite"),
            (_asymmetric_v, "symmetric"),
            (_infinite_b, "finite"),
        ],
    )
    @pytest.mark.parametrize("restore", [restore_bandit_tuner, restore_any])
    def test_model_that_cannot_be_a_ridge_model_rejected(
        self, small_catalog, restore, corrupt, message
    ):
        snap = snapshot_bandit_tuner(_trained_bandit(small_catalog))
        corrupt(snap["model"])
        with pytest.raises(SnapshotError, match=message):
            restore(build_small_catalog(), snap)
