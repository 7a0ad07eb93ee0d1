"""Tests for adaptive forecast-window tuning (§6.2 future work)."""

import pytest

from repro.core.window_tuner import ForecastWindowTuner
from repro.engine.datatypes import DataType
from repro.engine.index import IndexDef


def _ix(name="c", table="t"):
    return IndexDef(table, name, DataType.INT)


class TestController:
    def test_starts_at_base(self):
        tuner = ForecastWindowTuner(base_window=12)
        assert tuner.window == 12

    def test_rejects_bad_base(self):
        with pytest.raises(ValueError):
            ForecastWindowTuner(base_window=0)

    def test_short_tenure_drop_grows_window(self):
        tuner = ForecastWindowTuner(base_window=12, short_tenure_epochs=4)
        ix = _ix()
        tuner.observe_epoch(materialized=[ix], dropped=[])
        tuner.observe_epoch(materialized=[], dropped=[ix])  # tenure 1 < 4
        assert tuner.window > 12
        assert tuner.short_tenure_drops == 1

    def test_long_tenure_drop_does_not_grow(self):
        tuner = ForecastWindowTuner(base_window=12, short_tenure_epochs=3)
        ix = _ix()
        tuner.observe_epoch(materialized=[ix], dropped=[])
        for _ in range(5):
            tuner.observe_epoch(materialized=[], dropped=[])
        tuner.observe_epoch(materialized=[], dropped=[ix])  # tenure 6 >= 3
        assert tuner.window == 12
        assert tuner.short_tenure_drops == 0

    def test_untracked_drop_ignored(self):
        tuner = ForecastWindowTuner(base_window=12)
        tuner.observe_epoch(materialized=[], dropped=[_ix()])
        assert tuner.window == 12

    def test_window_clamped_at_max(self):
        tuner = ForecastWindowTuner(base_window=10, max_factor=2.0)
        ix = _ix()
        for _ in range(20):
            tuner.observe_epoch(materialized=[ix], dropped=[])
            tuner.observe_epoch(materialized=[], dropped=[ix])
        assert tuner.window <= 20

    def test_window_relaxes_back_to_base(self):
        tuner = ForecastWindowTuner(base_window=8, growth=2.0)
        ix = _ix()
        tuner.observe_epoch(materialized=[ix], dropped=[])
        tuner.observe_epoch(materialized=[], dropped=[ix])
        grown = tuner.window
        assert grown > 8
        for _ in range(100):
            tuner.observe_epoch(materialized=[], dropped=[])
        assert tuner.window == 8

    def test_rebuild_resets_tenure_clock(self):
        tuner = ForecastWindowTuner(base_window=12, short_tenure_epochs=3)
        ix = _ix()
        tuner.observe_epoch(materialized=[ix], dropped=[])
        for _ in range(10):
            tuner.observe_epoch(materialized=[], dropped=[])
        # Drop + rebuild in the same epoch: old tenure is long (no growth),
        # and the new build re-registers the index.
        tuner.observe_epoch(materialized=[ix], dropped=[ix])
        assert tuner.short_tenure_drops == 0
        tuner.observe_epoch(materialized=[], dropped=[ix])  # now short
        assert tuner.short_tenure_drops == 1

    def test_lead_column_index_keeps_its_own_tenure(self, small_catalog):
        # A composite and the single-column index on its lead column are
        # two indexes: building the second must not restart the first's
        # tenure clock.
        tuner = ForecastWindowTuner(base_window=12)
        composite = small_catalog.composite_index_for("events", ["user_id", "day"])
        lead = small_catalog.index_for("events", "user_id")
        tuner.observe_epoch(materialized=[composite], dropped=[])  # epoch 0
        for _ in range(9):
            tuner.observe_epoch(materialized=[], dropped=[])
        tuner.observe_epoch(materialized=[lead], dropped=[])  # epoch 10
        tuner.observe_epoch(materialized=[], dropped=[composite])  # epoch 11
        assert tuner.short_tenure_drops == 0  # the composite lived 11 epochs
        assert tuner.window == 12


class TestIntegration:
    def test_colt_respects_flag(self, small_catalog):
        from repro.core import ColtConfig, ColtTuner

        config = ColtConfig(
            storage_budget_pages=5000.0, adaptive_forecast_window=True
        )
        tuner = ColtTuner(small_catalog, config)
        assert tuner.self_organizer._window_tuner is not None

        config_off = ColtConfig(storage_budget_pages=5000.0)
        tuner_off = ColtTuner(
            __import__("copy").deepcopy(small_catalog), config_off
        )
        assert tuner_off.self_organizer._window_tuner is None

    def test_adaptive_run_completes(self, small_catalog):
        import random

        from repro.core import ColtConfig, ColtTuner
        from repro.sql.ast import (
            ColumnExpr,
            CompareOp,
            ComparisonPredicate,
            Query,
            SelectItem,
        )

        config = ColtConfig(
            storage_budget_pages=5000.0,
            adaptive_forecast_window=True,
            min_history_epochs=2,
        )
        tuner = ColtTuner(small_catalog, config)
        rng = random.Random(0)
        for _ in range(80):
            q = Query(
                tables=["events"],
                select=[SelectItem(expr=ColumnExpr("amount", "events"))],
                filters=[
                    ComparisonPredicate(
                        ColumnExpr("user_id", "events"),
                        CompareOp.EQ,
                        rng.randint(1, 10_000),
                    )
                ],
            )
            tuner.process_query(q)
        assert tuner.materialized_set  # still tunes correctly
