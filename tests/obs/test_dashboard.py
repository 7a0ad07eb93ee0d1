"""Tests for the per-epoch overhead dashboard."""

import json
import time

import pytest

from repro.core import ColtTuner
from repro.engine.index import IndexDef
from repro.obs.dashboard import WINDOW_EPOCHS, OverheadDashboard, render_overhead_rows
from repro.workload import build_catalog


def _fill(dashboard, spends, granted=20, requested=20):
    for spent in spends:
        dashboard.record(
            requested=requested,
            granted=granted,
            spent=spent,
            ratio=1.0,
            build_cost=0.0,
            breaker_state="closed",
        )


class TestOverheadDashboard:
    def test_records_are_numbered(self):
        d = OverheadDashboard()
        _fill(d, [1, 2, 3])
        assert [r.epoch for r in d.records] == [0, 1, 2]

    def test_within_budget_invariant(self):
        d = OverheadDashboard()
        _fill(d, [5, 20])
        assert d.within_budget
        d.record(
            requested=20,
            granted=10,
            spent=11,
            ratio=1.0,
            build_cost=0.0,
            breaker_state="closed",
        )
        assert not d.within_budget

    def test_total_spent(self):
        d = OverheadDashboard()
        _fill(d, [3, 4, 5])
        assert d.total_spent == 12

    def test_spend_fraction_tail_window(self):
        d = OverheadDashboard()
        _fill(d, [20] * 5 + [0] * 5)
        assert d.spend_fraction(tail=5) == pytest.approx(0.0)
        assert d.spend_fraction(tail=10) == pytest.approx(0.5)

    def test_spend_fraction_empty_is_one(self):
        assert OverheadDashboard().spend_fraction() == 1.0

    def test_zero_requested_counts_as_zero_fraction(self):
        d = OverheadDashboard()
        _fill(d, [0], granted=0, requested=0)
        assert d.spend_fraction() == 0.0

    def test_to_rows_roundtrips_fields(self):
        d = OverheadDashboard()
        _fill(d, [7])
        (row,) = d.to_rows()
        assert row["spent"] == 7
        assert row["breaker_state"] == "closed"

    def test_render_mentions_budget_compliance(self):
        d = OverheadDashboard()
        _fill(d, [5])
        assert "within budget: yes" in d.render()

    def test_render_empty(self):
        assert OverheadDashboard().render() == "(no epochs recorded)"


class TestBoundedWindow:
    """Rows are kept for the newest epochs only; the totals cover them all."""

    def test_window_covers_every_test_and_figure_run(self):
        assert WINDOW_EPOCHS >= 4096

    def test_totals_stay_exact_past_the_window(self):
        d = OverheadDashboard()
        spends = [i % 7 for i in range(10_000)]
        _fill(d, spends)
        assert d.epochs == 10_000
        assert d.total_spent == sum(spends)
        assert d.within_budget
        assert len(d.records) == len(d.to_rows()) == WINDOW_EPOCHS
        assert [r.epoch for r in d.records] == list(range(10_000 - WINDOW_EPOCHS, 10_000))
        assert d.to_rows()[-1] == {
            "epoch": 9_999,
            "requested": 20,
            "granted": 20,
            "spent": spends[-1],
            "ratio": 1.0,
            "build_cost": 0.0,
            "breaker_state": "closed",
        }
        assert f"the last {WINDOW_EPOCHS} of 10000 epochs" in d.render()

    def test_an_overspend_is_remembered_after_its_row_is_gone(self):
        d = OverheadDashboard()
        _fill(d, [21])  # granted 20
        _fill(d, [0] * (WINDOW_EPOCHS + 1))
        assert all(r.within_budget for r in d.records)
        assert not d.within_budget
        assert "within budget: NO" in d.render()

    def test_snapshot_stops_growing_with_the_tuners_age(self):
        tuner = ColtTuner(build_catalog())

        def snapshot_after(epochs):
            _fill(tuner.dashboard, [3] * (epochs - tuner.dashboard.epochs))
            best = float("inf")
            for _ in range(3):
                started = time.perf_counter()
                snapshot = tuner.metrics_snapshot()
                best = min(best, time.perf_counter() - started)
            return len(snapshot["overhead"]), len(json.dumps(snapshot)), best

        rows_mid, size_mid, time_mid = snapshot_after(5_000)
        rows_end, size_end, time_end = snapshot_after(10_000)
        assert rows_mid == rows_end == WINDOW_EPOCHS
        assert size_end <= size_mid * 1.01  # epoch numbers gain a digit
        assert time_end <= 2.0 * time_mid + 0.005  # same rows: same work
        assert tuner.dashboard.epochs == 10_000
        assert tuner.dashboard.total_spent == 30_000


class TestRowsStaySmall:
    """A close logs references; unchanged ``M`` / ``H`` share one tuple."""

    def test_unchanged_sets_reuse_the_previous_rows_tuple(self):
        from repro.workload import stable_workload
        from repro.workload.experiments import stable_distribution

        catalog = build_catalog()
        tuner = ColtTuner(catalog)
        tuner.run(stable_workload(stable_distribution(), 300, catalog, seed=3).queries)
        rows = list(tuner.dashboard.records)
        shared_m = shared_h = 0
        for before, after in zip(rows, rows[1:]):
            if set(after.materialized) == set(before.materialized):
                assert after.materialized is before.materialized
                shared_m += 1
            if after.hot == before.hot:
                assert after.hot is before.hot
                shared_h += 1
        assert shared_m and shared_h
        held = [ix for row in rows for ix in (*row.materialized, *row.added, *row.hot)]
        assert held and all(isinstance(ix, IndexDef) for ix in held)

    def test_overhead_rows_keep_their_seven_columns(self):
        d = OverheadDashboard()
        d.record(20, 20, 3, 1.2, 0.0, "closed", next_granted=9, hot=["x"])
        assert list(d.to_rows()[0]) == [
            "epoch", "requested", "granted", "spent", "ratio", "build_cost",
            "breaker_state",
        ]
        assert d.records[0].hot == ("x",) and d.records[0].next_granted == 9


class TestRenderOverheadRows:
    def test_replica_column_appears_for_fleet_rows(self):
        d = OverheadDashboard()
        _fill(d, [5])
        rows = d.to_rows()
        rows[0]["replica"] = 2
        text = render_overhead_rows(rows)
        assert "repl" in text.splitlines()[0]
        assert text.splitlines()[1].lstrip().startswith("2")

    def test_plain_rows_have_no_replica_column(self):
        d = OverheadDashboard()
        _fill(d, [5])
        assert "repl " not in render_overhead_rows(d.to_rows())
