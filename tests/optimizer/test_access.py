"""Unit tests for access path selection."""

import pytest

from repro.optimizer.access import (
    best_access_path,
    crude_index_delta_cost,
    parameterized_index_path,
    seq_scan_path,
    _extract_sargable,
)
from repro.optimizer.plan import IndexScanNode, SeqScanNode
from repro.sql.ast import (
    BetweenPredicate,
    ColumnExpr,
    CompareOp,
    ComparisonPredicate,
    InPredicate,
)


def _col(column, table="events"):
    return ColumnExpr(column, table)


def _eq(column, value, table="events"):
    return ComparisonPredicate(_col(column, table), CompareOp.EQ, value)


class TestSargable:
    def test_eq_preferred(self):
        preds = [
            _eq("user_id", 5),
            BetweenPredicate(_col("user_id"), 0, 100),
        ]
        sarg = _extract_sargable("user_id", preds)
        assert sarg.lookup_value == 5
        assert sarg.num_lookups == 1

    def test_in_over_range(self):
        preds = [
            InPredicate(_col("user_id"), (1, 2)),
            BetweenPredicate(_col("user_id"), 0, 100),
        ]
        sarg = _extract_sargable("user_id", preds)
        assert sarg.in_values == (1, 2)
        assert sarg.num_lookups == 2

    def test_range_bounds_tightened(self):
        preds = [
            ComparisonPredicate(_col("user_id"), CompareOp.GE, 10),
            ComparisonPredicate(_col("user_id"), CompareOp.GT, 20),
            ComparisonPredicate(_col("user_id"), CompareOp.LE, 90),
        ]
        sarg = _extract_sargable("user_id", preds)
        assert sarg.range_low == 20
        assert not sarg.low_inclusive
        assert sarg.range_high == 90
        assert sarg.high_inclusive

    def test_between_contributes_bounds(self):
        sarg = _extract_sargable(
            "user_id", [BetweenPredicate(_col("user_id"), 5, 15)]
        )
        assert (sarg.range_low, sarg.range_high) == (5, 15)

    def test_irrelevant_column(self):
        assert _extract_sargable("amount", [_eq("user_id", 5)]) is None

    def test_ne_not_sargable(self):
        preds = [ComparisonPredicate(_col("user_id"), CompareOp.NE, 5)]
        assert _extract_sargable("user_id", preds) is None


class TestPathChoice:
    def test_seq_scan_cost_components(self, small_catalog):
        path = seq_scan_path(small_catalog, "events", [])
        assert isinstance(path, SeqScanNode)
        assert path.rows == pytest.approx(1_000_000)
        assert path.cost > 0

    def test_selective_eq_prefers_index(self, small_catalog):
        index = small_catalog.index_for("events", "user_id")
        pred = _eq("user_id", 5)
        path = best_access_path(
            small_catalog, "events", [pred], frozenset([index])
        )
        assert isinstance(path, IndexScanNode)
        assert path.index == index

    def test_unselective_range_prefers_seq(self, small_catalog):
        index = small_catalog.index_for("events", "amount")
        pred = BetweenPredicate(_col("amount"), 0.0, 900.0)
        path = best_access_path(
            small_catalog, "events", [pred], frozenset([index])
        )
        assert isinstance(path, SeqScanNode)

    def test_no_config_means_seq(self, small_catalog):
        path = best_access_path(
            small_catalog, "events", [_eq("user_id", 5)], frozenset()
        )
        assert isinstance(path, SeqScanNode)

    def test_correlated_range_prefers_index(self, small_catalog):
        # 'day' is declared 0.9-correlated: a 1% range scan should win.
        index = small_catalog.index_for("events", "day")
        pred = BetweenPredicate(_col("day"), 8000, 8019)
        path = best_access_path(
            small_catalog, "events", [pred], frozenset([index])
        )
        assert isinstance(path, IndexScanNode)

    def test_residual_filters_kept(self, small_catalog):
        index = small_catalog.index_for("events", "user_id")
        other = BetweenPredicate(_col("amount"), 0.0, 10.0)
        path = best_access_path(
            small_catalog, "events", [_eq("user_id", 5), other], frozenset([index])
        )
        assert isinstance(path, IndexScanNode)
        assert other in path.residual

    def test_index_on_other_table_ignored(self, small_catalog):
        index = small_catalog.index_for("users", "user_id")
        path = best_access_path(
            small_catalog, "events", [_eq("user_id", 5)], frozenset([index])
        )
        assert isinstance(path, SeqScanNode)

    def test_rows_estimate_uses_all_filters(self, small_catalog):
        index = small_catalog.index_for("events", "user_id")
        path = best_access_path(
            small_catalog,
            "events",
            [_eq("user_id", 5), BetweenPredicate(_col("amount"), 0.0, 10.0)],
            frozenset([index]),
        )
        # eq 1e-4 * range 1e-2 over 1M rows ≈ 1
        assert isinstance(path, IndexScanNode)
        assert path.rows == pytest.approx(1.0, abs=2.0)


class TestParameterized:
    def test_parameterized_path(self, small_catalog):
        index = small_catalog.index_for("users", "user_id")
        path = parameterized_index_path(
            small_catalog,
            "users",
            [],
            "user_id",
            _col("user_id", "events"),
            frozenset([index]),
        )
        assert path is not None
        assert path.parameterized_by == _col("user_id", "events")
        # Per-lookup output: 10k rows / 10k distinct = 1 row.
        assert path.rows == pytest.approx(1.0, abs=0.1)

    def test_no_index_no_path(self, small_catalog):
        assert (
            parameterized_index_path(
                small_catalog, "users", [], "user_id", _col("user_id", "events"), frozenset()
            )
            is None
        )


class TestCrudeDelta:
    def test_positive_for_selective(self, small_catalog):
        index = small_catalog.index_for("events", "user_id")
        gain = crude_index_delta_cost(small_catalog, index, [_eq("user_id", 5)])
        assert gain > 0

    def test_zero_for_inapplicable(self, small_catalog):
        index = small_catalog.index_for("events", "user_id")
        pred = BetweenPredicate(_col("amount"), 0.0, 10.0)
        assert crude_index_delta_cost(small_catalog, index, [pred]) == 0.0

    def test_zero_when_index_loses(self, small_catalog):
        index = small_catalog.index_for("events", "amount")
        pred = BetweenPredicate(_col("amount"), 0.0, 900.0)
        assert crude_index_delta_cost(small_catalog, index, [pred]) == 0.0

    def test_never_negative(self, small_catalog):
        index = small_catalog.index_for("events", "amount")
        for width in (0.1, 1.0, 10.0, 100.0, 1000.0):
            pred = BetweenPredicate(_col("amount"), 0.0, width)
            assert crude_index_delta_cost(small_catalog, index, [pred]) >= 0.0
