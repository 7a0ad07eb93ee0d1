"""Unit tests for the system catalog."""

import pytest

from repro.engine.catalog import Catalog, ColumnDef, ColumnRef, TableDef
from repro.engine.datatypes import DataType
from repro.engine.stats import ColumnStats
from repro.optimizer.optimizer import Optimizer


def _table(name="t", rows=1000.0):
    return TableDef(
        name,
        [ColumnDef("a", DataType.INT), ColumnDef("b", DataType.TEXT, indexable=False)],
        row_count=rows,
    )


class TestTables:
    def test_add_and_lookup(self):
        catalog = Catalog()
        catalog.add_table(_table())
        assert catalog.has_table("t")
        assert catalog.table("t").row_count == 1000.0

    def test_duplicate_table_rejected(self):
        catalog = Catalog()
        catalog.add_table(_table())
        with pytest.raises(ValueError):
            catalog.add_table(_table())

    def test_duplicate_column_rejected(self):
        with pytest.raises(ValueError):
            TableDef("x", [ColumnDef("a", DataType.INT), ColumnDef("a", DataType.INT)])

    def test_unknown_table(self):
        with pytest.raises(KeyError):
            Catalog().table("missing")

    def test_row_width(self):
        table = _table()
        assert table.row_width == DataType.INT.width + DataType.TEXT.width

    def test_indexable_columns_respects_flag(self):
        catalog = Catalog()
        catalog.add_table(_table())
        refs = catalog.indexable_columns()
        assert ColumnRef("t", "a") in refs
        assert ColumnRef("t", "b") not in refs


class TestStats:
    def test_declared_stats_roundtrip(self):
        catalog = Catalog()
        catalog.add_table(_table())
        stats = ColumnStats(n_distinct=10, min_value=0, max_value=9)
        catalog.set_stats("t", "a", stats)
        assert catalog.stats("t", "a") is stats

    def test_default_stats_fallback(self):
        catalog = Catalog()
        catalog.add_table(_table())
        stats = catalog.stats("t", "a")
        assert stats.n_distinct > 0

    def test_set_stats_validates_column(self):
        catalog = Catalog()
        catalog.add_table(_table())
        with pytest.raises(KeyError):
            catalog.set_stats("t", "zzz", ColumnStats(1, 0, 0))

    def test_analyze_table(self):
        catalog = Catalog()
        catalog.add_table(_table())
        catalog.analyze_table("t", {"a": [1, 1, 2, 3]})
        assert catalog.stats("t", "a").n_distinct == 3


class TestIndexes:
    def test_index_for(self):
        catalog = Catalog()
        catalog.add_table(_table())
        index = catalog.index_for("t", "a")
        assert index.name == "ix_t_a"
        assert index.dtype is DataType.INT

    def test_materialize_and_drop(self):
        catalog = Catalog()
        catalog.add_table(_table())
        index = catalog.index_for("t", "a")
        assert not catalog.is_materialized(index)
        catalog.materialize_index(index)
        assert catalog.is_materialized(index)
        assert catalog.materialized_indexes() == [index]
        catalog.drop_index(index)
        assert not catalog.is_materialized(index)
        catalog.drop_index(index)  # idempotent

    def test_materialized_by_table(self):
        catalog = Catalog()
        catalog.add_table(_table("t1"))
        catalog.add_table(_table("t2"))
        ix1 = catalog.index_for("t1", "a")
        ix2 = catalog.index_for("t2", "a")
        catalog.materialize_index(ix1)
        catalog.materialize_index(ix2)
        assert catalog.materialized_indexes("t1") == [ix1]

    def test_sizes_scale_with_rows(self):
        catalog = Catalog()
        catalog.add_table(_table("small", rows=1000))
        catalog.add_table(_table("big", rows=1_000_000))
        assert catalog.index_size_pages(
            catalog.index_for("big", "a")
        ) > catalog.index_size_pages(catalog.index_for("small", "a"))

    def test_build_cost_positive_and_monotone(self):
        catalog = Catalog()
        catalog.add_table(_table("small", rows=1000))
        catalog.add_table(_table("big", rows=1_000_000))
        small = catalog.index_build_cost(catalog.index_for("small", "a"))
        big = catalog.index_build_cost(catalog.index_for("big", "a"))
        assert 0 < small < big

    def test_materialized_size_total(self):
        catalog = Catalog()
        catalog.add_table(_table())
        assert catalog.materialized_size_pages() == 0.0
        catalog.materialize_index(catalog.index_for("t", "a"))
        assert catalog.materialized_size_pages() > 0.0


class TestCounters:
    """What each mutation moves: ``generation`` follows the materialized
    set alone, ``column_stats_version`` the column statistics alone, and
    ``stats_version`` both those and the row count."""

    def _catalog(self):
        catalog = Catalog()
        catalog.add_table(_table())
        catalog.set_stats("t", "a", ColumnStats(n_distinct=10, min_value=0, max_value=9))
        return catalog

    def test_generation_and_current_config_survive_row_and_stats_moves(self):
        catalog = self._catalog()
        optimizer = Optimizer(catalog)
        generation, config = catalog.generation, optimizer.current_config()
        catalog.apply_row_delta("t", 50)
        catalog.set_row_count("t", 7)
        catalog.set_stats("t", "a", ColumnStats(n_distinct=3, min_value=0, max_value=2))
        catalog.bump_stats_version("t")
        assert catalog.generation == generation
        assert optimizer.current_config() is config
        index = catalog.index_for("t", "a")
        catalog.materialize_index(index)
        assert catalog.generation > generation
        built = optimizer.current_config()
        assert built is not config and built == {index}
        generation = catalog.generation
        catalog.drop_index(index)
        assert catalog.generation > generation
        assert optimizer.current_config() == frozenset()
        generation = catalog.generation
        catalog.drop_index(index)  # absent: nothing moved
        assert catalog.generation == generation

    def test_materialization_leaves_the_statistics_versions(self):
        catalog = self._catalog()
        catalog.add_table(_table("u"))
        counters = lambda: [
            (catalog.stats_token(t), catalog.column_stats_version(t)) for t in ("t", "u")
        ]
        before = counters()
        index = catalog.index_for("t", "a")
        catalog.materialize_index(index)
        catalog.materialize_index(catalog.index_for("u", "a"))
        catalog.drop_index(index)
        catalog.drop_index(index)  # absent: a no-op
        assert counters() == before

    @pytest.mark.parametrize(
        "move",
        [
            lambda c: c.apply_row_delta("t", 1000),
            # Truncate-refill: the row count round-trips, the version does not.
            lambda c: (c.apply_row_delta("t", 1000), c.apply_row_delta("t", -1000)),
            lambda c: c.set_row_count("t", 1000),  # the same count
            lambda c: c.bump_stats_version("t"),
            lambda c: c.set_stats("t", "a", c.stats("t", "a")),
        ],
        ids=["row_delta", "delta_and_back", "same_row_count", "bump", "set_stats"],
    )
    def test_every_statistics_move_changes_the_token_of_its_table_alone(self, move):
        catalog = self._catalog()
        catalog.add_table(_table("u"))
        before = catalog.stats_token("t"), catalog.stats_token("u")
        move(catalog)
        assert catalog.stats_token("t") != before[0]
        assert catalog.stats_token("u") == before[1]

    def test_row_moves_leave_the_column_statistics_version(self):
        catalog = self._catalog()
        columns, version = catalog.column_stats_version("t"), catalog.stats_version("t")
        catalog.apply_row_delta("t", 50)
        catalog.set_row_count("t", 7)
        assert catalog.column_stats_version("t") == columns
        assert catalog.stats_version("t") == version + 2
        catalog.set_stats("t", "a", catalog.stats("t", "a"))
        assert catalog.column_stats_version("t") == columns + 1
        assert catalog.stats_version("t") == version + 3
        assert catalog.bump_stats_version("t") == version + 4
        assert catalog.column_stats_version("t") == columns + 2

    def test_a_zero_delta_moves_nothing(self):
        catalog = self._catalog()
        token = catalog.stats_token("t")
        assert catalog.apply_row_delta("t", 0) == token[0]
        assert catalog.apply_row_delta("t", -0.0) == token[0]
        assert catalog.stats_token("t") == token

    def test_a_delta_below_zero_rows_is_refused_whole(self):
        catalog = self._catalog()
        assert catalog.apply_row_delta("t", -400) == 600.0  # in range: legal
        token = catalog.stats_token("t")
        with pytest.raises(ValueError):
            catalog.apply_row_delta("t", -600.5)
        assert catalog.stats_token("t") == token
        assert catalog.apply_row_delta("t", -600) == 0.0

    def test_a_negative_row_count_is_refused_whole(self):
        catalog = self._catalog()
        token = catalog.stats_token("t")
        with pytest.raises(ValueError):
            catalog.set_row_count("t", -1)
        assert catalog.stats_token("t") == token
        catalog.set_row_count("t", 0)
        assert catalog.stats_token("t") == (0.0, token[1] + 1)

    def test_has_stats_tells_installed_from_fallback(self):
        catalog = self._catalog()
        assert catalog.has_stats("t", "a")
        assert not catalog.has_stats("t", "b")
