"""Tests for the materialized-view extension."""

import pytest

from repro.backend.base import Backend
from repro.backend.local import LocalBackend
from repro.engine.matview import (
    ViewDef,
    matching_view,
    view_gain,
    view_row_count,
    view_size_pages,
)
from repro.executor import execute
from repro.optimizer.optimizer import Optimizer, PlanCache
from repro.optimizer.plan import SeqScanNode, ViewScanNode
from repro.sql.binder import bind_query
from repro.sql.parser import parse_query


def _view(low=8000, high=8499, name="v_early_days"):
    return ViewDef(name=name, table="events", column="day", low=low, high=high)


def _q(catalog, sql):
    return bind_query(parse_query(sql), catalog)


class TestMatching:
    def test_contained_range_matches(self, small_catalog):
        view = _view()
        q = _q(small_catalog, "select amount from events where day between 8100 and 8200")
        assert matching_view(small_catalog, "events", q.filters, [view]) is view

    def test_overlapping_but_not_contained_rejected(self, small_catalog):
        view = _view()
        q = _q(small_catalog, "select amount from events where day between 8400 and 8600")
        assert matching_view(small_catalog, "events", q.filters, [view]) is None

    def test_eq_predicate_matches(self, small_catalog):
        view = _view()
        q = _q(small_catalog, "select amount from events where day = 8250")
        assert matching_view(small_catalog, "events", q.filters, [view]) is view

    def test_other_column_rejected(self, small_catalog):
        view = _view()
        q = _q(small_catalog, "select amount from events where user_id = 5")
        assert matching_view(small_catalog, "events", q.filters, [view]) is None

    def test_smallest_matching_view_preferred(self, small_catalog):
        wide = _view(8000, 9999, name="v_wide")
        narrow = _view(8000, 8499, name="v_narrow")
        q = _q(small_catalog, "select amount from events where day between 8100 and 8200")
        assert (
            matching_view(small_catalog, "events", q.filters, [wide, narrow])
            is narrow
        )

    def test_size_estimates(self, small_catalog):
        view = _view()  # 500 of 2000 days → about a quarter of the rows
        rows = view_row_count(small_catalog, view)
        assert 0.15 * 1_000_000 < rows < 0.35 * 1_000_000
        assert view_size_pages(small_catalog, view) > 0


class TestOptimizerIntegration:
    def test_view_scan_chosen_when_cheaper(self, small_catalog):
        small_catalog.materialize_view(_view())
        q = _q(small_catalog, "select amount from events where day between 8100 and 8110")
        plan = Optimizer(small_catalog).optimize(q, config=frozenset()).plan
        assert any(isinstance(n, ViewScanNode) for n in _walk(plan))

    def test_seq_scan_without_views(self, small_catalog):
        q = _q(small_catalog, "select amount from events where day between 8100 and 8110")
        plan = Optimizer(small_catalog).optimize(q, config=frozenset()).plan
        assert any(isinstance(n, SeqScanNode) for n in _walk(plan))

    def test_index_still_beats_view_for_point_queries(self, small_catalog):
        small_catalog.materialize_view(_view())
        index = small_catalog.index_for("events", "day")
        q = _q(small_catalog, "select amount from events where day = 8100")
        plan = Optimizer(small_catalog).optimize(q, config=frozenset([index])).plan
        from repro.optimizer.plan import IndexScanNode

        assert any(isinstance(n, IndexScanNode) for n in _walk(plan))

    def test_duplicate_view_name_rejected(self, small_catalog):
        small_catalog.materialize_view(_view())
        with pytest.raises(ValueError):
            small_catalog.materialize_view(_view(low=0, high=1))
        # Re-registering the identical view is fine (idempotent).
        small_catalog.materialize_view(_view())

    def test_view_gain_positive_and_restores_catalog(self, small_catalog):
        optimizer = Optimizer(small_catalog)
        queries = [
            _q(small_catalog, "select amount from events where day between 8100 and 8150"),
            _q(small_catalog, "select amount from events where day between 8200 and 8220"),
        ]
        gain = view_gain(optimizer, _view(), queries)
        assert gain > 0
        assert small_catalog.materialized_views() == []


class TestViewsMoveTheStatsToken:
    """A view changes how queries over its table are priced, so every
    key validated by ``stats_token`` must stop matching (regression: the
    calls used to bump only the catalog-wide generation)."""

    SQL = "select amount from events where day between 8100 and 8110"

    def test_both_calls_bump_the_stats_version(self, small_catalog):
        backend = LocalBackend(small_catalog)
        other = backend.stats_token("users")
        seen = [backend.stats_token("events")]
        small_catalog.materialize_view(_view())
        seen.append(backend.stats_token("events"))
        small_catalog.materialize_view(_view())  # already registered: a no-op
        small_catalog.drop_view(_view())
        seen.append(backend.stats_token("events"))
        small_catalog.drop_view(_view())  # absent: nothing changed
        assert backend.stats_token("events") == seen[-1]
        assert len(set(seen)) == 3
        assert backend.stats_token("users") == other

    def test_registering_an_equal_view_again_keeps_the_retained_cache(
        self, small_catalog
    ):
        backend = LocalBackend(small_catalog)
        q = _q(small_catalog, self.SQL)
        small_catalog.materialize_view(_view())
        for _ in range(2):
            held = backend.begin_query(q).cache
        token = backend.stats_token("events")
        small_catalog.materialize_view(_view())
        assert backend.stats_token("events") == token
        assert backend.begin_query(q).cache is held
        with pytest.raises(ValueError):
            small_catalog.materialize_view(_view(high=8600))

    def test_retained_plan_cache_sees_the_view(self, small_catalog):
        backend = LocalBackend(small_catalog)
        q = _q(small_catalog, self.SQL)
        for _ in range(3):
            before = backend.begin_query(q).base.cost
        small_catalog.materialize_view(_view())
        after = backend.begin_query(q)
        assert after.base.cost == Backend.begin_query(backend, q).base.cost
        assert after.base.cost < before
        assert any(isinstance(n, ViewScanNode) for n in _walk(after.base.plan))
        small_catalog.drop_view(_view())
        assert backend.begin_query(q).base.cost == before


class TestExecution:
    def test_view_scan_results_match_base(self, small_store):
        catalog = small_store.catalog
        view = ViewDef(
            name="v_slice", table="events", column="day", low=8100, high=8900
        )
        sql = "select user_id, amount from events where day between 8200 and 8400"
        q = _q(catalog, sql)
        reference = sorted(
            execute(Optimizer(catalog).optimize(q, config=frozenset()).plan, small_store)
        )

        small_store.build_view(view)
        plan = Optimizer(catalog).optimize(
            q, config=frozenset(), cache=PlanCache()
        ).plan
        assert any(isinstance(n, ViewScanNode) for n in _walk(plan))
        got = sorted(execute(plan, small_store))
        assert got == reference
        assert reference, "slice should be non-empty on the fixture data"

    def test_unmaterialized_view_raises(self, small_store):
        catalog = small_store.catalog
        catalog.materialize_view(_view(low=8000, high=9999, name="v_ghost"))
        q = _q(catalog, "select amount from events where day between 8100 and 8110")
        plan = Optimizer(catalog).optimize(q, config=frozenset()).plan
        if any(isinstance(n, ViewScanNode) for n in _walk(plan)):
            with pytest.raises(RuntimeError):
                execute(plan, small_store)

    def test_view_scan_does_less_physical_work(self, small_store):
        from repro.executor import CountingStore

        catalog = small_store.catalog
        view = ViewDef(
            name="v_narrow_slice", table="events", column="day", low=8100, high=8300
        )
        q = _q(catalog, "select amount from events where day between 8150 and 8250")

        base_counter = CountingStore(small_store)
        execute(Optimizer(catalog).optimize(q, config=frozenset()).plan, base_counter)

        small_store.build_view(view)
        plan = Optimizer(catalog).optimize(q, config=frozenset(), cache=PlanCache()).plan
        view_counter = CountingStore(small_store)
        execute(plan, view_counter)
        assert (
            view_counter.counters.total_physical_ops
            < base_counter.counters.total_physical_ops
        )


def _walk(plan):
    stack = [plan]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(node.children())
