"""Tests for execution counters and cost-model validation.

The second half is the important one: it checks that the optimizer's
cost estimates order plans the same way the *actual physical work*
orders them -- the property that makes a cost-model simulation a
meaningful stand-in for wall-clock measurements (see DESIGN.md §2).
"""

import pytest

from repro.engine.cost_params import CostParams
from repro.executor import CountingStore, execute
from repro.executor.instrument import ROWS_PER_SEQ_PAGE, ExecutionCounters, observed_cost
from repro.optimizer.optimizer import Optimizer, PlanCache
from repro.sql.binder import bind_query
from repro.sql.parser import parse_query


def _run_counted(store, sql, config):
    q = bind_query(parse_query(sql), store.catalog)
    plan = Optimizer(store.catalog).optimize(q, config=config, cache=PlanCache()).plan
    counting = CountingStore(store)
    rows = execute(plan, counting)
    return rows, counting.counters, plan


class TestCounters:
    def test_seq_scan_reads_every_row(self, small_store):
        _, counters, _ = _run_counted(
            small_store, "select * from users", frozenset()
        )
        assert counters.heap_rows_read == 500
        assert counters.index_searches == 0

    def test_eq_index_scan_touches_few(self, small_store):
        index = small_store.catalog.index_for("events", "user_id")
        small_store.build_index(index)
        rows, counters, _ = _run_counted(
            small_store,
            "select user_id from events where user_id = 17",
            frozenset([index]),
        )
        assert counters.index_searches == 1
        assert counters.index_entries_read == len(rows)
        # Cell fetches instead of full-row scans; far below table size.
        assert counters.heap_rows_read == 0
        assert counters.heap_cells_read < 500

    def test_transparent_results(self, small_store):
        plain, _, _ = _run_counted(
            small_store, "select user_id from users where score > 50", frozenset()
        )
        again, counters, _ = _run_counted(
            small_store, "select user_id from users where score > 50", frozenset()
        )
        assert sorted(plain) == sorted(again)
        assert counters.heap_rows_read == 500

    def test_reset(self, small_store):
        _, counters, _ = _run_counted(small_store, "select * from users", frozenset())
        counters.reset()
        assert counters.total_physical_ops == 0


def test_observed_cost_weighs_counters():
    params = CostParams()
    counters = ExecutionCounters(
        heap_rows_read=ROWS_PER_SEQ_PAGE,  # exactly one sequential page
        heap_cells_read=0,
        index_searches=1,
        index_entries_read=10,
    )
    cost = observed_cost(counters, params)
    expected = (
        ROWS_PER_SEQ_PAGE * (params.cpu_tuple_cost + params.seq_page_cost / ROWS_PER_SEQ_PAGE)
        + params.random_page_cost
        + 10 * (params.cpu_index_tuple_cost + params.random_page_cost)
    )
    assert cost == pytest.approx(expected)
    # Index entries drag random-page fetches: far pricier per row than
    # sequential heap reads -- the term a lying selectivity hides.
    per_index_row = params.cpu_index_tuple_cost + params.random_page_cost
    per_seq_row = params.cpu_tuple_cost + params.seq_page_cost / ROWS_PER_SEQ_PAGE
    assert per_index_row > 100 * per_seq_row


class TestStoreObservedCost:
    SQL = "select user_id, amount from events where user_id = 17"

    def _index_plan(self, store):
        index = store.catalog.index_for("events", "user_id")
        store.build_index(index)
        q = bind_query(parse_query(self.SQL), store.catalog)
        plan = Optimizer(store.catalog).optimize(
            q, config=frozenset([index]), cache=PlanCache()
        ).plan
        return plan

    def test_back_to_back_calls_price_alike(self, small_store):
        plan = self._index_plan(small_store)
        counting = CountingStore(small_store)
        first = counting.observed_cost(plan)
        assert first > 0.0
        assert counting.observed_cost(plan) == first

    def test_prices_one_fresh_execution(self, small_store):
        plan = self._index_plan(small_store)
        fresh = CountingStore(small_store)
        execute(plan, fresh)
        expected = observed_cost(fresh.counters, small_store.catalog.params)
        assert CountingStore(small_store).observed_cost(plan) == expected


class TestCostModelValidation:
    def test_cheaper_plan_does_less_work(self, small_store):
        """Index vs. seq scan: the optimizer's preference matches reality."""
        catalog = small_store.catalog
        index = catalog.index_for("events", "user_id")
        small_store.build_index(index)
        sql = "select user_id from events where user_id = 44"

        q = bind_query(parse_query(sql), catalog)
        optimizer = Optimizer(catalog)
        seq_cost = optimizer.optimize(q, config=frozenset(), cache=PlanCache()).cost
        idx_cost = optimizer.optimize(
            q, config=frozenset([index]), cache=PlanCache()
        ).cost
        assert idx_cost < seq_cost

        _, seq_work, _ = _run_counted(small_store, sql, frozenset())
        _, idx_work, _ = _run_counted(small_store, sql, frozenset([index]))
        assert idx_work.total_physical_ops < seq_work.total_physical_ops

    def test_narrow_range_index_scan_does_less_work(self, small_store):
        """A range on an indexed column: the cheaper plan reads less."""
        catalog = small_store.catalog
        index = catalog.index_for("events", "day")
        small_store.build_index(index)
        sql = "select amount from events where day between 8150 and 8160"

        seq_rows, seq_work, seq_plan = _run_counted(small_store, sql, frozenset())
        idx_rows, idx_work, idx_plan = _run_counted(
            small_store, sql, frozenset([index])
        )
        assert idx_plan.indexes_used() == {index}
        assert sorted(idx_rows) == sorted(seq_rows)
        assert seq_rows, "the slice should be non-empty on the fixture data"
        assert idx_plan.cost < seq_plan.cost
        assert idx_work.total_physical_ops < seq_work.total_physical_ops

    def test_cost_ordering_tracks_work_ordering(self, small_store):
        """Across a range of selectivities, estimated cost and physical
        work must be positively rank-correlated."""
        catalog = small_store.catalog
        index = catalog.index_for("events", "day")
        small_store.build_index(index)
        config = frozenset([index])
        optimizer = Optimizer(catalog)

        pairs = []
        for width in (0, 5, 20, 80, 300, 1200):
            sql = f"select day from events where day between 8000 and {8000 + width}"
            q = bind_query(parse_query(sql), catalog)
            cost = optimizer.optimize(q, config=config, cache=PlanCache()).cost
            _, counters, _ = _run_counted(small_store, sql, config)
            pairs.append((cost, counters.total_physical_ops))

        costs = [c for c, _ in pairs]
        work = [w for _, w in pairs]
        assert costs == sorted(costs)
        assert work == sorted(work)

    def test_join_work_scales_with_outer(self, small_store):
        catalog = small_store.catalog
        users_ix = catalog.index_for("users", "user_id")
        day_ix = catalog.index_for("events", "day")
        small_store.build_index(users_ix)
        small_store.build_index(day_ix)
        config = frozenset([users_ix, day_ix])
        narrow = (
            "select users.score from events, users "
            "where events.user_id = users.user_id and events.day = 8000"
        )
        wide = (
            "select users.score from events, users "
            "where events.user_id = users.user_id and events.day between 8000 and 8500"
        )
        _, narrow_work, _ = _run_counted(small_store, narrow, config)
        _, wide_work, _ = _run_counted(small_store, wide, config)
        assert wide_work.total_physical_ops > narrow_work.total_physical_ops
