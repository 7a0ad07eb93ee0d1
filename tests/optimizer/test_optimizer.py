"""Unit tests for the optimizer facade and plan caching."""

import pytest

from repro.optimizer.optimizer import Optimizer, PlanCache
from repro.optimizer.plan import (
    AggregateNode,
    LimitNode,
    ProjectNode,
    SeqScanNode,
    SortNode,
    explain,
    plan_signature,
)
from repro.sql.binder import bind_query
from repro.sql.parser import ParseError, parse_query
from repro.workload.datagen import build_catalog


def _optimize(catalog, sql, config=None, cache=None):
    q = bind_query(parse_query(sql), catalog)
    return Optimizer(catalog).optimize(q, config=config, cache=cache)


class TestFinalization:
    def test_projection_on_top(self, small_catalog):
        res = _optimize(small_catalog, "select amount from events")
        assert isinstance(res.plan, ProjectNode)

    def test_star_has_no_projection(self, small_catalog):
        res = _optimize(small_catalog, "select * from events")
        assert isinstance(res.plan, SeqScanNode)

    def test_aggregate_node(self, small_catalog):
        res = _optimize(small_catalog, "select kind, count(*) from events group by kind")
        assert isinstance(res.plan, AggregateNode)
        assert res.plan.rows == pytest.approx(4.0)  # 4 distinct kinds

    def test_global_aggregate_one_row(self, small_catalog):
        res = _optimize(small_catalog, "select count(*) from events")
        assert res.plan.rows == 1.0

    def test_sort_above_aggregate(self, small_catalog):
        res = _optimize(
            small_catalog,
            "select kind, count(*) from events group by kind order by kind",
        )
        assert isinstance(res.plan, SortNode)
        assert isinstance(res.plan.child, AggregateNode)

    def test_limit_truncates_rows(self, small_catalog):
        res = _optimize(small_catalog, "select amount from events limit 7")
        limits = [n for n in _walk(res.plan) if isinstance(n, LimitNode)]
        assert limits and limits[0].rows == 7.0

    def test_limit_zero_is_an_empty_result(self, small_catalog):
        res = _optimize(small_catalog, "select amount from events limit 0")
        limits = [n for n in _walk(res.plan) if isinstance(n, LimitNode)]
        assert limits and limits[0].rows == 0.0

    def test_no_limit_node_carries_a_negative_row_count(self, small_catalog):
        # The parser refuses the text; a hand-built query is refused when
        # its plan is made, so no plan reports rows = -5.
        with pytest.raises(ParseError):
            parse_query("select amount from events limit -5")
        query = bind_query(parse_query("select amount from events"), small_catalog)
        query.limit = -5
        with pytest.raises(ValueError, match="LIMIT cannot be negative"):
            Optimizer(small_catalog).optimize(query)
        scan = SeqScanNode(rows=10.0, cost=1.0, table="events")
        for rows, limit in ((-1.0, 3), (3.0, -3), (-5.0, -5)):
            with pytest.raises(ValueError):
                LimitNode(rows=rows, cost=1.0, child=scan, limit=limit)

    @pytest.mark.parametrize(
        "paper, sql",
        [
            (
                False,
                "select kind, count(*) from events where amount > 1 "
                "group by kind order by kind",
            ),
            (
                True,
                "select l_orderkey from lineitem_1 "
                "where l_shipdate between '1994-01-01' and '1994-01-08'",
            ),
            (
                True,
                "select lineitem_1.l_orderkey from lineitem_1, orders_1 "
                "where lineitem_1.l_orderkey = orders_1.o_orderkey "
                "and orders_1.o_orderdate between '1994-01-01' and '1994-01-08'",
            ),
        ],
        ids=["aggregate", "paper_range", "paper_join"],
    )
    def test_cost_monotone_up_the_tree(self, small_catalog, paper, sql):
        res = _optimize(build_catalog() if paper else small_catalog, sql)
        assert res.cost > 0
        for node in _walk(res.plan):
            for child in node.children():
                assert node.cost >= child.cost - 1e-9


class TestConfigSensitivity:
    def test_index_lowers_cost(self, small_catalog):
        index = small_catalog.index_for("events", "user_id")
        sql = "select amount from events where user_id = 5"
        without = _optimize(small_catalog, sql, config=frozenset())
        with_ix = _optimize(small_catalog, sql, config=frozenset([index]))
        assert with_ix.cost < without.cost

    def test_default_config_uses_materialized(self, small_catalog):
        index = small_catalog.index_for("events", "user_id")
        small_catalog.materialize_index(index)
        res = _optimize(small_catalog, "select amount from events where user_id = 5")
        assert index in res.plan.indexes_used()

    def test_irrelevant_index_no_effect(self, small_catalog):
        sql = "select amount from events where user_id = 5"
        base = _optimize(small_catalog, sql, config=frozenset())
        other = _optimize(
            small_catalog,
            sql,
            config=frozenset([small_catalog.index_for("events", "day")]),
        )
        assert base.cost == other.cost
        assert plan_signature(base.plan) == plan_signature(other.plan)


class TestPlanCache:
    def test_cache_hit_on_repeat(self, small_catalog):
        catalog = small_catalog
        q = bind_query(
            parse_query("select amount from events where user_id = 5"), catalog
        )
        optimizer = Optimizer(catalog)
        cache = PlanCache()
        optimizer.optimize(q, config=frozenset(), cache=cache)
        count = optimizer.optimize_count
        optimizer.optimize(q, config=frozenset(), cache=cache)
        assert optimizer.optimize_count == count  # pure cache hit
        assert cache.hits == 1

    def test_cache_distinguishes_relevant_configs(self, small_catalog):
        catalog = small_catalog
        q = bind_query(
            parse_query("select amount from events where user_id = 5"), catalog
        )
        optimizer = Optimizer(catalog)
        cache = PlanCache()
        ix = catalog.index_for("events", "user_id")
        a = optimizer.optimize(q, config=frozenset(), cache=cache)
        b = optimizer.optimize(q, config=frozenset([ix]), cache=cache)
        assert a.cost != b.cost

    def test_cache_collapses_irrelevant_config_changes(self, small_catalog):
        catalog = small_catalog
        q = bind_query(
            parse_query("select amount from events where user_id = 5"), catalog
        )
        optimizer = Optimizer(catalog)
        cache = PlanCache()
        optimizer.optimize(q, config=frozenset(), cache=cache)
        # An index on an unreferenced column maps to the same relevant
        # config; the cached plan is reused without re-optimizing.
        count = optimizer.optimize_count
        optimizer.optimize(
            q,
            config=frozenset([catalog.index_for("events", "day")]),
            cache=cache,
        )
        assert optimizer.optimize_count == count


class TestExplain:
    def test_explain_renders_tree(self, small_catalog):
        res = _optimize(
            small_catalog,
            "select kind, count(*) from events where user_id = 5 group by kind",
        )
        text = explain(res.plan)
        assert "HashAggregate" in text
        assert "SeqScan(events)" in text
        assert "rows=" in text and "cost=" in text


def _walk(plan):
    stack = [plan]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(node.children())
