"""Unit tests for semantic analysis (binding)."""

import pytest

from repro.sql.ast import ColumnExpr
from repro.sql.binder import BindError, bind_query
from repro.sql.parser import parse_query


class TestResolution:
    def test_unqualified_column_resolved(self, small_catalog):
        q = bind_query(parse_query("select amount from events"), small_catalog)
        assert q.select[0].expr == ColumnExpr("amount", "events")

    def test_qualified_column_kept(self, small_catalog):
        q = bind_query(
            parse_query("select events.amount from events"), small_catalog
        )
        assert q.select[0].expr.table == "events"

    def test_unknown_table(self, small_catalog):
        with pytest.raises(BindError):
            bind_query(parse_query("select a from missing"), small_catalog)

    def test_unknown_column(self, small_catalog):
        with pytest.raises(BindError):
            bind_query(parse_query("select zzz from events"), small_catalog)

    def test_ambiguous_column(self, small_catalog):
        with pytest.raises(BindError):
            bind_query(
                parse_query("select user_id from events, users"), small_catalog
            )

    def test_qualified_disambiguates(self, small_catalog):
        q = bind_query(
            parse_query(
                "select events.user_id from events, users "
                "where events.user_id = users.user_id"
            ),
            small_catalog,
        )
        assert q.select[0].expr.table == "events"

    def test_table_not_in_from(self, small_catalog):
        with pytest.raises(BindError):
            bind_query(parse_query("select users.score from events"), small_catalog)


class TestTypeChecking:
    def test_date_literal_coerced(self, small_catalog):
        q = bind_query(
            parse_query("select day from events where day >= '1992-06-01'"),
            small_catalog,
        )
        assert isinstance(q.filters[0].value, int)

    def test_int_filter_on_float_column(self, small_catalog):
        q = bind_query(
            parse_query("select amount from events where amount > 5"),
            small_catalog,
        )
        assert isinstance(q.filters[0].value, float)

    def test_string_on_numeric_rejected(self, small_catalog):
        with pytest.raises(BindError):
            bind_query(
                parse_query("select amount from events where amount > 'abc'"),
                small_catalog,
            )

    @pytest.mark.parametrize(
        "literal", ["'no date'", "'1994-13-45'", "1" + "0" * 400],
        ids=["no-date", "no-such-day", "integer-no-float-holds"],
    )
    def test_uncoercible_literal_names_the_column(self, literal, small_catalog):
        # parse_date's ValueError and float()'s OverflowError used to
        # leave bind_query as they were.
        column = "amount" if literal[0] == "1" else "day"
        sql = f"select amount from events where {column} = {literal}"
        with pytest.raises(BindError, match=f"predicate on events.{column}: "):
            bind_query(parse_query(sql), small_catalog)

    def test_between_coerces_both_bounds(self, small_catalog):
        q = bind_query(
            parse_query(
                "select day from events where day between '1992-01-01' and '1993-01-01'"
            ),
            small_catalog,
        )
        pred = q.filters[0]
        assert isinstance(pred.low, int) and isinstance(pred.high, int)

    def test_in_values_coerced(self, small_catalog):
        q = bind_query(
            parse_query("select user_id from events where user_id in (1, 2.0)"),
            small_catalog,
        )
        assert q.filters[0].values == (1, 2)

    def test_join_type_compatibility(self, small_catalog):
        with pytest.raises(BindError):
            bind_query(
                parse_query("select * from events, users where kind = users.user_id"),
                small_catalog,
            )

    def test_join_same_table_rejected(self, small_catalog):
        # Construct manually: parser can't produce it, the binder guards anyway.
        from repro.sql.ast import JoinPredicate, Query

        q = Query(
            tables=["events"],
            joins=[
                JoinPredicate(
                    ColumnExpr("user_id", "events"), ColumnExpr("amount", "events")
                )
            ],
        )
        with pytest.raises(BindError):
            bind_query(q, small_catalog)


class TestShape:
    def test_binding_does_not_mutate_original(self, small_catalog):
        original = parse_query("select amount from events where amount > 5")
        bind_query(original, small_catalog)
        assert original.select[0].expr.table is None

    def test_group_and_order_bound(self, small_catalog):
        q = bind_query(
            parse_query(
                "select kind, count(*) from events group by kind order by kind"
            ),
            small_catalog,
        )
        assert q.group_by[0].table == "events"
        assert q.order_by[0].column.table == "events"

    def test_unchanged_nodes_are_shared_changed_ones_rebuilt(self, small_catalog):
        parsed = parse_query(
            "select events.amount, kind, count(events.day), count(*) "
            "from events, users "
            "where events.user_id = users.user_id and events.user_id = 7 "
            "and events.amount > 5 and events.day >= '1992-06-01' "
            "and events.kind in ('a', 'b') and score between 1 and 2 "
            "order by events.amount, kind"
        )
        bound = bind_query(parsed, small_catalog)
        # Already qualified, literal already in the column's type: as is.
        shared = [(0, 0), (2, 2), (3, 3)]
        assert all(bound.select[b] is parsed.select[p] for b, p in shared)
        assert bound.select[1] is not parsed.select[1]  # kind -> events.kind
        assert bound.joins[0] is parsed.joins[0]
        assert bound.filters[0] is parsed.filters[0]  # int on INT
        assert bound.filters[3] is parsed.filters[3]  # strs on TEXT
        assert bound.order_by[0] is parsed.order_by[0]
        # int on FLOAT, str on DATE, unqualified column: new nodes.
        for i in (1, 2, 4):
            assert bound.filters[i] is not parsed.filters[i]
        assert bound.filters[1].value == 5.0 and isinstance(bound.filters[1].value, float)
        assert bound.filters[4].column.table == "users"
        assert bound.order_by[1].column.table == "events"
        # The containers are always the bound query's own.
        for name in ("tables", "select", "filters", "joins", "group_by", "order_by"):
            assert getattr(bound, name) is not getattr(parsed, name)

    def test_rebinding_a_bound_query_shares_every_node(self, small_catalog):
        bound = bind_query(
            parse_query(
                "select kind, count(*) from events, users "
                "where events.user_id = users.user_id and amount > 5 "
                "and day between '1992-06-01' and '1992-07-01' and kind in ('a', 'b') "
                "group by kind order by kind desc limit 3"
            ),
            small_catalog,
        )
        again = bind_query(bound, small_catalog)
        assert again == bound and again is not bound
        for name in ("select", "filters", "joins", "group_by", "order_by"):
            ours, theirs = getattr(again, name), getattr(bound, name)
            assert ours is not theirs
            assert all(a is b for a, b in zip(ours, theirs))
