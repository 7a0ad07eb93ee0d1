"""Unit tests for on-line query clustering."""

from repro.backend.local import LocalBackend
from repro.core.clustering import ClusterStore, cluster_key
from repro.optimizer import selectivity
from repro.sql.binder import bind_query
from repro.sql.parser import parse_query


def _q(catalog, sql):
    return bind_query(parse_query(sql), catalog)


class TestClusterKey:
    def test_same_shape_same_cluster(self, small_catalog):
        a = _q(small_catalog, "select amount from events where user_id = 5")
        b = _q(small_catalog, "select day from events where user_id = 77")
        assert cluster_key(a, small_catalog) == cluster_key(b, small_catalog)

    def test_different_attribute_different_cluster(self, small_catalog):
        a = _q(small_catalog, "select amount from events where user_id = 5")
        b = _q(small_catalog, "select amount from events where day = 8000")
        assert cluster_key(a, small_catalog) != cluster_key(b, small_catalog)

    def test_selectivity_class_splits(self, small_catalog):
        # eq on user_id → 1e-4 (selective); wide between → non-selective.
        a = _q(small_catalog, "select amount from events where user_id = 5")
        b = _q(small_catalog, "select amount from events where user_id between 1 and 9000")
        assert cluster_key(a, small_catalog) != cluster_key(b, small_catalog)

    def test_join_separates(self, small_catalog):
        a = _q(
            small_catalog,
            "select * from events, users where events.user_id = users.user_id",
        )
        b = _q(small_catalog, "select * from events, users")
        assert cluster_key(a, small_catalog) != cluster_key(b, small_catalog)

    def test_predicate_order_irrelevant(self, small_catalog):
        a = _q(small_catalog, "select * from events where user_id = 5 and day = 8000")
        b = _q(small_catalog, "select * from events where day = 8100 and user_id = 9")
        assert cluster_key(a, small_catalog) == cluster_key(b, small_catalog)


class TestSessionSelectivities:
    SQLS = [
        "select amount from events where user_id = 5",
        "select amount from events where day between 8100 and 9900 and kind = 'a'",
        "select amount from events, users "
        "where events.user_id = users.user_id and users.score > 3 and day < 8010",
    ]

    def test_key_from_the_session_equals_the_computed_key(self, small_catalog):
        backend = LocalBackend(small_catalog)
        for sql in self.SQLS:
            q = _q(small_catalog, sql)
            cache = backend.begin_query(q).cache
            assert cluster_key(q, small_catalog, cache) == cluster_key(q, small_catalog)

    def test_session_path_evaluates_no_selectivity(self, small_catalog, monkeypatch):
        backend = LocalBackend(small_catalog)
        store = ClusterStore(small_catalog, history_epochs=4)
        sessions = [backend.begin_query(_q(small_catalog, sql)) for sql in self.SQLS]
        calls = []
        real = selectivity.predicate_selectivity
        monkeypatch.setattr(
            "repro.core.clustering.predicate_selectivity",
            lambda catalog, pred: calls.append(pred) or real(catalog, pred),
        )
        with_session = [store.assign(s.query, s.cache) for s in sessions]
        assert calls == []  # read from the scans the optimizer filled
        without = [store.assign(s.query) for s in sessions]
        assert len(calls) == sum(len(s.query.filters) for s in sessions)
        assert [c.cluster_id for c in with_session] == [c.cluster_id for c in without]

    def test_queries_of_one_cluster_share_the_key_object(self, small_catalog):
        backend = LocalBackend(small_catalog)
        store = ClusterStore(small_catalog, history_epochs=4)
        a = backend.begin_query(_q(small_catalog, "select amount from events where user_id = 5"))
        b = backend.begin_query(_q(small_catalog, "select day from events where user_id = 77"))
        assert store.assign(a.query, a.cache) is store.assign(b.query, b.cache)
        assert a.cache.cluster_key is b.cache.cluster_key


class TestClusterStore:
    def test_assign_and_count(self, small_catalog):
        store = ClusterStore(small_catalog, history_epochs=4)
        q = _q(small_catalog, "select amount from events where user_id = 5")
        c1 = store.assign(q)
        c2 = store.assign(q)
        assert c1 is c2
        assert c1.count() == 2
        assert len(store) == 1

    def test_window_rolls(self, small_catalog):
        store = ClusterStore(small_catalog, history_epochs=2)
        q = _q(small_catalog, "select amount from events where user_id = 5")
        store.assign(q)
        store.roll_epoch()
        store.assign(q)
        store.assign(q)
        cluster = store.assign(q)
        assert cluster.count() == 4  # 1 windowed + 3 current
        store.roll_epoch()
        store.roll_epoch()
        # After 2 more epochs only the (1-epoch old, size-3) entry remains
        # within the 2-epoch window... then it ages out next roll.
        assert cluster.count() == 3

    def test_eviction_of_idle_clusters(self, small_catalog):
        store = ClusterStore(small_catalog, history_epochs=2)
        q = _q(small_catalog, "select amount from events where user_id = 5")
        cluster = store.assign(q)
        cid = cluster.cluster_id
        for _ in range(3):
            store.roll_epoch()
        assert len(store) == 0
        assert not store.has_id(cid)

    def test_ids_not_reused(self, small_catalog):
        store = ClusterStore(small_catalog, history_epochs=1)
        q1 = _q(small_catalog, "select amount from events where user_id = 5")
        c1 = store.assign(q1)
        store.roll_epoch()
        store.roll_epoch()  # evict
        c2 = store.assign(q1)
        assert c2.cluster_id != c1.cluster_id

    def test_total_count(self, small_catalog):
        store = ClusterStore(small_catalog, history_epochs=4)
        store.assign(_q(small_catalog, "select amount from events where user_id = 5"))
        store.assign(_q(small_catalog, "select amount from events where day = 8000"))
        assert store.total_count() == 2


class TestRelevance:
    def test_selection_attribute_relevant(self, small_catalog):
        store = ClusterStore(small_catalog, history_epochs=4)
        cluster = store.assign(
            _q(small_catalog, "select amount from events where user_id = 5")
        )
        assert cluster.is_relevant(small_catalog.index_for("events", "user_id"))
        assert cluster.is_relevant(small_catalog.index_for("events", "day"))  # same table
        assert not cluster.is_relevant(small_catalog.index_for("users", "score"))

    def test_referenced_columns(self, small_catalog):
        store = ClusterStore(small_catalog, history_epochs=4)
        cluster = store.assign(
            _q(
                small_catalog,
                "select * from events, users "
                "where events.user_id = users.user_id and events.day = 8000",
            )
        )
        refs = cluster.referenced_columns()
        assert ("events", "day") in refs
        assert ("events", "user_id") in refs
        assert ("users", "user_id") in refs
        assert ("users", "score") not in refs
