"""Unit tests for the Profiler (Figure 2 algorithm)."""

import pytest

from repro.backend.local import LocalBackend
from repro.core.config import ColtConfig
from repro.core.profiler import Profiler
from repro.core.self_organizer import IndexRecord
from repro.optimizer.whatif import WhatIfOptimizer
from repro.sql.binder import bind_query
from repro.sql.parser import parse_query


def _setup(catalog, **config_kwargs):
    config = ColtConfig(**config_kwargs)
    whatif = WhatIfOptimizer(LocalBackend(catalog))
    return Profiler(catalog, whatif, config), whatif, config


def _q(catalog, sql):
    return bind_query(parse_query(sql), catalog)


def _end_epoch(profiler, catalog, hot, materialized):
    """Close the epoch over fresh records; ``{key: (low, high, measured)}``."""
    tracked = [IndexRecord(ix, catalog) for ix in (*hot, *materialized)]
    profiler.end_epoch(tracked)
    return {(rec.index.table, rec.index.columns): rec.epoch for rec in tracked}


class TestProfileQuery:
    def test_hot_index_gets_probed(self, small_catalog):
        profiler, whatif, _ = _setup(small_catalog)
        q = _q(small_catalog, "select amount from events where user_id = 5")
        hot = [small_catalog.index_for("events", "user_id")]
        session = whatif.begin_query(q)
        outcome = profiler.profile_query(q, session, hot=hot, materialized=[])
        assert outcome.probed == hot
        assert outcome.gains[hot[0]] > 0
        assert whatif.call_count == 1

    def test_irrelevant_hot_not_probed(self, small_catalog):
        profiler, whatif, _ = _setup(small_catalog)
        q = _q(small_catalog, "select amount from events where user_id = 5")
        hot = [small_catalog.index_for("users", "score")]
        session = whatif.begin_query(q)
        outcome = profiler.profile_query(q, session, hot=hot, materialized=[])
        assert outcome.probed == []

    def test_budget_caps_probing(self, small_catalog):
        profiler, whatif, _ = _setup(small_catalog, max_whatif_per_epoch=1)
        q = _q(
            small_catalog,
            "select amount from events where user_id = 5 and day = 8000",
        )
        hot = [
            small_catalog.index_for("events", "user_id"),
            small_catalog.index_for("events", "day"),
        ]
        session = whatif.begin_query(q)
        profiler.profile_query(q, session, hot=hot, materialized=[])
        assert whatif.call_count <= 1

    def test_zero_budget_no_calls(self, small_catalog):
        profiler, whatif, _ = _setup(small_catalog)
        profiler.set_budget(0)
        q = _q(small_catalog, "select amount from events where user_id = 5")
        hot = [small_catalog.index_for("events", "user_id")]
        session = whatif.begin_query(q)
        profiler.profile_query(q, session, hot=hot, materialized=[])
        assert whatif.call_count == 0

    def test_materialized_used_index_probed(self, small_catalog):
        ix = small_catalog.index_for("events", "user_id")
        small_catalog.materialize_index(ix)
        profiler, whatif, _ = _setup(small_catalog)
        q = _q(small_catalog, "select amount from events where user_id = 5")
        session = whatif.begin_query(q)
        outcome = profiler.profile_query(q, session, hot=[], materialized=[ix])
        assert ix in outcome.probed

    def test_candidates_mined(self, small_catalog):
        profiler, whatif, _ = _setup(small_catalog)
        q = _q(small_catalog, "select amount from events where user_id = 5")
        session = whatif.begin_query(q)
        profiler.profile_query(q, session, hot=[], materialized=[])
        assert len(profiler.candidates) == 1


class TestEpochReport:
    def test_report_covers_hot_and_materialized(self, small_catalog):
        ix_m = small_catalog.index_for("events", "day")
        small_catalog.materialize_index(ix_m)
        profiler, whatif, _ = _setup(small_catalog)
        hot = [small_catalog.index_for("events", "user_id")]
        q = _q(small_catalog, "select amount from events where user_id = 5")
        session = whatif.begin_query(q)
        profiler.profile_query(q, session, hot=hot, materialized=[ix_m])
        report = _end_epoch(profiler, small_catalog, hot, [ix_m])
        assert ("events", ("user_id",)) in report
        assert ("events", ("day",)) in report

    def test_measured_gain_in_benefit(self, small_catalog):
        profiler, whatif, config = _setup(small_catalog, epoch_length=10)
        hot = [small_catalog.index_for("events", "user_id")]
        q = _q(small_catalog, "select amount from events where user_id = 5")
        session = whatif.begin_query(q)
        outcome = profiler.profile_query(q, session, hot=hot, materialized=[])
        gain = outcome.gains[hot[0]]
        low, _high, measured = _end_epoch(profiler, small_catalog, hot, [])[
            ("events", ("user_id",))
        ]
        assert low == pytest.approx(gain / config.epoch_length)
        assert measured == 1

    def test_unmeasured_exposure_uses_crude_for_high(self, small_catalog):
        profiler, whatif, _ = _setup(small_catalog)
        profiler.set_budget(0)  # force zero measurements
        hot = [small_catalog.index_for("events", "user_id")]
        q = _q(small_catalog, "select amount from events where user_id = 5")
        session = whatif.begin_query(q)
        profiler.profile_query(q, session, hot=hot, materialized=[])
        low, high, _measured = _end_epoch(profiler, small_catalog, hot, [])[
            ("events", ("user_id",))
        ]
        assert low == 0.0
        assert high > 0.0  # crude optimistic fallback

    def test_epoch_state_resets(self, small_catalog):
        profiler, whatif, _ = _setup(small_catalog)
        hot = [small_catalog.index_for("events", "user_id")]
        q = _q(small_catalog, "select amount from events where user_id = 5")
        session = whatif.begin_query(q)
        profiler.profile_query(q, session, hot=hot, materialized=[])
        _end_epoch(profiler, small_catalog, hot, [])
        report = _end_epoch(profiler, small_catalog, hot, [])
        assert report[("events", ("user_id",))] == (0.0, 0.0, 0)
        assert profiler.whatif_used == 0


class TestConsistency:
    def test_purge_on_config_change(self, small_catalog):
        profiler, whatif, _ = _setup(small_catalog)
        ix_user = small_catalog.index_for("events", "user_id")
        ix_day = small_catalog.index_for("events", "day")
        q = _q(
            small_catalog,
            "select amount from events where user_id = 5 and day = 8000",
        )
        session = whatif.begin_query(q)
        outcome = profiler.profile_query(
            q, session, hot=[ix_user, ix_day], materialized=[]
        )
        cid = outcome.cluster.cluster_id
        assert profiler.interval_for(ix_user, cid) is not None
        # Materializing day changes the local configuration of the
        # cluster (it references both columns) → stats become stale.
        small_catalog.materialize_index(ix_day)
        profiler.purge_stale()
        assert profiler.interval_for(ix_user, cid) is None

    def test_unrelated_change_preserves_stats(self, small_catalog):
        profiler, whatif, _ = _setup(small_catalog)
        ix_user = small_catalog.index_for("events", "user_id")
        q = _q(small_catalog, "select amount from events where user_id = 5")
        session = whatif.begin_query(q)
        outcome = profiler.profile_query(q, session, hot=[ix_user], materialized=[])
        cid = outcome.cluster.cluster_id
        # 'day' is NOT referenced by this cluster: same-table but
        # irrelevant, so measurements stay valid (narrow §4.1 rule).
        small_catalog.materialize_index(small_catalog.index_for("events", "day"))
        profiler.purge_stale()
        assert profiler.interval_for(ix_user, cid) is not None


class TestSampling:
    def test_unprofiled_pair_sampled_with_certainty(self, small_catalog):
        profiler, whatif, _ = _setup(small_catalog)
        q = _q(small_catalog, "select amount from events where user_id = 5")
        cluster = profiler.clusters.assign(q)
        rate = profiler._sample_rate(
            small_catalog.index_for("events", "user_id"), cluster
        )
        assert rate == 1.0

    def test_rate_drops_after_consistent_samples(self, small_catalog):
        profiler, whatif, _ = _setup(small_catalog)
        ix = small_catalog.index_for("events", "user_id")
        q = _q(small_catalog, "select amount from events where user_id = 5")
        cluster = profiler.clusters.assign(q)
        for _ in range(10):
            profiler._record_gain(ix, cluster, 100.0)
        rate = profiler._sample_rate(ix, cluster)
        assert rate < 1.0
