"""Unit tests for the materialization scheduler."""

import inspect

import pytest

from repro.core import scheduler as scheduler_module
from repro.core.scheduler import IndexBuildError, Scheduler


def failing_on(*indexes):
    """A failpoint that fails every build of ``indexes``."""

    def failpoint(index):
        if index in indexes:
            raise IndexBuildError(f"injected failure for {index}")

    return failpoint


class TestImmediatePolicy:
    def test_build_charges_cost_and_materializes(self, small_catalog):
        scheduler = Scheduler(small_catalog)
        ix = small_catalog.index_for("events", "user_id")
        charged = scheduler.request_materialization([ix])
        assert charged > 0
        assert small_catalog.is_materialized(ix)
        assert scheduler.total_build_cost == charged
        assert [b.index for b in scheduler.builds] == [ix]

    def test_already_materialized_is_free(self, small_catalog):
        scheduler = Scheduler(small_catalog)
        ix = small_catalog.index_for("events", "user_id")
        scheduler.request_materialization([ix])
        assert scheduler.request_materialization([ix]) == 0.0

    def test_drop(self, small_catalog):
        scheduler = Scheduler(small_catalog)
        ix = small_catalog.index_for("events", "user_id")
        scheduler.request_materialization([ix])
        scheduler.request_drop([ix])
        assert not small_catalog.is_materialized(ix)

    def test_builds_every_requested_index_in_request_order(self, small_catalog):
        scheduler = Scheduler(small_catalog)
        ixs = [
            small_catalog.index_for("events", "day"),
            small_catalog.index_for("events", "user_id"),
        ]
        expected = sum(small_catalog.index_build_cost(ix) for ix in ixs)
        charged = scheduler.request_materialization(ixs)
        assert charged == pytest.approx(expected)
        assert [b.index for b in scheduler.builds] == ixs
        assert all(small_catalog.is_materialized(ix) for ix in ixs)

    def test_immediate_is_the_only_policy(self):
        # Idle-time building (the paper's strategy 2) is not implemented:
        # there is no policy to choose and no queue of deferred builds.
        params = list(inspect.signature(Scheduler).parameters)
        assert params == ["catalog", "store", "retry", "failpoint"]
        assert not hasattr(scheduler_module, "SchedulingPolicy")
        for name in ("on_idle", "pending"):
            assert not hasattr(Scheduler, name)


class TestFailedBuilds:
    def test_a_failure_does_not_stop_the_rest_of_the_request(self, small_catalog):
        bad = small_catalog.index_for("events", "day")
        good = small_catalog.index_for("events", "user_id")
        scheduler = Scheduler(small_catalog, failpoint=failing_on(bad))
        charged = scheduler.request_materialization([bad, good])
        assert charged == pytest.approx(small_catalog.index_build_cost(good))
        assert small_catalog.is_materialized(good)
        assert not small_catalog.is_materialized(bad)
        assert [f.index for f in scheduler.retry_queue] == [bad]
        assert [b.index for b in scheduler.builds] == [good]

    def test_repeated_failure_is_queued_once(self, small_catalog):
        ix = small_catalog.index_for("events", "user_id")
        scheduler = Scheduler(small_catalog, failpoint=failing_on(ix))
        scheduler.request_materialization([ix])
        scheduler.request_materialization([ix])
        assert scheduler.failure_count == 2
        assert [f.index for f in scheduler.retry_queue] == [ix]
        assert scheduler.retry_queue[0].attempts == 1
        assert "injected failure" in scheduler.retry_queue[0].error

    def test_an_epoch_with_nothing_queued_only_moves_the_clock(self, small_catalog):
        scheduler = Scheduler(small_catalog)
        scheduler.request_materialization(
            [small_catalog.index_for("events", "user_id")]
        )
        report = scheduler.advance_epoch()
        assert scheduler.epoch == 1
        assert report.charged == 0.0
        assert report.recovered == [] and report.abandoned == []
        assert len(scheduler.builds) == 1


class TestPhysicalIntegration:
    def test_builds_real_tree(self, small_store):
        scheduler = Scheduler(small_store.catalog, store=small_store)
        ix = small_store.catalog.index_for("events", "user_id")
        scheduler.request_materialization([ix])
        tree = small_store.tree(ix)
        assert tree is not None
        assert len(tree) == len(small_store.heap("events"))

    def test_drop_removes_tree(self, small_store):
        scheduler = Scheduler(small_store.catalog, store=small_store)
        ix = small_store.catalog.index_for("events", "user_id")
        scheduler.request_materialization([ix])
        scheduler.request_drop([ix])
        assert small_store.tree(ix) is None
