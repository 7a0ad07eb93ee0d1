"""Unit tests for the Self-Organizer (reorganization + re-budgeting)."""

from repro.backend.local import LocalBackend
from repro.core.config import ColtConfig
from repro.core.profiler import Profiler
from repro.core.self_organizer import SelfOrganizer, two_means_split
from repro.optimizer.whatif import WhatIfOptimizer
from repro.sql.binder import bind_query
from repro.sql.parser import parse_query


def _close(so, profiler, benefits=None):
    """One boundary with ``{index: low | (low, high)}`` as the epoch report;
    a tracked index left out reports nothing but zeros."""
    tracked = so.tracked()
    for rec in tracked:
        benefit = (benefits or {}).get(rec.index, (0.0, 0.0))
        low, high = benefit if isinstance(benefit, tuple) else (benefit, benefit)
        rec.epoch = (low, high, 1)
    return so.end_epoch(tracked, profiler)


def _setup(catalog, **kwargs):
    kwargs.setdefault("storage_budget_pages", 5000.0)
    config = ColtConfig(**kwargs)
    so = SelfOrganizer(catalog, config)
    profiler = Profiler(catalog, WhatIfOptimizer(LocalBackend(catalog)), config)
    return so, profiler, config


def _feed(so, profiler, index, benefit, epochs, hot=True):
    """Push `epochs` epochs of a constant benefit for one index."""
    if hot:
        so.hot.add(index)
    for _ in range(epochs):
        _close(so, profiler, {index: benefit})
        if hot:
            so.hot.add(index)  # keep it hot regardless of candidate state


class TestTwoMeans:
    def test_empty(self):
        assert two_means_split([]) == 0

    def test_single(self):
        assert two_means_split([5.0]) == 1

    def test_obvious_gap(self):
        assert two_means_split([100.0, 99.0, 98.0, 2.0, 1.0]) == 3

    def test_two_values(self):
        assert two_means_split([10.0, 1.0]) == 1

    def test_uniform_values_split_somewhere(self):
        split = two_means_split([5.0, 4.0, 3.0, 2.0])
        assert 1 <= split <= 3


class TestReorganization:
    def test_beneficial_index_materialized(self, small_catalog):
        so, profiler, config = _setup(small_catalog, min_history_epochs=2)
        ix = small_catalog.index_for("events", "user_id")
        so.hot.add(ix)
        # Benefit far above the (scaled) build cost.
        big = small_catalog.index_build_cost(ix)
        result = None
        for _ in range(4):
            result = _close(so, profiler, {ix: big})
            so.hot.add(ix)
        assert ix in so.materialized
        assert any(True for _ in [result])

    def test_weak_index_not_materialized(self, small_catalog):
        so, profiler, _ = _setup(small_catalog, min_history_epochs=2)
        ix = small_catalog.index_for("events", "user_id")
        _feed(so, profiler, ix, benefit=0.01, epochs=5)
        assert ix not in so.materialized

    def test_budget_respected(self, small_catalog):
        so, profiler, config = _setup(
            small_catalog, min_history_epochs=1, storage_budget_pages=100.0
        )
        # events indexes are far larger than 100 pages → nothing fits.
        ix = small_catalog.index_for("events", "user_id")
        _feed(so, profiler, ix, benefit=1e9, epochs=3)
        assert so.materialized == set()

    def test_useless_materialized_dropped_for_better(self, small_catalog):
        """A materialized index whose benefit decays loses its slot when a
        better candidate needs the space."""
        so, profiler, config = _setup(
            small_catalog,
            min_history_epochs=1,
            # Both indexes are ~2.4k pages; only one fits.
            storage_budget_pages=3000.0,
            history_epochs=4,
        )
        weak = small_catalog.index_for("events", "user_id")
        strong = small_catalog.index_for("events", "day")

        _feed(so, profiler, weak, benefit=50_000.0, epochs=3)
        assert weak in so.materialized
        # Weak decays to zero while strong rises.
        so.hot.add(strong)
        for _ in range(8):
            _close(so, profiler, {weak: 0.0, strong: 80_000.0})
            so.hot.add(strong)
        assert strong in so.materialized
        assert weak not in so.materialized

    def test_min_history_gates_eligibility(self, small_catalog):
        so, profiler, _ = _setup(small_catalog, min_history_epochs=3)
        ix = small_catalog.index_for("events", "user_id")
        so.hot.add(ix)
        _close(so, profiler, {ix: 1e9})
        assert ix not in so.materialized  # only 1 epoch of history


class TestRebudgeting:
    def test_budget_zero_when_no_potential(self, small_catalog):
        so, profiler, _ = _setup(small_catalog)
        result = _close(so, profiler)
        assert result.whatif_budget == 0
        assert result.improvement_ratio == 1.0

    def test_budget_max_at_knee(self, small_catalog):
        so, profiler, config = _setup(small_catalog)
        assert so._budget_for(config.rebudget_knee) == config.max_whatif_per_epoch
        assert so._budget_for(10.0) == config.max_whatif_per_epoch

    def test_budget_linear_between(self, small_catalog):
        so, profiler, config = _setup(small_catalog)
        mid = 1.0 + (config.rebudget_knee - 1.0) / 2.0
        assert so._budget_for(mid) == round(config.max_whatif_per_epoch / 2)

    def test_budget_zero_at_one(self, small_catalog):
        so, profiler, _ = _setup(small_catalog)
        assert so._budget_for(1.0) == 0

    def test_promising_empty_m_wakes_profiling(self, small_catalog):
        """With nothing materialized and a promising hot index, the ratio
        saturates and profiling gets the full budget."""
        so, profiler, config = _setup(small_catalog, min_history_epochs=10)
        ix = small_catalog.index_for("events", "user_id")
        so.hot.add(ix)
        result = _close(so, profiler, {ix: (1e6, 1e7)})
        assert result.whatif_budget == config.max_whatif_per_epoch


class TestHotSelection:
    def test_hot_from_candidates(self, small_catalog):
        so, profiler, _ = _setup(small_catalog)
        q = bind_query(
            parse_query("select amount from events where user_id = 5"), small_catalog
        )
        profiler.candidates.observe_query(q, [], [])
        profiler.candidates.roll_epoch(10)
        result = _close(so, profiler)
        assert [ix.name for ix in result.hot] == ["ix_events_user_id"]

    def test_hot_capped(self, small_catalog):
        so, profiler, config = _setup(small_catalog, max_hot_size=1)
        for sql in (
            "select amount from events where user_id = 5",
            "select amount from events where day = 8000",
        ):
            q = bind_query(parse_query(sql), small_catalog)
            profiler.candidates.observe_query(q, [], [])
        profiler.candidates.roll_epoch(10)
        result = _close(so, profiler)
        assert len(result.hot) == 1

    def test_materialized_excluded_from_hot(self, small_catalog):
        so, profiler, _ = _setup(small_catalog, min_history_epochs=1)
        ix = small_catalog.index_for("events", "user_id")
        q = bind_query(
            parse_query("select amount from events where user_id = 5"), small_catalog
        )
        _feed(so, profiler, ix, benefit=1e9, epochs=3)
        assert ix in so.materialized
        profiler.candidates.observe_query(q, [], [ix])
        profiler.candidates.roll_epoch(10)
        result = _close(so, profiler, {ix: 1e9})
        assert ix not in result.hot
