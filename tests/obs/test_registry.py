"""Tests for the metrics registry (counters, gauges, histograms)."""

import pytest

from repro.obs.registry import (
    Counter,
    Histogram,
    MetricError,
    MetricsRegistry,
    merge_snapshots,
)


class TestCounter:
    def test_starts_at_zero_and_accumulates(self):
        c = MetricsRegistry().counter("x_total", "x")
        assert c.value() == 0.0
        c.inc()
        c.inc(2.5)
        assert c.value() == 3.5

    def test_rejects_negative_increment(self):
        c = MetricsRegistry().counter("x_total", "x")
        with pytest.raises(MetricError):
            c.inc(-1)

    def test_labeled_series_are_independent(self):
        c = MetricsRegistry().counter("x_total", "x", ("replica",))
        c.inc(1, replica=0)
        c.inc(5, replica=1)
        assert c.value(replica=0) == 1.0
        assert c.value(replica=1) == 5.0

    def test_wrong_labels_rejected(self):
        c = MetricsRegistry().counter("x_total", "x", ("replica",))
        with pytest.raises(MetricError):
            c.inc(1)
        with pytest.raises(MetricError):
            c.inc(1, shard=0)


class TestGauge:
    def test_set_inc_dec(self):
        g = MetricsRegistry().gauge("depth", "d")
        g.set(10)
        g.inc(2)
        g.dec(5)
        assert g.value() == 7.0


class TestHistogram:
    def test_cumulative_buckets(self):
        h = MetricsRegistry().histogram("d", "d", buckets=(1.0, 10.0))
        for v in (0.5, 0.7, 5.0, 50.0):
            h.observe(v)
        (sample,) = h.samples()
        assert sample["count"] == 4
        assert sample["sum"] == pytest.approx(56.2)
        assert sample["buckets"] == {"1.0": 2, "10.0": 3, "+Inf": 4}

    def test_boundary_value_falls_in_its_bucket(self):
        h = MetricsRegistry().histogram("d", "d", buckets=(1.0, 10.0))
        h.observe(1.0)
        (sample,) = h.samples()
        assert sample["buckets"]["1.0"] == 1

    def test_rejects_unsorted_buckets(self):
        with pytest.raises(MetricError):
            Histogram("d", "d", buckets=(2.0, 1.0))

    def test_count_and_sum_accessors(self):
        h = MetricsRegistry().histogram("d", "d", buckets=(1.0,))
        assert h.count() == 0 and h.sum() == 0.0
        h.observe(3.0)
        assert h.count() == 1 and h.sum() == 3.0


class TestBoundChildren:
    def test_bound_and_unbound_updates_land_on_the_same_sample(self):
        r = MetricsRegistry()
        c = r.counter("x_total", "x", ("replica",))
        child = c.labels(replica=0)
        child.inc()
        c.inc(2, replica=0)
        c.labels(replica="0").inc(0.5)  # values bind by their str
        c.labels(replica=1).inc(4)
        assert c.labels(replica=0) is child
        assert c.value(replica=0) == 3.5 and c.value(replica=1) == 4.0
        g = r.gauge("depth", "d")
        bound = g.labels()
        bound.set(10)
        g.inc(2)
        bound.dec(5)
        assert g.value() == 7.0
        h = r.histogram("d", "d", buckets=(1.0, 10.0))
        h.labels().observe(0.5)
        h.observe(5.0)
        (sample,) = h.samples()
        assert (sample["count"], sample["sum"]) == (2, 5.5)
        assert sample["buckets"] == {"1.0": 1, "10.0": 2, "+Inf": 2}

    def test_wrong_or_missing_label_names_raise_at_bind_time(self):
        r = MetricsRegistry()
        for family in (
            r.counter("x_total", "x", ("replica",)),
            r.gauge("depth", "d", ("replica",)),
            r.histogram("d", "d", ("replica",)),
        ):
            with pytest.raises(MetricError):
                family.labels()
            with pytest.raises(MetricError):
                family.labels(shard=0)
            with pytest.raises(MetricError):
                family.labels(replica=0, shard=0)
        with pytest.raises(MetricError):
            r.counter("y_total", "y").labels(replica=0)

    def test_registered_family_without_labels_is_its_own_child(self):
        r = MetricsRegistry()
        c, g, h = r.counter("x_total", "x"), r.gauge("depth", "d"), r.histogram("d", "d")
        assert c.inc is c.labels().inc
        assert (g.set, g.inc, g.dec) == (g.labels().set, g.labels().inc, g.labels().dec)
        assert h.observe is h.labels().observe
        assert c.samples() == [] and h.samples() == []  # binding is not updating
        c.inc(2)
        with pytest.raises(MetricError):
            c.inc(-1)
        assert c.value() == 2.0
        labelled = r.counter("y_total", "y", ("replica",))
        assert "inc" not in vars(labelled)  # binds per update, or through labels()

    def test_binding_alone_makes_no_sample(self):
        r = MetricsRegistry()
        c = r.counter("x_total", "x", ("replica",))
        h = r.histogram("d", "d")
        c.labels(replica=0)
        h.labels()
        assert c.samples() == [] and h.samples() == []
        assert h.count() == 0 and h.sum() == 0.0

    def test_bound_counter_rejects_negative_increment(self):
        child = MetricsRegistry().counter("x_total", "x").labels()
        with pytest.raises(MetricError):
            child.inc(-1)

class TestSetFunction:
    def test_value_is_read_when_the_family_is_read(self):
        r = MetricsRegistry()
        total = [None]
        c = r.counter("x_total", "x")
        c.set_function(lambda: total[0])
        assert c.samples() == []  # None: no sample yet
        total[0] = 3
        assert c.value() == 3.0
        assert r.snapshot()[0]["samples"] == [{"labels": {}, "value": 3.0}]
        assert isinstance(c.value(), float)
        total[0] = 4.5
        assert c.value() == 4.5

    def test_labelled_binding_beside_counted_ones(self):
        g = MetricsRegistry().gauge("depth", "d", ("replica",))
        g.set_function(lambda: 7, replica=0)
        g.set(2, replica=1)
        assert [s["value"] for s in g.samples()] == [7.0, 2.0]
        with pytest.raises(MetricError):
            g.set_function(lambda: 1)

class TestRegistry:
    def test_registration_is_idempotent_for_identical_family(self):
        r = MetricsRegistry()
        a = r.counter("x_total", "x")
        b = r.counter("x_total", "x")
        assert a is b

    def test_conflicting_registration_raises(self):
        r = MetricsRegistry()
        r.counter("x_total", "x")
        with pytest.raises(MetricError):
            r.gauge("x_total", "x")
        with pytest.raises(MetricError):
            r.counter("x_total", "x", ("replica",))

    def test_invalid_names_rejected(self):
        r = MetricsRegistry()
        with pytest.raises(MetricError):
            r.counter("bad name", "x")
        with pytest.raises(MetricError):
            r.counter("9starts_with_digit", "x")

    def test_snapshot_preserves_registration_order(self):
        r = MetricsRegistry()
        r.counter("b_total", "b")
        r.counter("a_total", "a")
        assert [f["name"] for f in r.snapshot()] == ["b_total", "a_total"]


class TestMergeSnapshots:
    def _registry_with_counter(self, value):
        r = MetricsRegistry()
        r.counter("x_total", "x").inc(value)
        return r

    def test_extra_labels_applied_per_part(self):
        a = self._registry_with_counter(1)
        b = self._registry_with_counter(2)
        merged = merge_snapshots(
            [(a.snapshot(), {"replica": "0"}), (b.snapshot(), {"replica": "1"})]
        )
        (family,) = merged
        assert family["labelnames"] == ["replica"]
        values = {s["labels"]["replica"]: s["value"] for s in family["samples"]}
        assert values == {"0": 1.0, "1": 2.0}

    def test_type_conflict_raises(self):
        a = MetricsRegistry()
        a.counter("x_total", "x")
        b = MetricsRegistry()
        b.gauge("x_total", "x")
        with pytest.raises(MetricError):
            merge_snapshots([(a.snapshot(), {}), (b.snapshot(), {})])

    def test_counter_type_survives_merge(self):
        a = self._registry_with_counter(1)
        merged = merge_snapshots([(a.snapshot(), {})])
        assert merged[0]["type"] == Counter.kind
