"""Tests for the span tracer."""

import pytest

from repro.obs.spans import Span, SpanTracer, merge_span_summaries


class FakeClock:
    """Deterministic clock advancing a fixed step per read."""

    def __init__(self, step=1.0):
        self.now = 0.0
        self.step = step

    def __call__(self):
        value = self.now
        self.now += self.step
        return value


class TestSpanTracer:
    def test_records_duration_and_attrs(self):
        tracer = SpanTracer(clock=FakeClock(step=2.0))
        with tracer.span("query", index=7):
            pass
        (span,) = tracer.recent()
        assert span.name == "query"
        assert span.duration == pytest.approx(2.0)
        assert span.attrs == {"index": 7}

    def test_ring_is_bounded_but_totals_are_not(self):
        tracer = SpanTracer(capacity=2, clock=FakeClock())
        for _ in range(5):
            with tracer.span("query"):
                pass
        assert len(tracer.recent()) == 2
        assert tracer.summary()["query"]["count"] == 5

    def test_recent_filters_by_name(self):
        tracer = SpanTracer(clock=FakeClock())
        with tracer.span("a"):
            pass
        with tracer.span("b"):
            pass
        assert [s.name for s in tracer.recent("a")] == ["a"]

    def test_summary_aggregates(self):
        clock = FakeClock(step=1.0)
        tracer = SpanTracer(clock=clock)
        with tracer.span("epoch"):
            clock.now += 3.0  # make this span longer
        with tracer.span("epoch"):
            pass
        stats = tracer.summary()["epoch"]
        assert stats["count"] == 2
        assert stats["max_seconds"] == pytest.approx(4.0)
        assert stats["total_seconds"] == pytest.approx(5.0)

    def test_disabled_tracer_records_nothing(self):
        tracer = SpanTracer(enabled=False)
        with tracer.span("query"):
            pass
        assert tracer.recent() == []
        assert tracer.summary() == {}

    def test_disabled_handles_are_shared(self):
        tracer = SpanTracer(enabled=False)
        assert tracer.span("a") is tracer.span("b")

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            SpanTracer(capacity=0)

    def test_record_then_recent_returns_equal_spans(self):
        tracer = SpanTracer(clock=FakeClock())
        tracer.record("query", 1.0, 2.5, (("index", 7),))
        tracer.record("epoch_close", 4.0, 0.5)
        with tracer.span("query", index=8):  # ends in the same routine
            pass
        assert tracer.recent() == [
            Span("query", 1.0, 2.5, {"index": 7}),
            Span("epoch_close", 4.0, 0.5, {}),
            Span("query", 0.0, 1.0, {"index": 8}),
        ]
        assert tracer.recent("epoch_close") == [Span("epoch_close", 4.0, 0.5, {})]
        assert tracer.summary()["query"] == {
            "count": 2, "total_seconds": 3.5, "max_seconds": 2.5,
        }

    def test_ring_bound_holds_for_recorded_spans(self):
        tracer = SpanTracer(capacity=3, clock=FakeClock())
        for i in range(10):
            tracer.record("query", float(i), 1.0, (("index", i),))
        assert [s.attrs["index"] for s in tracer.recent()] == [7, 8, 9]
        assert tracer.summary()["query"]["count"] == 10

    def test_disabled_tracer_records_nothing_through_record(self):
        tracer = SpanTracer(enabled=False)
        tracer.record("query", 0.0, 1.0)
        assert tracer.recent() == [] and tracer.summary() == {}

    def test_span_recorded_even_when_body_raises(self):
        tracer = SpanTracer(clock=FakeClock())
        with pytest.raises(RuntimeError):
            with tracer.span("query"):
                raise RuntimeError("boom")
        assert tracer.summary()["query"]["count"] == 1


class TestMergeSummaries:
    def test_counts_add_and_maxima_max(self):
        a = {"query": {"count": 2, "total_seconds": 1.0, "max_seconds": 0.8}}
        b = {"query": {"count": 3, "total_seconds": 2.0, "max_seconds": 0.5}}
        merged = merge_span_summaries([a, b])
        assert merged["query"] == {
            "count": 5,
            "total_seconds": 3.0,
            "max_seconds": 0.8,
        }

    def test_disjoint_names_union(self):
        a = {"x": {"count": 1, "total_seconds": 1.0, "max_seconds": 1.0}}
        b = {"y": {"count": 1, "total_seconds": 1.0, "max_seconds": 1.0}}
        assert sorted(merge_span_summaries([a, b])) == ["x", "y"]
