"""Tests for the Prometheus-text and JSON snapshot exporters."""

import json

import pytest

from repro.obs.export import (
    SNAPSHOT_FORMAT,
    SNAPSHOT_VERSION,
    build_snapshot,
    format_for_path,
    load_snapshot,
    render_snapshot,
    to_json_text,
    to_prometheus_text,
    write_metrics,
)
from repro.obs.registry import MetricsRegistry


def _sample_registry():
    r = MetricsRegistry()
    r.counter("queries_total", "Queries processed.").inc(3)
    r.gauge("depth", "Queue depth.").set(2)
    r.histogram("latency_seconds", "Latency.", buckets=(0.1, 1.0)).observe(0.5)
    return r


class TestPrometheusText:
    def test_counter_rendering(self):
        text = to_prometheus_text(_sample_registry().snapshot())
        assert "# HELP queries_total Queries processed." in text
        assert "# TYPE queries_total counter" in text
        assert "\nqueries_total 3\n" in text

    def test_gauge_rendering(self):
        text = to_prometheus_text(_sample_registry().snapshot())
        assert "# TYPE depth gauge" in text
        assert "\ndepth 2\n" in text

    def test_histogram_rendering(self):
        text = to_prometheus_text(_sample_registry().snapshot())
        assert "# TYPE latency_seconds histogram" in text
        assert 'latency_seconds_bucket{le="0.1"} 0' in text
        assert 'latency_seconds_bucket{le="1"} 1' in text
        assert 'latency_seconds_bucket{le="+Inf"} 1' in text
        assert "latency_seconds_sum 0.5" in text
        assert "latency_seconds_count 1" in text

    def test_labels_sorted_and_escaped(self):
        r = MetricsRegistry()
        c = r.counter("x_total", "x", ("zone", "app"))
        c.inc(1, zone='a"b', app="line\nbreak")
        text = to_prometheus_text(r.snapshot())
        assert 'x_total{app="line\\nbreak",zone="a\\"b"} 1' in text

    def test_le_label_renders_last(self):
        r = MetricsRegistry()
        h = r.histogram("d", "d", ("replica",), buckets=(1.0,))
        h.observe(0.5, replica="0")
        text = to_prometheus_text(r.snapshot())
        assert 'd_bucket{replica="0",le="1"} 1' in text


class TestSnapshotDocument:
    def test_build_snapshot_structure(self):
        doc = build_snapshot([], overhead=[{"epoch": 0}])
        assert set(doc) == {"format", "version", "metrics", "overhead"}
        assert doc["format"] == SNAPSHOT_FORMAT
        assert doc["version"] == 1
        assert doc["overhead"] == [{"epoch": 0}]

    def test_json_text_is_valid_json(self):
        doc = build_snapshot(_sample_registry().snapshot())
        parsed = json.loads(to_json_text(doc))
        assert parsed["format"] == SNAPSHOT_FORMAT

    def test_render_snapshot_rejects_unknown_format(self):
        with pytest.raises(ValueError):
            render_snapshot(build_snapshot([]), "yaml")


class TestFileRoundtrip:
    def test_format_for_path(self):
        assert format_for_path("m.prom") == "prom"
        assert format_for_path("m.TXT") == "prom"
        assert format_for_path("m.json") == "json"
        assert format_for_path("m") == "json"

    def test_write_and_load_roundtrip(self, tmp_path):
        doc = build_snapshot(_sample_registry().snapshot())
        path = str(tmp_path / "m.json")
        assert write_metrics(path, doc) == "json"
        assert load_snapshot(path) == doc

    def test_write_prom_by_extension(self, tmp_path):
        doc = build_snapshot(_sample_registry().snapshot())
        path = str(tmp_path / "m.prom")
        assert write_metrics(path, doc) == "prom"
        assert "# TYPE queries_total counter" in open(path).read()

    def test_load_rejects_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ValueError, match="not valid JSON"):
            load_snapshot(str(path))

    def test_load_rejects_foreign_document(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text('{"format": "something-else"}')
        with pytest.raises(ValueError, match=SNAPSHOT_FORMAT):
            load_snapshot(str(path))

    @pytest.mark.parametrize(
        "fields, match",
        [
            ({"version": 7, "metrics": []}, "version 7"),
            ({"metrics": []}, "version None"),
            ({"version": SNAPSHOT_VERSION}, "no metrics list"),
            ({"version": SNAPSHOT_VERSION, "metrics": {"a": 1}}, "no metrics list"),
            ({"version": SNAPSHOT_VERSION, "metrics": None}, "no metrics list"),
        ],
        ids=["other-version", "no-version", "no-metrics", "metrics-dict", "metrics-null"],
    )
    def test_load_rejects_a_malformed_snapshot(self, tmp_path, fields, match):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"format": SNAPSHOT_FORMAT, **fields}))
        with pytest.raises(ValueError, match=match) as raised:
            load_snapshot(str(path))
        assert str(path) in str(raised.value)
