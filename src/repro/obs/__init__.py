"""Observability for the COLT reproduction: metrics and overhead.

The subsystem is dependency-free and instance-scoped: each tuner or
fleet coordinator owns (or shares) a :class:`MetricsRegistry` and an
:class:`OverheadDashboard`, and exposes a merged snapshot via
``metrics_snapshot()``.  Exporters render snapshots as Prometheus text
or JSON; :mod:`repro.obs.names` is the stable catalog of every metric
family the instrumented code emits.

``docs/OBSERVABILITY.md`` is the narrative guide (what is instrumented,
the overhead dashboard's invariant, and the CLI surface).
"""

from repro._facade import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "dashboard": (
            "EpochOverheadRecord",
            "OverheadDashboard",
            "render_overhead_rows",
        ),
        "export": (
            "SNAPSHOT_FORMAT",
            "SNAPSHOT_VERSION",
            "build_snapshot",
            "format_for_path",
            "load_snapshot",
            "render_snapshot",
            "to_json_text",
            "to_prometheus_text",
            "write_metrics",
        ),
        "names": (
            "CATALOG",
            "FLEET_METRICS",
            "PROFILER_METRICS",
            "RESILIENCE_METRICS",
            "TUNER_METRICS",
            "MetricSpec",
        ),
        "registry": (
            "COST_BUCKETS",
            "SECONDS_BUCKETS",
            "Counter",
            "Gauge",
            "Histogram",
            "Metric",
            "MetricError",
            "MetricsRegistry",
            "merge_snapshots",
        ),
    },
)
