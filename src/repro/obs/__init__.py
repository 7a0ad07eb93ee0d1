"""Observability for the COLT reproduction: metrics, spans, overhead.

The subsystem is dependency-free and instance-scoped: each tuner or
fleet coordinator owns (or shares) a :class:`MetricsRegistry`, a
:class:`SpanTracer`, and an :class:`OverheadDashboard`, and exposes a
merged snapshot via ``metrics_snapshot()``.  Exporters render snapshots
as Prometheus text or JSON; :mod:`repro.obs.names` is the stable
catalog of every metric family the instrumented code emits.

``docs/OBSERVABILITY.md`` is the narrative guide (what is instrumented,
the overhead dashboard's invariant, and the CLI surface).
"""

from repro.obs.dashboard import (
    EpochOverheadRecord,
    OverheadDashboard,
    render_overhead_rows,
)
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
from repro.obs.names import (
    CATALOG,
    FLEET_METRICS,
    PROFILER_METRICS,
    RESILIENCE_METRICS,
    TUNER_METRICS,
    MetricSpec,
)
from repro.obs.registry import (
    COST_BUCKETS,
    NULL_REGISTRY,
    SECONDS_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    Metric,
    MetricError,
    MetricsRegistry,
    merge_snapshots,
)
from repro.obs.spans import Span, SpanTracer, merge_span_summaries
