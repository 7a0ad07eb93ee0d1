"""Exporters: Prometheus text exposition and JSON snapshots.

Both render the JSON-compatible snapshot dicts produced by
:meth:`~repro.obs.registry.MetricsRegistry.snapshot` (or the merged
fleet form from :func:`~repro.obs.registry.merge_snapshots`), so a
snapshot can be saved once and re-rendered in either format later --
which is exactly what the ``metrics --from`` CLI path does.

The Prometheus rendering follows the text exposition format: ``# HELP``
and ``# TYPE`` per family, escaped label values, and histograms as
``_bucket{le=...}`` series with cumulative counts plus ``_sum`` and
``_count``.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional

#: Identifies a saved snapshot file (schema marker for loaders).
SNAPSHOT_FORMAT = "colt-metrics"
SNAPSHOT_VERSION = 1


def _escape_help(text: str) -> str:
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _escape_label(value: str) -> str:
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _format_value(value: float) -> str:
    if value == float("inf"):
        return "+Inf"
    if value == float("-inf"):
        return "-Inf"
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def _render_labels(labels: Dict[str, str]) -> str:
    if not labels:
        return ""
    inner = ",".join(
        f'{key}="{_escape_label(str(labels[key]))}"' for key in sorted(labels)
    )
    return "{" + inner + "}"


def _bucket_labels(labels: Dict[str, str], bound: str) -> str:
    merged = dict(labels)
    merged["le"] = bound
    inner = ",".join(
        f'{key}="{_escape_label(str(merged[key]))}"'
        for key in sorted(merged, key=lambda k: (k == "le", k))
    )
    return "{" + inner + "}"


def _prom_bound(bound: str) -> str:
    """Normalize a stored bucket bound to Prometheus style."""
    if bound == "+Inf":
        return "+Inf"
    value = float(bound)
    return _format_value(value) if value.is_integer() else repr(value)


def to_prometheus_text(metrics: List[Dict]) -> str:
    """Render a metrics snapshot in Prometheus text exposition format."""
    lines: List[str] = []
    for family in metrics:
        name = family["name"]
        lines.append(f"# HELP {name} {_escape_help(family['help'])}")
        lines.append(f"# TYPE {name} {family['type']}")
        if family["type"] == "histogram":
            for sample in family["samples"]:
                labels = sample["labels"]
                for bound, count in sample["buckets"].items():
                    lines.append(
                        f"{name}_bucket"
                        f"{_bucket_labels(labels, _prom_bound(bound))}"
                        f" {_format_value(count)}"
                    )
                lines.append(
                    f"{name}_sum{_render_labels(labels)}"
                    f" {_format_value(sample['sum'])}"
                )
                lines.append(
                    f"{name}_count{_render_labels(labels)}"
                    f" {_format_value(sample['count'])}"
                )
        else:
            for sample in family["samples"]:
                lines.append(
                    f"{name}{_render_labels(sample['labels'])}"
                    f" {_format_value(sample['value'])}"
                )
    return "\n".join(lines) + "\n"


def build_snapshot(
    metrics: List[Dict], overhead: Optional[List[Dict]] = None
) -> Dict:
    """Assemble the self-describing snapshot document.

    Args:
        metrics: Family list from a registry (or merged) snapshot.
        overhead: Per-epoch overhead rows
            (:meth:`~repro.obs.dashboard.OverheadDashboard.to_rows`).
    """
    return {
        "format": SNAPSHOT_FORMAT,
        "version": SNAPSHOT_VERSION,
        "metrics": metrics,
        "overhead": overhead or [],
    }


def to_json_text(snapshot: Dict) -> str:
    """Render a snapshot document as pretty-printed JSON."""
    return json.dumps(snapshot, indent=2, sort_keys=True) + "\n"


def load_snapshot(path: str) -> Dict:
    """Load a snapshot document saved by :func:`write_metrics`.

    Raises:
        ValueError: if the file is not a recognizable snapshot: not
            tagged :data:`SNAPSHOT_FORMAT`, of another version, or
            without a ``metrics`` list.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("format") != SNAPSHOT_FORMAT:
        raise ValueError(f"{path} is not a {SNAPSHOT_FORMAT} snapshot")
    if doc.get("version") != SNAPSHOT_VERSION:
        raise ValueError(
            f"{path} is a version {doc.get('version')!r} {SNAPSHOT_FORMAT} "
            f"snapshot; this build reads version {SNAPSHOT_VERSION}"
        )
    if not isinstance(doc.get("metrics"), list):
        raise ValueError(f"{path} has no metrics list")
    return doc


def render_snapshot(snapshot: Dict, fmt: str) -> str:
    """Render a snapshot document as ``"prom"`` or ``"json"`` text."""
    if fmt == "prom":
        return to_prometheus_text(snapshot["metrics"])
    if fmt == "json":
        return to_json_text(snapshot)
    raise ValueError(f"unknown metrics format {fmt!r}")


def format_for_path(path: str) -> str:
    """Infer the output format from a file extension.

    ``.prom`` and ``.txt`` mean Prometheus text; everything else
    (including ``.json``) means the JSON snapshot document.
    """
    lowered = path.lower()
    if lowered.endswith(".prom") or lowered.endswith(".txt"):
        return "prom"
    return "json"


def write_metrics(path: str, snapshot: Dict, fmt: Optional[str] = None) -> str:
    """Write a snapshot document to ``path``; returns the format used.

    Args:
        path: Destination file.
        snapshot: Document from :func:`build_snapshot`.
        fmt: ``"prom"`` or ``"json"``; inferred from the extension when
            omitted.
    """
    chosen = fmt or format_for_path(path)
    text = render_snapshot(snapshot, chosen)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return chosen
