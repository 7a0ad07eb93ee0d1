"""Quantile estimation and merging over the registry's histograms.

The multiprocess fleet (``WorkerFleetCoordinator.latency_summary``)
reports p50/p95/p99 latency from the same cumulative-bucket histograms
the rest of the system exports -- no second data structure, no
raw-sample retention.  The estimator is the standard Prometheus
``histogram_quantile`` algorithm: find the lowest bucket whose
cumulative count reaches the target rank, then interpolate linearly
inside it.  The error is therefore bounded by
one bucket width, which is what the exact-reference test in
``tests/obs/test_quantiles.py`` pins against a brute-force sorted list.

Because bucket counts are plain sums, histograms from different workers
merge associatively: ``merge(merge(a, b), c) == merge(a, merge(b, c))``.
That is what lets the multiprocess fleet report fleet-wide percentiles
from per-worker snapshots without ever shipping raw samples across the
process boundary.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Sequence, Tuple

if TYPE_CHECKING:
    from repro.obs.registry import Histogram


__all__ = [
    "histogram_quantile",
    "merge_histogram_samples",
    "quantile_from_sample",
    "summarize_sample",
]


def _bounds_and_cumulative(
    buckets: Dict[str, float],
) -> Tuple[List[float], List[int]]:
    """Split a snapshot's bucket dict into sorted bounds + cumulative counts.

    Snapshot bucket keys are ``repr(bound)`` strings plus ``"+Inf"``
    (see :meth:`repro.obs.registry.Histogram.samples`).
    """
    finite = sorted(
        (float(key), int(count))
        for key, count in buckets.items()
        if key != "+Inf"
    )
    bounds = [b for b, _ in finite] + [math.inf]
    cumulative = [c for _, c in finite] + [int(buckets.get("+Inf", 0))]
    return bounds, cumulative


def quantile_from_sample(sample: Dict, q: float) -> Optional[float]:
    """Estimate the ``q``-quantile from one histogram snapshot sample.

    Args:
        sample: One entry of a histogram family's ``samples`` list
            (``{"count": n, "sum": s, "buckets": {...}}``).
        q: Quantile in ``[0, 1]``.

    Returns:
        The interpolated estimate, or None when the sample is empty.
        A quantile landing in the ``+Inf`` bucket clamps to the highest
        finite bound (there is no upper edge to interpolate toward).
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile must be in [0, 1], got {q}")
    count = int(sample.get("count", 0))
    if count == 0:
        return None
    bounds, cumulative = _bounds_and_cumulative(sample["buckets"])
    rank = q * count
    for i, (bound, cum) in enumerate(zip(bounds, cumulative)):
        if cum >= rank:
            if math.isinf(bound):
                # Clamp into the highest finite bound, as Prometheus does.
                return bounds[-2] if len(bounds) > 1 else 0.0
            lower = bounds[i - 1] if i > 0 else 0.0
            prev_cum = cumulative[i - 1] if i > 0 else 0
            in_bucket = cum - prev_cum
            if in_bucket <= 0:
                return bound
            fraction = (rank - prev_cum) / in_bucket
            return lower + (bound - lower) * fraction
    return bounds[-2] if len(bounds) > 1 else 0.0


def histogram_quantile(
    histogram: Histogram, q: float, **labels: object
) -> Optional[float]:
    """Estimate a quantile directly from a live :class:`Histogram`.

    Convenience wrapper over :func:`quantile_from_sample` for callers
    holding the collector rather than a snapshot.
    """
    wanted = {k: str(v) for k, v in labels.items()}
    for sample in histogram.samples():
        if sample["labels"] == wanted:
            return quantile_from_sample(sample, q)
    return None


def merge_histogram_samples(samples: Iterable[Dict]) -> Dict:
    """Merge histogram snapshot samples (counts and sums add).

    All samples must share one bucket layout; the merged sample drops
    labels (callers merging across workers re-label as needed).  The
    operation is associative and commutative, so fleet-wide percentiles
    do not depend on worker collection order.

    Raises:
        ValueError: when samples disagree on bucket bounds.
    """
    merged_count = 0
    merged_sum = 0.0
    merged_buckets: Optional[Dict[str, int]] = None
    for sample in samples:
        buckets = sample["buckets"]
        if merged_buckets is None:
            merged_buckets = {k: int(v) for k, v in buckets.items()}
        else:
            if set(merged_buckets) != set(buckets):
                raise ValueError(
                    "cannot merge histograms with different bucket layouts"
                )
            for key, value in buckets.items():
                merged_buckets[key] += int(value)
        merged_count += int(sample["count"])
        merged_sum += float(sample["sum"])
    return {
        "labels": {},
        "count": merged_count,
        "sum": merged_sum,
        "buckets": merged_buckets or {},
    }


def summarize_sample(
    sample: Dict, quantiles: Sequence[float] = (0.5, 0.95, 0.99)
) -> Dict[str, Optional[float]]:
    """p50/p95/p99-style summary of one histogram sample.

    Keys are ``p<percent>`` (``p50``, ``p95``, ``p99`` by default) plus
    ``count`` and ``mean``.
    """
    count = int(sample.get("count", 0))
    out: Dict[str, Optional[float]] = {
        f"p{round(q * 100)}": quantile_from_sample(sample, q)
        for q in quantiles
    }
    out["count"] = count
    out["mean"] = (float(sample["sum"]) / count) if count else None
    return out
