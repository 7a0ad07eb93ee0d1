"""Exact-reference tests for histogram quantiles and worker merging.

The multiprocess fleet reports p50/p95/p99 from cumulative-bucket histograms
(``repro.obs.quantiles``).  The estimator interpolates inside one
bucket, so its error is bounded by that bucket's width -- these tests
pin the estimate against a brute-force sorted-list reference on known
synthetic distributions, and prove bucket merging is associative and
commutative (what lets the multiprocess fleet merge per-worker
histograms in any collection order).
"""

from __future__ import annotations

import math
import random

import pytest

from repro.obs.quantiles import (
    histogram_quantile,
    merge_histogram_samples,
    quantile_from_sample,
    summarize_sample,
)
from repro.obs.registry import LATENCY_BUCKETS, MetricsRegistry


QUANTILES = (0.5, 0.95, 0.99)


def make_histogram(name="lat"):
    registry = MetricsRegistry()
    return registry.histogram(name, "test latency", buckets=LATENCY_BUCKETS)


def bucket_width_at(value: float) -> float:
    """Width of the LATENCY_BUCKETS bucket containing ``value``."""
    bounds = list(LATENCY_BUCKETS)
    lower = 0.0
    for bound in bounds:
        if value <= bound:
            return bound - lower
        lower = bound
    return math.inf


def exact_quantile(values, q):
    """Brute-force reference: the value at rank ceil(q * n)."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def synthetic_distributions():
    rng = random.Random(7)
    uniform = [rng.uniform(0.000_02, 0.02) for _ in range(5000)]
    lognormal = [
        min(math.exp(rng.gauss(-7.0, 1.0)), 5.0) for _ in range(5000)
    ]
    bimodal = [
        rng.uniform(0.000_05, 0.000_2)
        if rng.random() < 0.9
        else rng.uniform(0.01, 0.05)
        for _ in range(5000)
    ]
    constant = [0.000_3] * 1000
    return {
        "uniform": uniform,
        "lognormal": lognormal,
        "bimodal": bimodal,
        "constant": constant,
    }


class TestExactReference:
    @pytest.mark.parametrize("name", sorted(synthetic_distributions()))
    def test_within_one_bucket_of_sorted_reference(self, name):
        values = synthetic_distributions()[name]
        histogram = make_histogram()
        for v in values:
            histogram.observe(v)
        sample = histogram.samples()[0]
        for q in QUANTILES:
            estimate = quantile_from_sample(sample, q)
            reference = exact_quantile(values, q)
            # The estimate interpolates inside the bucket holding the
            # true quantile: it can never be off by more than that
            # bucket's width.
            assert estimate is not None
            assert abs(estimate - reference) <= bucket_width_at(reference), (
                name,
                q,
                estimate,
                reference,
            )

    def test_constant_distribution_pins_inside_one_bucket(self):
        histogram = make_histogram()
        for _ in range(100):
            histogram.observe(0.000_3)
        sample = histogram.samples()[0]
        for q in QUANTILES:
            estimate = quantile_from_sample(sample, q)
            assert abs(estimate - 0.000_3) <= bucket_width_at(0.000_3)

    def test_empty_sample_returns_none(self):
        sample = {"count": 0, "sum": 0.0, "buckets": {}}
        assert quantile_from_sample(sample, 0.5) is None
        summary = summarize_sample(sample)
        assert summary["p50"] is None
        assert summary["count"] == 0
        assert summary["mean"] is None

    def test_invalid_quantile_raises(self):
        sample = {"count": 1, "sum": 1.0, "buckets": {"+Inf": 1}}
        with pytest.raises(ValueError):
            quantile_from_sample(sample, 1.5)

    def test_overflow_clamps_to_highest_finite_bound(self):
        histogram = make_histogram()
        for _ in range(10):
            histogram.observe(100.0)  # beyond every finite bucket
        sample = histogram.samples()[0]
        assert quantile_from_sample(sample, 0.5) == LATENCY_BUCKETS[-1]

    def test_histogram_quantile_convenience(self):
        histogram = make_histogram()
        for _ in range(100):
            histogram.observe(0.000_3)
        direct = histogram_quantile(histogram, 0.5)
        via_sample = quantile_from_sample(histogram.samples()[0], 0.5)
        assert direct == via_sample

    def test_summarize_sample_keys(self):
        histogram = make_histogram()
        for i in range(100):
            histogram.observe(0.0001 * (i + 1))
        summary = summarize_sample(histogram.samples()[0])
        assert set(summary) == {"p50", "p95", "p99", "count", "mean"}
        assert summary["count"] == 100
        assert summary["p50"] <= summary["p95"] <= summary["p99"]


class TestMergeAcrossWorkers:
    def shards(self):
        """Three per-worker histograms over one combined distribution."""
        values = synthetic_distributions()["bimodal"]
        shards = []
        for w in range(3):
            histogram = make_histogram()
            for v in values[w::3]:
                histogram.observe(v)
            shards.append(histogram.samples()[0])
        return values, shards

    def test_merge_equals_single_histogram(self):
        values, shards = self.shards()
        merged = merge_histogram_samples(shards)
        combined = make_histogram()
        for v in values:
            combined.observe(v)
        single = combined.samples()[0]
        assert merged["count"] == single["count"]
        assert merged["sum"] == pytest.approx(single["sum"])
        assert merged["buckets"] == single["buckets"]

    @staticmethod
    def assert_equivalent(left, right):
        # Bucket counts are integers, so merging them is exactly
        # associative/commutative; the float "sum" reassociates, so it
        # only matches to rounding.
        assert left["count"] == right["count"]
        assert left["buckets"] == right["buckets"]
        assert left["sum"] == pytest.approx(right["sum"])

    def test_merge_is_associative(self):
        _, (a, b, c) = self.shards()
        left = merge_histogram_samples(
            [merge_histogram_samples([a, b]), c]
        )
        right = merge_histogram_samples(
            [a, merge_histogram_samples([b, c])]
        )
        self.assert_equivalent(left, right)

    def test_merge_is_commutative(self):
        _, (a, b, c) = self.shards()
        self.assert_equivalent(
            merge_histogram_samples([a, b, c]),
            merge_histogram_samples([c, a, b]),
        )

    def test_merged_percentiles_match_combined(self):
        values, shards = self.shards()
        merged = merge_histogram_samples(shards)
        for q in QUANTILES:
            estimate = quantile_from_sample(merged, q)
            reference = exact_quantile(values, q)
            assert abs(estimate - reference) <= bucket_width_at(reference)

    def test_mismatched_layouts_rejected(self):
        registry = MetricsRegistry()
        other = registry.histogram("o", "other", buckets=(1.0, 2.0))
        other.observe(1.5)
        _, (a, _, _) = self.shards()
        with pytest.raises(ValueError):
            merge_histogram_samples([a, other.samples()[0]])
