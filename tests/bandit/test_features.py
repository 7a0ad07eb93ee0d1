"""Tests for the bandit's per-arm context vectors."""

from repro.bandit.features import FEATURE_DIM, FEATURE_NAMES, FeatureMap
from repro.core.candidates import CandidateTracker


def test_materialized_membership_is_read_from_any_collection(small_catalog):
    features = FeatureMap(small_catalog, storage_budget_pages=5000.0)
    tracker = CandidateTracker(small_catalog, 4, 0.5)
    day = small_catalog.index_for("events", "day")
    user = small_catalog.index_for("events", "user_id")
    flag = FEATURE_NAMES.index("is_materialized")
    for holder in (set, frozenset, list, tuple):
        inside = features.vector(day, tracker, holder([user, day]))
        outside = features.vector(day, tracker, holder([user]))
        assert len(inside) == FEATURE_DIM
        assert (inside[flag], outside[flag]) == (1.0, 0.0)
        assert inside[:flag] + inside[flag + 1:] == outside[:flag] + outside[flag + 1:]
