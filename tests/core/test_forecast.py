"""Unit tests for benefit forecasting and NetBenefit."""

import pytest

from repro.core.forecast import MIN_FORECAST_WINDOW, BenefitHistory
from repro.core.self_organizer import _net_benefit


def window_of(values, history_epochs=12):
    history = BenefitHistory(history_epochs)
    for value in values:
        history.record(value)
    return history


def term(history, j):
    """``PredBenefit_j``: the ``j``-th term of the summed forecast."""
    return history.predicted_total(j) - history.predicted_total(j - 1)


class TestBenefitHistory:
    def test_window_bounded(self):
        history = window_of([float(v) for v in range(10)], history_epochs=3)
        assert history.values() == [7.0, 8.0, 9.0]
        assert len(history) == 3

    def test_clear(self):
        history = window_of([1.0], history_epochs=3)
        history.clear()
        assert history.values() == []
        assert history.predicted_total(12) == 0.0


class TestPredictedBenefit:
    def test_empty_history(self):
        assert BenefitHistory(12).predicted_total(12) == 0.0

    def test_constant_history(self):
        history = window_of([5.0] * 12)
        for j in range(1, 13):
            assert term(history, j) == pytest.approx(5.0)

    def test_min_window_smooths_near_term(self):
        # One bad epoch at the end is averaged over the minimum window.
        history = window_of([10.0] * (MIN_FORECAST_WINDOW - 1) + [0.0])
        expected = 10.0 * (MIN_FORECAST_WINDOW - 1) / MIN_FORECAST_WINDOW
        assert term(history, 1) == pytest.approx(expected)

    def test_near_terms_share_one_mean(self):
        history = window_of([float(v) for v in range(12)])
        near = [term(history, j) for j in range(1, MIN_FORECAST_WINDOW + 1)]
        assert near == pytest.approx([near[0]] * MIN_FORECAST_WINDOW)

    def test_long_horizon_uses_whole_window(self):
        history = window_of([0.0] * 6 + [12.0] * 6)
        assert term(history, 12) == pytest.approx(6.0)
        assert term(history, 20) == pytest.approx(6.0)

    def test_recency_weighting(self):
        # Recently-good index forecasts higher at short horizons.
        rising = window_of([0.0] * 6 + [10.0] * 6)
        falling = window_of([10.0] * 6 + [0.0] * 6)
        assert term(rising, 1) > term(falling, 1)


class TestTotals:
    def test_total_is_sum_of_terms(self):
        values = [float(v) for v in range(1, 13)]
        expected = 0.0
        for j in range(1, 13):
            span = min(max(j, MIN_FORECAST_WINDOW), len(values))
            expected += sum(values[-span:]) / span
        assert window_of(values).predicted_total(12) == pytest.approx(expected)

    def test_short_window_repeats_its_mean(self):
        history = window_of([1.0, 2.0, 3.0, 4.0, 5.0])
        assert history.predicted_total(5) == pytest.approx(15.0)

    def test_constant_scales_with_horizon(self):
        assert window_of([3.0] * 12).predicted_total(12) == pytest.approx(36.0)

    def test_net_benefit_subtracts_cost(self):
        history = window_of([10.0] * 12)
        assert _net_benefit(history, 12, 100.0) == pytest.approx(20.0)

    def test_net_benefit_empty_history(self):
        assert _net_benefit(None, 12, 50.0) == -50.0
        assert _net_benefit(BenefitHistory(12), 12, 50.0) == -50.0

    def test_burst_memory(self):
        """An index idle for a few epochs retains part of its forecast.

        This is the mechanism behind Figure 6's resilience: raw windowed
        means keep pre-burst benefit alive for up to h epochs.
        """
        burst = window_of([20.0] * 8 + [0.0] * 4)  # 4 idle epochs
        steady = window_of([20.0] * 12)
        assert burst.predicted_total(12) > 0.3 * steady.predicted_total(12)
