"""Benefit forecasting and the NetBenefit metric (§5).

The system keeps, per index, a window of per-epoch measured benefits.
At reorganization time it predicts the benefit for each of the next
``h`` epochs: the forecast ``PredBenefit_j`` for the ``j``-th future
epoch is "computed taking all of the past ``j`` epochs into account" --
we realize this as the mean of the last ``j`` windowed measurements, so
near-term forecasts weigh recent behaviour and far-term forecasts spread
over the whole memory.  Then

    NetBenefit(I) = sum_{j=1..h} PredBenefit_j(I) - MatCost(I)

with ``MatCost(I) = 0`` for already-materialized indexes.

This windowed design is deliberately what produces the Figure 6 noise
band: a burst roughly as long as the window dominates every forecast
horizon and is mistaken for a shift.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Sequence


class BenefitHistory:
    """Sliding window of per-epoch benefits for one index.

    Attributes:
        nonzero: How many windowed benefits differ from zero, kept as
            they enter and leave.  Every forecast term of a window
            without one is ``0.0`` (``-0.0`` terms included: Python's
            ``sum`` starts from ``0``), so such a window needs no
            forecast at all.
    """

    __slots__ = ("_window", "nonzero")

    def __init__(self, history_epochs: int) -> None:
        self._window: Deque[float] = deque(maxlen=history_epochs)
        self.nonzero = 0

    def record(self, benefit: float) -> None:
        """Append the benefit measured for the epoch just ended."""
        window = self._window
        if len(window) == window.maxlen and window[0] != 0.0:
            self.nonzero -= 1  # the append below pushes it out
        window.append(benefit)
        if benefit != 0.0:
            self.nonzero += 1

    def values(self) -> List[float]:
        """Windowed benefits, oldest first."""
        return list(self._window)

    def predicted_total(self, horizon: int) -> float:
        """:func:`total_predicted_benefit` of the window."""
        if not self.nonzero:
            return 0.0
        return total_predicted_benefit(list(self._window), horizon)

    def clear(self) -> None:
        """Forget all history (used when statistics become inconsistent)."""
        self._window.clear()
        self.nonzero = 0

    def __len__(self) -> int:
        return len(self._window)


# Smallest averaging window used by any forecast term.  With short
# epochs (w = 10) a single epoch's benefit is Poisson-noisy -- a
# one-epoch forecast term would flip knapsack near-ties every epoch, so
# even the nearest-horizon forecast averages at least this many epochs.
MIN_FORECAST_WINDOW = 6


def predicted_benefit(
    history: Sequence[float], j: int, min_window: int = MIN_FORECAST_WINDOW
) -> float:
    """``PredBenefit_j``: forecast for the ``j``-th future epoch.

    The mean of the last ``max(j, min_window)`` recorded benefits (or of
    all of them when fewer exist).  Returns 0 with no history.
    """
    if not history:
        return 0.0
    span = max(j, min_window)
    window = list(history[-span:]) if span < len(history) else list(history)
    return sum(window) / len(window)


def total_predicted_benefit(
    history: Sequence[float],
    horizon: int,
    min_window: int = MIN_FORECAST_WINDOW,
) -> float:
    """Sum of ``PredBenefit_j`` for ``j = 1..horizon``.

    A term depends on ``j`` only through the number of measurements it
    averages, ``min(max(j, min_window), len(history))``, which never
    shrinks as ``j`` grows: the first ``min_window`` terms share one
    mean, each later ``j`` up to ``len(history)`` averages one more
    measurement, and every term past that repeats the whole-history
    mean.  Each window is summed oldest first and the terms are summed
    in ``j`` order, exactly as the term-per-``j`` definition does.
    """
    n = len(history)
    if not n:
        return 0.0
    min_window = max(min_window, 1)  # max(j, min_window) never goes below j >= 1
    window = min(min_window, n)
    mean = sum(history[-window:]) / window
    terms = [mean] * min(horizon, min_window)
    for j in range(min_window + 1, horizon + 1):
        if j <= n:
            mean = sum(history[-j:]) / j
        terms.append(mean)
    return sum(terms)


def net_benefit(
    history: Sequence[float],
    horizon: int,
    materialization_cost: float,
    min_window: int = MIN_FORECAST_WINDOW,
) -> float:
    """``NetBenefit``: forecasted benefit minus materialization cost.

    Benefits in the history are *per-query averages* for each epoch;
    callers scale ``materialization_cost`` consistently (see
    ``ColtConfig.matcost_weight``).
    """
    return total_predicted_benefit(history, horizon, min_window) - materialization_cost
