"""Benefit forecasting and the NetBenefit metric (§5).

The system keeps, per index, a window of per-epoch measured benefits.
At reorganization time it predicts the benefit for each of the next
``h`` epochs: the forecast ``PredBenefit_j`` for the ``j``-th future
epoch is "computed taking all of the past ``j`` epochs into account" --
we realize this as the mean of the last ``max(j, MIN_FORECAST_WINDOW)``
windowed measurements (all of them when the window holds fewer), so
near-term forecasts weigh recent behaviour, no forecast rests on fewer
than ``MIN_FORECAST_WINDOW`` epochs, and far-term forecasts spread over
the whole memory.  Then

    NetBenefit(I) = sum_{j=1..h} PredBenefit_j(I) - MatCost(I)

with ``MatCost(I) = 0`` for already-materialized indexes.

Every sum here is a left fold from ``0``, oldest term first: what the
built-in ``sum`` computes over floats up to CPython 3.11 (3.12's is
compensated), so a forecast is the same float on every version.

This windowed design is deliberately what produces the Figure 6 noise
band: a burst roughly as long as the window dominates every forecast
horizon and is mistaken for a shift.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List


class BenefitHistory:
    """Sliding window of per-epoch benefits for one index.

    Attributes:
        nonzero: How many windowed benefits differ from zero, kept as
            they enter and leave.  Every forecast term of a window
            without one is ``0.0`` (``-0.0`` terms included: a fold
            starts from ``0``), so such a window needs no forecast at
            all.
    """

    __slots__ = ("_window", "_sums", "nonzero")

    def __init__(self, history_epochs: int) -> None:
        self._window: Deque[float] = deque(maxlen=history_epochs)
        # _sums[j] is the fold of the newest j benefits, oldest first.
        # An append extends every suffix by the same newest term, so the
        # new _sums[j] is the old _sums[j - 1] plus it: the very fold
        # the window's own sum would perform.
        self._sums: List[float] = [0]
        self.nonzero = 0

    def record(self, benefit: float) -> None:
        """Append the benefit measured for the epoch just ended."""
        window = self._window
        sums = self._sums
        if len(window) == window.maxlen:
            if window[0] != 0.0:
                self.nonzero -= 1  # the append below pushes it out
            sums.pop()  # and with it the sum of the whole window
        window.append(benefit)
        if benefit != 0.0:
            self.nonzero += 1
        sums = [s + benefit for s in sums]
        sums.insert(0, 0)
        self._sums = sums

    def values(self) -> List[float]:
        """Windowed benefits, oldest first."""
        return list(self._window)

    def predicted_total(self, horizon: int) -> float:
        """Sum of ``PredBenefit_j`` for ``j = 1..horizon`` over the window
        (``0.0`` for an empty or all-zero one), read from the suffix
        sums."""
        if not self.nonzero:
            return 0.0
        return _total_from_sums(self._sums, horizon, MIN_FORECAST_WINDOW)

    def clear(self) -> None:
        """Forget all history (used when statistics become inconsistent)."""
        self._window.clear()
        self._sums = [0]
        self.nonzero = 0

    def __len__(self) -> int:
        return len(self._window)


# Smallest averaging window used by any forecast term.  With short
# epochs (w = 10) a single epoch's benefit is Poisson-noisy -- a
# one-epoch forecast term would flip knapsack near-ties every epoch, so
# even the nearest-horizon forecast averages at least this many epochs.
MIN_FORECAST_WINDOW = 6


def _total_from_sums(sums: List[float], horizon: int, min_window: int) -> float:
    """Sum of ``PredBenefit_j`` for ``j = 1..horizon`` over a non-empty
    window, given its suffix sums: ``sums[j]`` is the fold of its newest
    ``j`` benefits.

    A term depends on ``j`` only through the number of measurements it
    averages, ``min(max(j, min_window), len(window))``, which never
    shrinks as ``j`` grows: the first ``min_window`` terms share one
    mean, each later ``j`` up to the window's length averages one more
    measurement, and every term past that repeats the whole-window mean.
    The terms are folded in ``j`` order, exactly as the term-per-``j``
    definition does.
    """
    n = len(sums) - 1
    window = min(min_window, n)
    mean = sums[window] / window
    total = 0
    for _ in range(min(horizon, min_window)):
        total += mean
    for j in range(min_window + 1, horizon + 1):
        if j <= n:
            mean = sums[j] / j
        total += mean
    return total
