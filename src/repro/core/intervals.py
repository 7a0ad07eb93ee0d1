"""CLT-style confidence intervals over sampled query gains.

The Profiler keeps one :class:`GainStats` per (index, cluster) pair.
Samples arrive from what-if calls; the interval
``[LowGain, HighGain]`` summarizes the average gain of a cluster query
with a fixed confidence level (the paper cites Student/CLT bounds with
90% confidence).  Lower bounds drive conservative benefit estimates for
unprofiled queries; upper bounds drive the Self-Organizer's optimistic
re-budgeting scenario.
"""

from __future__ import annotations

import math
from typing import Optional, Tuple

# Standard normal quantiles for the confidence levels the paper's
# experiments plausibly use; intermediate levels are interpolated.
_Z_TABLE = (
    (0.80, 1.282),
    (0.90, 1.645),
    (0.95, 1.960),
    (0.99, 2.576),
)


def z_value(confidence: float) -> float:
    """Two-sided normal quantile for a confidence level in [0.5, 1)."""
    if confidence <= _Z_TABLE[0][0]:
        return _Z_TABLE[0][1] * confidence / _Z_TABLE[0][0]
    for (c1, z1), (c2, z2) in zip(_Z_TABLE, _Z_TABLE[1:]):
        if confidence <= c2:
            t = (confidence - c1) / (c2 - c1)
            return z1 + t * (z2 - z1)
    return _Z_TABLE[-1][1]


class GainStats:
    """Streaming mean/variance of gain samples with CLT bounds.

    Uses Welford's algorithm for numerical stability.  With zero samples
    the interval is maximally uninformative: ``LowGain = 0`` and
    ``HighGain = +inf`` (callers substitute a crude optimistic estimate
    for the unbounded side).  With one sample the spread is taken to be
    the sample magnitude itself, a deliberately wide prior.

    The half-width and the interval are computed on first read and held
    until the next :meth:`add`: an epoch close reads the interval of
    every exposed pair, and most pairs got no sample since the last one.
    """

    __slots__ = ("count", "_mean", "_m2", "_z", "_half", "_interval")

    def __init__(self, confidence: float = 0.90) -> None:
        self.count = 0
        self._mean = 0.0
        self._m2 = 0.0
        self._z = z_value(confidence)
        self._half: Optional[float] = None
        self._interval: Optional[Tuple[float, float]] = None

    def add(self, gain: float) -> None:
        """Record one measured gain."""
        self.count += 1
        delta = gain - self._mean
        self._mean += delta / self.count
        self._m2 += delta * (gain - self._mean)
        self._half = self._interval = None

    @property
    def mean(self) -> float:
        """Sample mean gain (0 with no samples)."""
        return self._mean

    @property
    def variance(self) -> float:
        """Unbiased sample variance (0 with fewer than two samples)."""
        if self.count < 2:
            return 0.0
        return self._m2 / (self.count - 1)

    @property
    def stddev(self) -> float:
        """Sample standard deviation."""
        return math.sqrt(self.variance)

    def half_width(self) -> float:
        """Half-width of the confidence interval around the mean.

        With a single sample the spread is unknown; we use half the
        sample magnitude as a wide-but-not-vacuous prior (a zero lower
        bound would make one-off measurements worthless to the
        conservative estimator).
        """
        half = self._half
        if half is None:
            count = self.count
            if count == 0:
                half = math.inf
            elif count == 1:
                half = 0.5 * abs(self._mean)
            else:  # z * stddev / sqrt(n)
                half = self._z * math.sqrt(self._m2 / (count - 1)) / math.sqrt(count)
            self._half = half
        return half

    def interval(self) -> Tuple[float, float]:
        """The confidence interval ``[LowGain, HighGain]``.

        The lower bound is floored at 0 -- a negative average gain is
        never *acted on* more strongly than "no gain", matching the
        conservative-materialization policy.
        """
        interval = self._interval
        if interval is None:
            if self.count == 0:
                interval = (0.0, math.inf)
            else:
                hw = self.half_width()
                interval = (max(0.0, self._mean - hw), self._mean + hw)
            self._interval = interval
        return interval

    @property
    def low(self) -> float:
        """``LowGain``: conservative average gain."""
        return self.interval()[0]

    @property
    def high(self) -> float:
        """``HighGain``: optimistic average gain."""
        return self.interval()[1]

    def relative_uncertainty(self) -> float:
        """Half-width relative to the mean magnitude.

        Used by adaptive sampling: large values mean the estimate is
        imprecise and more what-if calls should target this pair.
        Unprofiled pairs report infinity.
        """
        if self.count == 0:
            return math.inf
        scale = abs(self._mean) + 1e-9
        return self.half_width() / scale
