"""Circuit breaker for what-if profiling (degraded-mode switch).

COLT's two-level profiling has a natural degraded mode: when precise
what-if calls are unavailable the tuner keeps running on crude
``BenefitC`` estimates alone (conservative lower bounds, no
confidence-interval updates).  The breaker is the switch between the
two levels:

* **CLOSED** -- probes flow normally.  ``failure_threshold`` consecutive
  probe failures trip it OPEN.
* **OPEN** -- no probes are issued; the profiler's effective what-if
  budget is 0 and only crude statistics accumulate.  The clock advances
  one tick per arriving query; after ``cooldown_ticks`` the breaker goes
  HALF_OPEN.
* **HALF_OPEN** -- a trickle of probes (``half_open_budget`` per query)
  is allowed through.  ``recovery_threshold`` consecutive successes
  close the breaker; any failure reopens it and restarts the cooldown.
"""

from __future__ import annotations

import enum
from typing import Callable, List, Tuple


class BreakerState(enum.Enum):
    """The three classic circuit-breaker states."""

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"


class CircuitBreaker:
    """Consecutive-failure circuit breaker with tick-driven cooldown.

    Args:
        failure_threshold: Consecutive failures that trip the breaker.
        cooldown_ticks: Ticks (arriving queries) spent OPEN before
            probing resumes HALF_OPEN.
        recovery_threshold: Consecutive HALF_OPEN successes needed to
            close the breaker again.

    Attributes:
        half_open_budget: Probes allowed per query while HALF_OPEN.
        transitions: ``(from_state, to_state, tick)`` log of every state
            change, for tests and traces.
    """

    half_open_budget = 1

    def __init__(
        self,
        failure_threshold: int = 5,
        cooldown_ticks: int = 20,
        recovery_threshold: int = 2,
    ) -> None:
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be positive")
        if cooldown_ticks < 1:
            raise ValueError("cooldown_ticks must be positive")
        if recovery_threshold < 1:
            raise ValueError("recovery_threshold must be positive")
        self.failure_threshold = failure_threshold
        self.cooldown_ticks = cooldown_ticks
        self.recovery_threshold = recovery_threshold
        self.state = BreakerState.CLOSED
        self.transitions: List[Tuple[str, str, int]] = []
        self._listeners: List[Callable[[str, str], None]] = []
        self._consecutive_failures = 0
        self._recovery_successes = 0
        self._cooldown = 0
        self._ticks = 0
        self.total_failures = 0
        self.total_trips = 0

    def add_listener(self, listener: Callable[[str, str], None]) -> None:
        """Register a ``(from_state, to_state)`` transition observer.

        Observers fire synchronously on every state change, after the
        transition log is appended; the metrics layer uses this to count
        transitions without the breaker knowing about registries.
        """
        if listener not in self._listeners:
            self._listeners.append(listener)

    # ------------------------------------------------------------------
    @property
    def is_closed(self) -> bool:
        """Whether probing is fully enabled."""
        return self.state is BreakerState.CLOSED

    @property
    def is_open(self) -> bool:
        """Whether probing is fully suspended (degraded mode)."""
        return self.state is BreakerState.OPEN

    def allows_probes(self) -> bool:
        """Whether any probe may be issued right now."""
        return self.state is not BreakerState.OPEN

    # ------------------------------------------------------------------
    def tick(self) -> None:
        """Advance the breaker clock by one arriving query."""
        self._ticks += 1
        if self.state is BreakerState.OPEN:
            self._cooldown += 1
            if self._cooldown >= self.cooldown_ticks:
                self._transition(BreakerState.HALF_OPEN)
                self._recovery_successes = 0

    def record_success(self) -> None:
        """Note a successful probe."""
        if self.state is BreakerState.HALF_OPEN:
            self._recovery_successes += 1
            if self._recovery_successes >= self.recovery_threshold:
                self._transition(BreakerState.CLOSED)
                self._consecutive_failures = 0
        elif self.state is BreakerState.CLOSED:
            self._consecutive_failures = 0

    def record_failure(self) -> None:
        """Note a failed probe; may trip the breaker."""
        self.total_failures += 1
        if self.state is BreakerState.HALF_OPEN:
            self._trip()
        elif self.state is BreakerState.CLOSED:
            self._consecutive_failures += 1
            if self._consecutive_failures >= self.failure_threshold:
                self._trip()

    def trip(self) -> None:
        """Force the breaker OPEN on failure evidence from outside the
        probe path.

        ``record_failure`` trips only after ``failure_threshold``
        consecutive probe failures -- right for noisy probes, wrong for
        a failure that is certain, such as the fleet coordinator finding
        a replica's worker process dead: no probe will ever succeed, so
        the breaker opens immediately.  Already-OPEN breakers restart
        their cooldown.
        """
        self.total_failures += 1
        if self.state is BreakerState.OPEN:
            self._cooldown = 0
        else:
            self._trip()

    # ------------------------------------------------------------------
    def _trip(self) -> None:
        self.total_trips += 1
        self._cooldown = 0
        self._consecutive_failures = 0
        self._transition(BreakerState.OPEN)

    def _transition(self, to: BreakerState) -> None:
        origin = self.state.value
        self.transitions.append((origin, to.value, self._ticks))
        self.state = to
        for listener in self._listeners:
            listener(origin, to.value)
