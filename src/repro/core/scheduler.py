"""The Scheduler: carrying out materialization requests (§3).

The paper lists three strategies and implements the first; so do we:
**immediate** -- build requested indexes right away, asynchronously in
the prototype; in the simulation the build cost is charged to the
ledger at request time and the index becomes available for the next
query.  Idle-time building and building from intermediate results are
not implemented.

When a :class:`~repro.engine.storage.PhysicalStore` is attached the
scheduler also builds the physical B+tree so that subsequent executions
can actually use the index; otherwise only the catalog state changes
(pure cost-model simulation).

Build failures (:class:`IndexBuildError`, whether real or injected via
the scheduler's ``failpoint``) do not propagate: the failed index stays
unmaterialized -- the knapsack keeps treating it as absent -- and is
re-queued with capped exponential backoff across epoch boundaries (see
:meth:`Scheduler.advance_epoch`).  After the retry policy is exhausted
the index is abandoned until the Self-Organizer requests it again.
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING, Callable, Iterable, List, Optional

from repro.resilience.errors import IndexBuildError
from repro.resilience.retry import RetryPolicy

if TYPE_CHECKING:
    from repro.engine.catalog import Catalog
    from repro.engine.index import IndexDef
    from repro.engine.storage import PhysicalStore

__all__ = [
    "FailedBuild",
    "IndexBuildError",
    "RetryReport",
    "ScheduledBuild",
    "Scheduler",
]


@dataclasses.dataclass
class ScheduledBuild:
    """A completed index build, with its charged cost."""

    index: IndexDef
    cost: float


@dataclasses.dataclass
class FailedBuild:
    """A build that failed and is waiting (or gave up) on retries.

    Attributes:
        index: The index that failed to build.
        attempts: Build attempts so far (including the first).
        next_retry_epoch: Scheduler epoch at which the next retry runs.
        error: Text of the most recent failure.
    """

    index: IndexDef
    attempts: int
    next_retry_epoch: int
    error: str


@dataclasses.dataclass
class RetryReport:
    """What one epoch boundary's retry pass did.

    Attributes:
        charged: Build cost charged for successful retries.
        recovered: Indexes whose retry succeeded this epoch.
        abandoned: Indexes whose retry policy was exhausted this epoch.
    """

    charged: float = 0.0
    recovered: List[IndexDef] = dataclasses.field(default_factory=list)
    abandoned: List[IndexDef] = dataclasses.field(default_factory=list)


class Scheduler:
    """Executes materialization and drop requests against the catalog.

    Args:
        catalog: The catalog to operate on.
        store: Optional physical store for real B+tree builds.
        retry: Backoff policy for failed builds.
        failpoint: Optional hook invoked before each build attempt with
            the index; a fault injector installs one that raises
            :class:`IndexBuildError` per its plan.

    Attributes:
        total_build_cost: Cumulative cost charged for index builds.
        builds: Log of completed builds.
        retry_queue: Failed builds awaiting a backed-off retry.
        abandoned: Failed builds whose retry policy was exhausted.
        failure_count: Total build failures observed (first tries and
            retries).
    """

    def __init__(
        self,
        catalog: Catalog,
        store: Optional[PhysicalStore] = None,
        retry: Optional[RetryPolicy] = None,
        failpoint: Optional[Callable[[IndexDef], None]] = None,
    ) -> None:
        self._catalog = catalog
        self._store = store
        self._retry = retry or RetryPolicy()
        self.failpoint = failpoint
        self._epoch = 0
        self.total_build_cost = 0.0
        self.builds: List[ScheduledBuild] = []
        self.retry_queue: List[FailedBuild] = []
        self.abandoned: List[FailedBuild] = []
        self.failure_count = 0

    @property
    def epoch(self) -> int:
        """Epoch boundaries seen so far (the retry clock)."""
        return self._epoch

    def request_materialization(self, indexes: Iterable[IndexDef]) -> float:
        """Build the requested indexes now; returns the cost charged.

        A build that fails charges nothing and joins
        :attr:`retry_queue`; the caller can tell from the catalog (the
        index stays unmaterialized).
        """
        charged = 0.0
        for index in indexes:
            if self._catalog.is_materialized(index):
                continue
            try:
                charged += self._build(index)
            except IndexBuildError as exc:
                self._record_failure(index, exc)
        return charged

    def request_drop(self, indexes: Iterable[IndexDef]) -> None:
        """Drop indexes immediately.

        Dropping also cancels any backed-off retry for the index -- the
        Self-Organizer no longer wants it.
        """
        for index in indexes:
            self.retry_queue = [f for f in self.retry_queue if f.index != index]
            if self._store is not None:
                self._store.drop_index(index)
            else:
                self._catalog.drop_index(index)

    def advance_epoch(self) -> RetryReport:
        """Close an epoch: advance the retry clock and run due retries.

        Called by the tuner at every epoch boundary, before new
        materialization requests are applied.  Each due entry gets one
        build attempt; on failure its backoff doubles (capped) until the
        policy's ``max_attempts``, after which it moves to
        :attr:`abandoned`.

        Returns:
            The cost charged and the indexes recovered or abandoned.
        """
        self._epoch += 1
        report = RetryReport()
        if not self.retry_queue:  # nothing waits: only the clock moved
            return report
        due = [f for f in self.retry_queue if f.next_retry_epoch <= self._epoch]
        for entry in due:
            self.retry_queue.remove(entry)
            if self._catalog.is_materialized(entry.index):
                continue
            try:
                report.charged += self._build(entry.index)
            except IndexBuildError as exc:
                self.failure_count += 1
                entry.attempts += 1
                entry.error = str(exc)
                if self._retry.exhausted(entry.attempts):
                    self.abandoned.append(entry)
                    report.abandoned.append(entry.index)
                else:
                    entry.next_retry_epoch = self._epoch + self._retry.delay_for(
                        entry.attempts
                    )
                    self.retry_queue.append(entry)
            else:
                report.recovered.append(entry.index)
        return report

    # ------------------------------------------------------------------
    def _record_failure(self, index: IndexDef, exc: IndexBuildError) -> None:
        self.failure_count += 1
        if any(f.index == index for f in self.retry_queue):
            return
        self.retry_queue.append(
            FailedBuild(
                index=index,
                attempts=1,
                next_retry_epoch=self._epoch + self._retry.delay_for(1),
                error=str(exc),
            )
        )

    def _build(self, index: IndexDef) -> float:
        if self.failpoint is not None:
            self.failpoint(index)
        cost = self._catalog.index_build_cost(index)
        try:
            if self._store is not None:
                self._store.build_index(index)
            else:
                self._catalog.materialize_index(index)
        except IndexBuildError:
            raise
        except Exception as exc:
            # Roll back any partial physical state so the index is
            # cleanly absent, then normalize to the scheduler's error.
            try:
                if self._store is not None:
                    self._store.drop_index(index)
                elif self._catalog.is_materialized(index):
                    self._catalog.drop_index(index)
            except Exception:
                pass
            raise IndexBuildError(f"build of {index} failed: {exc}") from exc
        self.total_build_cost += cost
        self.builds.append(ScheduledBuild(index=index, cost=cost))
        return cost
