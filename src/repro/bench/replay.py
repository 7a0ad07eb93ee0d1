"""Throughput-oriented replay driver (the serving-path benchmark).

Where ``repro.bench.harness`` measures *cost-model* quantities (the
paper's figures), this module measures the reproduction as a **system**:
wall-clock queries per second and per-query latency percentiles while a
1M+ event stream flows through a tuner, a fleet, or a multiprocess
fleet.  Latency lands in the ordinary obs histogram
(``replay_query_latency_seconds``, fine-grained
:data:`~repro.obs.registry.LATENCY_BUCKETS`) and the percentiles are
read back with :mod:`repro.obs.quantiles` -- the same machinery a
production dashboard would use, and the machinery the multiprocess
fleet needs anyway (workers ship bucket counts, never raw samples).

Two modes, printed side by side by ``repro replay``:

* ``serial``   -- one tuner, one process, per-query loop (baseline);
* ``workers``  -- a :class:`~repro.fleet.workers.WorkerFleetCoordinator`
  running N replicas on N cores (decisions bit-identical per replica to
  the single-process fleet).
"""

from __future__ import annotations

import dataclasses
import time
from typing import TYPE_CHECKING, Dict, Iterator, Optional, Sequence

from repro.core.colt import ColtTuner
from repro.obs.names import REPLAY_METRICS
from repro.obs.quantiles import merge_histogram_samples, summarize_sample
from repro.obs.registry import MetricsRegistry

if TYPE_CHECKING:
    from repro.core.config import ColtConfig
    from repro.core.loop import TuningLoop
    from repro.engine.catalog import Catalog
    from repro.sql.ast import Query
    from repro.workload.phases import Workload

__all__ = [
    "ReplayEvent",
    "ReplayReport",
    "ReplayStream",
    "build_replay_tuner",
    "replay_fleet",
    "replay_serial",
]

#: Default mean arrival rate for generated streams, events/second.
DEFAULT_ARRIVAL_RATE = 2000.0


@dataclasses.dataclass(frozen=True)
class ReplayEvent:
    """One arrival in a replay stream.

    Attributes:
        index: 0-based position in the stream.
        timestamp: Arrival offset from stream start, in seconds.
        query: The bound query.
        client_id: Stable submitting-client id (None when untagged).
    """

    index: int
    timestamp: float
    query: Query
    client_id: Optional[int] = None


class ReplayStream:
    """A timed query stream of arbitrary length.

    Production streams are long but repetitive; a replay stream cycles
    a finite base workload out to ``events`` arrivals and stamps each
    with a seeded exponential inter-arrival time (a Poisson process,
    the standard open-loop arrival model).  Cycling reuses the *same
    query objects*, which the local backend recognizes (it keeps a live
    query's plan cache while the statistics of its tables hold).

    Args:
        queries: Base queries, in order.
        client_ids: Optional per-query client tags (cycled with the
            queries).
        events: Stream length; defaults to one pass over the base.
        seed: RNG seed for arrival times.
        arrival_rate: Mean arrivals per second for the timestamps.
    """

    def __init__(
        self,
        queries: Sequence[Query],
        client_ids: Optional[Sequence[Optional[int]]] = None,
        events: Optional[int] = None,
        seed: int = 0,
        arrival_rate: float = DEFAULT_ARRIVAL_RATE,
    ) -> None:
        if not queries:
            raise ValueError("replay stream needs a non-empty base workload")
        if client_ids is not None and len(client_ids) != len(queries):
            raise ValueError("client_ids must match queries in length")
        if arrival_rate <= 0:
            raise ValueError("arrival_rate must be positive")
        self.queries = list(queries)
        self.client_ids = list(client_ids) if client_ids is not None else None
        self.events = int(events) if events is not None else len(self.queries)
        if self.events < 1:
            raise ValueError("events must be positive")
        self.seed = seed
        self.arrival_rate = float(arrival_rate)

    @classmethod
    def from_workload(
        cls,
        workload: Workload,
        events: Optional[int] = None,
        seed: int = 0,
        arrival_rate: float = DEFAULT_ARRIVAL_RATE,
    ) -> "ReplayStream":
        """Build a stream by cycling a :class:`Workload`'s queries."""
        return cls(
            workload.queries,
            client_ids=workload.client_ids,
            events=events,
            seed=seed,
            arrival_rate=arrival_rate,
        )

    def __len__(self) -> int:
        return self.events

    def __iter__(self) -> Iterator[ReplayEvent]:
        import random

        rng = random.Random(self.seed)
        n = len(self.queries)
        clock = 0.0
        for i in range(self.events):
            clock += rng.expovariate(self.arrival_rate)
            j = i % n
            yield ReplayEvent(
                index=i,
                timestamp=clock,
                query=self.queries[j],
                client_id=self.client_ids[j] if self.client_ids else None,
            )


@dataclasses.dataclass
class ReplayReport:
    """What one replay run measured.

    Attributes:
        mode: ``serial`` / ``fleet-serial`` / ``workers``.
        events: Arrivals processed.
        wall_seconds: Wall-clock duration of the processing loop.
        qps: ``events / wall_seconds``.
        latency: Percentile summary of per-query processing latency in
            seconds (``p50``/``p95``/``p99``/``mean``/``count``), read
            from the obs histogram.
        total_cost: Cost-model total (sanity anchor: identical across
            decision-equivalent modes).
        whatif_calls: Ledger what-if calls (same anchor).
        failed: Queries recorded as failed.
        detail: Mode-specific extras (engine, worker count...).
    """

    mode: str
    events: int
    wall_seconds: float
    qps: float
    latency: Dict[str, Optional[float]]
    total_cost: float
    whatif_calls: int
    failed: int = 0
    detail: Dict = dataclasses.field(default_factory=dict)


def build_replay_tuner(
    catalog: Catalog, config: Optional[ColtConfig] = None
) -> ColtTuner:
    """A tuner wired for replay: local backend, metrics off the hot path.

    The tuner's own registry is disabled -- the driver measures with
    its own registry -- so every mode pays identical instrumentation
    costs.
    """
    return ColtTuner(catalog, config, registry=MetricsRegistry(enabled=False))


def _driver_metrics(registry: MetricsRegistry):
    return (
        REPLAY_METRICS["replay_queries_total"].build(registry),
        REPLAY_METRICS["replay_query_latency_seconds"].build(registry),
    )


def _latency_summary(histogram) -> Dict[str, Optional[float]]:
    samples = histogram.samples()
    if not samples:
        return summarize_sample({"count": 0, "sum": 0.0, "buckets": {}})
    return summarize_sample(merge_histogram_samples(samples))


def replay_serial(
    tuner: TuningLoop,
    stream: ReplayStream,
    registry: Optional[MetricsRegistry] = None,
    on_error: str = "raise",
) -> ReplayReport:
    """Replay a stream through one tuner, timing every query.

    Args:
        tuner: The tuner under test, of any engine (the CLI builds a
            COLT one with :func:`build_replay_tuner`).
        stream: The event stream.
        registry: Registry for the driver's ``replay_*`` families;
            fresh when omitted.
        on_error: ``"raise"`` or ``"skip"`` (forwarded to the tuner).
    """
    registry = registry if registry is not None else MetricsRegistry()
    m_queries, m_latency = _driver_metrics(registry)
    perf = time.perf_counter
    total_cost = 0.0
    whatif_calls = 0
    failed = 0
    events = 0

    started = perf()
    for event in stream:
        t0 = perf()
        outcome = tuner.run([event.query], on_error=on_error)[0]
        m_latency.observe(perf() - t0)
        total_cost += outcome.total_cost
        whatif_calls += outcome.whatif_calls
        failed += outcome.failed
        events += 1
    wall = perf() - started
    m_queries.inc(events)

    return ReplayReport(
        mode="serial",
        events=events,
        wall_seconds=wall,
        qps=events / wall if wall > 0 else 0.0,
        latency=_latency_summary(m_latency),
        total_cost=total_cost,
        whatif_calls=whatif_calls,
        failed=failed,
        detail={"engine": tuner.engine_name},
    )


def replay_fleet(
    coordinator,
    stream: ReplayStream,
    registry: Optional[MetricsRegistry] = None,
    on_error: str = "raise",
) -> ReplayReport:
    """Replay a stream through a fleet coordinator (serial or workers).

    A single-process coordinator is driven query-at-a-time with
    driver-side latency timing; a multiprocess coordinator
    (``FleetCoordinator(workers=N)``) is driven through its chunked
    ``run`` and reports latency from the per-worker obs histograms,
    merged associatively (:func:`~repro.obs.quantiles.
    merge_histogram_samples`) -- raw samples never cross the process
    boundary.
    """
    registry = registry if registry is not None else MetricsRegistry()
    m_queries, m_latency = _driver_metrics(registry)
    perf = time.perf_counter

    events = list(stream)
    queries = [e.query for e in events]
    client_ids = [e.client_id for e in events]

    started = perf()
    if getattr(coordinator, "is_multiprocess", False):
        run = coordinator.run(queries, client_ids=client_ids, on_error=on_error)
        wall = perf() - started
        latency = coordinator.latency_summary()
        mode = "workers"
        detail = {
            "workers": coordinator.workers,
            "replicas": len(coordinator.replicas),
            "policy": run.policy,
        }
    else:
        for event in events:
            t0 = perf()
            coordinator.process_query(
                event.query, client_id=event.client_id, on_error=on_error
            )
            m_latency.observe(perf() - t0)
        wall = perf() - started
        latency = _latency_summary(m_latency)
        mode = "fleet-serial"
        detail = {
            "replicas": len(coordinator.replicas),
            "policy": coordinator.policy,
        }
        run = None
    m_queries.inc(len(events))

    stats = coordinator.replicas
    total_cost = sum(r.stats.total_cost for r in stats)
    failed = sum(r.stats.failed for r in stats)
    whatif = sum(r.stats.whatif_calls for r in stats)
    return ReplayReport(
        mode=mode,
        events=len(events),
        wall_seconds=wall,
        qps=len(events) / wall if wall > 0 else 0.0,
        latency=latency,
        total_cost=total_cost,
        whatif_calls=whatif,
        failed=failed,
        detail=detail,
    )

