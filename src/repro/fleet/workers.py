"""Multiprocess fleet: one worker process per replica, N replicas on N cores.

``FleetCoordinator(..., workers=N)`` constructs a
:class:`WorkerFleetCoordinator`: the routing brain (router, fleet
epochs, drain/restore/rebalance, metrics) stays in the parent process,
while every :class:`~repro.fleet.replica.TunerReplica` -- catalog,
tuner, breaker, gain cache -- lives in its own worker process behind a
``multiprocessing.Pipe``.  The parent never holds tuner state, so the
whole exchange is message passing over two channels:

* **downstream commands** -- per fleet epoch the parent routes the
  chunk's arrivals (routing is outcome-independent: it depends only on
  the query stream and the drain set, both parent-side), then ships
  each replica *its exact serial event sequence* -- a query routed to
  it is its interned key (``(key, query)`` the first time it crosses),
  an arrival it sat out while drained is ``None``, an idle tick.
  Because per-replica decision state only observes that per-replica
  sequence, every worker's decision stream is bit-identical to the
  single-process fleet's; the parity test diffs the full epoch traces
  to prove it.
* **upstream state** -- every reply is ``(kind, payload, status)``:
  ``"ok"`` with slim outcome records (inflated into their arrivals'
  slots as each reply lands, whichever worker lands first) and a status
  line (breaker state, materialized set, totals), or ``"error"`` with
  the message, raised only once every reply of the exchange is in.
  Durable state crosses as the very same ``repro.persist`` snapshots
  the serial fleet writes, so ``save_fleet`` on a worker fleet produces
  the standard atomic manifest and ``restore_fleet`` of it yields a
  serial coordinator.

Crash safety: replies are awaited with a short ``wait`` + ``is_alive``
(never a blocking ``recv``), so a worker dying mid-epoch surfaces
immediately instead of hanging the epoch barrier.  The parent trips the
replica's stand-in circuit breaker (:meth:`~repro.resilience.breaker.
CircuitBreaker.trip`), records the chunk's unacknowledged queries as
failed outcomes (or raises, under ``on_error="raise"``), and the next
reorganization drains the replica and reassigns its sticky keys through
the ordinary drain path.  A crashed replica is never ticked -- a dead
process cannot recover, so its breaker stays OPEN and the replica stays
out of the rotation for good.

Deliberately unsupported with workers (ValueError at construction):
DBA advice, and injected breakers (those live in the worker; use the
worker crash hook to test failure paths).
"""

from __future__ import annotations

import itertools
import json
import multiprocessing
import os
import time
import types
from multiprocessing import connection
from typing import TYPE_CHECKING, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.core.config import ColtConfig
from repro.core.loop import QueryOutcome
from repro.engines import engine_spec
from repro.fleet.coordinator import FleetCoordinator, FleetOutcome
from repro.fleet.replica import ReplicaHealth, ReplicaStats, TunerReplica
from repro.fleet.router import make_router
from repro.obs.names import WORKER_METRICS
from repro.obs.quantiles import merge_histogram_samples, summarize_sample
from repro.obs.registry import MetricsRegistry
from repro.resilience.breaker import BreakerState, CircuitBreaker

if TYPE_CHECKING:
    from repro.fleet.coordinator import CatalogFactory, FleetReorganizationResult
    from repro.sql.ast import Query

__all__ = ["WorkerCrash", "WorkerFleetCoordinator", "WorkerHandle"]

#: Seconds between liveness checks while waiting on a worker reply.
_POLL_INTERVAL = 0.05


def _mp_context():
    """Fork when the platform has it (fast, nothing re-imports); default
    context otherwise -- all worker arguments are picklable either way."""
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return multiprocessing.get_context()


def _slim_outcome(outcome: QueryOutcome) -> Tuple:
    """The picklable part of a QueryOutcome, in its constructor's order.

    Plans and reorganization reports stay in the worker, so the tuple
    stops at ``epoch_ended``; only a failed query's carries the last two
    fields, its error as a ``RuntimeError`` of the original's ``repr``.
    The parent inflates it with ``QueryOutcome(*slim)`` on the chunk's
    critical path.
    """
    slim = (
        outcome.index,
        outcome.execution_cost,
        outcome.whatif_calls,
        outcome.whatif_overhead,
        outcome.build_cost,
        outcome.total_cost,
        None,
        outcome.verify_calls,
        outcome.verify_overhead,
        outcome.epoch_ended,
    )
    if outcome.error is None:
        return slim
    return slim + (None, RuntimeError(repr(outcome.error)))


def _decode(queries: Dict[int, Query], event) -> Query:
    """The query a wire event names: a bare interned key, or ``(key,
    query)`` on the query's first crossing (remembered from then on)."""
    if event.__class__ is tuple:
        queries[event[0]] = event[1]
        return event[1]
    return queries[event]


def _status(replica: TunerReplica) -> Dict:
    return {
        "breaker_state": replica.breaker.state.value,
        "queries": replica.stats.queries,
        "execution_cost": replica.stats.execution_cost,
        "total_cost": replica.stats.total_cost,
        "whatif_calls": replica.stats.whatif_calls,
        "failed": replica.stats.failed,
        "materialized": replica.materialized_names,
    }


def _worker_main(
    conn,
    replica_id: int,
    catalog_factory: CatalogFactory,
    config: Optional[ColtConfig],
    engine: str,
    crash_after: Optional[int],
) -> None:
    """Worker process entry point: build one replica, serve commands.

    ``crash_after`` is the failure-injection hook for crash tests: the
    process hard-exits (``os._exit``, no cleanup, pipe left dangling --
    the shape of a real OOM kill) before processing query number
    ``crash_after + 1``.
    """
    replica = TunerReplica(
        replica_id,
        catalog_factory(),
        config,
        engine=engine,
    )
    # Latency observations live in a registry of their own, which
    # latency_summary() reads.
    latency = WORKER_METRICS["worker_query_latency_seconds"].build(
        MetricsRegistry()
    )
    # Long streams cycle a bounded set of distinct queries; the
    # parent ships each one exactly once and then references it by key,
    # so steady-state batch messages carry small integers, not ASTs
    # (see _decode); in a batch, None is an idle tick while drained.
    queries: Dict[int, Query] = {}
    perf = time.perf_counter
    processed = 0
    while True:
        command = conn.recv()
        op = command[0]
        try:
            if op == "batch":
                events, on_error = command[1], command[2]
                outcomes: List[Tuple] = []
                for event in events:
                    if event is None:
                        replica.idle_tick()
                        continue
                    if crash_after is not None and processed >= crash_after:
                        os._exit(1)
                    query = _decode(queries, event)
                    t0 = perf()
                    outcome = replica.process(query, on_error=on_error)
                    latency.observe(perf() - t0)
                    processed += 1
                    outcomes.append(_slim_outcome(outcome))
                conn.send(("ok", outcomes, _status(replica)))
            elif op == "status":
                conn.send(("ok", None, _status(replica)))
            elif op == "latency":
                conn.send(("ok", latency.samples(), _status(replica)))
            elif op == "metrics":
                conn.send(("ok", replica.metrics_snapshot(), _status(replica)))
            elif op == "trace":
                conn.send(("ok", replica.trace().to_json(), _status(replica)))
            elif op == "snapshot":
                conn.send(("ok", replica.snapshot(), _status(replica)))
            elif op == "stop":
                conn.send(("ok", None, None))
                conn.close()
                return
            else:
                raise ValueError(f"unknown worker command {op!r}")
        except Exception as exc:  # propagate to the parent, stay alive
            if op == "batch":
                # The parent holds every first crossing it sent as made.
                queries.update(e for e in command[1] if e.__class__ is tuple)
            conn.send(("error", f"{type(exc).__name__}: {exc}", None))


class WorkerCrash(RuntimeError):
    """A worker process died while the coordinator waited on it."""


class WorkerHandle:
    """Parent-side proxy for one replica living in a worker process.

    Duck-types the coordinator-facing surface of
    :class:`~repro.fleet.replica.TunerReplica` (``health``, ``breaker``,
    ``stats``, ``materialized_names``) from the worker's last reported
    status, so the inherited reorganization logic runs unchanged.

    The ``breaker`` attribute is a real parent-side
    :class:`~repro.resilience.breaker.CircuitBreaker` that exists solely
    to represent a *crashed* worker: :meth:`mark_crashed` trips it, it
    is never ticked, and so a dead replica reads DRAINED forever.  While
    the worker lives, health comes from the worker's own breaker state
    as of its last status message.
    """

    def __init__(self, replica_id: int, conn, process, timeout: float) -> None:
        self.replica_id = replica_id
        self.conn = conn
        self.process = process
        self.timeout = timeout
        self.crashed = False
        self.reported = False  # whether any reply carried a status yet
        self.crash_breaker = CircuitBreaker()
        self.stats = ReplicaStats()
        self._remote_state = BreakerState.CLOSED
        self._materialized: List[str] = []
        self._deadline = 0.0  # monotonic; restarted by every send
        # Query interning over the pipe: ship each distinct query object
        # once, then reference it by key.  Strong refs guard the id()
        # fast path against id reuse: a key is never handed to a second
        # object while the first is alive.
        self._query_keys: Dict[int, int] = {}
        self._query_refs: List[Query] = []

    def encode_query(self, query: Query):
        """The wire event for ``query``: ``(key, query)`` on its first
        crossing, the bare interned key afterwards."""
        key = self._query_keys.get(id(query))
        if key is not None:
            return key
        key = len(self._query_refs)
        self._query_keys[id(query)] = key
        self._query_refs.append(query)
        return (key, query)

    # -- TunerReplica-facing surface -----------------------------------
    @property
    def health(self) -> ReplicaHealth:
        if self.crashed:
            return ReplicaHealth.DRAINED
        return ReplicaHealth.from_breaker(self._remote_state)

    @property
    def breaker(self):
        return types.SimpleNamespace(
            state=self.crash_breaker.state if self.crashed else self._remote_state
        )

    @property
    def materialized_names(self) -> List[str]:
        return list(self._materialized)

    def metrics_snapshot(self) -> Optional[Dict]:
        """The worker tuner's metrics snapshot; None once it has crashed."""
        return None if self.crashed else self.request(("metrics",))

    def snapshot(self) -> Dict:
        """The worker tuner's durable snapshot, fetched over the pipe."""
        snap = self.request(("snapshot",))
        if snap is None:
            raise WorkerCrash(
                f"replica {self.replica_id} worker is gone; cannot "
                "snapshot a partial fleet"
            )
        return snap

    # -- protocol ------------------------------------------------------
    def apply_status(self, status: Optional[Dict]) -> None:
        """Adopt a worker-reported status dict (piggybacked on replies)."""
        if not status:
            return
        self.reported = True
        self._remote_state = BreakerState(status["breaker_state"])
        self.stats = ReplicaStats(
            queries=status["queries"],
            execution_cost=status["execution_cost"],
            total_cost=status["total_cost"],
            whatif_calls=status["whatif_calls"],
            failed=status["failed"],
        )
        self._materialized = status["materialized"]

    def mark_crashed(self) -> None:
        """Record the worker as dead and trip the crash breaker (once)."""
        if self.crashed:
            return
        self.crashed = True
        # Failure evidence from outside the probe path: force the
        # stand-in breaker OPEN so the drain machinery sees it.
        self.crash_breaker.trip()

    def send(self, command: Tuple) -> bool:
        """Ship a command and start its reply deadline; False (after
        crash-marking) when the worker is already gone."""
        if self.crashed:
            return False
        try:
            self.conn.send(command)
        except (BrokenPipeError, OSError):
            self.mark_crashed()
            return False
        self._deadline = time.monotonic() + self.timeout
        return True

    def receive(self, peers: Sequence["WorkerHandle"] = ()):
        """Wait for the first reply among this worker and ``peers``.

        Never blocks on a dead worker -- the fix for the epoch-barrier
        deadlock: the pipes are polled in short intervals and, between
        polls, a worker whose process died is crash-marked, and so is
        one still silent ``timeout`` seconds after its command was sent
        (live but wedged, it would stall every future epoch; it is
        terminated first).

        Returns:
            ``(handle, reply)``: the worker that settled and its raw
            reply for :meth:`accept`, None when it crashed instead.
        """
        waiting = (self, *peers)
        conns = [h.conn for h in waiting]
        while True:
            ready = connection.wait(conns, _POLL_INTERVAL)
            now = time.monotonic()
            for handle in waiting:
                if handle.conn in ready:
                    try:
                        return handle, handle.conn.recv()
                    except (EOFError, OSError):
                        pass  # the pipe closed under a dying worker
                elif handle.process.is_alive() and now <= handle._deadline:
                    continue
                handle.process.terminate()
                handle.mark_crashed()
                return handle, None

    def accept(self, reply: Optional[Tuple]):
        """The payload of this worker's ``reply`` (None stays None),
        adopting the status every reply piggybacks.

        Raises:
            RuntimeError: The worker answered its command with an error.
        """
        if reply is None:
            return None
        kind, payload, status = reply
        if kind == "error":
            raise RuntimeError(f"replica {self.replica_id} worker error: {payload}")
        self.apply_status(status)
        return payload

    def request(self, command: Tuple):
        """Send a command and collect its reply (None on a dead worker)."""
        if not self.send(command):
            return None
        return self.accept(self.receive()[1])

    def close(self) -> None:
        """Ask the worker to stop, then close the pipe and join (idempotent)."""
        if not self.crashed and self.process.is_alive():
            try:
                self.conn.send(("stop",))
                self.conn.poll(1.0) and self.conn.recv()
            except (BrokenPipeError, OSError, EOFError):
                pass
        try:
            self.conn.close()
        except OSError:  # pragma: no cover
            pass
        self.process.join(timeout=5.0)
        if self.process.is_alive():  # pragma: no cover - wedged worker
            self.process.terminate()
            self.process.join(timeout=5.0)


class WorkerFleetCoordinator(FleetCoordinator):
    """A fleet whose replicas run in worker processes, one per core.

    Constructed through the front door --
    ``FleetCoordinator(..., workers=N)`` -- and presenting the same
    ``run`` / ``reorganize`` / ``metrics_snapshot`` surface.  ``workers``
    is the fleet size: one process per replica (``n_replicas`` is
    overridden).  Use as a context manager, or call :meth:`close`, to
    shut the workers down.

    Extra args over the base coordinator:
        worker_timeout: Seconds to wait for any single worker reply
            before the worker is declared dead.
        _crash_plan: Test hook -- ``{replica_id: n}`` hard-kills that
            replica's process before it serves query ``n + 1``.
    """

    def __init__(
        self,
        catalog_factory: CatalogFactory,
        n_replicas: int = 3,
        config: Optional[ColtConfig] = None,
        policy: str = "affinity",
        fleet_epoch_length: int = 50,
        breakers=None,
        registry: Optional[MetricsRegistry] = None,
        advice=None,
        engine: str = "colt",
        workers: int = 0,
        worker_timeout: float = 120.0,
        _crash_plan: Optional[Dict[int, int]] = None,
    ) -> None:
        if workers < 1:
            raise ValueError("WorkerFleetCoordinator requires workers >= 1")
        if advice is not None:
            raise ValueError(
                "advice is not supported with worker processes; run the "
                "single-process fleet for advised deployments"
            )
        if breakers is not None:
            raise ValueError(
                "breakers live inside the worker process and cannot be "
                "injected from the parent; use the worker crash hook to "
                "exercise failure paths"
            )
        engine_spec(engine)  # ValueError for a name the table lacks
        if fleet_epoch_length < 1:
            raise ValueError("fleet_epoch_length must be positive")
        routing_catalog = catalog_factory()
        # One process per replica: `workers` IS the fleet size.
        router = make_router(policy, workers, routing_catalog)
        registry = registry if registry is not None else MetricsRegistry()
        config = config or ColtConfig()
        self.workers = workers
        self.worker_timeout = worker_timeout
        ctx = _mp_context()
        handles: List[WorkerHandle] = []
        crash_plan = _crash_plan or {}
        for i in range(workers):
            parent_conn, child_conn = ctx.Pipe()
            process = ctx.Process(
                target=_worker_main,
                args=(
                    child_conn,
                    i,
                    catalog_factory,
                    config,
                    engine,
                    crash_plan.get(i),
                ),
                daemon=True,
            )
            process.start()
            child_conn.close()
            handles.append(WorkerHandle(i, parent_conn, process, worker_timeout))
        self._wire(
            engine, config, handles, routing_catalog, router,
            fleet_epoch_length, registry,
        )

    # ------------------------------------------------------------------
    def __enter__(self) -> "WorkerFleetCoordinator":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        """Stop every worker process (idempotent)."""
        for handle in self.replicas:
            handle.close()

    def __del__(self):  # pragma: no cover - best effort
        try:
            self.close()
        except Exception:
            pass

    # ------------------------------------------------------------------
    def process_query(self, query, client_id=None, on_error="raise"):
        raise NotImplementedError(
            "the multiprocess fleet batches arrivals per fleet epoch; "
            "use run() (per-query dispatch would pay one IPC round trip "
            "per arrival)"
        )

    def _serve(self, queries, client_ids, on_error: str) -> List[FleetOutcome]:
        """Ship one :meth:`run`'s arrivals to the workers, a fleet epoch at a time.

        Semantics match the serial coordinator -- same routing, same
        fleet-epoch reorganizations, bit-identical per-replica decisions.
        Outcomes carry no plans (plans stay worker-side) and, under
        ``on_error="skip"``, a crashed worker's unacknowledged chunk
        queries come back as failed outcomes.
        """
        outcomes: List[FleetOutcome] = []
        step = self.fleet_epoch_length
        for start in range(0, len(queries), step):
            outcomes += self._run_chunk(
                start,
                queries[start : start + step],
                client_ids[start : start + step] if client_ids is not None else None,
                on_error,
            )
        return outcomes

    def _run_chunk(
        self,
        start: int,
        queries: Sequence[Query],
        client_ids: Optional[Sequence[Optional[int]]],
        on_error: str,
    ) -> List[FleetOutcome]:
        """Route one fleet epoch's arrivals, dispatch, collect, reorganize.

        Routing happens entirely parent-side, per arrival and in
        arrival order, exactly as the serial coordinator would; each
        replica then receives its own serial-order event sequence
        (queries routed to it, interleaved with the idle ticks it would
        have received while drained), so per-replica state evolves
        identically to the single-process fleet.  ``start`` is the
        chunk's position in its :meth:`run`; a chunk shorter than the
        fleet epoch (the run's tail) closes no fleet epoch.
        """
        replicas = self.replicas
        events: List[List] = [[] for _ in replicas]
        # Chunk offsets of each replica's arrivals, in its event order:
        # where its reply's outcomes belong.
        slots: List[List[int]] = [[] for _ in replicas]
        encode = [h.encode_query for h in replicas]
        # A crashed replica is never ticked; the drain set and the crash
        # marks only change between chunks.
        ticked = [d for d in self.router.drained if not replicas[d].crashed]
        route = self.router.route
        for offset, (query, client_id) in enumerate(
            zip(queries, client_ids or itertools.repeat(None))
        ):
            replica_id = route(query, client_id)
            events[replica_id].append(encode[replica_id](query))
            slots[replica_id].append(offset)
            for drained_id in ticked:
                if drained_id != replica_id:
                    events[drained_id].append(None)
        for count, offsets in zip(self._count_routed, slots):
            if offsets:
                count(len(offsets))
        self.queries_routed += len(queries)

        # Dispatch everything, then inflate each reply straight into its
        # arrivals' slots as it lands: workers run concurrently, and the
        # first reply is unpacked while the slower worker still runs.
        outcomes: List[Optional[FleetOutcome]] = [None] * len(queries)
        for handle, payload in self._collect(
            [(h, ("batch", batch, on_error)) for h, batch in zip(replicas, events) if batch]
        ):
            replica_id = handle.replica_id
            for offset, slim in zip(slots[replica_id], payload):
                outcomes[offset] = FleetOutcome(
                    start + offset, replica_id, QueryOutcome(*slim)
                )
        # A worker that died before acknowledging this chunk left no
        # per-query records: every arrival routed to it this epoch is
        # accounted as failed.
        lost = [
            replica_id
            for replica_id, offsets in enumerate(slots)
            if offsets and outcomes[offsets[0]] is None
        ]
        if lost and on_error != "skip":
            replica_id = min(lost, key=lambda r: slots[r][0])
            raise WorkerCrash(
                f"replica {replica_id} worker crashed mid-epoch (query "
                f"{start + slots[replica_id][0]}); rerun with "
                "on_error='skip' to keep serving through crashes"
            )
        for replica_id in lost:
            crash = WorkerCrash(f"replica {replica_id} worker crashed mid-epoch")
            for offset in slots[replica_id]:
                outcomes[offset] = FleetOutcome(
                    start + offset,
                    replica_id,
                    QueryOutcome(-1, 0.0, 0, 0.0, 0.0, 0.0, None, error=crash),
                )
            replicas[replica_id].stats.queries += len(slots[replica_id])
            replicas[replica_id].stats.failed += len(slots[replica_id])
        if len(queries) == self.fleet_epoch_length:
            outcomes[-1].reorganization = self.reorganize()
        return outcomes

    def _collect(
        self, commands: List[Tuple[WorkerHandle, Tuple]]
    ) -> Iterator[Tuple[WorkerHandle, List]]:
        """Send every ``(handle, command)``, then yield ``(handle,
        payload)`` per reply as it lands, whichever worker lands first.

        A worker that is gone yields nothing.  A worker's error reply is
        raised only once every command sent has been answered for, so no
        reply stays in a pipe for the next exchange to read as its own.
        """
        pending = [h for h, command in commands if h.send(command)]
        error: Optional[RuntimeError] = None
        while pending:
            handle, reply = pending[0].receive(pending[1:])
            pending.remove(handle)
            try:
                payload = handle.accept(reply)
            except RuntimeError as exc:
                error = error or exc
                continue
            if payload is not None:
                yield handle, payload
        if error is not None:
            raise error

    # ------------------------------------------------------------------
    def reorganize(self) -> FleetReorganizationResult:
        """Fleet reorganization over worker-reported state.

        Every reply piggybacks the worker's status and a worker changes
        nothing between commands, so the handles are current: only a
        worker that never replied is asked, and one that died after its
        last reply is found without IPC and drained at this boundary.
        Then the inherited drain/restore/rebalance logic runs against the
        handles' duck-typed replica surface.
        """
        for handle in self.replicas:
            if handle.crashed:
                continue
            if not handle.process.is_alive():
                handle.mark_crashed()
            elif not handle.reported:
                handle.request(("status",))
        return super().reorganize()

    # ------------------------------------------------------------------
    def replica_traces(self) -> List[Dict]:
        """Every live replica's decision trace (JSON dict), by replica id."""
        traces = []
        for handle in self.replicas:
            payload = handle.request(("trace",))
            if payload is not None:
                traces.append(json.loads(payload))
        return traces

    def latency_summary(self) -> Dict[str, Optional[float]]:
        """Fleet-wide per-query latency percentiles.

        Raw samples never cross the process boundary: each worker
        exports its ``worker_query_latency_seconds`` bucket counts and
        the parent merges them (bucket-count merging is associative --
        the obs quantile tests prove it) before reading percentiles.
        """
        samples = []
        for handle in self.replicas:
            if handle.crashed:
                continue
            payload = handle.request(("latency",))
            if payload:
                samples.extend(payload)
        if not samples:
            return summarize_sample({"count": 0, "sum": 0.0, "buckets": {}})
        return summarize_sample(merge_histogram_samples(samples))
