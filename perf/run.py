"""The benchmark's one command.

Two ways in (perf/README.md has the details):

* ``python3 perf/run.py --workload W --seed N --seconds S --trace 0|1``
  runs **one pass** of one workload in this process and prints, as the
  last line of standard output, the JSON object ``BENCHMARK.json``'s
  contract asks for: the end-to-end metrics (``--trace 0``) or the
  per-layer metrics (``--trace 1``).
* ``python3 perf/run.py --seed N`` (no ``--trace``) runs the **suite**:
  every workload (or the one named by ``--workload``), ``--repeats``
  untraced passes plus one traced pass each, every pass in a fresh child
  interpreter, passes interleaved round-robin over the workloads.  It
  prints every metric by name with its unit, per-pass values beside each
  median, checks that the exact counts repeat across passes, and writes
  ``perf/results/suite_seed<N>.json`` for ``perf/compare.py``.

The load is a closed loop with one client: the next unit is dispatched
when the previous call returns.
"""

from __future__ import annotations

import time

_PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import pathlib  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

ROOT = pathlib.Path(__file__).resolve().parent.parent
# The script's own directory would put perf/trace.py in front of the
# standard library's ``trace``; the repo root makes ``perf`` a package.
sys.path[0] = str(ROOT)
sys.path.insert(1, str(ROOT / "src"))

from repro.core.colt import InsertOutcome, QueryOutcome  # noqa: E402
from repro.optimizer.optimizer import Optimizer  # noqa: E402
from repro.persist import restore_any, snapshot_any  # noqa: E402
from repro.workload import build_catalog  # noqa: E402

from perf.hostspeed import slowdown  # noqa: E402
from perf.layers import NOT_EXPOSED, instrument, layer_metrics  # noqa: E402
from perf.trace import ROOT as ROOT_SPAN, SpanRecorder  # noqa: E402
from perf.workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
RESULTS = ROOT / "perf" / "results"

#: Events dispatched before any timing sample is taken (they are
#: processed and counted in costs).
WARMUP_EVENTS = 1000
#: The deterministic prefix: exact counts and ``cost_ratio_vs_untuned``
#: are read at the first block boundary at or after this many events, so
#: they do not depend on how many events fit into ``--seconds``.
CHECK_EVENTS = 15000
#: ``fleet_workers`` must match the in-process fleet over this many events.
PARITY_EVENTS = 4000
#: Rounds per untraced pass; each has its own inputs (sub-seed) and a
#: freshly built system, and a reported value is the median over rounds.
ROUNDS = 3
#: Set-ups measured per pass, each in its own child interpreter.
SETUP_REPEATS = 5
#: A block has its own reading of a percentile when at least this many of
#: its samples lie beyond it (11 fleet chunks carry a p50, not a p95);
#: otherwise the round's samples are pooled.
SAMPLES_BEYOND = 5
#: Untraced and traced blocks the traced pass needs after the prefix.
TRACE_PAIRS = 4
#: Dispatch units whose raw spans are written to the trace file.
TRACE_DUMP_UNITS = 1000


class Failure:
    """Stands in for the outcome of a dispatch call that raised."""

    def __init__(self, error: BaseException) -> None:
        self.error = error


# ----------------------------------------------------------------------
# Ledger: what the program's outputs add up to
# ----------------------------------------------------------------------
class Ledger:
    """Running totals over every outcome the program returned."""

    def __init__(self, unit_events: int, fleet=None, parity_events: int = 0) -> None:
        self.unit_events = unit_events
        self.fleet = fleet
        self.parity_events = parity_events
        self.units = 0
        self.events = 0
        self.queries = 0
        self.inserts = 0
        self.failed = 0
        self.total_cost = 0.0
        self.parts_cost = 0.0
        self.whatif_calls = 0
        self.epochs = 0
        self.builds = 0
        self.drops = 0
        self.build_failures = 0
        self.arrivals: dict = {}
        self.divergence = 0.0
        self.errors: list = []
        self.log: list = []  # (unit, failed) until the prefix is marked
        self.parity_cost = None
        self._digest = hashlib.sha256()

    def absorb(self, unit, outcome) -> None:
        self.units += 1
        if self.log is not None:
            self.log.append((unit, isinstance(outcome, Failure)))
        if isinstance(outcome, QueryOutcome):
            self.events += 1
            self._query(outcome, 0.0)
        elif isinstance(outcome, InsertOutcome):
            self.events += 1
            self.inserts += 1
            self.total_cost += outcome.total_cost
            self.parts_cost += outcome.heap_cost + outcome.maintenance_cost
        elif isinstance(outcome, Failure):
            self.events += self.unit_events
            self.failed += self.unit_events
            if len(self.errors) < 5:
                self.errors.append(f"{type(outcome.error).__name__}: {outcome.error}")
        else:  # FleetRun
            for routed in outcome.outcomes:
                self.events += 1
                self._query(routed.outcome, routed.routing_overhead)
                self.arrivals[routed.replica_id] = (
                    self.arrivals.get(routed.replica_id, 0) + 1
                )
                if routed.reorganization is not None:
                    reorg = routed.reorganization
                    self.divergence = reorg.divergence
                    self._digest.update(
                        repr(
                            (
                                reorg.epoch,
                                [sorted(r.materialized_names) for r in self.fleet.replicas],
                            )
                        ).encode()
                    )
            if self.events == self.parity_events:
                self.parity_cost = self.total_cost

    def _query(self, outcome: QueryOutcome, routing: float) -> None:
        self.queries += 1
        if outcome.failed:
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(repr(outcome.error))
            return
        self.total_cost += outcome.total_cost + routing
        self.parts_cost += (
            outcome.execution_cost
            + outcome.whatif_overhead
            + outcome.verify_overhead
            + outcome.build_cost
            + routing
        )
        self.whatif_calls += outcome.whatif_calls
        if outcome.epoch_ended:
            self.epochs += 1
        reorg = outcome.reorganization
        if reorg is not None:
            self.builds += len(reorg.materialize) - len(reorg.build_failures)
            self.drops += len(reorg.drop)
            self.build_failures += len(reorg.build_failures)
            if reorg.materialize or reorg.drop:
                self._digest.update(
                    repr(
                        (
                            outcome.index,
                            [ix.name for ix in reorg.materialize],
                            [ix.name for ix in reorg.drop],
                        )
                    ).encode()
                )

    def totals(self) -> dict:
        return {
            "units": self.units,
            "events": self.events,
            "queries": self.queries,
            "inserts": self.inserts,
            "failed": self.failed,
            "total_cost": self.total_cost,
            "parts_cost": self.parts_cost,
            "whatif_calls": self.whatif_calls,
            "epochs": self.epochs,
            "builds": self.builds,
            "drops": self.drops,
            "build_failures": self.build_failures,
            "decision_digest": self._digest.hexdigest(),
        }


# ----------------------------------------------------------------------
# Timed blocks
# ----------------------------------------------------------------------
def _worker_cpu(workload) -> float:
    """CPU seconds the fleet's worker processes have used so far."""
    if workload.fleet is None:
        return 0.0
    ticks = 0
    for handle in workload.fleet.replicas:
        fields = pathlib.Path(f"/proc/{handle.process.pid}/stat").read_text()
        after_name = fields.rsplit(")", 1)[1].split()
        ticks += int(after_name[11]) + int(after_name[12])  # utime + stime
    return ticks / os.sysconf("SC_CLK_TCK")


def run_block(workload, dispatch, units, rec=None, first_unit=0):
    """Dispatch ``units`` back to back; returns (wall, cpu, latencies, outcomes).

    With a recorder the block is traced: wrappers are installed for its
    duration and every unit runs under a root span.
    """
    latencies = []
    outcomes = []
    perf = time.perf_counter
    if rec is not None:
        rec.install()
    try:
        cpu = -(time.process_time() + _worker_cpu(workload))
        started = perf()
        for offset, unit in enumerate(units):
            if rec is not None:
                rec.unit = first_unit + offset
            t0 = perf()
            try:
                outcome = dispatch(unit)
            except Exception as exc:  # counted, never fatal
                outcome = Failure(exc)
            latencies.append(perf() - t0)
            outcomes.append(outcome)
        wall = perf() - started
        cpu += time.process_time() + _worker_cpu(workload)
    finally:
        if rec is not None:
            rec.uninstall()
    return wall, cpu, latencies, outcomes


# ----------------------------------------------------------------------
# Set-up, measured in child interpreters
# ----------------------------------------------------------------------
def setup_only(name: str, seed: int) -> None:
    """Everything a pass does before its first dispatch, then stop."""
    workload = WORKLOADS[name](seed)
    try:
        workload.build()
        print("ready", flush=True)
    finally:
        workload.close()


def measure_setups(name: str, seed: int) -> dict:
    """Seconds from child-process start to ready-to-dispatch, per child.

    ``s`` is at reference speed: each child's time over the mean of the
    host-speed readings taken just before and just after it.
    """
    measured, scaled = [], []
    command = [sys.executable, str(pathlib.Path(__file__).resolve()), "--setup-only",
               "--workload", name, "--seed", str(seed)]

    def reading() -> float:
        # A child is a quarter of a second between two readings: three
        # times the passes a block gets.
        return statistics.mean(slowdown() for _ in range(3))

    before = reading()
    for _ in range(SETUP_REPEATS):
        started = time.perf_counter()
        with subprocess.Popen(command, stdout=subprocess.PIPE, text=True) as child:
            line = child.stdout.readline()
            elapsed = time.perf_counter() - started
            child.stdout.read()
            code = child.wait(timeout=60)
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"set-up child for {name} failed (exit {code})")
        after = reading()
        measured.append(elapsed)
        scaled.append(elapsed / ((before + after) / 2))
        before = after
    return {"as_measured_s": measured, "s": scaled}


# ----------------------------------------------------------------------
# Output checks
# ----------------------------------------------------------------------
def untuned_cost(workload, log) -> float:
    """Cost of the logged events on a never-indexed catalog."""
    catalog = build_catalog()
    optimizer = Optimizer(catalog)
    cpu_tuple_cost = catalog.params.cpu_tuple_cost
    memo: dict = {}
    cost = 0.0
    for unit, failed in log:
        if failed:
            continue
        for event in workload.events_of(unit):
            if type(event) is tuple:
                _, table, rows = event
                catalog.apply_row_delta(table, rows)
                cost += rows * cpu_tuple_cost
                memo.clear()  # statistics changed: prices are stale
            else:
                price = memo.get(id(event))
                if price is None:
                    price = memo[id(event)] = optimizer.optimize(event).cost
                cost += price
    return cost


def materialized(workload) -> list:
    """Materialized index names, one sorted list per tuner."""
    if workload.fleet is not None:
        return [sorted(r.materialized_names) for r in workload.fleet.replicas]
    return [[ix.name for ix in workload.tuner.materialized_set]]


def check_budget(workload, sets) -> list:
    """Violations of 'the final M fits storage_budget_pages'."""
    catalog = workload.catalog
    by_name = {}
    for ref in catalog.indexable_columns():
        index = catalog.index_for(ref.table, ref.column)
        by_name[index.name] = index
    tuner = workload.tuner
    sizes = tuner.catalog if tuner is not None else catalog
    budget = (tuner or workload.fleet).config.storage_budget_pages
    problems = []
    for i, names in enumerate(sets):
        pages = sum(sizes.index_size_pages(by_name[name]) for name in names)
        if pages > budget * (1 + 1e-9):
            problems.append(f"tuner {i}: M is {pages:.0f} pages, budget {budget:.0f}")
    return problems


def check_fleet_parity(workload, ledger) -> list:
    """The worker fleet's first events must cost what the in-process fleet's do."""
    events = ledger.parity_events
    if ledger.parity_cost is None:
        return [f"parity point ({events} events) was never reached"]
    twin = workload.make_fleet(n_replicas=workload.workers)
    reference = Ledger(workload.unit_events, fleet=twin)
    for chunk in itertools.islice(workload.units(), events // workload.unit_events):
        reference.absorb(chunk, twin.run(chunk[0], client_ids=chunk[1], on_error="skip"))
    if reference.total_cost != ledger.parity_cost:
        return [
            f"first {events} events cost {ledger.parity_cost!r} with workers, "
            f"{reference.total_cost!r} in one process"
        ]
    return []


# ----------------------------------------------------------------------
# One pass = a few rounds
# ----------------------------------------------------------------------
def host_record() -> dict:
    cores = len(os.sched_getaffinity(0))
    load = os.getloadavg()
    if load[0] > cores:
        print(
            f"warning: 1-min load average {load[0]:.2f} exceeds {cores} cores; "
            "timings will be noisy",
            file=sys.stderr,
        )
    return {
        "cores": cores,
        "python": platform.python_version(),
        "load_average_at_start": list(load),
    }


def run_pass(name: str, seed: int, seconds: float, trace: bool, scale: float) -> dict:
    """One pass of one workload in this process; returns the full record.

    An untraced pass is ``ROUNDS`` rounds, each on inputs of its own
    (sub-seed ``seed * ROUNDS + round``) with a freshly built system and
    ``seconds / ROUNDS`` of measurement; a reported value is the median
    over the rounds.  A traced pass is one round on the first sub-seed.
    """
    host = host_record()
    first = seed * ROUNDS
    setups = measure_setups(name, first)
    rounds = []
    n = 1 if trace else ROUNDS
    for r in range(n):
        workload = WORKLOADS[name](first + r)
        try:
            workload.build()
            rounds.append(
                measure_round(workload, seconds / n, trace, scale, parity=r == 0)
            )
        finally:
            workload.close()
        del workload

    def middle(group: str) -> dict:
        return {
            key: statistics.median(one[group][key] for one in rounds)
            for key in rounds[0][group]
        }

    end_to_end = {"setup_s": statistics.median(setups["s"]), **middle("end_to_end")}
    # ru_maxrss is the process's high-water mark, so the last round's
    # reading covers them all.
    end_to_end["peak_rss_mb"] = rounds[-1]["end_to_end"]["peak_rss_mb"]
    problems = [p for one in rounds for p in one["problems"]]
    return {
        "workload": name,
        "seed": seed,
        "trace": trace,
        "host": host,
        "correct": not problems,
        "problems": problems,
        "attempted": sum(one["attempted"] for one in rounds),
        "failed": sum(one["failed"] for one in rounds),
        "errors": [e for one in rounds for e in one["errors"]],
        "end_to_end": end_to_end,
        "per_layer": middle("per_layer"),
        "setups": setups,
        "rounds": rounds,
    }


def at_reference_speed(metrics: dict, host: float) -> dict:
    """``metrics`` with every time divided by the host-speed reading ``host``.

    Counts, ratios, sizes and the two sentinels pass through unchanged.
    """
    return {
        name: value / host if UNITS[name] in ("ms", "us") and value != NOT_EXPOSED else value
        for name, value in metrics.items()
    }


def _steady(values, better: str) -> float:
    """The value a quarter in from the fast end (nearest rank).

    Blocks reach this already divided by their host-speed readings.  What
    is left is one-sided -- a burst that started and ended inside a
    block, between two readings -- plus the readings' own noise, which
    is not.  Ten same-commit runs spread least on the fast quartile of
    their blocks: less than on the median, which the bursts pull, and
    less than on the fast decile, which picks the blocks a reading
    happened to flatter.
    """
    ordered = sorted(values, reverse=better == "higher")
    return ordered[int(0.25 * (len(ordered) - 1))]


def _percentile(ordered, share: float) -> float:
    if not ordered:
        return 0.0
    return ordered[min(len(ordered) - 1, int(share * len(ordered)))]


def _over_blocks(blocks, share: float) -> float:
    """A latency percentile: per block, then :func:`_steady` over blocks.

    Blocks with fewer than ``SAMPLES_BEYOND`` samples beyond the
    percentile are pooled over the round instead.
    """
    blocks = [b for b in blocks if b]
    if not blocks:
        return 0.0
    if min(len(b) for b in blocks) * (1.0 - share) >= SAMPLES_BEYOND:
        return _steady((_percentile(sorted(b), share) for b in blocks), "lower")
    return _percentile(sorted(itertools.chain.from_iterable(blocks)), share)


def measure_round(workload, seconds, trace, scale, parity) -> dict:
    """Warm up, measure for ``seconds``, check the outputs."""
    per_unit = workload.unit_events
    warm_units = max(1, math.ceil(WARMUP_EVENTS * scale / per_unit))
    check_events = max(per_unit, int(CHECK_EVENTS * scale))
    parity_events = 0
    if parity and workload.fleet is not None:
        parity_events = max(per_unit, int(PARITY_EVENTS * scale) // per_unit * per_unit)
    block_units = max(2, int(workload.block_units * scale))

    stream = workload.units()
    ledger = Ledger(per_unit, workload.fleet, parity_events)
    rec = None
    dispatch = workload.dispatch
    traced_dispatch = None
    if trace:
        rec = SpanRecorder()
        instrument(rec, workload)
        traced_dispatch = rec.span(ROOT_SPAN, dispatch)

    blocks = []  # timed blocks after warm-up
    mismatches = 0
    dispatch_wall = 0.0
    prefix = None

    def block(n_units: int, traced: bool, timed: bool) -> None:
        nonlocal mismatches, dispatch_wall, prefix
        units = list(itertools.islice(stream, n_units))
        host = slowdown()
        wall, cpu, latencies, outcomes = run_block(
            workload,
            traced_dispatch if traced else dispatch,
            units,
            rec if traced else None,
            ledger.units,
        )
        host = (host + slowdown()) / 2
        dispatch_wall += wall
        # Every time of the block at reference speed from here on.
        latencies = [latency / host for latency in latencies]
        record = {"traced": traced, "host": host, "wall_as_measured": wall,
                  "wall": wall / host, "cpu": cpu / host, "events": 0,
                  "plain": [], "closing": [], "insert": [], "unit": latencies}
        before = ledger.events
        for unit, outcome, latency in zip(units, outcomes, latencies):
            ledger.absorb(unit, outcome)
            if isinstance(outcome, QueryOutcome):
                record["closing" if outcome.epoch_ended else "plain"].append(latency)
            elif isinstance(outcome, InsertOutcome):
                record["insert"].append(latency)
        record["events"] = ledger.events - before
        mismatches += workload.mismatches()
        if timed:
            blocks.append(record)
        if prefix is None and ledger.events >= check_events:
            prefix = dict(ledger.totals(), materialized=materialized(workload),
                          log=ledger.log)
            ledger.log = None

    block(warm_units, traced=trace, timed=False)
    started = time.perf_counter()
    if trace:
        while prefix is None:
            block(block_units, traced=True, timed=True)
        pairs = 0
        while pairs < TRACE_PAIRS or time.perf_counter() - started < seconds:
            block(block_units, traced=False, timed=True)
            block(block_units, traced=True, timed=True)
            pairs += 1
    else:
        while (
            time.perf_counter() - started < seconds
            or prefix is None
            or (parity_events and ledger.parity_cost is None)
        ):
            block(block_units, traced=False, timed=True)
    measured_seconds = time.perf_counter() - started

    # -- memory, before the checks below allocate anything ---------------
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if workload.fleet is not None:
        rss_kib += max(
            int(
                pathlib.Path(f"/proc/{h.process.pid}/status")
                .read_text()
                .split("VmHWM:")[1]
                .split()[0]
            )
            for h in workload.fleet.replicas
        )

    # -- end-to-end numbers: untraced timed blocks only ---------------------
    clean = [b for b in blocks if not b["traced"]]
    single = workload.fleet is None
    query_blocks = [
        sorted(b["plain"] + b["closing"] if single else b["unit"]) for b in clean
    ]
    events = sum(b["events"] for b in clean)
    whole = ledger.totals()
    base_cost = untuned_cost(workload, prefix["log"])
    end_to_end = {
        "events_per_s": _steady((b["events"] / b["wall"] for b in clean), "higher"),
        "cpu_us_per_event": _steady(
            (b["cpu"] * 1e6 / b["events"] for b in clean), "lower"
        ),
        "latency_p50_us": _over_blocks(query_blocks, 0.50) * 1e6,
        "latency_p95_us": _over_blocks(query_blocks, 0.95) * 1e6,
        "cost_ratio_vs_untuned": prefix["total_cost"] / base_cost,
        "peak_rss_mb": rss_kib / 1024,
    }
    samples = {
        "blocks": len(clean),
        "events": events,
        "latency_samples": sum(len(b) for b in query_blocks),
        "insert_samples": sum(len(b["insert"]) for b in clean),
        "measured_seconds": measured_seconds,
        "host_slowdown": statistics.median(b["host"] for b in clean),
        "events_per_s_as_measured": events / sum(b["wall_as_measured"] for b in clean),
        # Per untraced block, at reference speed: events/s, CPU us/event,
        # p50 us, p95 us; then the host-speed reading they were divided by.
        "block_stats": [
            [
                b["events"] / b["wall"],
                b["cpu"] * 1e6 / b["events"],
                _percentile(q, 0.5) * 1e6,
                _percentile(q, 0.95) * 1e6,
                b["host"],
            ]
            for b, q in zip(clean, query_blocks)
        ],
    }

    # -- driver-side per-layer numbers (no spans needed) --------------------
    names = [m["name"] for m in SPEC["per_layer"]]
    layers = {n: 0.0 for n in names}
    if rec is not None:
        # Spans carry times as measured: one reading for all of them.
        layers = at_reference_speed(
            layer_metrics(names, rec, workload, warm_units, prefix["units"], prefix, whole),
            statistics.median(b["host"] for b in blocks if b["traced"]),
        )
    pooled = sorted(itertools.chain.from_iterable(query_blocks))
    layers["driver.latency_p99_us"] = _percentile(pooled, 0.99) * 1e6
    layers["failed_share"] = whole["failed"] / whole["events"]
    if single:
        layers["driver.plain_query_p50_us"] = (
            _over_blocks([b["plain"] for b in clean], 0.5) * 1e6
        )
        # One query in ten closes an epoch: pooled, a block has too few.
        closing = sorted(itertools.chain.from_iterable(b["closing"] for b in clean))
        layers["driver.epoch_close_query_p50_us"] = _percentile(closing, 0.5) * 1e6
        layers["driver.epoch_close_query_p95_us"] = _percentile(closing, 0.95) * 1e6
        inserts = [b["insert"] for b in clean]
        layers["driver.insert_p50_us"] = _over_blocks(inserts, 0.5) * 1e6
        layers["write_p95_us"] = _over_blocks(inserts, 0.95) * 1e6
    else:
        routed = sum(ledger.arrivals.values())
        layers["router.skew"] = max(ledger.arrivals.values()) / routed
        layers["fleet.divergence"] = ledger.divergence
        summary = workload.fleet.latency_summary()
        layers["workers.busy_ratio"] = (
            summary["mean"] * summary["count"] / (dispatch_wall * workload.workers)
        )
    if rec is not None:
        traced_tail = [b for b in blocks if b["traced"]][-len(clean):]
        layers["driver.trace_overhead_ratio"] = statistics.median(
            b["wall"] / b["events"] for b in traced_tail
        ) / statistics.median(b["wall"] / b["events"] for b in clean)
        if single:
            layers.update(at_reference_speed(_state_costs(workload.tuner), slowdown()))

    # -- output checks -------------------------------------------------------
    problems = []
    if not math.isclose(whole["total_cost"], whole["parts_cost"], rel_tol=1e-12):
        problems.append(
            f"ledger: sum(total_cost) {whole['total_cost']!r} != sum of its parts "
            f"{whole['parts_cost']!r}"
        )
    if not (base_cost > 0 and math.isfinite(end_to_end["cost_ratio_vs_untuned"])):
        problems.append(f"untuned cost of the prefix is {base_cost!r}")
    problems += check_budget(workload, materialized(workload))
    if mismatches:
        problems.append(f"{mismatches} parsed+bound queries differ from the generator's")
    if parity_events:
        problems += check_fleet_parity(workload, ledger)
    if rec is not None:
        problems += _check_spans(rec, workload, prefix)
        RESULTS.mkdir(exist_ok=True)
        rec.dump(
            RESULTS / f"trace_{workload.name}.json",
            rec.totals(first_unit=warm_units),
            TRACE_DUMP_UNITS,
        )

    del prefix["log"]
    return {
        "sub_seed": workload.seed,
        "problems": [f"sub-seed {workload.seed}: {p}" for p in problems],
        "attempted": whole["events"],
        "failed": whole["failed"],
        "errors": ledger.errors,
        "end_to_end": end_to_end,
        "per_layer": layers,
        "samples": samples,
        "exact": prefix,
        "final_materialized": materialized(workload),
        "generator_dropped": getattr(workload, "dropped", 0),
    }


def _state_costs(tuner) -> dict:
    """One snapshot / restore / metrics export after the last event."""
    t0 = time.perf_counter()
    snapshot = snapshot_any(tuner)
    t1 = time.perf_counter()
    encoded = json.dumps(snapshot)
    catalog = build_catalog()
    t2 = time.perf_counter()
    restore_any(catalog, snapshot)
    t3 = time.perf_counter()
    tuner.metrics_snapshot()
    t4 = time.perf_counter()
    return {
        "persist.snapshot_ms": (t1 - t0) * 1e3,
        "persist.snapshot_kb": len(encoded) / 1024,
        "persist.restore_ms": (t3 - t2) * 1e3,
        "obs.snapshot_ms": (t4 - t3) * 1e3,
    }


def _check_spans(rec: SpanRecorder, workload, prefix) -> list:
    """The wrappers must have seen what the ledger says happened."""
    exact = rec.totals(end_unit=prefix["units"])

    def calls(name):
        return exact.get(name, (0,))[0]

    problems = []
    if calls(ROOT_SPAN) != prefix["units"]:
        problems.append(f"{calls(ROOT_SPAN)} root spans for {prefix['units']} units")
    tuner = workload.tuner
    if tuner is not None:
        if hasattr(tuner, "self_organizer"):
            probes = calls("whatif.probe")
        else:
            probes = calls("backend.optimize") - calls("whatif.begin_query")
        if probes != prefix["whatif_calls"]:
            problems.append(
                f"{probes} probe spans, ledger has {prefix['whatif_calls']} what-if calls"
            )
        if calls("scheduler.advance_epoch") != prefix["epochs"]:
            problems.append(
                f"{calls('scheduler.advance_epoch')} epoch spans, ledger has "
                f"{prefix['epochs']} epochs"
            )
    return problems


# ----------------------------------------------------------------------
# Printing
# ----------------------------------------------------------------------
def contract_line(record: dict) -> str:
    """The JSON object the benchmark contract asks for."""
    chosen = record["per_layer"] if record["trace"] else record["end_to_end"]
    wanted = SPEC["per_layer"] if record["trace"] else SPEC["end_to_end"]
    return json.dumps(
        {
            "correct": record["correct"],
            "attempted": record["attempted"],
            "failed": record["failed"],
            "metrics": {
                m["name"]: {"value": chosen[m["name"]], "unit": UNITS[m["name"]]}
                for m in wanted
            },
        }
    )


def print_pass(record: dict) -> None:
    host = record["host"]
    print(
        f"{record['workload']} seed {record['seed']} "
        f"({'traced' if record['trace'] else 'untraced'} pass of "
        f"{len(record['rounds'])} round(s); closed loop, 1 client; "
        f"{host['cores']} cores, python {host['python']}, "
        f"load {host['load_average_at_start'][0]:.2f})"
    )
    setups = record["setups"]
    print(f"  attempted {record['attempted']} events, failed {record['failed']}; "
          f"set-ups {' '.join(f'{s:.3f}' for s in setups['s'])} s at reference speed "
          f"(as measured {' '.join(f'{s:.3f}' for s in setups['as_measured_s'])})")
    for one in record["rounds"]:
        s, exact = one["samples"], one["exact"]
        print(
            f"  sub-seed {one['sub_seed']}: {s['blocks']} untraced timed blocks, "
            f"{s['events']} events, host {s['host_slowdown']:.2f}x slower than reference, "
            f"{s['latency_samples']} latency samples, "
            f"{s['insert_samples']} insert samples; first {exact['events']} events: "
            f"total_cost {exact['total_cost']!r}, what-if calls {exact['whatif_calls']}, "
            f"epochs {exact['epochs']}, decisions {exact['decision_digest'][:12]}"
        )
    for group in ("end_to_end", "per_layer"):
        print(f"  {group} (median over rounds):")
        for name, value in record[group].items():
            if value == 0 and not record["trace"]:
                continue  # span-derived: only a traced pass fills these in
            shown = "not exposed" if value == NOT_EXPOSED else f"{value:.6g}"
            per_round = ""
            if len(record["rounds"]) > 1 and name != "setup_s":
                per_round = " [" + " ".join(
                    f"{one[group][name]:.6g}" for one in record["rounds"]) + "]"
            print(f"    {name:38s} {shown:>14s} {UNITS[name]:6s}{per_round}")
    for problem in record["problems"]:
        print(f"  CHECK FAILED: {problem}")
    for error in record["errors"]:
        print(f"  failed event: {error}")


# ----------------------------------------------------------------------
# The suite
# ----------------------------------------------------------------------
def run_suite(names, seed: int, seconds: float, repeats: int, scale: float, out) -> int:
    host = host_record()
    RESULTS.mkdir(exist_ok=True)
    passes = {name: [] for name in names}
    for k in range(repeats + 1):
        traced = k == repeats
        for name in names:  # round-robin: A B C D E A B ...
            detail = RESULTS / f"pass_{name}_{k}.json"
            command = [
                sys.executable, str(pathlib.Path(__file__).resolve()),
                "--workload", name, "--seed", str(seed), "--seconds", str(seconds),
                "--trace", str(int(traced)), "--scale", str(scale),
                "--detail", str(detail),
            ]
            print(f"pass {k + 1}/{repeats + 1} {name}"
                  f"{' (traced)' if traced else ''} ...", flush=True)
            done = subprocess.run(command, stdout=subprocess.PIPE, text=True, timeout=600)
            if not detail.exists():
                print(done.stdout)
                print(f"pass of {name} produced no result (exit {done.returncode})")
                return 1
            passes[name].append(json.loads(detail.read_text()))
            detail.unlink()

    document = {"host": host, "seed": seed, "seconds": seconds, "scale": scale,
                "repeats": repeats, "workloads": {}}
    status = 0
    for name in names:
        timed = [p for p in passes[name] if not p["trace"]]
        traced = passes[name][-1]
        problems = [p for one in passes[name] for p in one["problems"]]
        # Same sub-seed, same inputs: the prefix's exact counts must repeat
        # in every pass (the traced pass runs the first sub-seed only).
        exact = [[r["exact"] for r in p["rounds"]] for p in timed]
        if any(e != exact[0] for e in exact) or traced["rounds"][0]["exact"] != exact[0][0]:
            problems.append("exact counts of the prefix differ across passes: "
                            + json.dumps(exact + [[traced["rounds"][0]["exact"]]]))
        entry = {
            "correct": not problems,
            "problems": problems,
            "attempted": [p["attempted"] for p in timed],
            "failed": [p["failed"] for p in timed],
            "exact": exact[0],
            "samples": [[r["samples"] for r in p["rounds"]] for p in timed],
            "setups": [p["setups"] for p in timed],
            "end_to_end": {},
            "per_layer": {},
        }
        for metric in traced["end_to_end"]:
            values = [p["end_to_end"][metric] for p in timed]
            entry["end_to_end"][metric] = {
                "unit": UNITS[metric], "median": statistics.median(values), "passes": values,
            }
        for metric, value in traced["per_layer"].items():
            values = [p["per_layer"][metric] for p in timed]
            entry["per_layer"][metric] = {
                "unit": UNITS[metric], "traced_pass": value,
                # Driver- and ledger-derived metrics exist in untraced
                # passes too; span-derived ones read 0 there.
                "median": statistics.median(values), "passes": values,
            }
        document["workloads"][name] = entry

        print(f"\n{name}: attempted {entry['attempted']}, failed {entry['failed']}")
        n = [sum(r["latency_samples"] for r in rounds) for rounds in entry["samples"]]
        print(f"  {'end-to-end metric':38s} {'median':>12s} unit    passes "
              f"(latency samples per pass: {n})")
        for metric, row in entry["end_to_end"].items():
            shown = " ".join(f"{v:.6g}" for v in row["passes"])
            print(f"  {metric:38s} {row['median']:12.6g} {row['unit']:7s} [{shown}]")
        print(f"  {'per-layer metric (traced pass)':38s} {'value':>12s} unit")
        for metric, row in entry["per_layer"].items():
            value = row["traced_pass"]
            shown = "not exposed" if value == NOT_EXPOSED else f"{value:.6g}"
            print(f"  {metric:38s} {shown:>12s} {row['unit']}")
        for problem in problems:
            status = 1
            print(f"  CHECK FAILED: {problem}")
    target = pathlib.Path(out) if out else RESULTS / f"suite_seed{seed}.json"
    target.write_text(json.dumps(document, indent=1) + "\n")
    print(f"\nresults written: {target}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=float(SPEC["run_seconds"]),
                        help="how long one pass measures")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="run one pass in this process: 0 prints the end-to-end "
                        "metrics, 1 the per-layer metrics; omit to run the suite")
    parser.add_argument("--repeats", type=int, default=3,
                        help="suite: untraced passes per workload")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="scales warm-up, prefix and parity event counts "
                        "(the smoke test runs at 0.02)")
    parser.add_argument("--detail", help="one pass: also write the full record here")
    parser.add_argument("--out", help="suite: result file "
                        "(default perf/results/suite_seed<N>.json)")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.setup_only:
        setup_only(args.workload, args.seed)
        return 0
    if args.trace is None:
        names = [args.workload] if args.workload else [w["name"] for w in SPEC["workloads"]]
        return run_suite(names, args.seed, args.seconds, args.repeats, args.scale, args.out)
    if args.workload is None:
        parser.error("--trace needs --workload")
    record = run_pass(args.workload, args.seed, args.seconds, bool(args.trace), args.scale)
    if args.detail:
        pathlib.Path(args.detail).write_text(json.dumps(record) + "\n")
    print_pass(record)
    print(contract_line(record))
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
