"""Which callables the traced pass wraps, and the per-layer metrics.

Every ``*_share`` is a layer's time divided by the summed dispatch-unit
time of the traced units.  A layer's time is its spans' *inclusive* time
when everything beneath them belongs to the layer (base optimization
under ``begin_query``, knapsack and 2-means under the Self-Organizer's
``end_epoch``) and *self* time when other layers run beneath them (the
Profiler, whose ``profile_query`` calls what-if probes and the candidate
tracker).  perf/README.md lists the definition of each metric.

Two sentinel values: 0 means the layer did no work on this workload
(bypassed); ``NOT_EXPOSED`` (-1) means work happened where the benchmark
cannot see it (inside the fleet's worker processes).
"""

from __future__ import annotations

import pickle
from typing import Dict

from perf.trace import ROOT, SpanRecorder

NOT_EXPOSED = -1.0

#: Per-layer metrics that live inside a tuner, i.e. inside the worker
#: processes on ``fleet_workers``.
_INSIDE_WORKERS = (
    "driver.plain_query_p50_us",
    "driver.epoch_close_query_p50_us",
    "driver.epoch_close_query_p95_us",
    "whatif.begin_query_us",
    "whatif.begin_query_share",
    "backend.optimize_calls_per_kq",
    "backend.optimize_us_per_call",
    "whatif.probe_us_per_call",
    "profiler.profile_query_self_us",
    "profiler.share",
    "profiler.end_epoch_us",
    "profiler.budget_granted_per_epoch",
    "profiler.budget_spent_ratio",
    "candidates.observe_query_us",
    "candidates.share",
    "candidates.tracked",
    "gaincache.hit_ratio",
    "gaincache.entries",
    "self_organizer.end_epoch_us",
    "self_organizer.share",
    "knapsack.solve_us_per_epoch",
    "knapsack.calls_per_epoch",
    "knapsack.items_mean",
    "two_means.us_per_epoch",
    "scheduler.us_per_epoch",
    "catalog.heap_pages_calls_per_query",
    "catalog.index_costing_us_per_epoch",
    "scheduler.builds",
    "scheduler.drops",
    "scheduler.build_failures",
    "persist.snapshot_ms",
    "persist.snapshot_kb",
    "persist.restore_ms",
    "obs.snapshot_ms",
)

_SCHEDULER_CALLS = ("advance_epoch", "request_materialization", "request_drop")
_MODEL_CALLS = ("update", "decay", "width", "mean")
_INDEX_COSTING = ("index_size_pages", "index_build_cost")
_FEATURE_CALLS = ("note_query", "vector", "roll_epoch")


def instrument(rec: SpanRecorder, workload) -> None:
    """Register the wrappers for the layers ``workload`` runs."""
    import perf.workloads as own

    if workload.name == "sql_fresh":
        rec.patch(own, "parse_query", "sql.parse")
        rec.patch(own, "bind_query", "sql.bind")

    tuner = workload.tuner
    if tuner is not None:
        rec.patch(tuner.whatif, "begin_query", "whatif.begin_query")
        rec.patch(tuner.backend, "optimize", "backend.optimize")
        rec.patch(tuner.whatif, "what_if_optimize", "whatif.probe")
        for call in ("observe_query", "ranked", "roll_epoch"):
            rec.patch(tuner.profiler.candidates, call, f"candidates.{call}")
        for call in _SCHEDULER_CALLS:
            rec.patch(tuner.scheduler, call, f"scheduler.{call}")
        for table in tuner.catalog.tables():
            rec.patch_counter(table, "heap_pages", "catalog.heap_pages")
        for call in _INDEX_COSTING:  # epoch close only, on both engines
            rec.patch(tuner.catalog, call, "catalog.index_costing")
        if hasattr(tuner, "self_organizer"):  # COLT
            import repro.core.self_organizer as organizer

            rec.patch(tuner.profiler, "profile_query", "profiler.profile_query")
            rec.patch(tuner.profiler, "end_epoch", "profiler.end_epoch")
            rec.patch(tuner.self_organizer, "end_epoch", "self_organizer.end_epoch")
            rec.patch(organizer, "two_means_split", "two_means.split")
            solvers = [(organizer, "solve_knapsack"), (organizer, "solve_constrained")]
        else:  # bandit
            import repro.bandit.tuner as bandit

            for call in _MODEL_CALLS:
                rec.patch(tuner.model, call, f"bandit.model.{call}")
            for call in _FEATURE_CALLS:
                rec.patch(tuner.features, call, f"bandit.features.{call}")
            solvers = [(bandit, "solve_constrained")]
        for module, solver in solvers:
            rec.patch(module, solver, "knapsack.solve")
            rec.patch_counter(
                module, solver, "knapsack.items", lambda items, *a, **k: len(items)
            )

    fleet = workload.fleet
    if fleet is not None:
        rec.patch(fleet.router, "route", "router.route")
        rec.patch(fleet, "reorganize", "fleet.reorganize")
        for handle in fleet.replicas:
            rec.patch(handle, "send", "workers.send")
            rec.patch_counter(
                handle, "send", "workers.sent_bytes", lambda cmd: len(pickle.dumps(cmd))
            )
            rec.patch(handle, "receive", "workers.receive")


def layer_metrics(
    names,
    rec: SpanRecorder,
    workload,
    warm_units: int,
    prefix_units: int,
    prefix: Dict,
    whole: Dict,
) -> Dict[str, float]:
    """Span- and state-derived per-layer values for the traced pass.

    Args:
        names: Every per-layer metric name (``BENCHMARK.json``).
        rec: The pass's recorder.
        workload: The workload, for end-of-pass state reads.
        warm_units: Warm-up dispatch units; their spans are left out of
            every timing.
        prefix_units: Dispatch units (warm-up included) in the fully
            traced prefix; counts marked *exact* are taken over it.
        prefix: Ledger totals at the end of the prefix.
        whole: Ledger totals at the end of the pass.
    """
    m = {name: 0.0 for name in names}
    spans = rec.totals(first_unit=warm_units)
    exact = rec.totals(end_unit=prefix_units)

    def calls(name: str, table=spans) -> float:
        return table.get(name, (0, 0.0, 0.0))[0]

    def incl(name: str) -> float:
        return spans.get(name, (0, 0.0, 0.0))[1]

    def own(name: str) -> float:
        return spans.get(name, (0, 0.0, 0.0))[2]

    def per(total: float, count: float, scale: float = 1e6) -> float:
        return total * scale / count if count else 0.0

    dispatch = incl(ROOT)
    m["driver.span_coverage"] = (dispatch - own(ROOT)) / dispatch if dispatch else 0.0

    queries = calls("whatif.begin_query")
    epochs = calls("scheduler.advance_epoch")
    m["sql.parse_us_per_query"] = per(incl("sql.parse"), calls("sql.parse"))
    m["sql.bind_us_per_query"] = per(incl("sql.bind"), calls("sql.bind"))
    m["sql.share"] = per(incl("sql.parse") + incl("sql.bind"), dispatch, 1.0)
    m["sql.failures"] = whole["failed"]

    m["whatif.begin_query_us"] = per(incl("whatif.begin_query"), queries)
    m["whatif.begin_query_share"] = per(incl("whatif.begin_query"), dispatch, 1.0)
    m["backend.optimize_calls_per_kq"] = per(
        calls("backend.optimize", exact), calls("whatif.begin_query", exact), 1e3
    )
    m["backend.optimize_us_per_call"] = per(
        incl("backend.optimize"), calls("backend.optimize")
    )
    m["whatif.probe_us_per_call"] = per(incl("whatif.probe"), calls("whatif.probe"))

    m["profiler.profile_query_self_us"] = per(
        own("profiler.profile_query"), calls("profiler.profile_query")
    )
    m["profiler.share"] = per(
        own("profiler.profile_query") + own("profiler.end_epoch"), dispatch, 1.0
    )
    m["profiler.end_epoch_us"] = per(
        incl("profiler.end_epoch"), calls("profiler.end_epoch")
    )
    m["candidates.observe_query_us"] = per(
        incl("candidates.observe_query"), calls("candidates.observe_query")
    )
    m["candidates.share"] = per(incl("candidates.observe_query"), dispatch, 1.0)

    m["self_organizer.end_epoch_us"] = per(
        incl("self_organizer.end_epoch"), calls("self_organizer.end_epoch")
    )
    m["self_organizer.share"] = per(incl("self_organizer.end_epoch"), dispatch, 1.0)
    m["knapsack.solve_us_per_epoch"] = per(incl("knapsack.solve"), epochs)
    m["knapsack.calls_per_epoch"] = per(calls("knapsack.solve"), epochs, 1.0)
    solves, items = rec.counts.get("knapsack.items", (0, 0))
    m["knapsack.items_mean"] = per(items, solves, 1.0)
    m["two_means.us_per_epoch"] = per(incl("two_means.split"), epochs)
    m["scheduler.us_per_epoch"] = per(
        sum(incl(f"scheduler.{call}") for call in _SCHEDULER_CALLS), epochs
    )
    m["scheduler.builds"] = prefix["builds"]
    m["scheduler.drops"] = prefix["drops"]
    m["scheduler.build_failures"] = prefix["build_failures"]
    m["catalog.heap_pages_calls_per_query"] = per(
        rec.counts.get("catalog.heap_pages", (0, 0))[0], queries, 1.0
    )

    m["catalog.index_costing_us_per_epoch"] = per(
        incl("catalog.index_costing"), epochs
    )

    m["bandit.model_us_per_epoch"] = per(
        sum(incl(f"bandit.model.{call}") for call in _MODEL_CALLS), epochs
    )
    m["bandit.features_us_per_epoch"] = per(
        sum(incl(f"bandit.features.{call}") for call in _FEATURE_CALLS), epochs
    )
    m["bandit.model_updates_per_epoch"] = per(
        calls("bandit.model.update"), epochs, 1.0
    )

    probes_per_kq = per(prefix["whatif_calls"], prefix["queries"], 1e3)
    tuner = workload.tuner
    if tuner is not None and not hasattr(tuner, "self_organizer"):
        m["bandit.reward_probe_calls_per_kq"] = probes_per_kq
    else:
        m["whatif.probe_calls_per_kq"] = probes_per_kq
    if tuner is not None:
        m["candidates.tracked"] = len(tuner.profiler.candidates.candidates())
        cache = tuner.profiler.gain_cache
        m["gaincache.hit_ratio"] = per(cache.hits, cache.hits + cache.misses, 1.0)
        m["gaincache.entries"] = len(cache)
    if tuner is not None and hasattr(tuner, "self_organizer"):
        records = tuner.dashboard.records
        granted = sum(r.granted for r in records)
        m["profiler.budget_granted_per_epoch"] = per(granted, len(records), 1.0)
        m["profiler.budget_spent_ratio"] = per(
            sum(r.spent for r in records), granted, 1.0
        )

    if workload.fleet is not None:
        for name in _INSIDE_WORKERS:
            m[name] = NOT_EXPOSED
        chunks = calls(ROOT)
        m["router.route_us_per_query"] = per(incl("router.route"), calls("router.route"))
        m["router.share"] = per(incl("router.route"), dispatch, 1.0)
        m["workers.send_us_per_chunk"] = per(incl("workers.send"), chunks)
        m["workers.receive_wait_us_per_chunk"] = per(incl("workers.receive"), chunks)
        m["workers.sent_bytes_per_query"] = per(
            rec.counts["workers.sent_bytes"][1], chunks * workload.unit_events, 1.0
        )
        m["workers.parent_share"] = 1.0 - per(incl("workers.receive"), dispatch, 1.0)
        m["fleet.reorganize_us_per_epoch"] = per(
            incl("fleet.reorganize"), calls("fleet.reorganize")
        )
    return m
