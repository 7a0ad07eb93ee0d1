"""Command-line interface.

Exposes the reproduction's experiments and a few interactive utilities::

    python -m repro table1                 # Table 1 characteristics
    python -m repro fig3 [--seed N]        # stable-workload experiment
    python -m repro fig4                   # shifting-workload experiment
    python -m repro fig5                   # overhead self-regulation
    python -m repro fig6 [--bursts 20,50]  # noise resilience sweep
    python -m repro explain "select ..."   # optimize a query against the
                                           #   paper catalog and show the plan
    python -m repro check-snapshot FILE    # validate a saved tuner snapshot
                                           #   (COLT or bandit, auto-detected)
    python -m repro run [--engine E]       # run a tuning engine (colt,
                                           #   bandit, offline, continuous)
                                           #   and report its dashboard
    python -m repro metrics                # emit a Prometheus/JSON metrics
                                           #   snapshot (live or --from FILE)
    python -m repro fleet-run              # replicated tuning fleet behind a
                                           #   workload-aware query router
    python -m repro fleet-status DIR       # inspect a saved fleet snapshot
                                           #   (per-replica integrity, --json)
    python -m repro audit                  # guardrail audit: predicted vs
                                           #   observed index benefit
    python -m repro demo                   # 60-second COLT walkthrough

Every experiment prints the same series the corresponding figure of the
paper charts (plus a small ASCII rendering where it helps).
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional, Sequence

from repro.bench.figures import (
    DEFAULT_BUDGET_PAGES,
    figure3_stable,
    figure4_shifting,
    figure5_overhead,
    figure6_noise,
    table1_dataset,
)
from repro.backend.base import BackendError
from repro.engines import ENGINES, engine_spec
from repro.persist import SnapshotError
from repro.sql.binder import BindError
from repro.sql.lexer import LexError
from repro.sql.parser import ParseError

# Distinct exit codes so scripts can react to the failure class without
# scraping stderr.  1 stays the generic error code.
EXIT_ERROR = 1
EXIT_PARSE = 2
EXIT_BIND = 3
EXIT_SNAPSHOT = 4

#: Engines selectable via ``--engine``: every loop engine in the engine
#: table plus the two one-shot baselines.  Every command carrying the
#: flag accepts the same names; combinations an engine cannot serve
#: (e.g. ``timeline --engine offline``) fail with a clear error.
ENGINE_CHOICES = (*ENGINES, "offline", "continuous")


def _add_engine_flag(parser: argparse.ArgumentParser, support: str) -> None:
    parser.add_argument(
        "--engine",
        choices=ENGINE_CHOICES,
        default="colt",
        help=f"tuning engine ({support}; see the README engine table)",
    )


def _require_epoch_engine(command: str, engine: str) -> None:
    """Commands driving the on-line epoch loop accept loop engines only."""
    if engine not in ENGINES:
        raise ValueError(
            f"{command} drives an on-line epoch-loop tuner; "
            f"--engine {engine} is only available on 'run' "
            f"(use {' or '.join(ENGINES)} here)"
        )


def _add_gain_cache_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--gain-cache",
        choices=("on", "off"),
        default="off",
        help="serve structural-zero what-if gains without a probe "
        "(COLT only; see docs/PERFORMANCE.md)",
    )


def _check_gain_cache(engine: str) -> None:
    """``--gain-cache on`` needs an engine that spends what-if calls."""
    caching = [
        name for name, spec in ENGINES.items() if spec.tuner.budget_label == "what-if"
    ]
    if engine not in caching:
        raise ValueError(
            f"--gain-cache on requires --engine {' or '.join(caching)}: "
            "only engines that profile through what-if calls cache their "
            "gains (the others learn from observed rewards)"
        )


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for testing and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="COLT (ICDE 2007) reproduction: experiments and utilities",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("table1", help="print Table 1 (data set characteristics)")

    for name, text in (
        ("fig3", "stable workload: COLT vs OFFLINE"),
        ("fig4", "shifting workload: COLT vs OFFLINE"),
        ("fig5", "what-if overhead self-regulation"),
    ):
        p = sub.add_parser(name, help=text)
        p.add_argument("--seed", type=int, default=0, help="workload RNG seed")
        p.add_argument(
            "--budget",
            type=float,
            default=DEFAULT_BUDGET_PAGES,
            help="storage budget in pages",
        )

    p6 = sub.add_parser("fig6", help="noise resilience sweep")
    p6.add_argument("--seed", type=int, default=0)
    p6.add_argument(
        "--budget", type=float, default=DEFAULT_BUDGET_PAGES
    )
    p6.add_argument(
        "--bursts",
        type=str,
        default="20,30,40,50,60,70,80,90",
        help="comma-separated burst lengths",
    )

    pe = sub.add_parser(
        "explain", help="optimize a query against the paper catalog"
    )
    pe.add_argument("sql", help="a SELECT statement over the TPC-H schema")
    pe.add_argument(
        "--index",
        action="append",
        default=[],
        metavar="TABLE.COLUMN",
        help="hypothetical index to make available (repeatable)",
    )

    pa = sub.add_parser(
        "advise", help="one-shot index recommendation for a list of queries"
    )
    pa.add_argument(
        "sql",
        nargs="+",
        help="one or more SELECT statements over the TPC-H schema",
    )
    pa.add_argument(
        "--budget", type=float, default=DEFAULT_BUDGET_PAGES, help="pages"
    )

    pt = sub.add_parser(
        "timeline", help="per-epoch timeline of a tuning run (watch it tune)"
    )
    pt.add_argument(
        "--workload",
        choices=("stable", "shifting"),
        default="shifting",
        help="which paper workload to trace",
    )
    pt.add_argument("--seed", type=int, default=0)
    pt.add_argument("--budget", type=float, default=DEFAULT_BUDGET_PAGES)
    pt.add_argument(
        "--queries", type=int, default=400, help="workload length (stable only)"
    )
    _add_gain_cache_flag(pt)
    _add_engine_flag(pt, f"epoch-loop engines only ({', '.join(ENGINES)})")

    ps = sub.add_parser(
        "check-snapshot",
        help="validate a tuner snapshot file against the paper catalog",
    )
    ps.add_argument("path", help="path to a snapshot written by save_json")
    ps.add_argument(
        "--engine",
        choices=tuple(ENGINES),
        default=None,
        help="assert the snapshot was written by this engine "
        "(mismatch fails with the snapshot exit code)",
    )

    pr = sub.add_parser(
        "run",
        help="run a tuning engine over a paper workload and report the "
        "overhead dashboard",
    )
    pr.add_argument(
        "--workload",
        choices=("stable", "shifting"),
        default="stable",
        help="which paper workload to run",
    )
    pr.add_argument(
        "--queries", type=int, default=200, help="workload length (stable only)"
    )
    pr.add_argument("--seed", type=int, default=0, help="workload RNG seed")
    pr.add_argument(
        "--budget",
        type=float,
        default=DEFAULT_BUDGET_PAGES,
        help="storage budget in pages",
    )
    pr.add_argument(
        "--metrics-out",
        default=None,
        metavar="PATH",
        help="write a metrics snapshot (.prom/.txt: Prometheus text; "
        "otherwise JSON)",
    )
    _add_gain_cache_flag(pr)
    _add_engine_flag(pr, "all four engines")
    pr.add_argument(
        "--backend",
        choices=("local", "trace"),
        default="local",
        help="DBMS backend answering what-if probes (loop engines only; "
        "see docs/BACKENDS.md)",
    )
    pr.add_argument(
        "--record-trace",
        default=None,
        metavar="PATH",
        help="record every pricing request to a cost-trace file "
        "(requires --backend local)",
    )
    pr.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help="cost-trace file to replay (requires --backend trace)",
    )

    pm = sub.add_parser(
        "metrics",
        help="emit a metrics snapshot (small live fleet run, or a saved file)",
    )
    pm.add_argument(
        "--format",
        choices=("prom", "json", "text"),
        default="prom",
        help="prom: Prometheus text; json: snapshot document; "
        "text: overhead dashboard table",
    )
    pm.add_argument(
        "--from",
        dest="from_file",
        default=None,
        metavar="FILE",
        help="render a saved JSON snapshot instead of running live",
    )
    pm.add_argument("--seed", type=int, default=0, help="live-run RNG seed")

    pf = sub.add_parser(
        "fleet-run",
        help="run a replicated tuning fleet over a multi-client shifting workload",
    )
    pf.add_argument(
        "--replicas", type=int, default=3, help="fleet size (and client count)"
    )
    pf.add_argument(
        "--policy",
        choices=("round-robin", "affinity", "client"),
        default="affinity",
        help="routing policy",
    )
    pf.add_argument("--seed", type=int, default=0, help="workload RNG seed")
    pf.add_argument(
        "--budget",
        type=float,
        default=DEFAULT_BUDGET_PAGES,
        help="per-replica storage budget in pages",
    )
    pf.add_argument(
        "--phase-length", type=int, default=100, help="queries per client phase"
    )
    pf.add_argument(
        "--transition", type=int, default=20, help="phase transition length"
    )
    pf.add_argument(
        "--fleet-epoch",
        type=int,
        default=30,
        help="queries between fleet reorganizations",
    )
    pf.add_argument(
        "--snapshot-dir",
        default=None,
        help="directory to save the fleet snapshot into after the run",
    )
    pf.add_argument(
        "--metrics-out",
        default=None,
        metavar="PATH",
        help="write the fleet's merged metrics snapshot "
        "(.prom/.txt: Prometheus text; otherwise JSON)",
    )
    _add_gain_cache_flag(pf)
    pf.add_argument(
        "--workers",
        type=int,
        default=0,
        metavar="N",
        help="run the fleet's replicas in N worker processes (one per "
        "replica, overriding --replicas; bit-identical decisions, see "
        "docs/FLEET.md); 0 keeps everything in-process",
    )
    _add_engine_flag(pf, f"epoch-loop engines only ({', '.join(ENGINES)})")

    pg = sub.add_parser(
        "fleet-status",
        help="inspect a fleet snapshot directory written by fleet-run",
    )
    pg.add_argument("dir", help="fleet snapshot directory")
    pg.add_argument(
        "--json",
        action="store_true",
        help="emit the status document as JSON instead of a table",
    )

    pd = sub.add_parser(
        "audit",
        help="guardrail audit: predicted vs observed benefit per index",
    )
    pd.add_argument(
        "--scenario",
        choices=("misleading", "clean"),
        default="misleading",
        help="misleading: statistics over-promise one index; "
        "clean: truthful statistics (control arm)",
    )
    pd.add_argument(
        "--guardrails",
        choices=("on", "off"),
        default="on",
        help="verification + quarantine on the audited run",
    )
    pd.add_argument(
        "--queries", type=int, default=360, help="workload length"
    )
    pd.add_argument("--seed", type=int, default=0, help="workload RNG seed")
    pd.add_argument(
        "--advice",
        default=None,
        metavar="FILE",
        help="DBA advice file (pin/ban/prefer lines), applied to every arm",
    )
    pd.add_argument(
        "--compare",
        action="store_true",
        help="also run the opposite guardrail arm and report the observed "
        "regret saved (exit 1 if guardrails do not win on the misleading "
        "scenario)",
    )
    pd.add_argument(
        "--json",
        dest="json_out",
        default=None,
        metavar="PATH",
        help="write the audit document as JSON",
    )

    sub.add_parser("demo", help="a 60-second COLT walkthrough")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        if exc.code:  # argparse's usage-error 2 would read as EXIT_PARSE
            return EXIT_ERROR
        raise  # --help
    try:
        if getattr(args, "gain_cache", "off") == "on":
            _check_gain_cache(args.engine)
        if args.command == "table1":
            print(table1_dataset().to_text())
        elif args.command == "fig3":
            _run_fig3(args)
        elif args.command == "fig4":
            _run_fig4(args)
        elif args.command == "fig5":
            print(figure5_overhead(budget=args.budget, seed=args.seed).to_text())
        elif args.command == "fig6":
            bursts = tuple(int(b) for b in args.bursts.split(","))
            print(
                figure6_noise(
                    burst_lengths=bursts, budget=args.budget, seed=args.seed
                ).to_text()
            )
        elif args.command == "explain":
            _run_explain(args)
        elif args.command == "advise":
            _run_advise(args)
        elif args.command == "timeline":
            _run_timeline(args)
        elif args.command == "check-snapshot":
            _run_check_snapshot(args)
        elif args.command == "run":
            _run_run(args)
        elif args.command == "metrics":
            _run_metrics(args)
        elif args.command == "fleet-run":
            _run_fleet(args)
        elif args.command == "fleet-status":
            _run_fleet_status(args)
        elif args.command == "audit":
            _run_audit(args)
        elif args.command == "demo":
            _run_demo()
    except (LexError, ParseError) as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except BindError as exc:
        print(f"bind error: {exc}", file=sys.stderr)
        return EXIT_BIND
    except SnapshotError as exc:
        print(f"snapshot error: {exc}", file=sys.stderr)
        return EXIT_SNAPSHOT
    except BackendError as exc:
        print(f"backend error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    return 0


# ----------------------------------------------------------------------
def _run_fig3(args) -> None:
    result = figure3_stable(budget=args.budget, seed=args.seed)
    print(result.to_text())
    print()
    print(_ascii_bars("COLT   ", result.colt_bars))
    print(_ascii_bars("OFFLINE", result.offline_bars))
    print(
        f"\ndeviation after query 100: {-result.reduction_percent(100):.1f}% "
        "(paper: ~1%)"
    )


def _run_fig4(args) -> None:
    result = figure4_shifting(budget=args.budget, seed=args.seed)
    print(result.to_text())
    print()
    print(_ascii_bars("COLT   ", result.colt_bars))
    print(_ascii_bars("OFFLINE", result.offline_bars))
    print(
        f"\noverall reduction: {result.reduction_percent():.1f}% (paper: 33%); "
        f"phase 2: {result.reduction_percent(350, 650):.1f}% (paper: 49%)"
    )


def _run_explain(args) -> None:
    from repro.optimizer import Optimizer, explain
    from repro.sql import parse_query
    from repro.sql.binder import bind_query
    from repro.workload import build_catalog

    catalog = build_catalog()
    query = bind_query(parse_query(args.sql), catalog)
    config = set()
    for spec in args.index:
        table, _, column = spec.partition(".")
        if not table or not column:
            raise ValueError(f"--index expects TABLE.COLUMN, got {spec!r}")
        config.add(catalog.index_for(table, column))
    result = Optimizer(catalog).optimize(query, config=frozenset(config))
    print(explain(result.plan))
    if config:
        used = {ix.name for ix in result.plan.indexes_used()}
        offered = {ix.name for ix in config}
        print(f"\noffered indexes: {', '.join(sorted(offered))}")
        print(f"used indexes:    {', '.join(sorted(used)) or '(none)'}")


def _run_advise(args) -> None:
    from repro.advisor import advise
    from repro.workload import build_catalog

    report = advise(build_catalog(), args.sql, budget_pages=args.budget)
    print(report.to_text())


def _paper_workload(args):
    """The ``--workload stable|shifting`` stream of ``run``/``timeline``."""
    from repro.workload import build_catalog, shifting_workload, stable_workload
    from repro.workload.experiments import phase_distributions, stable_distribution

    catalog = build_catalog()
    if args.workload == "stable":
        return stable_workload(
            stable_distribution(), args.queries, catalog, seed=args.seed
        )
    return shifting_workload(
        phase_distributions(), catalog, phase_length=150, transition=30, seed=args.seed
    )


def _run_timeline(args) -> None:
    from repro.bench.tracing import trace_run
    from repro.workload import build_catalog

    _require_epoch_engine("timeline", args.engine)
    workload = _paper_workload(args)
    config = _colt_config(args, seed=args.seed)
    trace = trace_run(build_catalog(), workload.queries, config, engine=args.engine)
    print(f"workload: {workload.description} (engine: {trace.engine})\n")
    print(trace.render_timeline())
    final = ", ".join(trace.epochs[-1].materialized) if trace.epochs else ""
    print(f"\nfinal materialized: {final or '(none)'}")


def _run_check_snapshot(args) -> None:
    from repro.persist import load_json, restore_any
    from repro.workload import build_catalog

    snapshot = load_json(args.path)
    tuner = restore_any(
        build_catalog(), snapshot, engine=getattr(args, "engine", None)
    )
    engine = snapshot.get("engine", "colt")
    print(f"{args.path}: OK (version {snapshot['version']}, engine {engine})")
    print(f"  materialized: {len(tuner.materialized_set)} indexes")
    print(f"  hot:          {len(tuner.hot_set)} indexes")
    print(f"  what-if budget: {tuner.profiler.whatif_budget}")


def _run_run(args) -> None:
    from repro.obs.export import write_metrics

    _check_backend_flags(args)
    workload = _paper_workload(args)
    if args.engine == "offline":
        _run_offline(args, workload)
        return
    if args.engine == "continuous":
        _run_continuous(args, workload)
        return
    tuner = _build_engine_tuner(args)
    outcomes = tuner.run(workload.queries)
    print(f"workload: {workload.description}")
    print(f"engine:   {args.engine}")
    print(
        f"queries:  {len(outcomes)}; epochs: {tuner.dashboard.epochs}; "
        f"materialized: {len(tuner.materialized_set)}"
    )
    print(f"total cost: {sum(o.total_cost for o in outcomes):,.0f}\n")
    print(
        f"{tuner.budget_label} overhead dashboard (requested / granted / spent):"
    )
    print(tuner.dashboard.render())
    recorder = getattr(tuner.backend, "recorder", None)
    if recorder is not None and getattr(args, "record_trace", None):
        recorder.trace.meta.update(
            workload=args.workload, seed=args.seed, engine=args.engine
        )
        recorder.trace.save(args.record_trace)
        print(
            f"\ncost trace recorded: {args.record_trace} "
            f"({len(recorder.trace)} entries)"
        )
    if args.metrics_out:
        fmt = write_metrics(args.metrics_out, tuner.metrics_snapshot())
        print(f"\nmetrics snapshot written: {args.metrics_out} ({fmt})")


def _check_backend_flags(args) -> None:
    """Reject ``--backend``/``--trace``/``--metrics-out`` combos
    the selected engine cannot serve."""
    backend = getattr(args, "backend", "local")
    if args.engine not in ENGINES:
        online = f"requires an on-line engine ({' or '.join(ENGINES)})"
        if backend != "local":
            raise ValueError(
                f"--backend {backend} {online}; baselines always price locally"
            )
        if args.metrics_out:
            raise ValueError(
                f"--metrics-out {online}; the {args.engine} baseline emits "
                "no metrics"
            )
    if getattr(args, "record_trace", None) and backend != "local":
        raise ValueError("--record-trace requires --backend local")
    if getattr(args, "trace", None) and backend != "trace":
        raise ValueError("--trace is only meaningful with --backend trace")
    if backend == "trace" and not getattr(args, "trace", None):
        raise ValueError("--backend trace requires --trace PATH")


def _build_backend(args, catalog):
    """The DBMS backend selected by ``--backend``, over ``catalog``."""
    backend = getattr(args, "backend", "local")
    if backend == "local":
        recorder = None
        if getattr(args, "record_trace", None):
            from repro.backend.trace import CostTraceRecorder

            recorder = CostTraceRecorder()
        from repro.backend.local import LocalBackend

        return LocalBackend(catalog, recorder=recorder)
    from repro.backend.trace import CostTrace, TraceBackend

    return TraceBackend(catalog, CostTrace.load(args.trace))


def _colt_config(args, **fields):
    """The tuning configuration of ``--budget`` and ``--gain-cache``."""
    from repro.core.config import ColtConfig

    return ColtConfig(
        storage_budget_pages=args.budget, gain_cache=args.gain_cache == "on", **fields
    )


def _build_engine_tuner(args):
    """A loop-engine tuner over the paper catalog, from CLI args."""
    from repro.workload import build_catalog

    catalog = build_catalog()
    return engine_spec(args.engine).build(
        catalog, _colt_config(args, seed=args.seed), backend=_build_backend(args, catalog)
    )


def _run_offline(args, workload) -> None:
    """The OFFLINE baseline under ``run``: exact selection, free tuning."""
    from repro.baselines.offline import OfflineTuner
    from repro.workload import build_catalog

    result = OfflineTuner(build_catalog()).tune(
        workload.queries, budget_pages=args.budget
    )
    reduction = 1.0 - result.total_cost / max(result.baseline_cost, 1e-9)
    print(f"workload: {workload.description}")
    print("engine:   offline (exact baseline; selection happens for free)")
    print(f"configurations examined: {result.configurations_examined}")
    print(f"baseline cost: {result.baseline_cost:,.0f}")
    print(f"tuned cost:    {result.total_cost:,.0f} ({reduction:.1%} saved)")
    chosen = ", ".join(ix.name for ix in result.indexes) or "(none)"
    print(f"chosen indexes: {chosen}")


def _run_continuous(args, workload) -> None:
    """The QUIET-style continuous baseline under ``run``."""
    from repro.baselines.continuous import ContinuousTuner
    from repro.workload import build_catalog

    tuner = ContinuousTuner(build_catalog(), _colt_config(args))
    outcomes = tuner.run(workload.queries)
    print(f"workload: {workload.description}")
    print("engine:   continuous (QUIET-style, unregulated what-if)")
    print(
        f"queries:  {len(outcomes)}; "
        f"materialized: {len(tuner.materialized_set)}"
    )
    print(f"total cost: {sum(o.total_cost for o in outcomes):,.0f}")
    print(f"what-if calls: {sum(o.whatif_calls for o in outcomes)}")


def _client_workload(clients: int, phase_length: int, transition: int, seed: int):
    """The multi-client shifting stream: one client per replica, each
    shifting through its own pair of consecutive paper phases."""
    from repro.workload import build_catalog, multi_client_shifting_workload
    from repro.workload.experiments import phase_distributions

    return multi_client_shifting_workload(
        phase_distributions(),
        build_catalog(),
        clients,
        phase_length=phase_length,
        transition=transition,
        seed=seed,
    )


def _live_metrics_snapshot(seed: int):
    """A small live fleet run exercising every stable metric family."""
    from repro.core.config import ColtConfig
    from repro.fleet import FleetCoordinator
    from repro.workload import build_catalog

    merged = _client_workload(2, phase_length=40, transition=10, seed=seed)
    fleet = FleetCoordinator(
        build_catalog,
        n_replicas=2,
        config=ColtConfig(storage_budget_pages=DEFAULT_BUDGET_PAGES, seed=seed),
        policy="affinity",
        fleet_epoch_length=25,
    )
    fleet.run(merged)
    return fleet.metrics_snapshot()


def _run_metrics(args) -> None:
    from repro.obs.dashboard import render_overhead_rows
    from repro.obs.export import load_snapshot, render_snapshot

    if args.from_file:
        snapshot = load_snapshot(args.from_file)
    else:
        snapshot = _live_metrics_snapshot(args.seed)
    if args.format == "text":
        print(render_overhead_rows(snapshot.get("overhead", [])))
    else:
        sys.stdout.write(render_snapshot(snapshot, args.format))


def _run_fleet(args) -> None:
    from repro.fleet import FleetCoordinator
    from repro.workload import build_catalog

    _require_epoch_engine("fleet-run", args.engine)
    n_replicas = args.workers if args.workers else args.replicas
    # The §6.2 multi-user setting with enough cross-client divergence
    # for routing to exploit.  --seed seeds the workload only.
    merged = _client_workload(
        n_replicas, args.phase_length, args.transition, seed=args.seed
    )
    fleet = FleetCoordinator(
        build_catalog,
        n_replicas=n_replicas,
        config=_colt_config(args),
        policy=args.policy,
        fleet_epoch_length=args.fleet_epoch,
        engine=args.engine,
        workers=args.workers,
    )
    try:
        run = fleet.run(merged)
        _print_fleet_report(args, fleet, run, merged)
    finally:
        if args.workers:
            fleet.close()


def _print_fleet_report(args, fleet, run, merged) -> None:
    from repro.fleet import save_fleet

    print(f"workload: {merged.description}")
    workers_note = (
        f", {args.workers} worker processes" if getattr(args, "workers", 0) else ""
    )
    print(
        f"policy:   {run.policy} ({len(fleet.replicas)} replicas, "
        f"engine {fleet.engine}{workers_note})\n"
    )
    print(
        f"{'replica':>8} {'health':>9} {'queries':>8} {'|M|':>4} "
        f"{'exec cost':>14}"
    )
    for replica in fleet.replicas:
        print(
            f"{replica.replica_id:>8} {replica.health.value:>9} "
            f"{replica.stats.queries:>8} {len(replica.materialized_names):>4} "
            f"{replica.stats.execution_cost:>14,.0f}"
        )
    drains = sorted({i for r in run.reorganizations for i in r.drained})
    print(
        f"\nfleet execution cost: {run.execution_cost:>14,.0f}\n"
        f"fleet total cost:     {run.total_cost:>14,.0f}\n"
        f"config divergence:    {fleet.configuration_divergence():>14.2f}\n"
        f"reorganizations:      {len(run.reorganizations):>14}"
        + (f" (drained: {drains})" if drains else "")
    )
    if args.snapshot_dir:
        path = save_fleet(args.snapshot_dir, fleet)
        print(f"\nfleet snapshot saved: {path}")
    if args.metrics_out:
        from repro.obs.export import write_metrics

        fmt = write_metrics(args.metrics_out, fleet.metrics_snapshot())
        print(f"\nmetrics snapshot written: {args.metrics_out} ({fmt})")


def _fleet_status_document(directory) -> dict:
    """Machine-readable fleet status: manifest and per-replica integrity."""
    import pathlib

    from repro.fleet import load_manifest
    from repro.persist import checksum, load_json

    root = pathlib.Path(directory)
    manifest = load_manifest(root)
    replicas = []
    for entry in sorted(manifest["replicas"], key=lambda e: e["replica_id"]):
        try:
            snap = load_json(root / entry["file"])
            state = "OK" if checksum(snap) == entry["checksum"] else "MISMATCH"
        except SnapshotError as exc:
            state = f"CORRUPT ({exc})"
        replicas.append(
            {
                "replica_id": entry["replica_id"],
                "engine": entry.get("engine", "colt"),
                "health": entry["health"],
                "queries": entry["queries"],
                "materialized": entry["materialized"],
                "file": entry["file"],
                "integrity": state,
            }
        )
    return {
        "directory": str(root),
        "policy": manifest["policy"],
        "queries_routed": manifest["queries_routed"],
        "replicas": replicas,
    }


def _run_fleet_status(args) -> None:
    import json

    doc = _fleet_status_document(args.dir)
    if args.json:
        print(json.dumps(doc, indent=1))
        return
    print(
        f"{doc['directory']}: fleet of {len(doc['replicas'])} "
        f"(policy {doc['policy']}, "
        f"{doc['queries_routed']} queries routed)"
    )
    print(
        f"{'replica':>8} {'engine':>7} {'health':>9} {'queries':>8} {'|M|':>4}"
        "  snapshot"
    )
    for entry in doc["replicas"]:
        print(
            f"{entry['replica_id']:>8} {entry['engine']:>7} "
            f"{entry['health']:>9} "
            f"{entry['queries']:>8} {entry['materialized']:>4}"
            f"  {entry['file']}: {entry['integrity']}"
        )


def _audit_arm(scenario: str, guardrails: bool, args, advice) -> dict:
    """Run one guardrail arm of the audit scenario; observed-cost regret."""
    from repro.bench.scenario import run_scenario
    from repro.core.colt import ColtTuner
    from repro.core.config import ColtConfig
    from repro.guardrails import ExecutionObserver, GuardrailManager
    from repro.workload import build_misleading_scenario

    run = build_misleading_scenario(
        mislead=scenario == "misleading", length=args.queries, seed=args.seed
    )
    manager = None
    if guardrails:
        manager = GuardrailManager(observer=ExecutionObserver(run.store))
    tuner = ColtTuner(
        run.catalog,
        ColtConfig(epoch_length=20, storage_budget_pages=200.0),
        store=run.store,
        guardrails=manager,
        advice=advice,
    )
    result = run_scenario("colt", run, tuner=tuner)
    return {
        "guardrails": guardrails,
        "observed_cost": result.observed_cost,
        "verify_overhead": result.verify_overhead,
        "materialized": result.materialized,
        "quarantined": sorted(
            entry.index.name for entry in manager.quarantine.entries
        )
        if manager is not None
        else [],
        "rows": manager.audit(tuner.materialized_set)
        if manager is not None
        else [],
    }


def _run_audit(args) -> None:
    import json

    from repro.guardrails import AdviceBook

    primary_on = args.guardrails == "on"
    advice = AdviceBook.load(args.advice) if args.advice else None
    arm = _audit_arm(args.scenario, primary_on, args, advice)
    print(
        f"scenario: {args.scenario} ({args.queries} queries, "
        f"seed {args.seed}); guardrails {'on' if primary_on else 'off'}"
    )
    print(f"observed execution cost: {arm['observed_cost']:,.0f}")
    print(f"verification overhead:   {arm['verify_overhead']:,.0f}")
    print(f"materialized: {', '.join(arm['materialized']) or '(none)'}")
    if arm["rows"]:
        print(
            f"\n{'index':<20} {'mat':>3} {'n':>3} {'pred%':>7} "
            f"{'obs%':>7} {'ratio':>7} {'verdict':>9}  quarantine"
        )
        for row in arm["rows"]:
            flags = []
            if row["pinned"]:
                flags.append("pinned")
            if row["banned"]:
                flags.append("banned")
            quarantine = row["quarantine"]
            if quarantine is not None:
                flags.append(
                    f"{quarantine['state']}"
                    f" (cooldown {quarantine['cooldown_remaining']},"
                    f" strikes {quarantine['strikes']})"
                )
            print(
                f"{row['index']:<20} {'Y' if row['materialized'] else '-':>3} "
                f"{row['samples']:>3} {_pct(row['predicted_fraction']):>7} "
                f"{_pct(row['observed_fraction']):>7} "
                f"{_num(row['ratio']):>7} {row['verdict']:>9}  "
                f"{'; '.join(flags) or '-'}"
            )
    document = {
        "scenario": args.scenario,
        "queries": args.queries,
        "seed": args.seed,
        "arms": {("on" if primary_on else "off"): arm},
    }
    if args.compare:
        other = _audit_arm(args.scenario, not primary_on, args, advice)
        document["arms"]["off" if primary_on else "on"] = other
        on_arm = document["arms"]["on"]
        off_arm = document["arms"]["off"]
        savings = 1.0 - on_arm["observed_cost"] / max(
            off_arm["observed_cost"], 1e-9
        )
        document["regret_saved"] = savings
        print(
            f"\nobserved cost, guardrails on vs off: "
            f"{on_arm['observed_cost']:,.0f} vs {off_arm['observed_cost']:,.0f}"
            f" ({savings:+.1%} regret saved)"
        )
    if args.json_out:
        with open(args.json_out, "w") as handle:
            json.dump(document, handle, indent=1)
        print(f"\naudit document written: {args.json_out}")
    if args.compare and args.scenario == "misleading":
        if document["regret_saved"] <= 0.0:
            raise ValueError(
                "guardrails did not reduce observed regret on the "
                "misleading scenario"
            )


def _pct(value) -> str:
    return "-" if value is None else f"{value:.1%}"


def _num(value) -> str:
    return "-" if value is None else f"{value:.2f}"


def _run_demo() -> None:
    import random

    from repro.core import ColtConfig, ColtTuner
    from repro.workload import build_catalog
    from repro.workload.experiments import stable_distribution
    from repro.workload.phases import stable_workload

    catalog = build_catalog()
    tuner = ColtTuner(catalog, ColtConfig(storage_budget_pages=9_000.0))
    workload = stable_workload(
        stable_distribution(), 150, catalog, seed=random.Random().randrange(100)
    )
    print("streaming 150 TPC-H-style queries through COLT...\n")
    for i, query in enumerate(workload.queries):
        outcome = tuner.process_query(query)
        if outcome.reorganization and outcome.reorganization.materialize:
            names = ", ".join(
                ix.name for ix in outcome.reorganization.materialize
            )
            print(f"  query {i + 1:3d}: materialized {names}")
    print("\nfinal configuration:")
    for index in tuner.materialized_set:
        print(f"  {index.name}")
    print(f"\ntotal what-if calls: {tuner.whatif.call_count}")


def _ascii_bars(label: str, values: List[float], width: int = 60) -> str:
    """One-line sparkline-style rendering of a bar series."""
    if not values:
        return f"{label} (no data)"
    peak = max(values) or 1.0
    blocks = "▁▂▃▄▅▆▇█"
    chars = [blocks[min(7, int(v / peak * 7.999))] for v in values]
    return f"{label} {''.join(chars)}  (peak {peak:,.0f})"


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
