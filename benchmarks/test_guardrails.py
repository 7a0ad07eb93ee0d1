"""Guardrail benchmark: verification overhead and quarantine regret.

Two arms, matching the two promises of ``repro.guardrails``:

* **Clean workload, do no harm** -- the paper's stable workload with a
  :class:`PlanCostObserver` (observed == predicted by construction).
  Tuning decisions must be bit-identical to a guardrail-free run, and
  the verification overhead (reverse what-if probes) must keep total
  cost under the 1.05x bar the observability work established.
* **Misleading cost model, earn your keep** -- the adversarial
  ``facts`` scenario where statistics over-promise one index.  Regret
  is measured in *observed* execution cost (the store-backed
  scoreboard, :func:`repro.bench.scenario.run_scenario`), and the
  guardrailed run must quarantine the over-promised index within the
  verification window and beat the unguarded run.

Besides the usual ``results/`` report, this benchmark writes the
repo-root ``BENCH_guardrails.json`` trajectory file (the first
``BENCH_*.json``; see ROADMAP) so future PRs can track the regret and
overhead curves.
"""

from __future__ import annotations

import json
import pathlib

from repro.bench.scenario import run_scenario
from repro.core.colt import ColtTuner
from repro.core.config import ColtConfig
from repro.guardrails import ExecutionObserver, GuardrailManager, PlanCostObserver
from repro.workload import build_misleading_scenario
from repro.workload.datagen import build_catalog
from repro.workload.experiments import stable_distribution
from repro.workload.phases import stable_workload

BENCH_FILE = pathlib.Path(__file__).resolve().parent.parent / "BENCH_guardrails.json"

BUDGET_PAGES = 9_000.0
CLEAN_QUERIES = 300
MISLEADING_QUERIES = 360
OVERHEAD_BAR = 1.05


def _merge_bench(key: str, payload: dict) -> None:
    document = {}
    if BENCH_FILE.exists():
        document = json.loads(BENCH_FILE.read_text())
    document[key] = payload
    BENCH_FILE.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n")


# ----------------------------------------------------------------------
# Arm 1: clean workload -- decisions unchanged, overhead < 1.05x
# ----------------------------------------------------------------------
def _clean_run(guardrails: bool):
    catalog = build_catalog()
    workload = stable_workload(
        stable_distribution(), CLEAN_QUERIES, catalog, seed=0
    )
    manager = (
        GuardrailManager(observer=PlanCostObserver())
        if guardrails
        else None
    )
    tuner = ColtTuner(
        build_catalog(),
        ColtConfig(storage_budget_pages=BUDGET_PAGES, seed=0),
        guardrails=manager,
    )
    outcomes = tuner.run(workload.queries)
    decisions = [
        (
            sorted(ix.name for ix in o.reorganization.materialize),
            sorted(ix.name for ix in o.reorganization.drop),
        )
        for o in outcomes
        if o.epoch_ended and o.reorganization is not None
    ]
    return {
        "total_cost": sum(o.total_cost for o in outcomes),
        "base_cost": sum(o.total_cost - o.verify_overhead for o in outcomes),
        "verify_overhead": sum(o.verify_overhead for o in outcomes),
        "verify_calls": sum(o.verify_calls for o in outcomes),
        "materialized": sorted(ix.name for ix in tuner.materialized_set),
        "decisions": decisions,
        "quarantined": len(manager.quarantine) if manager else 0,
    }


def test_guardrails_clean_overhead(benchmark, report):
    on = benchmark.pedantic(lambda: _clean_run(True), rounds=1)
    off = _clean_run(False)

    ratio = on["total_cost"] / off["total_cost"]
    lines = [
        f"clean stable workload ({CLEAN_QUERIES} queries, plan-cost observer)",
        f"  total cost (guardrails off): {off['total_cost']:,.0f}",
        f"  total cost (guardrails on):  {on['total_cost']:,.0f}",
        f"  verification probes:         {on['verify_calls']}",
        f"  verification overhead:       {on['verify_overhead']:,.0f}",
        f"  overhead ratio:              {ratio:.4f} (bar: < {OVERHEAD_BAR})",
        f"  decisions identical:         "
        f"{on['decisions'] == off['decisions']}",
        f"  false quarantines:           {on['quarantined']}",
    ]
    report("\n".join(lines))
    _merge_bench(
        "clean",
        {
            "queries": CLEAN_QUERIES,
            "total_cost_off": off["total_cost"],
            "total_cost_on": on["total_cost"],
            "verify_calls": on["verify_calls"],
            "verify_overhead": on["verify_overhead"],
            "overhead_ratio": ratio,
            "overhead_bar": OVERHEAD_BAR,
            "decisions_identical": on["decisions"] == off["decisions"],
        },
    )

    # Do no harm: identical epoch-by-epoch decisions, no quarantines,
    # and the probe overhead stays under the obs bar.
    assert on["decisions"] == off["decisions"]
    assert on["materialized"] == off["materialized"]
    assert on["quarantined"] == 0
    assert on["verify_calls"] > 0, "verification actually sampled queries"
    assert ratio < OVERHEAD_BAR


# ----------------------------------------------------------------------
# Arm 2: misleading cost model -- quarantine beats blind trust
# ----------------------------------------------------------------------
def _misleading_run(guardrails: bool):
    scenario = build_misleading_scenario(length=MISLEADING_QUERIES, seed=1)
    manager = (
        GuardrailManager(observer=ExecutionObserver(scenario.store))
        if guardrails
        else None
    )
    tuner = ColtTuner(
        scenario.catalog,
        ColtConfig(epoch_length=20, storage_budget_pages=200.0),
        store=scenario.store,
        guardrails=manager,
    )
    result = run_scenario("colt", scenario, tuner=tuner)
    return {
        "observed_cost": result.observed_cost,
        "verify_overhead": result.verify_overhead,
        "materialized": result.materialized,
        "quarantined": sorted(
            e.index.name for e in manager.quarantine.entries
        )
        if manager
        else [],
        "first_quarantine_query": result.first_quarantine_query,
    }


def test_guardrails_misleading_regret(benchmark, report):
    on = benchmark.pedantic(lambda: _misleading_run(True), rounds=1)
    off = _misleading_run(False)

    saved = 1.0 - on["observed_cost"] / off["observed_cost"]
    lines = [
        f"misleading cost model ({MISLEADING_QUERIES} queries, "
        "execution observer)",
        f"  observed cost (guardrails off): {off['observed_cost']:,.0f}",
        f"  observed cost (guardrails on):  {on['observed_cost']:,.0f}",
        f"  regret saved:                   {saved:+.1%}",
        f"  verification overhead:          {on['verify_overhead']:,.0f}",
        f"  quarantined:                    "
        f"{', '.join(on['quarantined']) or '(none)'}",
        f"  first quarantine at query:      {on['first_quarantine_query']}",
        f"  final M (off): {', '.join(off['materialized']) or '(none)'}",
        f"  final M (on):  {', '.join(on['materialized']) or '(none)'}",
    ]
    report("\n".join(lines))
    _merge_bench(
        "misleading",
        {
            "queries": MISLEADING_QUERIES,
            "observed_cost_off": off["observed_cost"],
            "observed_cost_on": on["observed_cost"],
            "regret_saved": saved,
            "verify_overhead": on["verify_overhead"],
            "quarantined": on["quarantined"],
            "first_quarantine_query": on["first_quarantine_query"],
        },
    )

    # The unguarded tuner trusts the lying statistics and keeps the
    # over-promised index; guardrails quarantine it within the
    # verification window and win on observed regret.
    assert "ix_facts_f_skew" in off["materialized"]
    assert on["quarantined"] == ["ix_facts_f_skew"]
    assert "ix_facts_f_skew" not in on["materialized"]
    assert on["first_quarantine_query"] is not None
    assert on["observed_cost"] < off["observed_cost"]
    assert saved > 0.25, "guardrails should save substantial regret"
