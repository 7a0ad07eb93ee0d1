"""Regret-curve benchmark: C³-UCB bandit vs COLT vs do-nothing.

The bandit papers' core claim, transplanted onto this reproduction:
what-if-driven tuners (COLT) systematically misestimate index benefit on
adversarial workloads, while a bandit learning from *observed* execution
cost avoids the regret.  Four scenario arms measure that claim, one per
failure regime (``repro.workload.adversarial``):

* **adhoc** -- never-repeating queries over columns with lying
  statistics; per-cluster profiling gets one sample per cluster.
* **htap** -- honest statistics under a heavy insert stream; every
  index pays maintenance the what-if forecast never prices.
* **correlated** -- perfectly correlated filter columns; honest
  per-column statistics, lying independence assumption.
* **drift** -- the useful column flips mid-epoch; adaptation speed.

A fifth arm re-runs the paper's own clean Figure-4 shifting workload in
pure cost-model mode: the bandit must stay within
:data:`CLEAN_PARITY_BAR` of COLT when the what-if estimates are *right*
-- observed-cost learning must not cost much when there is nothing to
distrust.

Every arm's cumulative observed-cost curve lands in the repo-root
``BENCH_bandit.json`` trajectory file.  Every arm's curve must be finite
and monotone, and the bandit must fold reward samples into its model on
every scenario: a silently dead learner would otherwise pass on luck.
``tests/bench/test_scenario.py`` holds the same harness
(:func:`repro.bench.scenario.run_scenario`) to the recorded ``drift``
entry in tier-1.
"""

from __future__ import annotations

import json
import pathlib

from repro.bandit import BanditTuner
from repro.bench.scenario import curve_is_sane, make_tuner, run_scenario
from repro.core.colt import ColtTuner
from repro.core.config import ColtConfig
from repro.workload import SCENARIOS
from repro.workload.datagen import build_catalog
from repro.workload.experiments import phase_distributions
from repro.workload.phases import shifting_workload

BENCH_FILE = pathlib.Path(__file__).resolve().parent.parent / "BENCH_bandit.json"

#: Matched epoch clock and storage budget for every scenario arm.
EPOCH_LENGTH = 20
BUDGET_PAGES = 400.0

#: Scenarios where the bandit is *required* to beat COLT on observed
#: execution cost (the acceptance floor; the other two are reported).
MUST_WIN = ("adhoc", "correlated")

#: Clean Figure-4 parity: bandit execution cost / COLT execution cost.
CLEAN_PARITY_BAR = 1.2
CLEAN_BUDGET_PAGES = 9_000.0


def _merge_bench(key: str, payload: dict) -> None:
    document = {}
    if BENCH_FILE.exists():
        document = json.loads(BENCH_FILE.read_text())
    document[key] = payload
    BENCH_FILE.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n")


# ----------------------------------------------------------------------
# Arm 1-4: the adversarial scenarios, observed execution cost
# ----------------------------------------------------------------------
def scenario_arms(name: str):
    """Run colt/bandit/none over fresh copies of one scenario.

    Returns the three arms' results and the number of reward samples
    the bandit folded into its model.
    """
    build = SCENARIOS[name]
    arms, tuners = {}, {}
    for engine in ("colt", "bandit", "none"):
        scenario = build()
        tuners[engine] = make_tuner(engine, scenario, EPOCH_LENGTH, BUDGET_PAGES)
        arms[engine] = run_scenario(engine, scenario, tuner=tuners[engine])
    families = tuners["bandit"].metrics_snapshot()["metrics"]
    (rewards,) = [f for f in families if f["name"] == "bandit_reward_samples_total"]
    return arms, sum(sample["value"] for sample in rewards["samples"])


def scenario_payload(arms: dict) -> dict:
    """One scenario's ``BENCH_bandit.json`` entry, from its three arms."""
    colt = arms["colt"]
    return {
        "queries": colt.queries,
        "epoch_length": EPOCH_LENGTH,
        "budget_pages": BUDGET_PAGES,
        "arms": {engine: arms[engine].to_dict() for engine in ("colt", "bandit", "none")},
        "bandit_over_colt": arms["bandit"].observed_cost / colt.observed_cost,
    }


def test_bandit_regret_scenarios(benchmark, report):
    runs = benchmark.pedantic(
        lambda: {name: scenario_arms(name) for name in SCENARIOS}, rounds=1
    )

    lines = [
        f"adversarial scenario suite (epoch={EPOCH_LENGTH}, "
        f"budget={BUDGET_PAGES:.0f} pages, observed execution cost)"
    ]
    wins = []
    for name, (arms, reward_samples) in runs.items():
        colt, bandit, none = arms["colt"], arms["bandit"], arms["none"]
        ratio = bandit.observed_cost / colt.observed_cost
        if bandit.observed_cost < colt.observed_cost:
            wins.append(name)
        lines += [
            f"  {name} ({colt.queries} queries):",
            f"    colt:   {colt.observed_cost:>12,.0f}"
            f"  (M: {', '.join(colt.materialized) or '-'})",
            f"    bandit: {bandit.observed_cost:>12,.0f}"
            f"  (M: {', '.join(bandit.materialized) or '-'})",
            f"    none:   {none.observed_cost:>12,.0f}",
            f"    bandit/colt: {ratio:.3f}"
            f" ({'bandit wins' if ratio < 1.0 else 'colt wins'})",
            f"    bandit reward samples: {reward_samples:.0f}",
        ]
        _merge_bench(name, scenario_payload(arms))
    lines.append(f"  bandit wins: {', '.join(wins)} ({len(wins)}/4)")
    report("\n".join(lines))

    for name, (arms, reward_samples) in runs.items():
        for engine in ("colt", "bandit", "none"):
            assert curve_is_sane(arms[engine].curve), (name, engine)
        assert reward_samples > 0, f"the bandit learned nothing on {name}"
    # Acceptance: the bandit beats COLT on observed execution cost on
    # at least two scenarios, including the two what-if-lie regimes.
    for name in MUST_WIN:
        arms, _ = runs[name]
        assert (
            arms["bandit"].observed_cost < arms["colt"].observed_cost
        ), f"bandit must beat COLT on the {name} scenario"
    assert len(wins) >= 2


# ----------------------------------------------------------------------
# Arm 5: clean Figure-4 shifting workload -- parity when what-if is right
# ----------------------------------------------------------------------
def _clean_run(engine: str) -> dict:
    catalog = build_catalog()
    workload = shifting_workload(
        phase_distributions(), catalog, phase_length=300, transition=50, seed=0
    )
    tuner = (ColtTuner if engine == "colt" else BanditTuner)(
        catalog, ColtConfig(storage_budget_pages=CLEAN_BUDGET_PAGES, seed=0)
    )
    execution = 0.0
    total = 0.0
    for query in workload.queries:
        outcome = tuner.process_query(query)
        execution += outcome.execution_cost
        total += outcome.total_cost
    return {
        "queries": len(workload.queries),
        "execution_cost": execution,
        "total_cost": total,
        "materialized": sorted(ix.name for ix in tuner.materialized_set),
    }


def test_bandit_clean_parity(benchmark, report):
    bandit = benchmark.pedantic(lambda: _clean_run("bandit"), rounds=1)
    colt = _clean_run("colt")

    ratio = bandit["execution_cost"] / colt["execution_cost"]
    lines = [
        f"clean Figure-4 shifting workload ({colt['queries']} queries, "
        "cost-model mode)",
        f"  colt execution cost:   {colt['execution_cost']:,.0f}",
        f"  bandit execution cost: {bandit['execution_cost']:,.0f}",
        f"  bandit/colt:           {ratio:.3f} (bar: <= {CLEAN_PARITY_BAR})",
        f"  final M (colt):   {', '.join(colt['materialized']) or '(none)'}",
        f"  final M (bandit): {', '.join(bandit['materialized']) or '(none)'}",
    ]
    report("\n".join(lines))
    _merge_bench(
        "clean_fig4",
        {
            "queries": colt["queries"],
            "budget_pages": CLEAN_BUDGET_PAGES,
            "colt_execution_cost": colt["execution_cost"],
            "bandit_execution_cost": bandit["execution_cost"],
            "bandit_over_colt": ratio,
            "parity_bar": CLEAN_PARITY_BAR,
            "colt_materialized": colt["materialized"],
            "bandit_materialized": bandit["materialized"],
        },
    )

    assert ratio <= CLEAN_PARITY_BAR
