"""COLT vs. a QUIET-style unregulated on-line tuner.

§1 of the paper argues that prior on-line tuners (QUIET, Cache
Investment, Hammer & Chan) lack an explicit mechanism to regulate
what-if usage: "the on-line process operates with the same intensity
even if the system cannot be tuned to work better."  This benchmark
quantifies that claim on the stable workload, where an ideal tuner
should converge and then go quiet.

Expected: comparable final configurations and execution costs, but the
unregulated tuner issues an order of magnitude more what-if calls --
one-plus per query, forever.
"""

from repro.baselines import ContinuousTuner
from repro.bench.harness import run_colt
from repro.core.config import ColtConfig
from repro.workload.datagen import build_catalog
from repro.workload.experiments import stable_distribution
from repro.workload.phases import stable_workload

BUDGET_PAGES = 9_000.0
LENGTH = 400


def test_baseline_quiet_comparison(benchmark, report):
    catalog = build_catalog()
    workload = stable_workload(stable_distribution(), LENGTH, catalog, seed=1)

    def run_both():
        colt = run_colt(
            build_catalog(),
            workload.queries,
            ColtConfig(storage_budget_pages=BUDGET_PAGES),
        )
        quiet_tuner = ContinuousTuner(
            build_catalog(), ColtConfig(storage_budget_pages=BUDGET_PAGES)
        )
        quiet = quiet_tuner.run(workload.queries)
        return colt, quiet, quiet_tuner

    colt, quiet, quiet_tuner = benchmark.pedantic(run_both, rounds=1)

    colt_calls = sum(colt.whatif_per_epoch)
    quiet_calls = sum(o.whatif_calls for o in quiet)
    colt_total = colt.total_cost
    quiet_total = sum(o.total_cost for o in quiet)
    tail = LENGTH // 2
    colt_tail_calls = sum(colt.whatif_per_epoch[len(colt.whatif_per_epoch) // 2 :])
    quiet_tail_calls = sum(o.whatif_calls for o in quiet[tail:])

    report(
        "\n".join(
            [
                f"COLT vs QUIET-style on-line tuning ({LENGTH} stable queries)",
                f"{'tuner':<10} {'what-if calls':>14} {'tail calls':>11} {'total cost':>14} {'|M|':>4}",
                f"{'COLT':<10} {colt_calls:>14} {colt_tail_calls:>11} {colt_total:>14,.0f} "
                f"{len(colt.final_materialized):>4}",
                f"{'QUIET':<10} {quiet_calls:>14} {quiet_tail_calls:>11} {quiet_total:>14,.0f} "
                f"{len(quiet_tuner.materialized_set):>4}",
                "",
                f"COLT uses {quiet_calls / max(1, colt_calls):.1f}x fewer what-if calls; "
                f"after convergence (2nd half): {quiet_tail_calls / max(1, colt_tail_calls):.1f}x fewer.",
            ]
        )
    )

    # The unregulated tuner profiles every query...
    assert quiet_calls >= LENGTH
    # ...while COLT's regulated total is a small fraction of that.
    assert colt_calls * 3 < quiet_calls
    # Quality stays in the same ballpark (COLT may win or lose slightly).
    assert colt_total < quiet_total * 1.4
