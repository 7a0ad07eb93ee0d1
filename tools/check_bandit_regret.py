#!/usr/bin/env python
"""CI gate: the bandit's regret curve must be finite and monotone.

Runs one short adversarial scenario (``drift`` by default -- the
cheapest of the four) through the exact benchmark harness
(:func:`repro.bench.scenario.run_scenario`) for both the bandit and
COLT, checks every cumulative observed-cost curve with
:func:`repro.bench.scenario.curve_is_sane` (finite, non-negative,
non-decreasing), and writes the measured curves to a JSON file for the
CI artifact.  Exits non-zero when a curve is insane or the bandit
recorded no reward samples at all (a silently dead learner would
otherwise pass on luck).

Usage:
    PYTHONPATH=src python tools/check_bandit_regret.py out.json [scenario]
"""

import json
import math
import sys

from repro.bench.scenario import curve_is_sane, make_tuner, run_scenario
from repro.workload.adversarial import SCENARIOS

EPOCH_LENGTH = 20
BUDGET_PAGES = 400.0


def _family_total(snapshot, name):
    for family in snapshot.get("metrics", []):
        if family["name"] == name:
            return sum(sample["value"] for sample in family["samples"])
    return 0.0


def main(argv):
    if len(argv) not in (2, 3):
        print(__doc__.strip(), file=sys.stderr)
        return 2
    name = argv[2] if len(argv) == 3 else "drift"
    if name not in SCENARIOS:
        print(
            f"unknown scenario {name!r} (have: {', '.join(SCENARIOS)})",
            file=sys.stderr,
        )
        return 2

    build = SCENARIOS[name]
    results = {}
    bandit_tuner = None
    for engine in ("colt", "bandit"):
        scenario = build()
        tuner = make_tuner(
            engine,
            scenario,
            epoch_length=EPOCH_LENGTH,
            storage_budget_pages=BUDGET_PAGES,
        )
        if engine == "bandit":
            bandit_tuner = tuner
        results[engine] = run_scenario(engine, scenario, tuner=tuner)

    failures = []
    for engine, result in results.items():
        ok = curve_is_sane(result.curve)
        print(
            f"{name}/{engine}: observed cost {result.observed_cost:,.0f} "
            f"over {result.queries} queries, curve "
            f"{'sane' if ok else 'INSANE'} ({len(result.curve)} samples)"
        )
        if not ok:
            failures.append(f"{engine} curve is not finite and monotone")
        if not math.isfinite(result.observed_cost):
            failures.append(f"{engine} observed cost is not finite")

    samples = _family_total(
        bandit_tuner.metrics_snapshot(), "bandit_reward_samples_total"
    )
    print(f"{name}/bandit: {samples:.0f} reward samples")
    if samples <= 0:
        failures.append("bandit recorded no reward samples (dead learner)")

    with open(argv[1], "w") as handle:
        json.dump(
            {
                "scenario": name,
                "arms": {e: r.to_dict() for e, r in results.items()},
            },
            handle,
            indent=1,
            sort_keys=True,
        )

    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
