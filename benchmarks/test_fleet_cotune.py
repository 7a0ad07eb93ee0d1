"""Divergent-design co-tuning vs. the passive fleet baselines.

The fleet-routing benchmark showed workload-aware *routing* beats
blind spreading; this one closes the loop on workload-aware *design*.
Same 3-client shifting stream, three fleets of three replicas each:

* ``uniform`` -- round-robin spreading, no co-tuning: every replica
  sees a 1/3-rate copy of the full mix (the no-specialization floor);
* ``cost``    -- what-if probe routing under a self-regulating probe
  budget (the strongest passive policy: it *finds* divergence that
  already exists but never steers it);
* ``cotuned`` -- round-robin base policy with the co-tuning loop on
  top: partition by relevant-index signature, specialize each replica
  via advisory preferences, refine the map with budgeted boundary
  probes (see docs/COTUNE.md).

The acceptance bar (ISSUE: benchmark satellite): the co-tuned fleet's
execution cost must undercut **both** baselines outright, and its
configuration divergence must exceed the uniform fleet's -- i.e. the
cheaper fleet is cheaper *because* it diverged.  Results append to the
repo-root ``BENCH_cotune.json`` trajectory file;
``tools/check_cotune.py`` gates it in CI.
"""

import json
import pathlib

from repro.core.config import ColtConfig
from repro.fleet import FleetCoordinator
from repro.workload.datagen import build_catalog
from repro.workload.experiments import phase_distributions
from repro.workload.phases import multi_client_shifting_workload

BENCH_FILE = (
    pathlib.Path(__file__).resolve().parent.parent / "BENCH_cotune.json"
)

BUDGET_PAGES = 9_000.0
N_REPLICAS = 3
FLEET_EPOCH = 30
SEED = 11

ARMS = {
    "uniform": {"policy": "round-robin", "cotune": False},
    "cost": {"policy": "cost", "cotune": False},
    "cotuned": {"policy": "round-robin", "cotune": True},
}


def build_workload():
    """Three clients, each shifting over its own pair of phases."""
    return multi_client_shifting_workload(
        phase_distributions(),
        build_catalog(),
        N_REPLICAS,
        phase_length=100,
        transition=20,
        seed=SEED,
    )


def run_arm(workload, policy, cotune):
    fleet = FleetCoordinator(
        build_catalog,
        n_replicas=N_REPLICAS,
        config=ColtConfig(storage_budget_pages=BUDGET_PAGES),
        policy=policy,
        fleet_epoch_length=FLEET_EPOCH,
        cotune=cotune,
    )
    run = fleet.run(workload)
    payload = {
        "policy": policy,
        "cotune": cotune,
        "execution_cost": run.execution_cost,
        "total_cost": run.total_cost,
        "routing_overhead": run.routing_overhead,
        "divergence": fleet.configuration_divergence(),
        "replicas": N_REPLICAS,
    }
    if fleet.cotune is not None:
        reports = [r.cotune for r in run.reorganizations if r.cotune]
        payload["cotune_state"] = {
            "boundaries": len(reports),
            "signatures": reports[-1].signatures if reports else 0,
            "partitions": reports[-1].partitions if reports else 0,
            "migrations_total": fleet.cotune.migrations_total,
            "probes": sum(r.probes for r in reports),
            "probe_cost": sum(r.probe_cost for r in reports),
            "converged": fleet.cotune.converged,
        }
    return payload


def test_fleet_cotune(benchmark, report):
    workload = build_workload()

    arms = benchmark.pedantic(
        lambda: {
            name: run_arm(workload, **spec) for name, spec in ARMS.items()
        },
        rounds=1,
    )

    lines = [
        f"divergent-design co-tuning ({workload.description}, "
        f"{N_REPLICAS} replicas, budget {BUDGET_PAGES:,.0f} pages/replica)",
        f"{'arm':<10} {'exec cost':>14} {'total cost':>14} "
        f"{'overhead':>9} {'divergence':>11}",
    ]
    for name in ("uniform", "cost", "cotuned"):
        arm = arms[name]
        lines.append(
            f"{name:<10} {arm['execution_cost']:>14,.0f} "
            f"{arm['total_cost']:>14,.0f} "
            f"{arm['routing_overhead']:>9,.0f} {arm['divergence']:>11.2f}"
        )
    state = arms["cotuned"]["cotune_state"]
    lines.append(
        f"cotuned: {state['partitions']} partitions / "
        f"{state['signatures']} signatures after {state['boundaries']} "
        f"boundaries, {state['migrations_total']} migrations, "
        f"{state['probes']} probes (cost {state['probe_cost']:,.0f}), "
        f"converged: {state['converged']}"
    )
    report("\n".join(lines))

    document = {"meta": {"seed": SEED, "budget_pages": BUDGET_PAGES}}
    if BENCH_FILE.exists():
        document = json.loads(BENCH_FILE.read_text())
    document["arms"] = arms
    BENCH_FILE.write_text(
        json.dumps(document, indent=1, sort_keys=True) + "\n"
    )

    # The acceptance bar: steering divergence must beat both merely
    # spreading (uniform) and merely finding it (cost probing)...
    floor = min(
        arms["uniform"]["execution_cost"], arms["cost"]["execution_cost"]
    )
    assert arms["cotuned"]["execution_cost"] < floor
    # ...with overheads included...
    assert arms["cotuned"]["total_cost"] < min(
        arms["uniform"]["total_cost"], arms["cost"]["total_cost"]
    )
    # ...and the win must come from actual divergence.
    assert arms["cotuned"]["divergence"] > arms["uniform"]["divergence"]
