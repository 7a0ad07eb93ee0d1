"""Fleet routing policies vs. a single shared tuner.

Three clients each shift through their *own* pair of workload phases, so
the merged server stream carries three divergent sub-workloads.  A
single tuner must fit all three into one storage budget; a fleet of
three replicas behind a workload-aware router can let each replica
specialize on one client's slice.  The experiment compares total
execution cost across:

* ``single``      -- one tuner, the whole stream (the non-fleet baseline);
* ``round-robin`` -- 3 replicas, workload-oblivious spreading (each
  replica sees a 1/3-rate copy of the full mix: no specialization);
* ``affinity``    -- 3 replicas, sticky cluster-key routing.

Affinity routing must beat both the single tuner and round-robin.
Per-replica decision traces for the affinity run are dumped as JSON next
to the text report.
"""

import pathlib

from repro.bench.harness import run_colt
from repro.core.config import ColtConfig
from repro.fleet import FleetCoordinator
from repro.workload.datagen import build_catalog
from repro.workload.experiments import phase_distributions
from repro.workload.phases import multi_client_shifting_workload

RESULTS_DIR = pathlib.Path(__file__).resolve().parent.parent / "results"

BUDGET_PAGES = 9_000.0
N_REPLICAS = 3
FLEET_EPOCH = 30
SEED = 11


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


def run_fleet(workload, policy):
    fleet = FleetCoordinator(
        build_catalog,
        n_replicas=N_REPLICAS,
        config=ColtConfig(storage_budget_pages=BUDGET_PAGES),
        policy=policy,
        fleet_epoch_length=FLEET_EPOCH,
    )
    run = fleet.run(workload)
    return fleet, run


def test_fleet_routing(benchmark, report):
    workload = build_workload()

    def run_all():
        single = run_colt(
            build_catalog(),
            workload.queries,
            ColtConfig(storage_budget_pages=BUDGET_PAGES),
        )
        fleets = {
            policy: run_fleet(workload, policy)
            for policy in ("round-robin", "affinity")
        }
        return single, fleets

    single, fleets = benchmark.pedantic(run_all, rounds=1)

    exec_cost = {"single": sum(single.execution_costs)}
    divergence = {}
    for policy, (fleet, run) in fleets.items():
        exec_cost[policy] = run.execution_cost
        divergence[policy] = fleet.configuration_divergence()

    # Dump the affinity fleet's per-replica decision traces next to the
    # text report (machine-readable evidence of specialization).
    RESULTS_DIR.mkdir(exist_ok=True)
    affinity_fleet, _ = fleets["affinity"]
    for replica in affinity_fleet.replicas:
        path = RESULTS_DIR / f"test_fleet_routing.replica-{replica.replica_id}.json"
        path.write_text(replica.trace().to_json(indent=1) + "\n")

    lines = [
        f"fleet routing policies ({workload.description}, "
        f"{N_REPLICAS} replicas, budget {BUDGET_PAGES:,.0f} pages/replica)",
        f"{'policy':<12} {'exec cost':>14} {'vs single':>10} {'divergence':>11}",
    ]
    for policy in ("single", "round-robin", "affinity"):
        ratio = exec_cost[policy] / exec_cost["single"]
        div = f"{divergence[policy]:.2f}" if policy in divergence else "-"
        lines.append(
            f"{policy:<12} {exec_cost[policy]:>14,.0f} {ratio:>9.2f}x {div:>11}"
        )
    lines.append(
        "traces: results/test_fleet_routing.replica-{0,1,2}.json (affinity run)"
    )
    report("\n".join(lines))

    # Workload-oblivious spreading must not specialize...
    assert divergence["round-robin"] < divergence["affinity"]
    # ...and affinity routing must beat the single tuner AND the
    # round-robin fleet outright (the acceptance bar).
    assert exec_cost["affinity"] < exec_cost["single"]
    assert exec_cost["affinity"] < exec_cost["round-robin"]
