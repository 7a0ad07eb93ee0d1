"""Replicated tuning fleet: per-replica COLT tuners behind a query router.

The paper tunes a single server; this package is the scale-out step.  A
fleet runs N independent :class:`~repro.fleet.replica.TunerReplica`
instances -- each with its own catalog, storage budget, and circuit
breaker -- behind a workload-aware query router.  Routing the shifting
multi-client stream by cluster affinity (or by cheap cost probes) lets
each replica's materialized set *specialize* on its slice of the
workload, which beats both a single shared tuner and blind round-robin
on total execution cost.

Components:

* ``replica``     -- one tuner + catalog + health state.
* ``router``      -- round-robin, affinity, client and cost-based
  routing policies with a self-regulating probe budget.
* ``coordinator`` -- epoch-aligned fleet reorganization: drains
  breaker-open replicas, restores recovered ones, and rebalances
  affinity routes.
* ``snapshots``   -- atomic per-replica + fleet-manifest persistence.
* ``workers``     -- the multiprocess coordinator
  (``FleetCoordinator(..., workers=N)``): one worker process per
  replica, bit-identical decisions, crash-safe epoch barriers.
* ``cotune``      -- divergent-design co-tuning
  (``FleetCoordinator(..., cotune=True)``): partitions the query
  stream by relevant-index signature, specializes each replica toward
  its partition, and refines the routing map with budgeted what-if
  probes until fleet cost converges.

See ``docs/FLEET.md`` and ``docs/COTUNE.md`` for the design discussion.
"""

from repro._facade import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "coordinator": (
            "FleetCoordinator",
            "FleetOutcome",
            "FleetReorganizationResult",
            "FleetRun",
        ),
        "cotune": (
            "CotuneConfig",
            "CotuneController",
            "CotuneReport",
            "assign_partitions",
            "partition_signature",
            "signature_label",
        ),
        "replica": ("ReplicaHealth", "TunerReplica"),
        "router": (
            "AffinityRouter",
            "CostBasedRouter",
            "RoundRobinRouter",
            "Router",
            "make_router",
        ),
        "snapshots": (
            "FLEET_MANIFEST",
            "load_manifest",
            "restore_fleet",
            "save_fleet",
            "snapshot_fleet",
        ),
        "workers": ("WorkerCrash", "WorkerFleetCoordinator"),
    },
)
