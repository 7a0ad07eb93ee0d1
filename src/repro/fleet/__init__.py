"""Replicated tuning fleet: per-replica COLT tuners behind a query router.

The paper tunes a single server; this package is the scale-out step.  A
fleet runs N independent :class:`~repro.fleet.replica.TunerReplica`
instances -- each with its own catalog, storage budget, and circuit
breaker -- behind a workload-aware query router.  Routing the shifting
multi-client stream by cluster affinity lets each replica's
materialized set *specialize* on its slice of the workload, which beats
both a single shared tuner and blind round-robin on total execution
cost.

Components:

* ``replica``     -- one tuner + catalog + health state.
* ``router``      -- round-robin, affinity and client routing
  policies.
* ``coordinator`` -- epoch-aligned fleet reorganization: drains
  breaker-open replicas, restores recovered ones, and rebalances
  affinity routes.
* ``snapshots``   -- atomic per-replica + fleet-manifest persistence.
* ``workers``     -- the multiprocess coordinator
  (``FleetCoordinator(..., workers=N)``): one worker process per
  replica, bit-identical decisions, crash-safe epoch barriers.

See ``docs/FLEET.md`` for the design discussion.
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
        "replica": ("ReplicaHealth", "TunerReplica"),
        "router": (
            "AffinityRouter",
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
