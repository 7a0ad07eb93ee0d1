"""Workload-aware query routing policies for the tuning fleet.

Four policies, all honouring the coordinator's drain set:

* **round-robin** -- the baseline: cycle over active replicas.
* **affinity** -- sticky routing by the paper's query-clustering key
  (``repro.core.clustering.cluster_key``): every query shape lands on
  one replica, so that replica's profiler sees a coherent sub-workload
  and its materialized set specializes on it.
* **client** -- sticky routing by the submitting client's stable id
  (``Workload.client_ids``), falling back to cluster affinity for
  untagged queries.
* **cost** -- route to the replica whose optimizer currently prices the
  query cheapest, measured by cheap what-if probes.  Probes are paid
  from a per-epoch budget that self-regulates like COLT's ``#WI_lim``:
  while routes keep changing the budget stays at its maximum, and once
  the routing table is stable it decays -- so steady state costs almost
  nothing.  Cached routes are invalidated when any replica's
  materialized configuration changes (the only event that can change
  the comparison).
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING, Dict, Hashable, List, Optional, Sequence, Tuple

from repro.core.clustering import cluster_key

if TYPE_CHECKING:
    from repro.engine.catalog import Catalog
    from repro.sql.ast import Query

#: Default per-epoch probe budget for cost-based routing.
DEFAULT_PROBE_BUDGET = 30
#: Floor the self-regulating probe budget never decays below.
MIN_PROBE_BUDGET = 3


@dataclasses.dataclass
class Route:
    """One routing decision.

    Attributes:
        replica_id: The chosen replica.
        probes: What-if probes spent making this decision (cost policy
            only; the coordinator charges them as routing overhead).
    """

    replica_id: int
    probes: int = 0


class Router:
    """Base router: tracks replica count, load, and the drain set.

    Args:
        n_replicas: Fleet size.

    Attributes:
        name: Policy name (used by CLI and reports).
        drained: Replica ids currently excluded from routing.
        load: Queries routed to each replica so far.
    """

    name = "base"

    def __init__(self, n_replicas: int) -> None:
        if n_replicas < 1:
            raise ValueError("n_replicas must be positive")
        self.n_replicas = n_replicas
        self.drained: set = set()
        self.load = [0] * n_replicas

    # ------------------------------------------------------------------
    def active(self) -> List[int]:
        """Replica ids currently accepting traffic.

        When every replica is drained the full fleet is returned --
        degraded service beats dropping queries.
        """
        ids = [i for i in range(self.n_replicas) if i not in self.drained]
        return ids or list(range(self.n_replicas))

    def set_drained(self, drained: Sequence[int]) -> None:
        """Install the coordinator's current drain set."""
        self.drained = set(drained)

    def roll_epoch(self) -> None:
        """Hook called at each fleet epoch boundary (default: no-op)."""

    def route(self, query: Query, client_id: Optional[int] = None) -> Route:
        """Choose a replica for one arriving query."""
        raise NotImplementedError

    def route_to(self, replica_id: int) -> Route:
        """Commit an externally decided route (co-tuning partition map).

        Bypasses the policy's own choice but still records load, so the
        policy's balancing view of unpartitioned traffic stays honest.
        """
        return self._commit(replica_id)

    # ------------------------------------------------------------------
    def _least_loaded(self) -> int:
        active = self.active()
        return min(active, key=lambda i: (self.load[i], i))

    def _commit(self, replica_id: int, probes: int = 0) -> Route:
        self.load[replica_id] += 1
        return Route(replica_id=replica_id, probes=probes)


class RoundRobinRouter(Router):
    """The baseline: cycle over active replicas in id order."""

    name = "round-robin"

    def __init__(self, n_replicas: int) -> None:
        super().__init__(n_replicas)
        self._cursor = 0

    def route(self, query: Query, client_id: Optional[int] = None) -> Route:
        """Next active replica in rotation."""
        active = self.active()
        choice = active[self._cursor % len(active)]
        self._cursor += 1
        return self._commit(choice)


class AffinityRouter(Router):
    """Sticky routing by cluster key (or client id).

    Args:
        n_replicas: Fleet size.
        catalog: Reference catalog for computing cluster keys (all
            replica catalogs are structurally identical).
        by: ``"cluster"`` keys on the query-clustering key; ``"client"``
            keys on the stable client id when present, with cluster keys
            as the fallback for untagged queries.

    Attributes:
        assignments: The sticky routing table (affinity key -> replica).
        moves: Total reassignments (drains plus load rebalancing).
        epoch_key_counts: Queries routed per affinity key in the current
            fleet epoch (the load signal :meth:`rebalance` works from).
    """

    name = "affinity"

    def __init__(
        self, n_replicas: int, catalog: Catalog, by: str = "cluster"
    ) -> None:
        if by not in ("cluster", "client"):
            raise ValueError(f"by must be 'cluster' or 'client', got {by!r}")
        super().__init__(n_replicas)
        self._catalog = catalog
        self._by = by
        if by == "client":
            self.name = "client"
        self.assignments: Dict[Hashable, int] = {}
        self.moves = 0
        self.epoch_key_counts: Dict[Hashable, int] = {}

    def affinity_key(self, query: Query, client_id: Optional[int]) -> Hashable:
        """The key a query's stickiness is based on."""
        if self._by == "client" and client_id is not None:
            return ("client", client_id)
        return cluster_key(query, self._catalog)

    def route(self, query: Query, client_id: Optional[int] = None) -> Route:
        """Sticky choice: existing assignment, else least-loaded replica."""
        key = self.affinity_key(query, client_id)
        choice = self.assignments.get(key)
        if choice is None:
            choice = self._least_loaded()
            self.assignments[key] = choice
        elif choice in self.drained:
            choice = self._least_loaded()
            self.assignments[key] = choice
            self.moves += 1
        self.epoch_key_counts[key] = self.epoch_key_counts.get(key, 0) + 1
        return self._commit(choice)

    def reassign_from(self, replica_ids: Sequence[int]) -> int:
        """Move every assignment off the given replicas (bulk drain).

        Returns:
            The number of affinity keys reassigned.
        """
        victims = set(replica_ids)
        moved = 0
        for key, replica in list(self.assignments.items()):
            if replica in victims:
                self.assignments[key] = self._least_loaded()
                moved += 1
        self.moves += moved
        return moved

    def rebalance(self) -> int:
        """Move affinity keys toward starved replicas (epoch boundary).

        Stickiness is what lets replicas specialize, so rebalancing is
        deliberately conservative: keys move only while some active
        replica carried less than half its fair share of the closing
        epoch's traffic -- the situation after a restored drain (the
        recovered replica owns no keys) or a badly skewed assignment.
        The lightest keys of the heaviest replica move first, so the
        disruption to specialized configurations is minimal.

        Returns:
            The number of affinity keys reassigned.
        """
        active = self.active()
        if len(active) < 2:
            return 0
        loads = {i: 0 for i in active}
        keys_by_replica: Dict[int, List] = {i: [] for i in active}
        for key, replica in self.assignments.items():
            if replica in loads:
                count = self.epoch_key_counts.get(key, 0)
                loads[replica] += count
                keys_by_replica[replica].append([count, key])
        total = sum(loads.values())
        if total == 0:
            return 0
        fair = total / len(active)
        moved = 0
        for _ in range(len(self.assignments)):
            light = min(active, key=lambda i: loads[i])
            heavy = max(active, key=lambda i: loads[i])
            if loads[light] >= 0.5 * fair or not keys_by_replica[heavy]:
                break
            keys_by_replica[heavy].sort(key=lambda item: item[0])
            count, key = keys_by_replica[heavy][0]
            if count == 0 or loads[heavy] - count < loads[light] + count:
                break  # nothing useful left to move without overshooting
            keys_by_replica[heavy].pop(0)
            self.assignments[key] = light
            loads[heavy] -= count
            loads[light] += count
            keys_by_replica[light].append([count, key])
            moved += 1
        self.moves += moved
        return moved

    def roll_epoch(self) -> None:
        """Reset the per-epoch key load counters."""
        self.epoch_key_counts = {}


class CostBasedRouter(Router):
    """Route each query shape to the replica that prices it cheapest.

    Args:
        n_replicas: Fleet size.
        catalog: Reference catalog for cluster keys.
        probe_budget: Maximum what-if probes per fleet epoch.

    Attributes:
        probes_used: Probes spent in the current fleet epoch.
        probe_budget: The budget currently granted (self-regulating).
        route_changes: Probe outcomes that changed an existing route in
            the current epoch (drives the next epoch's budget).
    """

    name = "cost"

    def __init__(
        self,
        n_replicas: int,
        catalog: Catalog,
        probe_budget: int = DEFAULT_PROBE_BUDGET,
    ) -> None:
        super().__init__(n_replicas)
        self._catalog = catalog
        self._replicas: Sequence = ()
        self.max_probe_budget = probe_budget
        self.probe_budget = probe_budget
        self.probes_used = 0
        self.route_changes = 0
        # key -> (replica_id, per-replica config-version vector at probe
        # time); a version bump anywhere invalidates the entry.
        self._cache: Dict[Hashable, Tuple[int, Tuple[int, ...]]] = {}

    def bind(self, replicas: Sequence) -> None:
        """Attach the live replicas probed for costs (coordinator wiring)."""
        if len(replicas) != self.n_replicas:
            raise ValueError("replica count does not match router size")
        self._replicas = replicas

    # ------------------------------------------------------------------
    def _versions(self) -> Tuple[int, ...]:
        return tuple(r.config_version for r in self._replicas)

    def route(self, query: Query, client_id: Optional[int] = None) -> Route:
        """Cheapest replica by probe, cached per query shape.

        Falls back to the stale cached route (then to the least-loaded
        replica) once the epoch's probe budget is spent.
        """
        if not self._replicas:
            raise RuntimeError("CostBasedRouter.route before bind()")
        key = cluster_key(query, self._catalog)
        versions = self._versions()
        cached = self._cache.get(key)
        if cached is not None and cached[1] == versions and cached[0] not in self.drained:
            return self._commit(cached[0])

        active = [i for i in range(self.n_replicas) if i not in self.drained]
        if not active:
            # The whole fleet is drained.  Degraded service still
            # routes (least-loaded fallback), but a drained replica
            # must never be probed -- route blind, spend nothing.
            return self._commit(self._least_loaded())
        if self.probes_used + len(active) > self.probe_budget:
            # Budget exhausted: reuse the stale route if it is still
            # routable, otherwise balance blindly.
            if cached is not None and cached[0] not in self.drained:
                return self._commit(cached[0])
            return self._commit(self._least_loaded())

        costs = {i: self._replicas[i].probe_cost(query) for i in active}
        self.probes_used += len(active)
        choice = min(active, key=lambda i: (costs[i], i))
        if cached is not None and cached[0] != choice:
            self.route_changes += 1
        self._cache[key] = (choice, versions)
        return self._commit(choice, probes=len(active))

    def roll_epoch(self) -> None:
        """Re-grant the probe budget for the next fleet epoch.

        Self-regulation mirrors COLT's re-budgeting: any route change
        this epoch means the fleet is still differentiating, so the full
        budget is granted; a quiet epoch halves it toward a small floor.
        """
        if self.route_changes > 0:
            self.probe_budget = self.max_probe_budget
        else:
            self.probe_budget = max(MIN_PROBE_BUDGET, self.probe_budget // 2)
        self.probes_used = 0
        self.route_changes = 0


def make_router(
    policy: str,
    n_replicas: int,
    catalog: Catalog,
    probe_budget: int = DEFAULT_PROBE_BUDGET,
) -> Router:
    """Build a router by policy name.

    Args:
        policy: ``"round-robin"``, ``"affinity"``, ``"client"`` or
            ``"cost"``.
        n_replicas: Fleet size.
        catalog: Reference catalog for key computation / probing.
        probe_budget: Per-epoch probe budget (cost policy only).

    Raises:
        ValueError: for an unknown policy name.
    """
    if policy == "round-robin":
        return RoundRobinRouter(n_replicas)
    if policy == "affinity":
        return AffinityRouter(n_replicas, catalog, by="cluster")
    if policy == "client":
        return AffinityRouter(n_replicas, catalog, by="client")
    if policy == "cost":
        return CostBasedRouter(n_replicas, catalog, probe_budget=probe_budget)
    raise ValueError(
        f"unknown routing policy {policy!r}; expected one of "
        "'round-robin', 'affinity', 'client', 'cost'"
    )
