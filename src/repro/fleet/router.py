"""Workload-aware query routing policies for the tuning fleet.

Three policies, all honouring the coordinator's drain set:

* **round-robin** -- the baseline: cycle over active replicas.
* **affinity** -- sticky routing by the paper's query-clustering key
  (``repro.core.clustering.cluster_key``): every query shape lands on
  one replica, so that replica's profiler sees a coherent sub-workload
  and its materialized set specializes on it.
* **client** -- sticky routing by the submitting client's stable id
  (``Workload.client_ids``), falling back to cluster affinity for
  untagged queries.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Hashable, List, Optional, Sequence

from repro.core.clustering import cluster_key

if TYPE_CHECKING:
    from repro.engine.catalog import Catalog
    from repro.sql.ast import Query


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

    def route(self, query: Query, client_id: Optional[int] = None) -> int:
        """Choose a replica for one arriving query; returns its id."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    def _least_loaded(self) -> int:
        active = self.active()
        return min(active, key=lambda i: (self.load[i], i))

    def _commit(self, replica_id: int) -> int:
        self.load[replica_id] += 1
        return replica_id


class RoundRobinRouter(Router):
    """The baseline: cycle over active replicas in id order."""

    name = "round-robin"

    def __init__(self, n_replicas: int) -> None:
        super().__init__(n_replicas)
        self._cursor = 0

    def route(self, query: Query, client_id: Optional[int] = None) -> int:
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

    def route(self, query: Query, client_id: Optional[int] = None) -> int:
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


def make_router(policy: str, n_replicas: int, catalog: Catalog) -> Router:
    """Build a router by policy name.

    Args:
        policy: ``"round-robin"``, ``"affinity"`` or ``"client"``.
        n_replicas: Fleet size.
        catalog: Reference catalog for key computation.

    Raises:
        ValueError: for an unknown policy name.
    """
    if policy == "round-robin":
        return RoundRobinRouter(n_replicas)
    if policy == "affinity":
        return AffinityRouter(n_replicas, catalog, by="cluster")
    if policy == "client":
        return AffinityRouter(n_replicas, catalog, by="client")
    raise ValueError(
        f"unknown routing policy {policy!r}; expected one of "
        "'round-robin', 'affinity', 'client'"
    )
