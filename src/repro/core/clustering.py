"""On-line query clustering.

§4.1 of the paper: queries are clustered by (a) the tables they access,
(b) their join predicates, and (c) the attributes of their selection
predicates together with a coarse selectivity class -- *selective*
(0-2%) vs. *non-selective* (2-100%).  Each cluster aggregates gain
statistics per index so that a few what-if samples generalize to every
similar query.

Assignment is O(query size): the cluster key is computed from the bound
query plus catalog statistics (for the selectivity class) and looked up
in a dictionary.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Deque, Dict, Iterable, List, Optional, Tuple

from repro.optimizer.selectivity import predicate_selectivity

if TYPE_CHECKING:
    from repro.engine.catalog import Catalog
    from repro.engine.index import IndexDef
    from repro.optimizer.optimizer import PlanCache
    from repro.sql.ast import Query

# The paper's two selectivity classes.
SELECTIVE_THRESHOLD = 0.02

JoinKey = Tuple[Tuple[str, str], Tuple[str, str]]
ClusterKey = Tuple[
    Tuple[str, ...],  # sorted tables
    Tuple[JoinKey, ...],  # sorted normalized join column pairs
    Tuple[Tuple[str, str, str], ...],  # (table, column, class) per selection
]


def cluster_key(
    query: Query, catalog: Catalog, cache: Optional[PlanCache] = None
) -> ClusterKey:
    """Compute the cluster key for a bound query.

    ``cache`` is the plan cache of the query's what-if session where
    there is one: the key :meth:`ClusterStore.assign` left in it is
    returned, or else the filters' selectivities are read from its
    scans.  Callers without a session (the fleet router) leave it out
    and every selectivity is evaluated here.
    """
    if cache is not None and cache.cluster_key is not None:
        return cache.cluster_key
    tables = tuple(sorted(query.tables))
    joins = []
    for join in query.joins:
        j = join.normalized()
        joins.append(
            ((j.left.table, j.left.column), (j.right.table, j.right.column))
        )
    selections = []
    for pred in query.filters:
        if cache is None:
            sel = predicate_selectivity(catalog, pred)
        else:
            sel = cache.scan(catalog, query, pred.column.table).sel_of[id(pred)]
        klass = "S" if sel <= SELECTIVE_THRESHOLD else "N"
        selections.append((pred.column.table, pred.column.column, klass))
    return tables, tuple(sorted(joins)), tuple(sorted(selections))


class Cluster:
    """One query cluster and its population in the memory window.

    Attributes:
        key: The structural cluster key.
        cluster_id: Dense integer id, stable for the run.
        epoch_count: Queries assigned in the current epoch.
        windowed: Queries assigned in the closed epochs still inside the
            window; the :class:`ClusterStore` moves it as epochs close
            and expire.
        signature: The profiler's ``(catalog generation, configuration
            signature)`` for this cluster, or None; it lives here so
            that it goes when the cluster does.
    """

    __slots__ = ("key", "cluster_id", "epoch_count", "windowed", "signature")

    def __init__(self, key: ClusterKey, cluster_id: int) -> None:
        self.key = key
        self.cluster_id = cluster_id
        self.epoch_count = 0
        self.windowed = 0
        self.signature = None

    @property
    def tables(self) -> Tuple[str, ...]:
        """Tables accessed by the cluster's queries."""
        return self.key[0]

    @property
    def selection_attributes(self) -> List[Tuple[str, str]]:
        """(table, column) pairs of the cluster's selection predicates."""
        return [(t, c) for (t, c, _klass) in self.key[2]]

    def referenced_columns(self) -> frozenset:
        """All (table, column) pairs this cluster's queries reference.

        An index's what-if gain for a cluster can only change when the
        materialization status of an index on one of these columns
        changes -- the consistency rule of §4.1, applied precisely.
        """
        cols = set(self.selection_attributes)
        for left, right in self.key[1]:
            cols.add(left)
            cols.add(right)
        return frozenset(cols)

    def count(self) -> int:
        """``Count(Q_i)``: queries in the memory window ``S_h``."""
        return self.windowed + self.epoch_count

    def is_relevant(self, index: IndexDef) -> bool:
        """Whether an index could serve this cluster's queries.

        True when the index's column appears among the cluster's
        selection attributes, or the index's table is accessed (covering
        potential join use).
        """
        table = index.table
        if table in self.key[0]:
            return True
        return any(t == table and c == index.column for t, c, _klass in self.key[2])


class ClusterStore:
    """Assigns queries to clusters and tracks per-cluster populations.

    The number of clusters is bounded by the number of distinct query
    shapes in the memory window (at most ``w * h``, per the paper).
    """

    def __init__(self, catalog: Catalog, history_epochs: int) -> None:
        self._catalog = catalog
        self._history = history_epochs
        self._clusters: Dict[ClusterKey, Cluster] = {}
        self._by_id: Dict[int, Cluster] = {}
        self._next_id = 0
        self._total = 0  # sum of count() over live clusters
        # Per closed epoch in the window, oldest first: the clusters
        # that saw queries in it, each with its count.  Clusters idle in
        # an epoch are not touched when it closes.
        self._epochs: Deque[List[Tuple[Cluster, int]]] = deque()
        self._active: List[Cluster] = []  # assigned to this epoch
        self._evicted = 0  # by the closes since the last assignment

    def assign(self, query: Query, cache: Optional[PlanCache] = None) -> Cluster:
        """Assign a query to its (possibly new) cluster (``cache`` as for
        :func:`cluster_key`)."""
        key = cluster_key(query, self._catalog, cache)
        cluster = self._clusters.get(key)
        if cluster is None:
            cluster = Cluster(key, self._next_id)
            self._next_id += 1
            self._clusters[key] = cluster
            self._by_id[cluster.cluster_id] = cluster
        if cache is not None:
            cache.cluster_key = cluster.key  # one key object per cluster
        if not cluster.epoch_count:
            self._active.append(cluster)
        cluster.epoch_count += 1
        self._total += 1
        return cluster

    def by_id(self, cluster_id: int) -> "Cluster":
        """Look up a live cluster by id.

        Raises:
            KeyError: if the cluster has been evicted.
        """
        return self._by_id[cluster_id]

    def has_id(self, cluster_id: int) -> bool:
        """Whether a cluster with this id is still live."""
        return cluster_id in self._by_id

    def live_at_last_assign(self) -> Optional[int]:
        """Live clusters when a query was last assigned (None before the
        first); what the window evicted since is still counted."""
        if not self._next_id:
            return None
        return len(self._clusters) + (0 if self._active else self._evicted)

    def roll_epoch(self) -> None:
        """Close the epoch and evict the clusters the window has left."""
        live = self.live_at_last_assign() or 0
        closed = []
        for cluster in self._active:
            closed.append((cluster, cluster.epoch_count))
            cluster.windowed += cluster.epoch_count
            cluster.epoch_count = 0
        self._active = []
        self._epochs.append(closed)
        if len(self._epochs) > self._history:
            for cluster, count in self._epochs.popleft():
                cluster.windowed -= count
                self._total -= count
                if not cluster.windowed:  # nothing current: just closed
                    del self._clusters[cluster.key]
                    del self._by_id[cluster.cluster_id]
        self._evicted = live - len(self._clusters)

    def clusters(self) -> Iterable[Cluster]:
        """All live clusters."""
        return self._clusters.values()

    def total_count(self) -> int:
        """Total queries across clusters in the memory window."""
        return self._total

    def __len__(self) -> int:
        return len(self._clusters)
