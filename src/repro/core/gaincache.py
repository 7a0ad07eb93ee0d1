"""Cross-query what-if gain cache (the incremental profiling pipeline).

COLT's dominant overhead is what-if optimization.  The per-query
:class:`~repro.optimizer.optimizer.PlanCache` already amortizes probes
*within* one query; this module amortizes them *across* queries: a gain
that is knowable without invoking the extended optimizer is served from
the cache, and the saved call never reaches
:attr:`~repro.optimizer.whatif.WhatIfOptimizer.call_count` (the quantity
the ledger charges per call).

The cache only ever serves values that are **provably identical** to
what the probe would return, which is what lets the differential harness
(``tests/core/test_gaincache_differential.py``) demand bit-identical
``BenefitH``/``BenefitM`` and chosen ``M`` between cache-on and
cache-off runs.  Two hit kinds qualify:

* **structural** -- the probed index's lead column is not referenced by
  any filter or join predicate of the query.  The optimizer's
  relevant-configuration restriction strips such an index before
  planning, so both sides of ``QueryGain = cost(M − {I}) − cost(M ∪
  {I})`` collapse to the same plan and the gain is exactly ``0.0``.
  Every query in a cluster shares its referenced-column set (the
  cluster key is built from exactly these columns), so this rule is the
  cluster-level zero-gain memo the clustering of §4.1 promises.
* **exact** -- a previous probe stored a gain under the same (query
  structural signature including literals, relevant-config signature,
  index) key, and the per-table statistics tokens recorded with the
  entry still match the catalog.  The optimizer is deterministic, so
  the replayed gain is the probe's.

Budget semantics: a hit still consumes one ``#WI_lim`` unit in the
Profiler (so sampling decisions -- and therefore the collected gain
samples -- are identical with the cache on or off), but it is *free* on
the ledger: no what-if call is issued, no ``whatif_call_cost`` is
charged.  See ``docs/PERFORMANCE.md``.

Invalidation (a stale gain would silently corrupt ``NetBenefit``):

* **materialization changes** -- entries whose query references the
  changed index's lead column are dropped (the Scheduler reports every
  build/drop, including idle-time and retried builds, through its
  ``on_change`` hook).  Lookups are additionally self-validating: the
  relevant-config signature is recomputed per query, so a changed
  configuration can never alias a stored key.
* **stats refresh** -- entries carry per-table ``(row_count,
  stats_version)`` tokens, validated on every hit.  Every
  stats-affecting catalog mutation bumps the version
  (:meth:`~repro.engine.catalog.Catalog.set_stats`,
  :meth:`~repro.engine.catalog.Catalog.apply_row_delta`,
  :meth:`~repro.engine.catalog.Catalog.set_row_count`), so even a
  delete-then-insert that restores the original row count changes the
  token; ``process_insert`` additionally invalidates the written table
  eagerly.
* **epoch reorganization** -- :meth:`GainCache.roll_epoch` ages entries
  out after ``ttl_epochs`` epochs without a hit.
* **fleet rebalance** -- the coordinator clears each replica's cache
  when sticky assignments move between replicas.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

from repro.engine.catalog import Catalog
from repro.engine.index import IndexDef
from repro.obs.names import GAINCACHE_METRICS
from repro.obs.registry import NULL_REGISTRY, MetricsRegistry
from repro.sql.ast import (
    BetweenPredicate,
    ComparisonPredicate,
    InPredicate,
    Query,
)

# Composite-safe index identity: table plus ordered key columns.
IndexKey = Tuple[str, Tuple[str, ...]]

#: Per-table statistics token: (row_count, stats_version) for the local
#: backend, opaque for remote ones.  Every stats-affecting mutation --
#: row-count deltas (cost-model inserts/deletes) and ``set_stats``
#: (ANALYZE) -- bumps the version, so entries recorded under old
#: statistics can never validate, even when the row count round-trips.
StatsToken = Tuple


def _index_key(index: IndexDef) -> IndexKey:
    return index.table, index.columns


def _literal(value: object) -> Tuple[str, object]:
    # Type-tagged so 1 and 1.0 (equal, same hash) stay distinct keys.
    return type(value).__name__, value


def query_signature(query: Query) -> Tuple:
    """A hashable structural signature of a bound query, literals included.

    Two queries with equal signatures produce identical plans and costs
    under equal configurations and statistics: the signature covers
    every Query field the optimizer reads (tables, output list, filter
    predicates with operators and literal values, join conditions,
    grouping, ordering, limit).  Field order is preserved -- no
    normalization -- so signature equality is structural identity, the
    conservative choice for an exactness-critical cache.
    """
    filters: List[Tuple] = []
    for pred in query.filters:
        if isinstance(pred, ComparisonPredicate):
            filters.append(
                ("cmp", str(pred.column), pred.op.value, _literal(pred.value))
            )
        elif isinstance(pred, BetweenPredicate):
            filters.append(
                (
                    "between",
                    str(pred.column),
                    _literal(pred.low),
                    _literal(pred.high),
                )
            )
        elif isinstance(pred, InPredicate):
            filters.append(
                ("in", str(pred.column), tuple(_literal(v) for v in pred.values))
            )
        else:
            filters.append(("other", str(pred)))
    return (
        tuple(query.tables),
        tuple(str(item.expr) + (f" as {item.alias}" if item.alias else "") for item in query.select),
        tuple(filters),
        tuple(str(j.normalized()) for j in query.joins),
        tuple(str(c) for c in query.group_by),
        tuple((str(o.column), o.descending) for o in query.order_by),
        query.limit,
    )


class SignatureInterner:
    """Compute-once, share-everything query signatures.

    Two layers of reuse:

    * identity: the signature of a query *object* is computed once
      (replay streams cycle the same objects, so this is the common
      hit);
    * structure: equal signatures from distinct objects are interned to
      a single tuple, so hash-heavy consumers compare and hash one
      shared object.

    The interner holds strong references to the queries it has seen --
    that is what makes the ``id()`` fast path sound (a dead object's id
    can be reused; a live one's cannot).  Call :meth:`clear` between
    unrelated streams.
    """

    def __init__(self) -> None:
        self._by_id: Dict[int, Tuple[Query, Tuple, int]] = {}
        self._interned: Dict[Tuple, Tuple] = {}
        self._index: Dict[Tuple, int] = {}
        # Never reset, even by clear(): signature indices are unique
        # for the interner's whole lifetime, so a consumer that keys a
        # cache by index and misses a clear() can only miss, never
        # silently alias two distinct signatures.
        self._next_index = 0

    def __len__(self) -> int:
        return len(self._interned)

    def signature(self, query: Query) -> Tuple:
        """The (interned) structural signature of ``query``."""
        return self.signature_index(query)[0]

    def signature_index(self, query: Query) -> Tuple[Tuple, int]:
        """``(signature, index)`` for ``query``.

        The index is a small integer unique to the signature's
        *structure*: equal signatures share one index, distinct ones
        never do.  Hash-heavy consumers key their memos by it instead
        of the (large, hash-uncached) signature tuple, turning every
        probe into an int hash.  Indices are never reused, even across
        :meth:`clear`.
        """
        hit = self._by_id.get(id(query))
        if hit is not None and hit[0] is query:
            return hit[1], hit[2]
        sig = query_signature(query)
        sig = self._interned.setdefault(sig, sig)
        index = self._index.get(sig)
        if index is None:
            index = self._next_index
            self._next_index += 1
            self._index[sig] = index
        self._by_id[id(query)] = (query, sig, index)
        return sig, index

    def clear(self) -> None:
        """Drop all memoized signatures (and the query references)."""
        self._by_id.clear()
        self._interned.clear()
        self._index.clear()


def referenced_columns(query: Query) -> FrozenSet[Tuple[str, str]]:
    """(table, column) pairs referenced by filters or join predicates.

    This is the same set the optimizer's relevant-configuration
    restriction keys on, and (by construction of the cluster key) it is
    shared by every query of a cluster.
    """
    return frozenset(
        (c.table, c.column)
        for c in query.selection_columns() + query.join_columns()
    )


class _Entry:
    """One stored probe result."""

    __slots__ = ("gain", "tokens", "referenced", "last_used_epoch")

    def __init__(
        self,
        gain: float,
        tokens: Tuple[Tuple[str, StatsToken], ...],
        referenced: FrozenSet[Tuple[str, str]],
        epoch: int,
    ) -> None:
        self.gain = gain
        self.tokens = tokens
        self.referenced = referenced
        self.last_used_epoch = epoch


class GainCacheContext:
    """Per-query view of the cache (signatures computed once per query).

    Obtained from :meth:`GainCache.begin_query`; the Profiler calls
    :meth:`lookup` before each probe it is about to pay for and
    :meth:`store` after each probe it did pay for.
    """

    __slots__ = ("_cache", "_query", "referenced", "_qsig", "_csig", "_tokens")

    def __init__(self, cache: "GainCache", query: Query) -> None:
        self._cache = cache
        self._query = query
        self._qsig: Optional[Tuple] = None
        self._csig: Optional[FrozenSet[IndexKey]] = None
        self._tokens: Optional[Tuple[Tuple[str, StatsToken], ...]] = None
        self.referenced = referenced_columns(query)

    # -- lazily computed key parts -------------------------------------
    def _key(self, index: IndexDef) -> Tuple:
        if self._qsig is None:
            self._qsig = query_signature(self._query)
        if self._csig is None:
            self._csig = self._cache.config_signature(self._query)
        return self._qsig, self._csig, _index_key(index)

    def tokens(self) -> Tuple[Tuple[str, StatsToken], ...]:
        """Current statistics tokens for the query's tables."""
        if self._tokens is None:
            self._tokens = tuple(
                (t, self._cache.stats_token(t)) for t in self._query.tables
            )
        return self._tokens

    # -- cache operations ----------------------------------------------
    def lookup(self, index: IndexDef) -> Optional[float]:
        """The exact gain a probe of ``index`` would return, if knowable.

        Returns None on a miss (the caller must probe for real).
        """
        cache = self._cache
        if (index.table, index.column) not in self.referenced:
            # Structural zero: the optimizer strips this index from the
            # relevant configuration, so the probe's two costs coincide.
            cache.hits_structural += 1
            cache._m_hits.inc(1, kind="structural")
            return 0.0
        entry = cache._entries.get(self._key(index))
        if entry is not None and entry.tokens == self.tokens():
            entry.last_used_epoch = cache._epoch
            cache.hits_exact += 1
            cache._m_hits.inc(1, kind="exact")
            return entry.gain
        cache.misses += 1
        cache._m_misses.inc()
        return None

    def store(self, index: IndexDef, gain: float) -> None:
        """Record a real probe's result for future exact-key hits."""
        cache = self._cache
        if len(cache._entries) >= cache.max_entries:
            cache._evict_oldest()
        cache._entries[self._key(index)] = _Entry(
            gain, self.tokens(), self.referenced, cache._epoch
        )
        cache.stores += 1
        cache._m_stores.inc()
        cache._sync_gauge()


class GainCache:
    """Cluster-level cross-query what-if gain cache.

    Args:
        catalog: Source of per-table statistics tokens.
        whatif: The what-if optimizer, used for relevant-configuration
            signatures (its underlying optimizer defines relevance).
        enabled: Master switch (``ColtConfig.gain_cache``); when False
            the Profiler never consults the cache, but the metric
            families are still registered so the observability contract
            holds in either mode.
        ttl_epochs: Epochs an entry may go unused before
            :meth:`roll_epoch` drops it.
        max_entries: Hard size cap; the least-recently-used entries are
            evicted on overflow.
        registry: Metrics registry for the ``gaincache_*`` families.

    Attributes:
        hits_structural / hits_exact / misses / stores: Plain counters
            mirroring the metric families, for tests and reports.
    """

    def __init__(
        self,
        catalog: Catalog,
        whatif,
        enabled: bool = False,
        ttl_epochs: int = 12,
        max_entries: int = 4096,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        self._catalog = catalog
        self._whatif = whatif
        self.enabled = enabled
        self.ttl_epochs = max(1, ttl_epochs)
        self.max_entries = max(1, max_entries)
        self._entries: Dict[Tuple, _Entry] = {}
        self._epoch = 0
        self.hits_structural = 0
        self.hits_exact = 0
        self.misses = 0
        self.stores = 0
        self.invalidations = 0
        reg = registry or NULL_REGISTRY
        self._m_hits = GAINCACHE_METRICS["gaincache_hits_total"].build(reg)
        self._m_misses = GAINCACHE_METRICS["gaincache_misses_total"].build(reg)
        self._m_stores = GAINCACHE_METRICS["gaincache_stores_total"].build(reg)
        self._m_invalidations = GAINCACHE_METRICS[
            "gaincache_invalidations_total"
        ].build(reg)
        self._m_entries = GAINCACHE_METRICS["gaincache_entries"].build(reg)

    # ------------------------------------------------------------------
    @property
    def hits(self) -> int:
        """Total gains served from the cache (both hit kinds)."""
        return self.hits_structural + self.hits_exact

    def __len__(self) -> int:
        return len(self._entries)

    def begin_query(self, query: Query) -> GainCacheContext:
        """Open a per-query cache view (signatures computed lazily, once)."""
        return GainCacheContext(self, query)

    # ------------------------------------------------------------------
    # Signature plumbing
    # ------------------------------------------------------------------
    def config_signature(self, query: Query) -> FrozenSet[IndexKey]:
        """The relevant-config signature for a query (see whatif.py)."""
        return self._whatif.relevant_signature(query)

    def stats_token(self, table: str) -> StatsToken:
        """The backend's current statistics token for a table.

        Delegates to the what-if backend when it carries one (remote
        backends own their statistics); otherwise combines the
        catalog's row count with its monotone ``stats_version``, which
        every stats-affecting mutation bumps (``set_stats``,
        ``apply_row_delta``, ``set_row_count``) -- so a delete-then-
        insert restoring the old row count still changes the token.
        """
        backend = getattr(self._whatif, "backend", None)
        if backend is not None:
            return backend.stats_token(table)
        return self._catalog.stats_token(table)

    # ------------------------------------------------------------------
    # Invalidation
    # ------------------------------------------------------------------
    def invalidate_indexes(
        self, indexes: Iterable[IndexDef], reason: str = "materialization"
    ) -> int:
        """Drop entries a materialization change could have affected.

        An entry's gain can only change when the availability of an
        index on one of its query's referenced columns changes -- the
        §4.1 consistency rule, the same one ``Profiler.purge_stale``
        applies to pair statistics.

        Returns:
            The number of entries dropped.
        """
        changed = {(ix.table, ix.column) for ix in indexes}
        if not changed:
            return 0
        stale = [
            key
            for key, entry in self._entries.items()
            if changed & entry.referenced
        ]
        return self._drop(stale, reason)

    def invalidate_table(self, table: str, reason: str = "stats") -> int:
        """Drop entries whose query touches a table (stats refresh)."""
        stale = [
            key
            for key, entry in self._entries.items()
            if any(t == table for t, _tok in entry.tokens)
        ]
        return self._drop(stale, reason)

    def clear(self, reason: str = "manual") -> int:
        """Drop every entry (fleet rebalance, snapshot restore)."""
        return self._drop(list(self._entries), reason)

    def roll_epoch(self) -> int:
        """Advance the epoch clock and age out unused entries.

        Called at every epoch boundary (the Profiler's epoch roll-over);
        entries that have not produced a hit for ``ttl_epochs`` epochs
        are dropped so reorganization-era gains cannot linger forever.
        """
        self._epoch += 1
        horizon = self._epoch - self.ttl_epochs
        stale = [
            key
            for key, entry in self._entries.items()
            if entry.last_used_epoch < horizon
        ]
        return self._drop(stale, "epoch")

    # ------------------------------------------------------------------
    def _drop(self, keys: List[Tuple], reason: str) -> int:
        for key in keys:
            del self._entries[key]
        if keys:
            self.invalidations += len(keys)
            self._m_invalidations.inc(len(keys), reason=reason)
            self._sync_gauge()
        return len(keys)

    def _evict_oldest(self) -> None:
        oldest = min(
            self._entries, key=lambda k: self._entries[k].last_used_epoch
        )
        del self._entries[oldest]
        self.invalidations += 1
        self._m_invalidations.inc(1, reason="capacity")

    def _sync_gauge(self) -> None:
        self._m_entries.set(len(self._entries))
