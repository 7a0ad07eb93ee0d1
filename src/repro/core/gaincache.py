"""The gain cache: what-if gains known without a probe (structural zeros).

COLT's dominant overhead is what-if optimization.  The per-query
:class:`~repro.optimizer.optimizer.PlanCache` already amortizes probes
*within* one query; this module serves the one gain that is knowable
*without* invoking the extended optimizer, and the saved call never
reaches :attr:`~repro.optimizer.whatif.WhatIfOptimizer.call_count` (the
quantity the ledger charges per call).

**Structural zero** -- the probed index's lead column is not referenced
by any filter or join predicate of the query.  The optimizer's
relevant-configuration restriction
(:func:`~repro.optimizer.optimizer.relevant_config`) strips such an
index before planning, so both sides of ``QueryGain = cost(M − {I}) −
cost(M ∪ {I})`` collapse to the same plan and the gain is exactly
``0.0`` (CoPhy's atomic-configuration observation).  Every query in a
cluster shares its referenced-column set (the cluster key is built from
exactly these columns), so this rule is the cluster-level zero-gain memo
the clustering of §4.1 promises.  It depends on the query text and the
index alone -- not on ``M``, not on statistics -- so nothing a build, a
drop, an insert or a rebalance does can make a served gain stale: there
is nothing to invalidate.

Budget semantics: a hit still consumes one ``#WI_lim`` unit in the
Profiler (so sampling decisions -- and therefore the collected gain
samples -- are identical with the rule on or off), but it is *free* on
the ledger: no what-if call is issued, no ``whatif_call_cost`` is
charged.  The differential harness
(``tests/core/test_gaincache_differential.py``) pins that.  See
``docs/PERFORMANCE.md``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, FrozenSet, List, Optional, Tuple

from repro.obs.names import GAINCACHE_METRICS
from repro.obs.registry import MetricsRegistry
from repro.sql.ast import BetweenPredicate, ComparisonPredicate, InPredicate

if TYPE_CHECKING:
    from repro.engine.index import IndexDef
    from repro.sql.ast import Query


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
    conservative choice for an exactness-critical key.
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


class GainCache:
    """The structural-zero rule behind ``ColtConfig.gain_cache``.

    Args:
        enabled: Master switch (``ColtConfig.gain_cache``); when False
            the Profiler never consults the rule, but the metric
            families are still registered so the observability contract
            holds in either mode.
        registry: Metrics registry for the ``gaincache_*`` families.

    Attributes:
        hits / misses: Plain counters mirroring the metric families, for
            tests and reports.
    """

    def __init__(
        self, enabled: bool = False, registry: Optional[MetricsRegistry] = None
    ) -> None:
        self.enabled = enabled
        self.hits = 0
        self.misses = 0
        reg = registry if registry is not None else MetricsRegistry()
        self._m_hits = GAINCACHE_METRICS["gaincache_hits_total"].build(reg)
        self._m_misses = GAINCACHE_METRICS["gaincache_misses_total"].build(reg)

    def __len__(self) -> int:
        """Entries held: always 0, the rule stores nothing."""
        return 0

    def lookup(
        self, referenced: FrozenSet[Tuple[str, str]], index: IndexDef
    ) -> Optional[float]:
        """The gain a probe of ``index`` would return, if knowable.

        Args:
            referenced: The query's
                :func:`~repro.optimizer.optimizer.referenced_columns`.
            index: The index about to be probed.

        Returns:
            ``0.0`` for a structural zero, None on a miss (the caller
            must probe for real).
        """
        if (index.table, index.column) not in referenced:
            self.hits += 1
            self._m_hits.inc(1, kind="structural")
            return 0.0
        self.misses += 1
        self._m_misses.inc()
        return None
