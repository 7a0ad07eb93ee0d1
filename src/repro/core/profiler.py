"""The Profiler: two-level gain statistics gathering (§4, Figure 2).

Per query, the Profiler:

1. assigns the query to its cluster ``Q_i``;
2. forms the probation set ``P`` from the materialized indexes used in
   the plan (``I_M``, served first) and the hot indexes relevant to the
   cluster (``I_H``), admitting each with an adaptive sampling
   probability while the epoch's what-if budget ``#WI_lim`` lasts;
3. issues ``WhatIfOptimize(q, P)`` and folds the measured gains into the
   per-(index, cluster) confidence intervals;
4. updates the crude ``BenefitC`` estimate of every relevant candidate.

Consistency (§4.1): a stored measurement for an index is only valid
while the materialized indexes on the same table are unchanged; the
stats carry a configuration signature and reset when it no longer
matches.

Degraded mode: what-if probes run behind a circuit breaker.  Repeated
probe failures trip it, suspending level-2 profiling (no measured gains,
no confidence-interval updates) while crude ``BenefitC`` statistics keep
accumulating; after a cooldown the breaker half-opens, probes a trickle,
and closes again once calls succeed.  See ``docs/RESILIENCE.md``.
"""

from __future__ import annotations

import dataclasses
import operator
import random
from typing import TYPE_CHECKING, Dict, FrozenSet, Iterable, List, Optional, Tuple

from repro.core.candidates import CandidateTracker
from repro.core.clustering import ClusterStore
from repro.core.gaincache import GainCache
from repro.core.intervals import GainStats
from repro.obs.names import PROFILER_METRICS, RESILIENCE_METRICS
from repro.obs.registry import MetricsRegistry
from repro.optimizer.optimizer import referenced_columns
from repro.resilience.breaker import BreakerState, CircuitBreaker
from repro.resilience.errors import WhatIfProbeError

if TYPE_CHECKING:
    from repro.core.clustering import Cluster
    from repro.core.config import ColtConfig
    from repro.core.self_organizer import IndexRecord  # that module imports this one
    from repro.engine.catalog import Catalog
    from repro.engine.index import IndexDef
    from repro.optimizer.whatif import WhatIfOptimizer, WhatIfSession
    from repro.sql.ast import Query

# Canonical order of an index set: by name, which is what ``str`` gives.
_name = operator.attrgetter("name")

# The epoch summary of an index no query was exposed to.
_UNEXPOSED = (0.0, 0.0, 0)


class PairStats:
    """Gain statistics for one (index, cluster) pair.

    Attributes:
        gain: Confidence-interval accumulator over measured gains.
        signature: The materialized indexes, restricted to columns the
            cluster's queries reference, at measurement time.  Gains are
            only comparable while this local configuration is unchanged
            (the §4.1 consistency rule); a mismatch invalidates the
            samples.
    """

    __slots__ = ("gain", "signature")

    def __init__(self, confidence: float, signature: FrozenSet[IndexDef]) -> None:
        self.gain = GainStats(confidence)
        self.signature = signature


@dataclasses.dataclass
class ProfileOutcome:
    """What the profiler did for one query (for traces and tests)."""

    cluster: Cluster
    probed: List[IndexDef]
    gains: Dict[IndexDef, float]


class ProfilerBase:
    """What the tuning loop reaches through ``tuner.profiler`` on any engine.

    The fleet, fault injection, snapshots and
    :class:`~repro.core.loop.TuningLoop` itself rely on exactly this
    surface: the circuit breaker every probe runs behind (with its
    transition metric), the candidate tracker, the gain cache's
    structural-zero rule (whose metric families register even when it is
    disabled, so the observability contract holds for every engine) and
    the per-epoch probe accounting.
    """

    def __init__(
        self,
        catalog: Catalog,
        config,
        breaker: Optional[CircuitBreaker],
        registry: Optional[MetricsRegistry],
        gain_cache: bool,
    ) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        self.breaker = breaker or CircuitBreaker()
        transitions = RESILIENCE_METRICS["breaker_transitions_total"].build(self.registry)
        self.breaker.add_listener(
            lambda origin, to: transitions.inc(1, from_state=origin, to_state=to)
        )
        self.gain_cache = GainCache(enabled=gain_cache, registry=self.registry)
        self.candidates = CandidateTracker(
            catalog,
            config.history_epochs,
            config.smoothing,
            composite=config.composite_candidates,
        )
        self.probe_failures = 0
        self.whatif_used = 0
        self.whatif_budget = 0


class Profiler(ProfilerBase):
    """Implements the profiling algorithm of Figure 2."""

    def __init__(
        self,
        catalog: Catalog,
        whatif: WhatIfOptimizer,
        config: ColtConfig,
        breaker: Optional[CircuitBreaker] = None,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        super().__init__(catalog, config, breaker, registry, gain_cache=config.gain_cache)
        self._catalog = catalog
        self._whatif = whatif
        self._config = config
        self.degraded_queries = 0
        self._m_probes = PROFILER_METRICS["profiler_probes_total"].build(self.registry)
        self._m_spent = PROFILER_METRICS["profiler_whatif_spent_total"].build(self.registry)
        clusters = PROFILER_METRICS["profiler_clusters"].build(self.registry)
        # H moves at epoch boundaries: its name-ordered list is held
        # beside a frozen copy and sorted again only when they differ.
        self._hot_held: FrozenSet[IndexDef] = frozenset()
        self._hot_ordered: List[IndexDef] = []
        self._rng = random.Random(config.seed)
        self.clusters = ClusterStore(catalog, config.history_epochs)
        # The gauge is as of the last profiled query, read when it is read.
        clusters.set_function(self.clusters.live_at_last_assign)
        self._pairs: Dict[Tuple[IndexDef, int], PairStats] = {}
        # Per-epoch bookkeeping, keyed by index then cluster id.
        self._epoch_measured: Dict[IndexDef, Dict[int, List[float]]] = {}
        self._epoch_exposure: Dict[IndexDef, Dict[int, int]] = {}
        self.whatif_budget = config.max_whatif_per_epoch

    # ------------------------------------------------------------------
    # Per-query profiling
    # ------------------------------------------------------------------
    def profile_query(
        self,
        query: Query,
        session: WhatIfSession,
        hot: Iterable[IndexDef],
        materialized: Iterable[IndexDef],
    ) -> ProfileOutcome:
        """Run one invocation of PROFILE QUERY (Figure 2).

        Args:
            query: The current bound query.
            session: The what-if session opened by the normal
                optimization of the query.
            hot: The current hot set ``H``.
            materialized: The current materialized set ``M``.

        Returns:
            The profiling outcome (cluster, probed indexes, gains).
        """
        self.breaker.tick()
        cluster = self.clusters.assign(query, session.cache)
        used = session.base.indexes_used

        mat_used, hot_relevant = self._pool(cluster, used, hot, materialized)

        # Exposure counts: every query in the cluster contributes to the
        # denominator of Benefit_H for relevant hot indexes; materialized
        # indexes accrue exposure only when the plan uses them (§4.1,
        # QueryGain_M tracks positive benefit on use).
        for index in hot_relevant:
            self._bump_exposure(index, cluster)
        for index in mat_used:
            self._bump_exposure(index, cluster)

        probation: List[IndexDef] = []
        budget_cap = self.effective_budget
        # Shorter than 2 there is nothing to shuffle and nothing is drawn.
        if len(mat_used) > 1:
            self._rng.shuffle(mat_used)
        if len(hot_relevant) > 1:
            self._rng.shuffle(hot_relevant)
        for index in mat_used + hot_relevant:
            if self.whatif_used + len(probation) >= budget_cap:
                break
            if self._rng.random() < self._sample_rate(index, cluster):
                probation.append(index)
        if not self.breaker.is_closed and budget_cap == 0:
            self.degraded_queries += 1

        # Probe one index per what-if call so a single failed call loses
        # only its own gain; each failure feeds the circuit breaker, and
        # successful probes keep (or win back) full profiling.
        #
        # Structural zeros are served *before* the breaker gate (a hit
        # needs no extended-optimizer call, so it stays available in
        # degraded mode) but still consume one budget unit: the probation
        # set was admitted under #WI_lim, and charging hits keeps the
        # sampling stream identical to a cache-off run -- the invariant
        # the differential harness pins.  Only the ledger-visible call is
        # saved (no call_count, no whatif_call_cost).
        referenced = referenced_columns(query) if self.gain_cache.enabled else None
        gains: Dict[IndexDef, float] = {}
        for index in probation:
            if referenced is not None:
                cached = self.gain_cache.lookup(referenced, index)
                if cached is not None:
                    self.whatif_used += 1
                    self._m_spent.inc()
                    gains[index] = cached
                    self._record_gain(index, cluster, cached)
                    continue
            if not self.breaker.allows_probes():
                break  # tripped mid-query: stop probing immediately
            self.whatif_used += 1
            self._m_probes.inc()
            self._m_spent.inc()
            try:
                probe = self._whatif.what_if_optimize(session, [index])
            except WhatIfProbeError as exc:
                self.probe_failures += 1
                self.breaker.record_failure()
                # Gains measured before the failing probe in the same
                # batch were paid for and are exact -- consume them
                # instead of discarding and re-probing.  (Single-index
                # probes, the loop above, carry an empty dict.)
                for ix, gain in exc.partial_gains.items():
                    gains[ix] = gain
                    self._record_gain(ix, cluster, gain)
                continue
            self.breaker.record_success()
            for ix, gain in probe.items():
                gains[ix] = gain
                self._record_gain(ix, cluster, gain)

        # Lines 13-14: crude benefit updates for every relevant candidate.
        self.candidates.observe_query(query, used, materialized, session.cache)
        return ProfileOutcome(cluster=cluster, probed=probation, gains=gains)

    def _pool(
        self, cluster: Cluster, used: FrozenSet[IndexDef], hot, materialized
    ) -> Tuple[List[IndexDef], List[IndexDef]]:
        """``I_M`` and ``I_H`` (Figure 2, lines 3-4), each in name order.

        Canonical order before the seeded shuffle: iterating the caller's
        sets would make probation -- and thus the whole run -- vary with
        hash randomization.  ``I_M`` is sorted from its small side (a
        plan uses an index or two; set intersection reads stored hashes).
        The held order of ``H`` is validated by content, ``hot ==
        held``, because its owners rebind and mutate the live set.
        """
        hits = used.intersection(materialized)
        mat_used = sorted(hits, key=_name) if len(hits) > 1 else list(hits)
        if hot != self._hot_held:
            self._hot_held = frozenset(hot)
            self._hot_ordered = sorted(hot, key=_name)
        return mat_used, [ix for ix in self._hot_ordered if cluster.is_relevant(ix)]

    # ------------------------------------------------------------------
    # Epoch roll-over
    # ------------------------------------------------------------------
    def end_epoch(self, tracked: Iterable[IndexRecord]) -> None:
        """Summarize the epoch and reset per-epoch state.

        Args:
            tracked: The Self-Organizer's records of ``H ∪ M``, in name
                order; each one's ``epoch`` is set to the epoch's
                ``(low, high, measured)`` -- conservative and optimistic
                per-query benefit and the number of what-if measurements
                behind them.
        """
        w = self._config.epoch_length
        epoch_measured, epoch_exposure = self._epoch_measured, self._epoch_exposure
        for rec in tracked:
            index = rec.index
            exposure = epoch_exposure.get(index)
            if not exposure:  # no query met the index: 0.0 / w, twice
                rec.epoch = _UNEXPOSED
                continue
            measured = epoch_measured.get(index)
            low_total = 0.0
            high_total = 0.0
            n_measured = 0
            any_unmeasured_pair = False
            for cid, count in exposure.items():
                samples = measured.get(cid, ()) if measured is not None else ()
                n = len(samples)
                n_measured += n
                pair = self._valid_pair(index, cid)
                if pair is not None and pair.gain.count > 0:
                    low_bound, high_bound = pair.gain.interval()
                else:
                    low_bound = high_bound = 0.0
                    any_unmeasured_pair = True
                unmeasured = max(0, count - n)
                sampled = sum(samples)
                low_total += sampled + unmeasured * low_bound
                high_total += sampled + unmeasured * high_bound
            low = low_total / w
            high = high_total / w
            if any_unmeasured_pair:
                # Never-profiled exposure: the optimistic view falls back
                # to the crude (optimistic by construction) estimate.
                crude = self._crude_epoch_benefit(index)
                high = max(high, crude)
            rec.epoch = (low, max(high, low), n_measured)

        self._epoch_measured.clear()
        self._epoch_exposure.clear()
        self.candidates.roll_epoch(w)
        self.clusters.roll_epoch()
        self.whatif_used = 0

    def set_budget(self, budget: int) -> None:
        """Install the next epoch's what-if budget ``#WI_lim``."""
        self.whatif_budget = max(0, min(budget, self._config.max_whatif_per_epoch))

    @property
    def effective_budget(self) -> int:
        """The what-if budget actually enforceable right now.

        The circuit breaker degrades two-level profiling to crude-only
        when the what-if interface is failing: OPEN suspends probing
        entirely (effective budget 0 regardless of the granted
        ``#WI_lim``), HALF_OPEN lets a small probe trickle through to
        test recovery, and CLOSED restores the full granted budget.
        """
        if self.breaker.state is BreakerState.OPEN:
            return 0
        if self.breaker.state is BreakerState.HALF_OPEN:
            return min(
                self.whatif_budget,
                self.whatif_used + self.breaker.half_open_budget,
            )
        return self.whatif_budget

    # ------------------------------------------------------------------
    # Consistency maintenance
    # ------------------------------------------------------------------
    def purge_stale(self) -> None:
        """Drop measurements whose configuration signature went stale.

        Called after the materialized set changes.  Only pairs whose
        *cluster* references a changed column are affected -- an index's
        measured gain for a cluster cannot change unless the availability
        of an index on one of the cluster's referenced columns changed.
        Pairs for evicted clusters are dropped too.
        """
        for (index, cid), pair in list(self._pairs.items()):
            if not self.clusters.has_id(cid):
                del self._pairs[(index, cid)]
                continue
            cluster = self.clusters.by_id(cid)
            if pair.signature != self._cluster_signature(cluster):
                del self._pairs[(index, cid)]

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _cluster_signature(self, cluster: Cluster) -> FrozenSet[IndexDef]:
        """Materialized indexes on columns the cluster references, evaluated
        once per catalog generation (any materialization change bumps it)."""
        generation = self._catalog.generation
        held = cluster.signature
        if held is None or held[0] != generation:
            referenced = cluster.referenced_columns()
            signature = frozenset(
                ix
                for ix in self._catalog.materialized_indexes()
                if any((ix.table, col) in referenced for col in ix.columns)
            )
            held = cluster.signature = (generation, signature)
        return held[1]

    def _valid_pair(self, index: IndexDef, cluster_id: int) -> Optional[PairStats]:
        """The pair stats for (index, cluster), if current and consistent."""
        pair = self._pairs.get((index, cluster_id))
        if pair is None or not self.clusters.has_id(cluster_id):
            return pair
        cluster = self.clusters.by_id(cluster_id)
        if pair.signature != self._cluster_signature(cluster):
            return None
        return pair

    def _pair(self, index: IndexDef, cluster: Cluster) -> PairStats:
        key = (index, cluster.cluster_id)
        signature = self._cluster_signature(cluster)
        pair = self._pairs.get(key)
        if pair is None or pair.signature != signature:
            pair = PairStats(self._config.confidence, signature)
            self._pairs[key] = pair
        return pair

    def _bump_exposure(self, index: IndexDef, cluster: Cluster) -> None:
        per_cluster = self._epoch_exposure.setdefault(index, {})
        per_cluster[cluster.cluster_id] = per_cluster.get(cluster.cluster_id, 0) + 1

    def _record_gain(self, index: IndexDef, cluster: Cluster, gain: float) -> None:
        self._pair(index, cluster).gain.add(gain)
        per_cluster = self._epoch_measured.setdefault(index, {})
        per_cluster.setdefault(cluster.cluster_id, []).append(gain)

    def _sample_rate(self, index: IndexDef, cluster: Cluster) -> float:
        """``GetSampleRate``: error-contribution-proportional sampling.

        The error contribution of a pair grows with the cluster's
        popularity and the gain variance, and shrinks with the number of
        samples; unprofiled pairs are sampled with certainty.
        """
        pair = self._valid_pair(index, cluster.cluster_id)
        if pair is None or pair.gain.count < 3:
            # Too few samples for the CLT interval to mean anything:
            # profile with certainty until a baseline exists.
            return 1.0
        total = max(1, self.clusters.total_count())
        popularity = cluster.count() / total
        rate = 8.0 * popularity * pair.gain.relative_uncertainty()
        return min(1.0, max(0.05, rate))

    def _crude_epoch_benefit(self, index: IndexDef) -> float:
        stats = self.candidates.stats_for(index)
        if stats is None:
            return 0.0
        return stats.epoch_gain / self._config.epoch_length

    def interval_for(
        self, index: IndexDef, cluster_id: int
    ) -> Optional[Tuple[float, float]]:
        """The (low, high) gain interval for a pair, if it has samples."""
        pair = self._valid_pair(index, cluster_id)
        if pair is None or pair.gain.count == 0:
            return None
        return pair.gain.interval()
