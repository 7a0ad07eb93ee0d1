"""Divergent-design fleet co-tuning: partition -> specialize -> route.

The fleet layer (PR 2) lets replica configurations drift apart, but the
Jaccard divergence it reports is passive: nothing *steers* the fleet
toward a divergent design.  This module closes that loop with a
cluster-and-tune iteration run at fleet epoch boundaries:

1. **Partition** the observed query stream by similarity over
   *relevant-index signatures* -- the ``(table, column)`` footprint a
   query's selection and join predicates expose to the candidate space,
   i.e. the pure predicate of ``Optimizer.relevant_config`` applied to
   the full index space.  Signatures are aggregated per epoch (order
   within an epoch cannot matter) and assigned to replicas greedily by
   Jaccard similarity against each replica's partition profile, with a
   load penalty so no replica starves.  Existing assignments are sticky:
   the greedy pass only places *new* signatures and signatures whose
   replica left the active set.
2. **Specialize** each replica toward its partition: at every boundary
   the controller pushes advisory soft preferences (the partition's
   index footprint, weighted) down to the replica's tuner as
   ``"advisory"`` rulings, which the close merges with every other
   stage's (pins, bans and DBA preferences win -- see
   :func:`repro.core.knapsack.constraints_from`) and which bias the
   knapsack; the same footprint seeds the replica's candidate
   tracker so freshly migrated partitions are minable immediately.
3. **Route** every arriving query to its partition's replica (a pure
   dictionary lookup, overriding the base router mid-epoch), and
   *refine* the partition map with budgeted what-if probes at
   boundaries: one stored representative query per signature is priced
   on every active replica through ``replica.probe_cost`` (the existing
   ``Backend.get_cost`` path), and a signature migrates only when the
   cheapest replica undercuts its current home by more than the
   **hysteresis band** -- drift cannot thrash the map.  The probe
   budget self-regulates like COLT's ``#WI_lim``: migrations re-grant
   the full budget, quiet boundaries halve it toward a floor.
4. **Iterate** until fleet-wide observed cost stops improving:
   ``patience`` boundaries without improvement freeze refinement
   (convergence); a new signature, a drain, or a cost regression past
   the hysteresis band resumes it.

Everything here is deterministic -- no RNG, no hash-order dependence --
so a co-tuned fleet reproduces bit-identically across processes, which
is what lets the multiprocess fleet (PR 9) co-tune under the
serial-order parity contract: the controller lives in the parent,
routes parent-side, and probes/advises only at chunk boundaries.
"""

from __future__ import annotations

import dataclasses
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.core.gaincache import query_signature
from repro.fleet.replica import resolve_advisory  # re-exported: replicas decode advisories
from repro.fleet.router import DEFAULT_PROBE_BUDGET, MIN_PROBE_BUDGET

if TYPE_CHECKING:
    from repro.engine.catalog import Catalog
    from repro.sql.ast import Query

__all__ = [
    "CotuneConfig",
    "CotuneController",
    "CotuneReport",
    "assign_partitions",
    "partition_signature",
    "resolve_advisory",
    "signature_label",
]

#: One partition signature: the (table, column) pairs a query exposes.
Signature = FrozenSet[Tuple[str, str]]

#: Similarity bonus for a signature's previous home (greedy pass only).
_STICKINESS = 0.25


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


def partition_signature(query: Query, catalog: Catalog) -> Signature:
    """The relevant-index footprint of one bound query.

    The pure predicate of ``Optimizer.relevant_config`` applied to the
    *full* candidate space: every ``(table, column)`` referenced by a
    selection or join predicate, restricted to the query's own tables
    and to columns the catalog can index.  Queries over unknown tables
    (or with no indexable references) yield the empty signature, which
    the controller never partitions -- they fall through to the base
    router.
    """
    tables = set(query.tables)
    pairs = set()
    for ref in query.selection_columns() + query.join_columns():
        if ref.table not in tables or not catalog.has_table(ref.table):
            continue
        tdef = catalog.table(ref.table)
        if not tdef.has_column(ref.column):
            continue
        if not tdef.column(ref.column).indexable:
            continue
        pairs.add((ref.table, ref.column))
    return frozenset(pairs)


def signature_label(signature: Signature) -> str:
    """Stable human/JSON-readable form of a signature."""
    return "+".join(f"{t}.{c}" for t, c in sorted(signature))


def _canon(signature: Signature) -> Tuple[Tuple[str, str], ...]:
    return tuple(sorted(signature))


def assign_partitions(
    weights: Dict[Signature, float],
    previous: Dict[Signature, int],
    active: Sequence[int],
) -> Dict[Signature, int]:
    """Deterministically partition signatures across active replicas.

    Existing assignments whose replica is still active are kept
    verbatim (stickiness is what lets replicas specialize; migration of
    *assigned* signatures is the probe-refinement loop's job, gated by
    hysteresis).  Unplaced signatures -- new ones, and those orphaned
    by a drain -- are placed greedily in descending weight order onto
    the replica with the most similar partition profile (Jaccard over
    the union of assigned footprints), with a stickiness bonus for the
    previous home and a load penalty keeping partitions balanced.
    Finally, while any active replica owns no signature and another
    owns at least two, the lightest signature of the most-loaded
    replica moves over -- no partition is ever empty while its replica
    is active (given enough signatures to go around).

    Pure and deterministic: output depends only on the (aggregated)
    ``weights``, ``previous`` and ``active`` values -- never on dict
    iteration order, hash seed, or any RNG -- and every input signature
    appears in the output exactly once (reassignment is a permutation).
    """
    ids = sorted(set(active))
    if not ids:
        return {}
    assignment: Dict[Signature, int] = {}
    profiles: Dict[int, set] = {r: set() for r in ids}
    loads: Dict[int, float] = {r: 0.0 for r in ids}
    order = sorted(weights, key=lambda s: (-weights[s], _canon(s)))

    pending: List[Signature] = []
    for sig in order:
        home = previous.get(sig)
        if home in profiles:
            assignment[sig] = home
            profiles[home] |= sig
            loads[home] += weights[sig]
        else:
            pending.append(sig)

    total = sum(weights.values())
    fair = total / len(ids) if total > 0 else 1.0
    for sig in pending:
        best_id = ids[0]
        best_score = None
        for r in ids:
            profile = profiles[r]
            union = len(profile | sig)
            similarity = len(profile & sig) / union if union else 0.0
            score = similarity - loads[r] / fair
            if previous.get(sig) == r:
                score += _STICKINESS
            if best_score is None or score > best_score:
                best_score = score
                best_id = r
        assignment[sig] = best_id
        profiles[best_id] |= sig
        loads[best_id] += weights[sig]

    # Forced fill: an active replica with an empty partition would sit
    # idle under partition routing.  Move the lightest signature off
    # the most-populated replica until every active replica owns one
    # (or signatures run out).
    counts = {r: 0 for r in ids}
    for r in assignment.values():
        counts[r] += 1
    while True:
        empty = [r for r in ids if counts[r] == 0]
        donors = [r for r in ids if counts[r] >= 2]
        if not empty or not donors:
            break
        target = empty[0]
        donor = max(donors, key=lambda r: (counts[r], -r))
        movable = [s for s, r in assignment.items() if r == donor]
        sig = min(movable, key=lambda s: (weights[s], _canon(s)))
        assignment[sig] = target
        counts[donor] -= 1
        counts[target] += 1
    return assignment


@dataclasses.dataclass(frozen=True)
class CotuneConfig:
    """Knobs of the co-tuning loop.

    Attributes:
        hysteresis: Relative cost improvement a migration must clear --
            a signature moves only when the cheapest other replica
            prices its representative below ``current * (1 -
            hysteresis)``.  The anti-thrash band.
        probe_budget: Maximum what-if probes per fleet boundary for
            partition refinement (self-regulating, ``#WI_lim``-style).
        min_probe_budget: Floor the self-regulating budget never decays
            below.
        patience: Fleet boundaries without observed-cost improvement
            before refinement freezes (convergence).
        preference_weight: Knapsack value multiplier advised for a
            partition's index footprint (> 1 biases toward it).
        decay: Per-boundary exponential decay of signature weights --
            how fast the partitioner forgets a shifted-away workload.
    """

    hysteresis: float = 0.1
    probe_budget: int = DEFAULT_PROBE_BUDGET
    min_probe_budget: int = MIN_PROBE_BUDGET
    patience: int = 3
    preference_weight: float = 2.0
    decay: float = 0.5

    def __post_init__(self) -> None:
        if not 0.0 <= self.hysteresis < 1.0:
            raise ValueError("hysteresis must be in [0, 1)")
        if self.probe_budget < 1:
            raise ValueError("probe_budget must be positive")
        if not 1 <= self.min_probe_budget <= self.probe_budget:
            raise ValueError(
                "min_probe_budget must be in [1, probe_budget]"
            )
        if self.patience < 1:
            raise ValueError("patience must be positive")
        if self.preference_weight <= 0.0:
            raise ValueError("preference_weight must be positive")
        if not 0.0 <= self.decay < 1.0:
            raise ValueError("decay must be in [0, 1)")

    def to_dict(self) -> Dict:
        """JSON-compatible serialization."""
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: Dict) -> "CotuneConfig":
        """Inverse of :meth:`to_dict`."""
        return cls(**data)


@dataclasses.dataclass
class CotuneReport:
    """What the co-tuning pass did at one fleet boundary.

    Attributes:
        epoch: 0-based co-tuning boundary number.
        signatures: Partition signatures currently tracked.
        partitions: Active replicas owning at least one signature.
        assigned: Signatures newly placed by the greedy pass (new or
            orphaned by a drain).
        migrations: Signatures moved by probe refinement (hysteresis
            cleared).
        forced_moves: Signatures moved off inactive replicas or by the
            empty-partition fill.
        probes: What-if probes spent on refinement this boundary.
        probe_cost: Cost units charged for those probes.
        probe_budget: Budget granted for the *next* boundary.
        cost_per_query: Mean observed fleet cost per query this epoch
            (the convergence objective; 0 when the epoch saw none).
        cost_delta: Relative change of ``cost_per_query`` against the
            previous boundary (negative is improvement; 0 on the
            first).
        converged: Whether refinement is frozen after this boundary.
        partition_sizes: ``replica id -> signatures assigned``.
    """

    epoch: int
    signatures: int
    partitions: int
    assigned: int
    migrations: int
    forced_moves: int
    probes: int
    probe_cost: float
    probe_budget: int
    cost_per_query: float
    cost_delta: float
    converged: bool
    partition_sizes: Dict[int, int]


class CotuneController:
    """The fleet's partition-specialize-route state machine.

    Owned by the coordinator (serial or multiprocess); all state lives
    parent-side.  Per arriving query the coordinator calls
    :meth:`admit`; per fleet boundary it calls :meth:`end_epoch` with
    the active replica set, the epoch's observed cost, and a probe
    callback, then pushes :meth:`advisory_payloads` down to the
    replicas.

    Args:
        n_replicas: Fleet size.
        catalog: The routing catalog (signature computation only).
        config: Co-tuning knobs.
        whatif_call_cost: Cost units charged per refinement probe.
    """

    def __init__(
        self,
        n_replicas: int,
        catalog: Catalog,
        config: Optional[CotuneConfig] = None,
        whatif_call_cost: float = 1.0,
    ) -> None:
        if n_replicas < 1:
            raise ValueError("n_replicas must be positive")
        self.n_replicas = n_replicas
        self.config = config or CotuneConfig()
        self._catalog = catalog
        self._whatif_call_cost = whatif_call_cost
        self._interner = SignatureInterner()
        self._psig_memo: Dict[int, Signature] = {}
        self.assignment: Dict[Signature, int] = {}
        self.weights: Dict[Signature, float] = {}
        self._epoch_counts: Dict[Signature, int] = {}
        self._representatives: Dict[Signature, Query] = {}
        # sig -> {replica: count}: where the base policy routed not-yet
        # partitioned signatures this epoch (greedy placement hints).
        self._fallback: Dict[Signature, Dict[int, int]] = {}
        self.probe_budget = self.config.probe_budget
        self.converged = False
        self._stall = 0
        self._best_cost: Optional[float] = None
        self._last_cost: Optional[float] = None
        self.epochs = 0
        self.migrations_total = 0
        self.history: List[Dict] = []

    # ------------------------------------------------------------------
    def signature_of(self, query: Query) -> Signature:
        """Memoized partition signature of one query."""
        _, sig_index = self._interner.signature_index(query)
        cached = self._psig_memo.get(sig_index)
        if cached is None:
            cached = partition_signature(query, self._catalog)
            self._psig_memo[sig_index] = cached
        return cached

    def admit(self, query: Query, drained: Iterable[int]) -> Optional[int]:
        """Observe one arrival; return its partition's replica, if any.

        Updates the signature's epoch count and representative, then
        answers the routing question: the assigned replica when the
        signature is partitioned and its replica is not drained, else
        None (the caller falls back to the base router).  A dictionary
        lookup -- no probes are ever spent mid-epoch.
        """
        signature = self.signature_of(query)
        if not signature:
            return None
        self._epoch_counts[signature] = (
            self._epoch_counts.get(signature, 0) + 1
        )
        self._representatives[signature] = query
        replica = self.assignment.get(signature)
        if replica is None or replica in set(drained):
            return None
        return replica

    def note_fallback(self, query: Query, replica_id: int) -> None:
        """Record where the base policy routed an unpartitioned query.

        The greedy pass uses these counts as placement hints: a new
        signature is first placed where the incumbent policy already
        sent most of its traffic, so enabling co-tuning inherits the
        running layout (and its accumulated profiling) instead of
        reshuffling it -- migration away from the inherited home is
        probe refinement's job, gated by hysteresis.
        """
        signature = self.signature_of(query)
        if not signature:
            return
        per_replica = self._fallback.setdefault(signature, {})
        per_replica[replica_id] = per_replica.get(replica_id, 0) + 1

    # ------------------------------------------------------------------
    def end_epoch(
        self,
        active: Sequence[int],
        cost_per_query: float,
        epoch_queries: int,
        probe_costs: Callable[
            [List[Query], List[int]], Dict[int, List[float]]
        ],
    ) -> CotuneReport:
        """Run one partition-specialize-route iteration.

        Args:
            active: Replica ids currently accepting traffic.
            cost_per_query: Mean observed fleet cost per query over the
                closing epoch (the convergence objective).
            epoch_queries: Arrivals the closing epoch saw (0 skips the
                convergence update -- an operator-triggered boundary).
            probe_costs: Callback pricing a batch of representative
                queries on a set of replicas; returns ``{replica id:
                [cost per query]}`` and may omit unreachable replicas.

        Returns:
            The boundary's :class:`CotuneReport` (also appended to
            :attr:`history` in serialized form).
        """
        cfg = self.config
        active_ids = sorted(set(active)) or list(range(self.n_replicas))

        # 1. Fold the epoch's counts into the decayed weights.
        new_signatures = False
        for sig in list(self.weights):
            self.weights[sig] *= cfg.decay
        for sig, count in self._epoch_counts.items():
            if sig not in self.assignment:
                new_signatures = True
            self.weights[sig] = self.weights.get(sig, 0.0) + float(count)
        self._epoch_counts = {}
        # Evict signatures that decayed to noise and are unassigned --
        # assigned ones keep their partition until a drain or probe
        # moves them (stickiness).
        for sig in sorted(self.weights, key=_canon):
            if self.weights[sig] < 1e-9 and sig not in self.assignment:
                del self.weights[sig]
                self._representatives.pop(sig, None)

        # 2. Resume refinement on drift: fresh work, a drain that
        # orphaned a partition, or an observed-cost regression past the
        # hysteresis band all un-freeze a converged controller.
        orphaned = any(
            r not in active_ids for r in self.assignment.values()
        )
        regressed = (
            self._best_cost is not None
            and epoch_queries > 0
            and cost_per_query
            > self._best_cost * (1.0 + cfg.hysteresis)
        )
        if self.converged and (new_signatures or orphaned or regressed):
            self.converged = False
            self._stall = 0

        # 3. Partition: keep sticky assignments, place the rest where
        # the base policy was already sending them (fallback hints),
        # falling back to greedy similarity placement.
        before = dict(self.assignment)
        hinted = dict(self.assignment)
        for sig in sorted(self._fallback, key=_canon):
            if sig in hinted or sig not in self.weights:
                continue
            counts = self._fallback[sig]
            hint = max(
                sorted(counts), key=lambda r: counts[r]
            )  # ties break toward the smallest replica id
            if hint in active_ids:
                hinted[sig] = hint
        self._fallback = {}
        self.assignment = assign_partitions(
            self.weights, hinted, active_ids
        )
        forced_moves = sum(
            1
            for sig, r in self.assignment.items()
            if sig in before and before[sig] != r
        )
        assigned = sum(1 for sig in self.assignment if sig not in before)

        # 4. Refine: budgeted what-if probes over representatives, in
        # descending weight order, with the hysteresis band deciding
        # migration.  Frozen controllers spend nothing.
        probes = 0
        migrations = 0
        if not self.converged and len(active_ids) > 1:
            order = [
                sig
                for sig in sorted(
                    self.assignment,
                    key=lambda s: (-self.weights.get(s, 0.0), _canon(s)),
                )
                if sig in self._representatives
            ]
            batch: List[Signature] = []
            for sig in order:
                if (probes + (len(batch) + 1) * len(active_ids)
                        > self.probe_budget):
                    break
                batch.append(sig)
            if batch:
                queries = [self._representatives[sig] for sig in batch]
                costs = probe_costs(queries, active_ids)
                probed = sorted(costs)
                probes = len(batch) * len(probed)
                for i, sig in enumerate(batch):
                    home = self.assignment[sig]
                    if home not in costs:
                        continue
                    current = costs[home][i]
                    best_id, best_cost = home, current
                    for r in probed:
                        if costs[r][i] < best_cost:
                            best_id, best_cost = r, costs[r][i]
                    if (
                        best_id != home
                        and best_cost
                        < current * (1.0 - cfg.hysteresis)
                    ):
                        self.assignment[sig] = best_id
                        migrations += 1

        # 5. Convergence: freeze after `patience` boundaries without
        # fleet-cost improvement.
        cost_delta = 0.0
        if epoch_queries > 0:
            if self._last_cost is not None and self._last_cost > 0.0:
                cost_delta = (
                    cost_per_query - self._last_cost
                ) / self._last_cost
            self._last_cost = cost_per_query
            if (
                self._best_cost is None
                or cost_per_query < self._best_cost * (1.0 - 1e-9)
            ):
                self._best_cost = cost_per_query
                self._stall = 0
            else:
                self._stall += 1
            if self._stall >= cfg.patience and not migrations:
                self.converged = True

        # 6. Self-regulating probe budget, mirroring #WI_lim: movement
        # re-grants the maximum, quiet boundaries halve toward a floor.
        if migrations or assigned or forced_moves:
            self.probe_budget = cfg.probe_budget
        else:
            self.probe_budget = max(
                cfg.min_probe_budget, self.probe_budget // 2
            )

        self.migrations_total += migrations + forced_moves
        partition_sizes: Dict[int, int] = {r: 0 for r in active_ids}
        for r in self.assignment.values():
            partition_sizes[r] = partition_sizes.get(r, 0) + 1
        report = CotuneReport(
            epoch=self.epochs,
            signatures=len(self.assignment),
            partitions=sum(1 for n in partition_sizes.values() if n > 0),
            assigned=assigned,
            migrations=migrations,
            forced_moves=forced_moves,
            probes=probes,
            probe_cost=probes * self._whatif_call_cost,
            probe_budget=self.probe_budget,
            cost_per_query=cost_per_query,
            cost_delta=cost_delta,
            converged=self.converged,
            partition_sizes=partition_sizes,
        )
        self.epochs += 1
        self.history.append(
            {
                "epoch": report.epoch,
                "assignment": {
                    signature_label(sig): r
                    for sig, r in sorted(
                        self.assignment.items(), key=lambda kv: _canon(kv[0])
                    )
                },
                "assigned": assigned,
                "migrations": migrations,
                "forced_moves": forced_moves,
                "probes": probes,
                "cost_per_query": cost_per_query,
                "converged": self.converged,
            }
        )
        return report

    def set_whatif_call_cost(self, cost: float) -> None:
        """Install the fleet config's per-probe charge."""
        self._whatif_call_cost = cost

    # ------------------------------------------------------------------
    def advisory_payloads(
        self,
    ) -> Dict[int, List[Tuple[str, List[str], float]]]:
        """Per-replica advisory preferences for the current partition.

        Each replica is advised to prefer (knapsack value multiplier
        ``preference_weight``) the single-column indexes covering its
        partition's footprint.  The wire format is
        ``(table, [column], weight)`` tuples -- resolved against each
        replica's own catalog by :func:`resolve_advisory` -- sorted for
        cross-process determinism.  Replicas whose partition is empty
        get an explicit empty list, clearing stale advice.
        """
        footprints: Dict[int, set] = {}
        for sig, replica in self.assignment.items():
            footprints.setdefault(replica, set()).update(sig)
        payloads: Dict[int, List[Tuple[str, List[str], float]]] = {}
        for replica in range(self.n_replicas):
            pairs = sorted(footprints.get(replica, ()))
            payloads[replica] = [
                (table, [column], self.config.preference_weight)
                for table, column in pairs
            ]
        return payloads

    def partition_of(self, replica_id: int) -> List[str]:
        """Signature labels currently assigned to one replica."""
        return sorted(
            signature_label(sig)
            for sig, r in self.assignment.items()
            if r == replica_id
        )

    # ------------------------------------------------------------------
    def to_snapshot(self) -> Dict:
        """JSON-compatible serialization of the co-tuning state.

        Representatives (live query objects) do not serialize; after a
        restore, refinement resumes as new representatives are
        observed.
        """
        return {
            "config": self.config.to_dict(),
            "n_replicas": self.n_replicas,
            "assignment": [
                [list(map(list, _canon(sig))), replica]
                for sig, replica in sorted(
                    self.assignment.items(), key=lambda kv: _canon(kv[0])
                )
            ],
            "weights": [
                [list(map(list, _canon(sig))), weight]
                for sig, weight in sorted(
                    self.weights.items(), key=lambda kv: _canon(kv[0])
                )
            ],
            "probe_budget": self.probe_budget,
            "converged": self.converged,
            "stall": self._stall,
            "best_cost": self._best_cost,
            "last_cost": self._last_cost,
            "epochs": self.epochs,
            "migrations_total": self.migrations_total,
            "history": list(self.history),
        }

    @classmethod
    def from_snapshot(
        cls, data: Dict, catalog: Catalog
    ) -> "CotuneController":
        """Rebuild a controller from :meth:`to_snapshot` output."""

        def _sig(pairs) -> Signature:
            return frozenset((t, c) for t, c in pairs)

        controller = cls(
            int(data["n_replicas"]),
            catalog,
            config=CotuneConfig.from_dict(data["config"]),
        )
        controller.assignment = {
            _sig(pairs): int(replica)
            for pairs, replica in data.get("assignment", [])
        }
        controller.weights = {
            _sig(pairs): float(weight)
            for pairs, weight in data.get("weights", [])
        }
        controller.probe_budget = int(data["probe_budget"])
        controller.converged = bool(data["converged"])
        controller._stall = int(data["stall"])
        controller._best_cost = data.get("best_cost")
        controller._last_cost = data.get("last_cost")
        controller.epochs = int(data["epochs"])
        controller.migrations_total = int(data["migrations_total"])
        controller.history = list(data.get("history", []))
        return controller
