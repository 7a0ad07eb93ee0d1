"""Staged fleet rollout: canary-first materialization of new indexes.

In a replicated fleet, a newly recommended index should not appear on
every replica at once -- if the cost model over-promised, the whole
fleet regresses together.  The :class:`RolloutController` (driven by the
:class:`~repro.fleet.coordinator.FleetCoordinator` at fleet epoch
boundaries) stages each *new* index:

1. **CANARY** -- the first replica to materialize the index keeps it;
   every other replica gets a rollout ban (a ``"rollout"`` ruling pushed
   onto its tuner), so its knapsack cannot select the index yet.
2. The canary's guardrails verify the index against observed cost.
   **VERIFIED** promotes the rollout: bans lift fleet-wide and the
   index joins the baseline.  **REGRESSED** (or quarantine on the
   canary) rolls it back: the ban extends to the whole fleet for a
   cooldown, and each replica's own reorganization drops the index.
3. A canary that drains mid-rollout hands the duty to the lowest-id
   healthy replica still holding the index; with no such holder the
   rollout is cancelled (a later materialization starts a fresh one).

Bans are *recomputed wholesale* every reconcile and pushed with
``push_rulings`` -- idempotent, so restores and replays converge.
"""

from __future__ import annotations

import dataclasses
import enum
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Set

from repro.core.knapsack import Ruling
from repro.engine.index import _by_table
from repro.fleet.replica import ReplicaHealth
from repro.guardrails.verify import Verdict

if TYPE_CHECKING:
    from repro.engine.catalog import Catalog
    from repro.engine.index import IndexDef

#: Fleet epochs a rolled-back index stays banned fleet-wide.
DEFAULT_ROLLBACK_COOLDOWN = 4

class RolloutStage(enum.Enum):
    """Lifecycle stage of one index rollout."""

    CANARY = "canary"
    PROMOTED = "promoted"
    ROLLED_BACK = "rolled_back"


@dataclasses.dataclass
class RolloutRecord:
    """One index's staged-rollout state.

    Attributes:
        index: The index being rolled out.
        stage: Current lifecycle stage.
        canary_id: Replica currently holding canary duty.
        started_epoch: Fleet epoch the rollout started.
        decided_epoch: Fleet epoch of promotion/rollback (None while
            canary).
        cooldown_remaining: Fleet epochs of fleet-wide ban left after a
            rollback.
        reassignments: Times canary duty moved to another replica.
    """

    index: IndexDef
    stage: RolloutStage
    canary_id: int
    started_epoch: int
    decided_epoch: Optional[int] = None
    cooldown_remaining: int = 0
    reassignments: int = 0


@dataclasses.dataclass
class RolloutSummary:
    """What one reconcile pass did (folded into the fleet ledger).

    Attributes:
        started: Indexes that entered the canary stage this pass.
        promoted: Indexes promoted fleet-wide this pass.
        rolled_back: Indexes rolled back this pass.
        cancelled: Indexes whose rollout was cancelled (canary lost the
            index with no healthy successor).
        reassigned: Canary duties moved to another replica this pass.
        active_canaries: Rollouts still in the canary stage afterwards.
    """

    started: List[IndexDef] = dataclasses.field(default_factory=list)
    promoted: List[IndexDef] = dataclasses.field(default_factory=list)
    rolled_back: List[IndexDef] = dataclasses.field(default_factory=list)
    cancelled: List[IndexDef] = dataclasses.field(default_factory=list)
    reassigned: int = 0
    active_canaries: int = 0


class RolloutController:
    """Coordinator-owned state machine staging new-index rollouts.

    Args:
        baseline: Indexes considered already rolled out (the replicas'
            materialized sets at fleet construction) -- these never
            trigger a canary.
        rollback_cooldown: Fleet epochs a rolled-back index stays
            banned before a fresh rollout may start.
    """

    def __init__(
        self,
        baseline: Sequence[IndexDef] = (),
        rollback_cooldown: int = DEFAULT_ROLLBACK_COOLDOWN,
    ) -> None:
        if rollback_cooldown < 1:
            raise ValueError("rollback_cooldown must be positive")
        self.rollback_cooldown = rollback_cooldown
        self._baseline: Set[IndexDef] = set(baseline)
        self._records: Dict[IndexDef, RolloutRecord] = {}
        self._epoch = 0

    # ------------------------------------------------------------------
    @property
    def records(self) -> List[RolloutRecord]:
        """Current rollout records, sorted by table then key columns."""
        return [self._records[ix] for ix in sorted(self._records, key=_by_table)]

    def record_for(self, index: IndexDef) -> Optional[RolloutRecord]:
        """The rollout record tracking an index, if any."""
        return self._records.get(index)

    def stage_for(self, index: IndexDef) -> Optional[RolloutStage]:
        """The index's rollout stage (None: baseline or untracked)."""
        record = self._records.get(index)
        return record.stage if record is not None else None

    # ------------------------------------------------------------------
    def reconcile(self, replicas) -> RolloutSummary:
        """Run one staged-rollout pass over the fleet.

        Args:
            replicas: The fleet's :class:`~repro.fleet.replica.
                TunerReplica` list (guardrail managers are reached via
                ``replica.tuner.guardrails``).

        Returns:
            What changed, for the fleet ledger and metrics.
        """
        self._epoch += 1
        summary = RolloutSummary()
        by_id = {r.replica_id: r for r in replicas}
        healthy = {
            r.replica_id for r in replicas if r.health is not ReplicaHealth.DRAINED
        }
        holders: Dict[IndexDef, List[int]] = {}
        for r in replicas:
            for ix in r.tuner.materialized_set:
                holders.setdefault(ix, []).append(r.replica_id)

        self._tick_cooldowns()
        self._advance_canaries(summary, by_id, healthy, holders)
        self._discover(summary, healthy, holders)
        self._push_bans(replicas)
        summary.active_canaries = sum(
            1 for rec in self._records.values() if rec.stage is RolloutStage.CANARY
        )
        return summary

    def _tick_cooldowns(self) -> None:
        expired = []
        for index, rec in self._records.items():
            if rec.stage is RolloutStage.ROLLED_BACK:
                rec.cooldown_remaining -= 1
                if rec.cooldown_remaining <= 0:
                    # Cooldown served: forget the record so a future
                    # materialization starts a fresh canary rollout.
                    expired.append(index)
        for index in expired:
            del self._records[index]

    def _advance_canaries(
        self,
        summary: RolloutSummary,
        by_id: Dict,
        healthy: Set[int],
        holders: Dict[IndexDef, List[int]],
    ) -> None:
        for rec in self.records:
            if rec.stage is not RolloutStage.CANARY:
                continue
            held_by = holders.get(rec.index, [])
            canary_ok = rec.canary_id in healthy and rec.canary_id in held_by
            if not canary_ok:
                successors = sorted(rid for rid in held_by if rid in healthy)
                if successors:
                    rec.canary_id = successors[0]
                    rec.reassignments += 1
                    summary.reassigned += 1
                else:
                    # Nobody healthy holds the index: cancel outright.
                    del self._records[rec.index]
                    summary.cancelled.append(rec.index)
                    continue
            manager = getattr(by_id[rec.canary_id].tuner, "guardrails", None)
            if manager is None:
                # Canary runs without guardrails: nothing can verify the
                # index, so promotion is the only sane default.
                verdict = Verdict.VERIFIED
            elif rec.index in manager.quarantine:
                verdict = Verdict.REGRESSED
            else:
                verdict = manager.verdict_for(rec.index)
            if verdict is Verdict.VERIFIED:
                rec.stage = RolloutStage.PROMOTED
                rec.decided_epoch = self._epoch
                self._baseline.add(rec.index)
                summary.promoted.append(rec.index)
            elif verdict is Verdict.REGRESSED:
                rec.stage = RolloutStage.ROLLED_BACK
                rec.decided_epoch = self._epoch
                rec.cooldown_remaining = self.rollback_cooldown
                summary.rolled_back.append(rec.index)

    def _discover(
        self,
        summary: RolloutSummary,
        healthy: Set[int],
        holders: Dict[IndexDef, List[int]],
    ) -> None:
        for index in sorted(holders, key=_by_table):
            if index in self._baseline or index in self._records:
                continue
            healthy_holders = sorted(
                rid for rid in holders[index] if rid in healthy
            )
            if not healthy_holders:
                # Only drained replicas hold it: wait for a holder that
                # can actually run canary verification.
                continue
            record = RolloutRecord(
                index=index,
                stage=RolloutStage.CANARY,
                canary_id=healthy_holders[0],
                started_epoch=self._epoch,
            )
            self._records[index] = record
            summary.started.append(index)

    def _push_bans(self, replicas) -> None:
        for r in replicas:
            bans = []
            for rec in self._records.values():
                if (
                    rec.stage is RolloutStage.CANARY
                    and r.replica_id != rec.canary_id
                ):
                    bans.append(Ruling(rec.index, "ban", "rollout", reason="canary"))
                elif (
                    rec.stage is RolloutStage.ROLLED_BACK
                    and rec.cooldown_remaining > 0
                ):
                    bans.append(Ruling(rec.index, "ban", "rollout", reason="rollback"))
            r.tuner.push_rulings("rollout", bans)

    # ------------------------------------------------------------------
    def to_snapshot(self) -> Dict:
        """JSON-compatible serialization of the rollout state."""
        return {
            "epoch": self._epoch,
            "rollback_cooldown": self.rollback_cooldown,
            "baseline": sorted(
                [ix.table, list(ix.columns)] for ix in self._baseline
            ),
            "records": [
                {
                    "table": rec.index.table,
                    "columns": list(rec.index.columns),
                    "stage": rec.stage.value,
                    "canary_id": rec.canary_id,
                    "started_epoch": rec.started_epoch,
                    "decided_epoch": rec.decided_epoch,
                    "cooldown_remaining": rec.cooldown_remaining,
                    "reassignments": rec.reassignments,
                }
                for rec in self.records
            ],
        }

    @classmethod
    def from_snapshot(cls, data: Dict, catalog: Catalog) -> "RolloutController":
        """Rebuild a controller against an equivalent catalog."""
        controller = cls(rollback_cooldown=int(data["rollback_cooldown"]))
        controller._epoch = int(data["epoch"])
        controller._baseline = {
            catalog.composite_index_for(table, columns)
            for table, columns in data.get("baseline", [])
        }
        for raw in data.get("records", []):
            index = catalog.composite_index_for(raw["table"], raw["columns"])
            record = RolloutRecord(
                index=index,
                stage=RolloutStage(raw["stage"]),
                canary_id=int(raw["canary_id"]),
                started_epoch=int(raw["started_epoch"]),
                decided_epoch=(
                    None
                    if raw.get("decided_epoch") is None
                    else int(raw["decided_epoch"])
                ),
                cooldown_remaining=int(raw.get("cooldown_remaining", 0)),
                reassignments=int(raw.get("reassignments", 0)),
            )
            controller._records[index] = record
        return controller
