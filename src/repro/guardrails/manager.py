"""The guardrail manager: verification and quarantine, wired.

One :class:`GuardrailManager` rides along with one tuner.  Per query it
spends a bounded number of verification probes on the materialized
indexes the chosen plan actually used; per epoch it turns REGRESSED
verdicts into quarantine admissions and rules a hard ban on every index
the quarantine holds -- the quarantine stage of the close's ruling
pipeline (:meth:`repro.core.loop.TuningLoop._end_epoch`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Tuple

from repro.core.knapsack import Ruling
from repro.engine.index import _by_table
from repro.guardrails.quarantine import COOLDOWN_EPOCHS, Quarantine, require_stored
from repro.guardrails.verify import (
    MIN_PREDICTED_FRACTION,
    QUARANTINE_RATIO,
    SHADOW_COST_FACTOR,
    VERIFY_WINDOW,
    IndexVerifier,
    PlanCostObserver,
    Verdict,
)
from repro.persist import SnapshotError

if TYPE_CHECKING:
    from repro.engine.catalog import Catalog
    from repro.engine.index import IndexDef
    from repro.guardrails.verify import CostObserver


#: Verification probes per epoch; each is one extra optimizer call plus
#: (with an execution observer) a shadow execution.
PROBES_PER_EPOCH = 4

# The settings a snapshot's ``"config"`` block held before each became a
# constant, at the values they are fixed at.
_STORED_CONFIG = {
    "verify_window": VERIFY_WINDOW,
    "quarantine_ratio": QUARANTINE_RATIO,
    "quarantine_epochs": COOLDOWN_EPOCHS,
    "verify_budget_per_epoch": PROBES_PER_EPOCH,
    "min_predicted_fraction": MIN_PREDICTED_FRACTION,
    "shadow_cost_factor": SHADOW_COST_FACTOR,
}


class GuardrailManager:
    """Per-tuner guardrail state machine.

    Args:
        observer: How observed costs are priced; defaults to
            :class:`~repro.guardrails.verify.PlanCostObserver` (pure
            cost-model mode, decisions provably unchanged).
    """

    def __init__(self, observer: Optional[CostObserver] = None) -> None:
        self.observer = observer or PlanCostObserver()
        self.verifier = IndexVerifier()
        self.quarantine = Quarantine()
        self._epoch_probes = 0
        self._tuner = None
        self._backend = None

    # ------------------------------------------------------------------
    def attach(self, tuner) -> None:
        """Bind to a tuner.

        Called by :class:`~repro.core.loop.TuningLoop` when constructed
        with a guardrail manager.  The tuner's standing rulings (DBA
        advice, pushed rulings) mark the :meth:`audit` rows; the audit and
        the close's rulings are the guardrails' record.
        """
        self._tuner = tuner
        self._backend = tuner.backend

    # ------------------------------------------------------------------
    def observe_query(self, session, materialized: Iterable[IndexDef]) -> Tuple[int, float]:
        """Spend verification probes on the indexes this query's plan used.

        Each probe re-optimizes the query with one used index removed
        (a reverse what-if, sharing the session's plan cache) and asks
        the observer to price both plans.  Probes are bounded by
        :data:`PROBES_PER_EPOCH` and skipped for indexes whose
        verdict is already in.

        Args:
            session: The query's :class:`WhatIfSession` (already holds
                the base optimization).
            materialized: The tuner's current set ``M``.

        Returns:
            (probe count, overhead cost charged) for this query.
        """
        if self._backend is None:
            return 0, 0.0
        mat = frozenset(materialized)
        calls = 0
        charge = 0.0
        for index in sorted(session.base.indexes_used, key=str):
            if self._epoch_probes >= PROBES_PER_EPOCH:
                break
            if index not in mat or not self.verifier.needs_samples(index):
                continue
            without = self._backend.optimize(
                session.query, config=mat - {index}, cache=session.cache
            )
            observation = self.observer.observe(
                session, without.plan, session.base.cost, without.cost
            )
            self.verifier.record(index, observation)
            self._epoch_probes += 1
            calls += 1
            charge += observation.charge
        return calls, charge

    # ------------------------------------------------------------------
    def end_epoch(
        self, materialized: Iterable[IndexDef], epoch: int
    ) -> Tuple[Tuple[Ruling, ...], List[IndexDef], List[IndexDef]]:
        """Advance quarantine clocks, act on fresh verdicts, and rule.

        REGRESSED indexes still in ``M`` (and not pinned by the tuner's
        DBA advice) are admitted to quarantine -- the ban ruled on them
        drops them; parolees that were re-materialized and re-verified
        clean are released.

        Returns:
            (a ``"quarantine"`` ban per index the quarantine holds, the
            indexes admitted this boundary, the indexes released this
            boundary -- parole verified, or expired unused).
        """
        mat = set(materialized)
        released = self.quarantine.tick_epoch(mat)
        quarantined: List[IndexDef] = []
        pinned = {r.index for r in self._tuner.standing_rulings if r.kind == "pin"}
        for state in list(self.verifier.states):
            if state.verdict is not Verdict.REGRESSED:
                continue
            if state.index not in mat or state.index in pinned:
                continue
            self.quarantine.admit(state.index, state.ratio or 0.0)
            self.verifier.reset(state.index)
            quarantined.append(state.index)
        for entry in list(self.quarantine.entries):
            if (
                entry.state == "parole"
                and entry.index in mat
                and self.verifier.verdict_for(entry.index) is Verdict.VERIFIED
            ):
                self.quarantine.clear(entry.index)
                released.append(entry.index)
        self._epoch_probes = 0
        rulings = tuple(
            Ruling(
                entry.index,
                "ban",
                "quarantine",
                reason=f"observed/predicted {entry.ratio:.2f}, strike {entry.strikes}",
                until=epoch + entry.cooldown_left,
            )
            for entry in self.quarantine.entries
            if entry.state == "quarantined"
        )
        return rulings, quarantined, released

    def on_drop(self, indexes: Iterable[IndexDef]) -> None:
        """Forget verification evidence for indexes leaving ``M``."""
        for index in indexes:
            self.verifier.reset(index)

    def verdict_for(self, index: IndexDef) -> Verdict:
        """Current verification verdict for an index."""
        return self.verifier.verdict_for(index)

    # ------------------------------------------------------------------
    def audit(self, materialized: Iterable[IndexDef] = ()) -> List[Dict]:
        """Per-index guardrail report rows (the ``audit`` CLI's data).

        Covers every index that is materialized, tracked by the
        verifier, in quarantine, or named by one of the tuner's standing
        rulings.
        """
        mat = set(materialized)
        rows: Dict[IndexDef, Dict] = {}

        def row_for(index: IndexDef) -> Dict:
            if index not in rows:
                rows[index] = {
                    "index": f"{index.table}.{'+'.join(index.columns)}",
                    "table": index.table,
                    "columns": list(index.columns),
                    "materialized": index in mat,
                    "pinned": False,
                    "banned": False,
                    "preferred_weight": None,
                    "samples": 0,
                    "predicted_fraction": None,
                    "observed_fraction": None,
                    "ratio": None,
                    "verdict": Verdict.PENDING.value,
                    "quarantine": None,
                }
            return rows[index]

        for index in mat:
            row_for(index)
        for state in self.verifier.states:
            row = row_for(state.index)
            row["samples"] = state.samples
            if state.predicted_without > 0.0:
                row["predicted_fraction"] = (
                    state.predicted_gain / state.predicted_without
                )
            if state.observed_without > 0.0:
                row["observed_fraction"] = (
                    state.observed_gain / state.observed_without
                )
            row["ratio"] = state.ratio
            row["verdict"] = state.verdict.value
        for entry in self.quarantine.entries:
            row = row_for(entry.index)
            row["quarantine"] = {
                "state": entry.state,
                "ratio": entry.ratio,
                "strikes": entry.strikes,
                "cooldown_remaining": entry.cooldown_left,
                "parole_ticks": entry.parole_ticks,
            }
        standing = self._tuner.standing_rulings if self._tuner is not None else ()
        for ruling in standing:
            row = row_for(ruling.index)
            if ruling.kind == "prefer":
                if row["preferred_weight"] is None:
                    row["preferred_weight"] = ruling.weight
            else:
                row["pinned" if ruling.kind == "pin" else "banned"] = True
        return [rows[ix] for ix in sorted(rows, key=_by_table)]

    # ------------------------------------------------------------------
    def to_snapshot(self) -> Dict:
        """JSON-compatible serialization of all guardrail state."""
        return {
            "quarantine": self.quarantine.to_snapshot(),
            "verifier": self.verifier.to_snapshot(),
            "epoch_probes": self._epoch_probes,
        }

    @classmethod
    def from_snapshot(
        cls,
        data: Dict,
        catalog: Catalog,
        observer: Optional[CostObserver] = None,
    ) -> "GuardrailManager":
        """Rebuild a manager from :meth:`to_snapshot` output.

        Observers do not serialize (an execution observer holds a live
        store); pass one explicitly or accept the plan-cost default.

        Raises:
            SnapshotError: for a stored ``"config"`` block (written when
                the guardrails had settings) naming an unknown setting
                or one at another value than the constant fixes.
        """
        for field, value in data.get("config", {}).items():
            if field not in _STORED_CONFIG:
                raise SnapshotError(f"snapshot names unknown guardrail setting {field!r}")
            require_stored(field, value, _STORED_CONFIG[field])
        manager = cls(observer=observer)
        manager.quarantine = Quarantine.from_snapshot(data["quarantine"], catalog)
        manager.verifier.restore(data.get("verifier", []), catalog)
        manager._epoch_probes = int(data.get("epoch_probes", 0))
        return manager
