"""Index quarantine: cooldown jail for indexes that failed verification.

When observed benefit falls far short of predicted benefit, dropping the
index is not enough -- the what-if optimizer still over-promises, so the
very next reorganization would re-materialize it.  Quarantine closes
that loop: each offending index gets its own
:class:`~repro.resilience.breaker.CircuitBreaker` (the same state
machinery that guards what-if profiling), tripped OPEN on entry:

* **OPEN** (``"quarantined"``) -- the index is a hard ban for the
  knapsack and the hot set.  The breaker clock ticks once per epoch
  boundary; after ``cooldown`` ticks it goes HALF_OPEN.
* **HALF_OPEN** (``"parole"``) -- the ban lifts.  If COLT
  re-materializes the index, a fresh verification round runs: a second
  REGRESSED verdict re-trips the breaker (cooldown restarts, strikes
  increment), a VERIFIED verdict closes it and the entry is released.
  An index that stays unmaterialized through a whole parole window is
  also released -- the forecast moved on without it.

Entries serialize to plain JSON so quarantine state survives snapshot
save/restore (the whole point: a restart must not amnesty a bad index).
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional

from repro.engine.index import _by_table
from repro.resilience.breaker import BreakerState, CircuitBreaker

if TYPE_CHECKING:
    from repro.engine.catalog import Catalog
    from repro.engine.index import IndexDef

#: Epochs an index spends OPEN before parole, by default.
DEFAULT_COOLDOWN_EPOCHS = 6

@dataclasses.dataclass
class QuarantineEntry:
    """One index's stay in quarantine.

    Attributes:
        index: The quarantined index.
        ratio: The observed/predicted benefit ratio that triggered the
            latest quarantine.
        entered_epoch: Epoch counter value at the latest trip.
        strikes: How many times this index has been quarantined.
        breaker: The entry's cooldown state machine.
        parole_ticks: Epochs spent HALF_OPEN without re-materialization.
    """

    index: IndexDef
    ratio: float
    entered_epoch: int
    strikes: int = 1
    breaker: CircuitBreaker = dataclasses.field(default=None)  # type: ignore[assignment]
    parole_ticks: int = 0

    @property
    def state(self) -> str:
        """``"quarantined"`` (OPEN) or ``"parole"`` (HALF_OPEN)."""
        if self.breaker.state is BreakerState.OPEN:
            return "quarantined"
        return "parole"

    @property
    def cooldown_remaining(self) -> int:
        """Epochs left before parole (0 once HALF_OPEN)."""
        if self.breaker.state is not BreakerState.OPEN:
            return 0
        return max(0, self.breaker.cooldown_ticks - self.breaker._cooldown)  # noqa: SLF001


class Quarantine:
    """The set of quarantined indexes, ticked at epoch boundaries.

    Args:
        cooldown_epochs: Epochs an index stays OPEN (hard-banned) per
            quarantine; repeat offenders serve the same term again.
    """

    def __init__(self, cooldown_epochs: int = DEFAULT_COOLDOWN_EPOCHS) -> None:
        if cooldown_epochs < 1:
            raise ValueError("cooldown_epochs must be positive")
        self.cooldown_epochs = cooldown_epochs
        self._entries: Dict[IndexDef, QuarantineEntry] = {}
        self._epoch = 0
        self.total_quarantines = 0
        self.total_releases = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, index: IndexDef) -> bool:
        return index in self._entries

    @property
    def entries(self) -> List[QuarantineEntry]:
        """Current entries, sorted by table then key columns for stable
        iteration."""
        return [self._entries[ix] for ix in sorted(self._entries, key=_by_table)]

    def entry_for(self, index: IndexDef) -> Optional[QuarantineEntry]:
        """The entry for an index, if it is in quarantine or on parole."""
        return self._entries.get(index)

    def blocked(self) -> List[IndexDef]:
        """Indexes currently hard-banned (breaker OPEN)."""
        return [
            e.index
            for e in self.entries
            if e.breaker.state is BreakerState.OPEN
        ]

    # ------------------------------------------------------------------
    def admit(self, index: IndexDef, ratio: float) -> QuarantineEntry:
        """Quarantine an index (or re-trip a parolee).

        Returns:
            The (new or re-tripped) entry, breaker OPEN.
        """
        entry = self._entries.get(index)
        if entry is None:
            breaker = CircuitBreaker(
                failure_threshold=1,
                cooldown_ticks=self.cooldown_epochs,
                recovery_threshold=1,
            )
            entry = QuarantineEntry(
                index=index,
                ratio=ratio,
                entered_epoch=self._epoch,
                breaker=breaker,
            )
            self._entries[index] = entry
        else:
            entry.strikes += 1
            entry.ratio = ratio
            entry.entered_epoch = self._epoch
            entry.parole_ticks = 0
        entry.breaker.record_failure()
        self.total_quarantines += 1
        return entry

    def clear(self, index: IndexDef) -> bool:
        """Release an index outright (e.g. its parole verification passed)."""
        entry = self._entries.pop(index, None)
        if entry is None:
            return False
        if entry.breaker.state is not BreakerState.CLOSED:
            entry.breaker.record_success()
        self.total_releases += 1
        return True

    def tick_epoch(self, materialized: Iterable[IndexDef]) -> List[IndexDef]:
        """Advance every entry's cooldown clock by one epoch.

        Args:
            materialized: The current materialized set; a parolee that
                is back in ``M`` is being re-verified, so its parole
                clock holds.

        Returns:
            Indexes released this tick (parole expired unused).
        """
        self._epoch += 1
        in_m = set(materialized)
        released: List[IndexDef] = []
        for entry in self.entries:
            entry.breaker.tick()
            if entry.breaker.state is BreakerState.HALF_OPEN and entry.index not in in_m:
                entry.parole_ticks += 1
                if entry.parole_ticks >= self.cooldown_epochs:
                    released.append(entry.index)
        for index in released:
            self.clear(index)
        return released

    # ------------------------------------------------------------------
    def to_snapshot(self) -> Dict:
        """JSON-compatible serialization of the full quarantine state."""
        return {
            "epoch": self._epoch,
            "cooldown_epochs": self.cooldown_epochs,
            "total_quarantines": self.total_quarantines,
            "total_releases": self.total_releases,
            "entries": [
                {
                    "table": e.index.table,
                    "columns": list(e.index.columns),
                    "ratio": e.ratio,
                    "entered_epoch": e.entered_epoch,
                    "strikes": e.strikes,
                    "state": e.breaker.state.value,
                    "cooldown_progress": e.breaker._cooldown,  # noqa: SLF001
                    "parole_ticks": e.parole_ticks,
                }
                for e in self.entries
            ],
        }

    @classmethod
    def from_snapshot(cls, data: Dict, catalog: Catalog) -> "Quarantine":
        """Rebuild quarantine state against an equivalent catalog."""
        quarantine = cls(cooldown_epochs=int(data["cooldown_epochs"]))
        quarantine._epoch = int(data["epoch"])
        quarantine.total_quarantines = int(data.get("total_quarantines", 0))
        quarantine.total_releases = int(data.get("total_releases", 0))
        for raw in data.get("entries", []):
            index = catalog.composite_index_for(raw["table"], raw["columns"])
            breaker = CircuitBreaker(
                failure_threshold=1,
                cooldown_ticks=quarantine.cooldown_epochs,
                recovery_threshold=1,
            )
            state = BreakerState(raw["state"])
            if state is not BreakerState.CLOSED:
                breaker.record_failure()  # -> OPEN
                breaker._cooldown = int(raw["cooldown_progress"])  # noqa: SLF001
                if state is BreakerState.HALF_OPEN:
                    breaker._transition(BreakerState.HALF_OPEN)  # noqa: SLF001
            entry = QuarantineEntry(
                index=index,
                ratio=float(raw["ratio"]),
                entered_epoch=int(raw["entered_epoch"]),
                strikes=int(raw["strikes"]),
                breaker=breaker,
                parole_ticks=int(raw.get("parole_ticks", 0)),
            )
            quarantine._entries[index] = entry
        return quarantine
