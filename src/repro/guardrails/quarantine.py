"""Index quarantine: cooldown jail for indexes that failed verification.

When observed benefit falls far short of predicted benefit, dropping the
index is not enough -- the what-if optimizer still over-promises, so the
very next reorganization would re-materialize it.  Quarantine closes
that loop.  Each offending index gets an entry that counts epoch
boundaries:

* **quarantined** (``cooldown_left > 0``) -- the index is a hard ban for
  the knapsack and the hot set.  Each epoch boundary takes one off
  ``cooldown_left``; after :data:`COOLDOWN_EPOCHS` the entry goes on
  parole.
* **parole** (``cooldown_left == 0``) -- the ban lifts.  If COLT
  re-materializes the index, a fresh verification round runs: a second
  REGRESSED verdict re-admits it (cooldown restarts, strikes
  increment), a VERIFIED verdict releases it.  An index that stays
  unmaterialized for :data:`COOLDOWN_EPOCHS` parole epochs
  (``parole_ticks``) is also released -- the forecast moved on without
  it.

Entries serialize to plain JSON so quarantine state survives snapshot
save/restore (the whole point: a restart must not amnesty a bad index).
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING, Dict, Iterable, List

from repro.engine.index import _by_table
from repro.persist import SnapshotError

if TYPE_CHECKING:
    from repro.engine.catalog import Catalog
    from repro.engine.index import IndexDef

#: Epochs an index stays hard-banned per quarantine, and unused parole
#: epochs before it is released.
COOLDOWN_EPOCHS = 6

# A snapshot row's ``"state"`` in the words of the circuit breaker an
# entry once held: quarantined entries are "open", parolees "half_open".
_OPEN = "open"
_HALF_OPEN = "half_open"


def require_stored(field: str, value, constant) -> None:
    """A snapshot written while ``field`` was a setting restores only
    when it holds the value this build fixes."""
    if value != constant:
        raise SnapshotError(
            f"snapshot sets guardrail {field} to {value!r}; it is fixed at {constant!r}"
        )


@dataclasses.dataclass
class QuarantineEntry:
    """One index's stay in quarantine.

    Attributes:
        index: The quarantined index.
        ratio: The observed/predicted benefit ratio that triggered the
            latest quarantine.
        entered_epoch: Epoch counter value at the latest admission.
        strikes: How many times this index has been quarantined.
        cooldown_left: Epochs left before parole (0 on parole).
        parole_ticks: Parole epochs spent without re-materialization.
    """

    index: IndexDef
    ratio: float
    entered_epoch: int
    strikes: int = 1
    cooldown_left: int = COOLDOWN_EPOCHS
    parole_ticks: int = 0

    @property
    def state(self) -> str:
        """``"quarantined"`` or ``"parole"``."""
        return "quarantined" if self.cooldown_left else "parole"


class Quarantine:
    """The set of quarantined indexes, ticked at epoch boundaries."""

    def __init__(self) -> None:
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

    # ------------------------------------------------------------------
    def admit(self, index: IndexDef, ratio: float) -> QuarantineEntry:
        """Quarantine an index, or re-admit one already held.

        A parolee serves a fresh cooldown; an index still quarantined
        keeps the cooldown it is serving.  Either way its strikes go up
        by one.

        Returns:
            The (new or re-admitted) entry, quarantined.
        """
        entry = self._entries.get(index)
        if entry is None:
            entry = QuarantineEntry(index=index, ratio=ratio, entered_epoch=self._epoch)
            self._entries[index] = entry
        else:
            entry.strikes += 1
            entry.ratio = ratio
            entry.entered_epoch = self._epoch
            entry.parole_ticks = 0
            if not entry.cooldown_left:
                entry.cooldown_left = COOLDOWN_EPOCHS
        self.total_quarantines += 1
        return entry

    def clear(self, index: IndexDef) -> bool:
        """Release an index outright (e.g. its parole verification passed)."""
        if self._entries.pop(index, None) is None:
            return False
        self.total_releases += 1
        return True

    def tick_epoch(self, materialized: Iterable[IndexDef]) -> List[IndexDef]:
        """Advance every entry's clock by one epoch.

        Args:
            materialized: The current materialized set; a parolee that
                is back in ``M`` is being re-verified, so its parole
                clock holds.

        Returns:
            Indexes released this tick (parole expired unused).  The
            tick that ends a cooldown also counts as the first parole
            epoch.
        """
        self._epoch += 1
        in_m = set(materialized)
        released: List[IndexDef] = []
        for entry in self.entries:
            if entry.cooldown_left:
                entry.cooldown_left -= 1
            if not entry.cooldown_left and entry.index not in in_m:
                entry.parole_ticks += 1
                if entry.parole_ticks >= COOLDOWN_EPOCHS:
                    released.append(entry.index)
        for index in released:
            self.clear(index)
        return released

    # ------------------------------------------------------------------
    def to_snapshot(self) -> Dict:
        """JSON-compatible serialization of the full quarantine state."""
        return {
            "epoch": self._epoch,
            "total_quarantines": self.total_quarantines,
            "total_releases": self.total_releases,
            "entries": [
                {
                    "table": e.index.table,
                    "columns": list(e.index.columns),
                    "ratio": e.ratio,
                    "entered_epoch": e.entered_epoch,
                    "strikes": e.strikes,
                    "state": _OPEN if e.cooldown_left else _HALF_OPEN,
                    "cooldown_progress": COOLDOWN_EPOCHS - e.cooldown_left,
                    "parole_ticks": e.parole_ticks,
                }
                for e in self.entries
            ],
        }

    @classmethod
    def from_snapshot(cls, data: Dict, catalog: Catalog) -> "Quarantine":
        """Rebuild quarantine state against an equivalent catalog.

        Raises:
            SnapshotError: for a stored ``"cooldown_epochs"`` other than
                :data:`COOLDOWN_EPOCHS`, or an entry that is neither
                on parole nor part way through its cooldown.
        """
        if "cooldown_epochs" in data:
            require_stored("cooldown_epochs", data["cooldown_epochs"], COOLDOWN_EPOCHS)
        quarantine = cls()
        quarantine._epoch = int(data["epoch"])
        quarantine.total_quarantines = int(data.get("total_quarantines", 0))
        quarantine.total_releases = int(data.get("total_releases", 0))
        for raw in data.get("entries", []):
            index = catalog.composite_index_for(raw["table"], raw["columns"])
            progress = int(raw["cooldown_progress"])
            if raw["state"] == _HALF_OPEN:
                cooldown_left = 0
            elif raw["state"] == _OPEN and 0 <= progress < COOLDOWN_EPOCHS:
                cooldown_left = COOLDOWN_EPOCHS - progress
            else:
                raise SnapshotError(
                    f"quarantine entry {index} is {raw['state']!r} "
                    f"after {progress} cooldown epochs"
                )
            quarantine._entries[index] = QuarantineEntry(
                index=index,
                ratio=float(raw["ratio"]),
                entered_epoch=int(raw["entered_epoch"]),
                strikes=int(raw["strikes"]),
                cooldown_left=cooldown_left,
                parole_ticks=int(raw.get("parole_ticks", 0)),
            )
        return quarantine
