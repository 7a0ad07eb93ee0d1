"""Quarantine lifecycle: cooldown, parole, re-trips, persistence.

The quarantine counts epochs on two integers per entry.  Until it did,
each entry owned a :class:`~repro.resilience.breaker.CircuitBreaker`;
that version is kept below verbatim but for its class names
(:class:`BreakerQuarantine`), and :class:`TestAgainstTheBreakerVersion`
holds the counting one to it on random sequences.
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.index import _by_table
from repro.guardrails.quarantine import COOLDOWN_EPOCHS, Quarantine
from repro.persist import SnapshotError
from repro.resilience.breaker import BreakerState, CircuitBreaker
from tests.fleet.workloads import build_small_catalog

if TYPE_CHECKING:
    from repro.engine.catalog import Catalog
    from repro.engine.index import IndexDef


def _indexes():
    catalog = build_small_catalog()
    return catalog.index_for("events", "user_id"), catalog.index_for(
        "events", "day"
    )


def _entry(quarantine, index):
    (entry,) = [e for e in quarantine.entries if e.index == index]
    return entry


def _serve_cooldown(quarantine):
    for _ in range(COOLDOWN_EPOCHS):
        quarantine.tick_epoch([])


def test_admit_blocks_until_cooldown():
    index, _ = _indexes()
    quarantine = Quarantine()
    entry = quarantine.admit(index, ratio=0.1)
    assert entry.state == "quarantined"
    assert entry.cooldown_left == COOLDOWN_EPOCHS
    assert index in quarantine

    for remaining in range(COOLDOWN_EPOCHS - 1, -1, -1):
        quarantine.tick_epoch(materialized=[])
        assert _entry(quarantine, index).cooldown_left == remaining
    # Cooldown served: the entry is on parole, ban lifted.
    assert _entry(quarantine, index).state == "parole"


def test_parole_expires_unused():
    index, _ = _indexes()
    quarantine = Quarantine()
    quarantine.admit(index, ratio=0.2)
    # The tick that ends cooldown starts parole AND counts as its first
    # unused epoch.
    _serve_cooldown(quarantine)
    assert _entry(quarantine, index).state == "parole"
    assert _entry(quarantine, index).parole_ticks == 1
    # The rest of a parole with the index never re-materialized: released.
    for _ in range(COOLDOWN_EPOCHS - 2):
        assert quarantine.tick_epoch([]) == []
    released = quarantine.tick_epoch([])
    assert [ix.name for ix in released] == [index.name]
    assert index not in quarantine
    assert quarantine.total_releases == 1


def test_parole_clock_holds_while_rematerialized():
    index, _ = _indexes()
    quarantine = Quarantine()
    quarantine.admit(index, ratio=0.2)
    _serve_cooldown(quarantine)  # -> parole
    # Re-materialized: re-verification is running, parole clock holds.
    for _ in range(2 * COOLDOWN_EPOCHS):
        assert quarantine.tick_epoch([index]) == []
    assert index in quarantine


def test_retrip_increments_strikes_and_restarts_cooldown():
    index, _ = _indexes()
    quarantine = Quarantine()
    quarantine.admit(index, ratio=0.2)
    _serve_cooldown(quarantine)  # -> parole
    entry = quarantine.admit(index, ratio=0.1)  # second REGRESSED verdict
    assert entry.strikes == 2
    assert entry.state == "quarantined"
    assert entry.cooldown_left == COOLDOWN_EPOCHS
    assert entry.parole_ticks == 0
    assert quarantine.total_quarantines == 2


def test_readmitting_a_quarantined_index_keeps_its_cooldown_running():
    index, _ = _indexes()
    quarantine = Quarantine()
    quarantine.admit(index, ratio=0.2)
    quarantine.tick_epoch([])
    entry = quarantine.admit(index, ratio=0.1)
    assert entry.strikes == 2 and entry.ratio == 0.1
    assert entry.cooldown_left == COOLDOWN_EPOCHS - 1


def test_clear_releases_outright():
    index, other = _indexes()
    quarantine = Quarantine()
    quarantine.admit(index, ratio=0.3)
    assert quarantine.clear(index)
    assert index not in quarantine
    assert not quarantine.clear(other)  # never admitted


def test_snapshot_round_trip_preserves_clocks():
    index, other = _indexes()
    quarantine = Quarantine()
    quarantine.admit(index, ratio=0.15)
    quarantine.tick_epoch([])  # one epoch of cooldown served
    quarantine.admit(other, ratio=0.4)
    snapshot = quarantine.to_snapshot()
    assert "cooldown_epochs" not in snapshot

    restored = Quarantine.from_snapshot(snapshot, build_small_catalog())
    assert len(restored) == 2
    entry = _entry(restored, index)
    assert entry.state == "quarantined"
    assert entry.cooldown_left == COOLDOWN_EPOCHS - 1  # clock survived, not reset
    assert entry.ratio == 0.15
    assert restored.total_quarantines == quarantine.total_quarantines

    # The restored clock keeps ticking from where it stopped.
    for _ in range(COOLDOWN_EPOCHS - 1):
        restored.tick_epoch([])
    assert _entry(restored, index).state == "parole"
    assert _entry(restored, other).state == "quarantined"


def test_snapshot_round_trip_preserves_parole():
    index, _ = _indexes()
    quarantine = Quarantine()
    quarantine.admit(index, ratio=0.2)
    _serve_cooldown(quarantine)  # -> parole, first unused parole tick

    restored = Quarantine.from_snapshot(
        quarantine.to_snapshot(), build_small_catalog()
    )
    entry = _entry(restored, index)
    assert entry.state == "parole"
    assert entry.parole_ticks == 1
    # The rest of the parole releases it, same as the original.
    for _ in range(COOLDOWN_EPOCHS - 2):
        assert restored.tick_epoch([]) == []
    released = restored.tick_epoch([])
    assert [ix.name for ix in released] == [index.name]


@pytest.mark.parametrize(
    "state, progress",
    [("closed", 0), ("open", COOLDOWN_EPOCHS), ("open", -1), ("paroled", 0)],
)
def test_restore_rejects_an_entry_no_quarantine_writes(state, progress):
    index, _ = _indexes()
    quarantine = Quarantine()
    quarantine.admit(index, ratio=0.2)
    snapshot = quarantine.to_snapshot()
    snapshot["entries"][0].update(state=state, cooldown_progress=progress)
    with pytest.raises(SnapshotError, match="quarantine entry"):
        Quarantine.from_snapshot(snapshot, build_small_catalog())


@pytest.mark.parametrize("cooldown", [COOLDOWN_EPOCHS, COOLDOWN_EPOCHS + 1])
def test_a_stored_cooldown_restores_only_at_the_constant(cooldown):
    index, _ = _indexes()
    quarantine = Quarantine()
    quarantine.admit(index, ratio=0.2)
    snapshot = dict(quarantine.to_snapshot(), cooldown_epochs=cooldown)
    if cooldown == COOLDOWN_EPOCHS:
        restored = Quarantine.from_snapshot(snapshot, build_small_catalog())
        assert restored.to_snapshot() == quarantine.to_snapshot()
    else:
        with pytest.raises(SnapshotError, match="cooldown_epochs"):
            Quarantine.from_snapshot(snapshot, build_small_catalog())


# ----------------------------------------------------------------------
# The breaker-based quarantine, as it stood before entries counted epochs.

#: Epochs an index spends OPEN before parole, by default.
DEFAULT_COOLDOWN_EPOCHS = 6

@dataclasses.dataclass
class BreakerQuarantineEntry:
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


class BreakerQuarantine:
    """The set of quarantined indexes, ticked at epoch boundaries.

    Args:
        cooldown_epochs: Epochs an index stays OPEN (hard-banned) per
            quarantine; repeat offenders serve the same term again.
    """

    def __init__(self, cooldown_epochs: int = DEFAULT_COOLDOWN_EPOCHS) -> None:
        if cooldown_epochs < 1:
            raise ValueError("cooldown_epochs must be positive")
        self.cooldown_epochs = cooldown_epochs
        self._entries: Dict[IndexDef, BreakerQuarantineEntry] = {}
        self._epoch = 0
        self.total_quarantines = 0
        self.total_releases = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, index: IndexDef) -> bool:
        return index in self._entries

    @property
    def entries(self) -> List[BreakerQuarantineEntry]:
        """Current entries, sorted by table then key columns for stable
        iteration."""
        return [self._entries[ix] for ix in sorted(self._entries, key=_by_table)]

    def entry_for(self, index: IndexDef) -> Optional[BreakerQuarantineEntry]:
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
    def admit(self, index: IndexDef, ratio: float) -> BreakerQuarantineEntry:
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
            entry = BreakerQuarantineEntry(
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
    def from_snapshot(cls, data: Dict, catalog: Catalog) -> "BreakerQuarantine":
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
            entry = BreakerQuarantineEntry(
                index=index,
                ratio=float(raw["ratio"]),
                entered_epoch=int(raw["entered_epoch"]),
                strikes=int(raw["strikes"]),
                breaker=breaker,
                parole_ticks=int(raw.get("parole_ticks", 0)),
            )
            quarantine._entries[index] = entry
        return quarantine


# ----------------------------------------------------------------------
CATALOG = build_small_catalog()
POOL = [
    CATALOG.index_for("events", "user_id"),
    CATALOG.index_for("events", "day"),
    CATALOG.index_for("events", "amount"),
    CATALOG.composite_index_for("events", ["user_id", "day"]),
]

_steps = st.one_of(
    st.tuples(st.just("admit"), st.integers(0, len(POOL) - 1),
              st.floats(-1.0, 1.0, allow_nan=False)),
    st.tuples(st.just("clear"), st.integers(0, len(POOL) - 1)),
    # The materialized set as a bit mask over the pool; ticks dominate,
    # as epoch boundaries outnumber verdicts.
    st.tuples(st.just("tick"), st.integers(0, 2 ** len(POOL) - 1)),
    st.tuples(st.just("tick"), st.integers(0, 2 ** len(POOL) - 1)),
    st.tuples(st.just("tick"), st.integers(0, 2 ** len(POOL) - 1)),
)


def _view(quarantine, cooldown=lambda e: e.cooldown_left):
    """Everything a reader sees of a quarantine, in comparable form;
    ``cooldown`` reads an entry's epochs left before parole."""
    snapshot = quarantine.to_snapshot()
    return (
        [
            (e.index, e.ratio, e.entered_epoch, e.strikes, e.state,
             cooldown(e), e.parole_ticks)
            for e in quarantine.entries
        ],
        len(quarantine),
        {k: v for k, v in snapshot.items() if k != "cooldown_epochs"},
    )


def _breaker_view(reference):
    """:func:`_view` of the breaker version."""
    return _view(reference, cooldown=lambda e: e.cooldown_remaining)


class TestAgainstTheBreakerVersion:
    @given(steps=st.lists(_steps, max_size=60))
    @settings(deadline=None)
    def test_every_sequence_reads_the_same(self, steps):
        reference, counting = BreakerQuarantine(), Quarantine()
        for step in steps:
            if step[0] == "admit":
                _, i, ratio = step
                want = reference.admit(POOL[i], ratio)
                got = counting.admit(POOL[i], ratio)
                assert (got.state, got.cooldown_left, got.strikes) == (
                    want.state, want.cooldown_remaining, want.strikes
                )
            elif step[0] == "clear":
                assert counting.clear(POOL[step[1]]) == reference.clear(POOL[step[1]])
            else:
                mat = [ix for bit, ix in enumerate(POOL) if step[1] >> bit & 1]
                assert counting.tick_epoch(mat) == reference.tick_epoch(mat)
            assert _view(counting) == _breaker_view(reference)
            # The breaker version's snapshot restores to the same state.
            restored = Quarantine.from_snapshot(reference.to_snapshot(), CATALOG)
            assert _view(restored) == _view(counting)
