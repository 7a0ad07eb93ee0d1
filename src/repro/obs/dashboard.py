"""The overhead dashboard: a tuner's one epoch log.

The paper's central safety claim is that profiling overhead regulates
itself: the re-budgeting ratio ``r = NetBenefit(M')/NetBenefit(M)``
maps onto the next epoch's what-if allowance ``#WI_lim``, so a tuner
that has converged stops paying for what-if calls.  This module records
the evidence per epoch -- budget *requested* (the hard cap ``#WI_max``),
*granted* (``#WI_lim`` in force), and *spent* (calls actually issued) --
so benchmarks and operators can assert the invariant ``spent <= granted
<= requested`` and watch the spend decay once the configuration is
stable.  Each row also holds the epoch's costs and the close's
decisions, so traces, the figures' series and fleet replicas read this
log instead of folding the ledger again.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, AbstractSet, Deque, Dict, List, NamedTuple, Sequence, Tuple

if TYPE_CHECKING:
    from repro.engine.index import IndexDef

#: Epochs kept row by row (the newest); the totals run over every epoch.
#: Far above any test or figure run, so those see every row -- while a
#: long-lived tuner's snapshot stops growing with its age.
WINDOW_EPOCHS = 4096


class EpochOverheadRecord(NamedTuple):
    """One epoch's row: its overhead accounting and what its close decided.

    Attributes:
        epoch: 0-based epoch number.
        requested: The hard per-epoch cap ``#WI_max``.
        granted: ``#WI_lim`` in force during the epoch (decided by the
            previous boundary's re-budgeting).
        spent: What-if calls actually issued during the epoch.
        ratio: The re-budgeting ratio ``r`` computed at this epoch's
            close (drives the *next* epoch's grant).
        build_cost: Index build cost charged at this boundary.
        breaker_state: Profiling circuit-breaker state after the
            boundary.
        execution_cost / total_cost: The epoch's execution cost, and
            that plus tuning overheads.
        whatif_used: Ledger what-if calls (``spent`` also counts
            gain-cache hits charged without a call).
        next_granted: ``#WI_lim`` granted for the *next* epoch.
        materialized / added / dropped / hot: ``M`` after the boundary
            (in set order), its decisions, and the next ``H`` -- as
            ``IndexDef`` tuples, shared with the previous row when
            unchanged.
    """

    epoch: int
    requested: int
    granted: int
    spent: int
    ratio: float
    build_cost: float
    breaker_state: str
    execution_cost: float = 0.0
    total_cost: float = 0.0
    whatif_used: int = 0
    next_granted: int = 0
    materialized: Tuple[IndexDef, ...] = ()
    added: Tuple[IndexDef, ...] = ()
    dropped: Tuple[IndexDef, ...] = ()
    hot: Tuple[IndexDef, ...] = ()

    @property
    def within_budget(self) -> bool:
        """Whether the epoch's spend respected its granted allowance."""
        return self.spent <= self.granted


#: The columns metrics snapshots carry.
OVERHEAD_COLUMNS = EpochOverheadRecord._fields[:7]


class OverheadDashboard:
    """The epoch log of one tuner: a bounded row per close, exact totals.

    Attributes:
        records: The newest :data:`WINDOW_EPOCHS` epochs'
            :class:`EpochOverheadRecord`, in order.
        epochs: Epochs recorded so far, kept or not.
        total_spent: What-if calls issued across all of them.
        total_cost / total_whatif: Their costs and ledger what-if calls.
        within_budget: Whether every one respected its granted allowance.
        open_execution / open_total / open_whatif: The open epoch's
            sums, which the tuning loop adds to per query.
    """

    def __init__(self) -> None:
        self.records: Deque[EpochOverheadRecord] = deque(maxlen=WINDOW_EPOCHS)
        self.epochs = 0
        self.total_spent = self.total_whatif = 0
        self.total_cost = self.open_execution = self.open_total = 0.0
        self.open_whatif = 0
        self.within_budget = True

    def record(
        self,
        requested: int,
        granted: int,
        spent: int,
        ratio: float,
        build_cost: float,
        breaker_state: str,
        next_granted: int = 0,
        materialized: AbstractSet[IndexDef] = frozenset(),
        added: Sequence[IndexDef] = (),
        dropped: Sequence[IndexDef] = (),
        hot: Sequence[IndexDef] = (),
    ) -> EpochOverheadRecord:
        """Close the open epoch: append its row and return it."""
        last = self.records[-1] if self.records else None
        held_m = last.materialized if last is not None else ()
        if len(held_m) != len(materialized) or not materialized.issuperset(held_m):
            held_m = tuple(materialized)
        held_h = tuple(hot)
        if last is not None and held_h == last.hot:
            held_h = last.hot
        entry = EpochOverheadRecord(
            self.epochs, requested, granted, spent, ratio, build_cost, breaker_state,
            self.open_execution, self.open_total, self.open_whatif, next_granted,
            held_m, tuple(added), tuple(dropped), held_h,
        )
        self.records.append(entry)
        self.epochs += 1
        self.total_spent += spent
        self.total_cost += self.open_total
        self.total_whatif += self.open_whatif
        if spent > granted:
            self.within_budget = False
        self.open_execution = self.open_total = 0.0
        self.open_whatif = 0
        return entry

    # ------------------------------------------------------------------
    def spend_fraction(self, tail: int = 5) -> float:
        """Mean ``spent / requested`` over the last ``tail`` epochs.

        The convergence signal Figure 5 charts: once the configuration
        is stable this decays toward 0 (profiling hibernates).  Returns
        1.0 when no epochs are recorded (nothing proven yet).
        """
        window = list(self.records)[-tail:]
        if not window:
            return 1.0
        fractions = [
            r.spent / r.requested if r.requested else 0.0 for r in window
        ]
        return sum(fractions) / len(fractions)

    def to_rows(self) -> List[Dict]:
        """JSON-compatible overhead rows for metrics snapshots."""
        return [dict(zip(OVERHEAD_COLUMNS, r)) for r in self.records]

    def render(self) -> str:
        """Human-readable overhead table."""
        table = render_overhead_rows(self.to_rows())
        if not self.records:
            return table
        if self.epochs > len(self.records):
            table += f"\n(the last {len(self.records)} of {self.epochs} epochs)"
        return (
            f"{table}\n"
            f"total what-if spend {self.total_spent}; "
            f"tail spend fraction {self.spend_fraction():.2f}; "
            f"within budget: {'yes' if self.within_budget else 'NO'}"
        )


def render_overhead_rows(rows: List[Dict]) -> str:
    """Render overhead record rows as a human-readable table.

    Accepts the rows of a saved metrics snapshot; rows carrying a
    ``replica`` key (fleet-merged snapshots) get a replica column.
    """
    if not rows:
        return "(no epochs recorded)"
    fleet = any("replica" in row for row in rows)
    header = (
        f"{'ep':>4} {'req':>4} {'grant':>6} {'spent':>6} {'r':>6} "
        f"{'build cost':>11}  breaker"
    )
    if fleet:
        header = f"{'repl':>5} " + header
    lines = [header]
    for row in rows:
        line = (
            f"{row['epoch']:>4} {row['requested']:>4} {row['granted']:>6} "
            f"{row['spent']:>6} {row['ratio']:>6.2f} "
            f"{row['build_cost']:>11.0f}  {row['breaker_state']}"
        )
        if fleet:
            line = f"{str(row.get('replica', '-')):>5} " + line
        lines.append(line)
    return "\n".join(lines)
