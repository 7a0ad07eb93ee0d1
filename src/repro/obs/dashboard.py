"""The overhead dashboard: COLT's self-regulation signal, per epoch.

The paper's central safety claim is that profiling overhead regulates
itself: the re-budgeting ratio ``r = NetBenefit(M')/NetBenefit(M)``
maps onto the next epoch's what-if allowance ``#WI_lim``, so a tuner
that has converged stops paying for what-if calls.  This module records
the evidence per epoch -- budget *requested* (the hard cap ``#WI_max``),
*granted* (``#WI_lim`` in force), and *spent* (calls actually issued) --
so benchmarks and operators can assert the invariant ``spent <= granted
<= requested`` and watch the spend decay once the configuration is
stable.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, NamedTuple

#: Epochs kept row by row (the newest); the totals run over every epoch.
#: Far above any test or figure run, so those see every row -- while a
#: long-lived tuner's snapshot stops growing with its age.
WINDOW_EPOCHS = 4096


class EpochOverheadRecord(NamedTuple):
    """One epoch's overhead accounting.

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
    """

    epoch: int
    requested: int
    granted: int
    spent: int
    ratio: float
    build_cost: float
    breaker_state: str

    @property
    def within_budget(self) -> bool:
        """Whether the epoch's spend respected its granted allowance."""
        return self.spent <= self.granted


class OverheadDashboard:
    """Per-epoch overhead records for one tuner.

    Attributes:
        records: The newest :data:`WINDOW_EPOCHS` epochs'
            :class:`EpochOverheadRecord`, in order.
        epochs: Epochs recorded so far, kept or not.
        total_spent: What-if calls issued across all of them.
        within_budget: Whether every one respected its granted allowance.
    """

    def __init__(self) -> None:
        self.records: Deque[EpochOverheadRecord] = deque(maxlen=WINDOW_EPOCHS)
        self.epochs = 0
        self.total_spent = 0
        self.within_budget = True

    def record(
        self,
        requested: int,
        granted: int,
        spent: int,
        ratio: float,
        build_cost: float,
        breaker_state: str,
    ) -> EpochOverheadRecord:
        """Append one epoch's accounting and return the record."""
        entry = EpochOverheadRecord(
            self.epochs, requested, granted, spent, ratio, build_cost, breaker_state
        )
        self.records.append(entry)
        self.epochs += 1
        self.total_spent += spent
        if spent > granted:
            self.within_budget = False
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
        """JSON-compatible rows for metrics snapshots."""
        return [r._asdict() for r in self.records]

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
