"""Structured experiment traces.

``trace_run`` executes a tuning engine over a workload and reads, per
epoch, everything it decided: set compositions, probe budget grants
and usage, the improvement ratio, and the epoch's execution cost.  The
resulting :class:`TunerTrace` renders as a human-readable timeline --
the quickest way to *see* COLT hibernate, wake, and re-tune.  It is a
view of the tuner's epoch log (:meth:`TunerTrace.of`), shared with the
fleet's replicas and the CLI.
"""

from __future__ import annotations

import dataclasses
import json
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Union

from repro.core.config import stored_config

if TYPE_CHECKING:
    from repro.core.config import ColtConfig
    from repro.core.loop import TuningLoop
    from repro.engine.catalog import Catalog
    from repro.obs.dashboard import EpochOverheadRecord
    from repro.sql.ast import Query


@dataclasses.dataclass
class EpochTrace:
    """One epoch's record.

    Attributes:
        epoch: 0-based epoch number.
        execution_cost: Sum of the epoch's query execution costs.
        total_cost: Execution plus tuning overheads for the epoch.
        whatif_used: What-if calls actually spent.
        budget_granted: ``#WI_lim`` granted for the *next* epoch.
        improvement_ratio: The re-budgeting ratio ``r``.
        materialized: Names in ``M`` after reorganization.
        added / dropped: Changes made at this boundary.
        hot: Names in the next epoch's hot set.
    """

    epoch: int
    execution_cost: float
    total_cost: float
    whatif_used: int
    budget_granted: int
    improvement_ratio: float
    materialized: List[str]
    added: List[str]
    dropped: List[str]
    hot: List[str]

    @classmethod
    def of(cls, row: EpochOverheadRecord) -> "EpochTrace":
        """Render one epoch-log row: index names, ``M`` in name order."""
        return cls(
            epoch=row.epoch,
            execution_cost=row.execution_cost,
            total_cost=row.total_cost,
            whatif_used=row.whatif_used,
            budget_granted=row.next_granted,
            improvement_ratio=row.ratio,
            materialized=[ix.name for ix in sorted(row.materialized, key=str)],
            added=[_short(ix.name) for ix in row.added],
            dropped=[_short(ix.name) for ix in row.dropped],
            hot=[ix.name for ix in row.hot],
        )


@dataclasses.dataclass
class TunerTrace:
    """A complete traced run.

    Attributes:
        epochs: One record per epoch the trace holds (a tuner's log
            keeps its newest :data:`~repro.obs.dashboard.WINDOW_EPOCHS`).
        config: The traced tuner's configuration (the engine's own
            config type).
        engine: Name of the engine that ran (a key of
            :data:`repro.engines.ENGINES`).
        total_cost / total_whatif: Workload-wide total cost and what-if
            calls, held epochs or not (summed from ``epochs`` if absent).
    """

    epochs: List[EpochTrace]
    config: object
    engine: str = "colt"
    total_cost: Optional[float] = None
    total_whatif: Optional[int] = None

    def __post_init__(self) -> None:
        if self.total_cost is None:
            self.total_cost = sum(e.total_cost for e in self.epochs)
        if self.total_whatif is None:
            self.total_whatif = sum(e.whatif_used for e in self.epochs)

    @classmethod
    def of(cls, tuner: TuningLoop) -> "TunerTrace":
        """The trace of ``tuner``'s epoch log so far."""
        log = tuner.dashboard
        return cls(
            epochs=[EpochTrace.of(row) for row in log.records],
            config=tuner.config,
            engine=tuner.engine_name,
            total_cost=log.total_cost,
            total_whatif=log.total_whatif,
        )

    def to_json(self, indent: Optional[int] = None) -> str:
        """Serialize the trace to a JSON string.

        The payload is self-describing (config included), so fleet
        benchmarks can dump per-replica traces next to their
        ``results/*.txt`` reports and tests can assert per-epoch
        decisions machine-readably.  COLT payloads carry no engine tag
        (old dumps and new ones are the same bytes); every other engine
        tags its name so :meth:`from_json` can find the config type, and
        a trace missing its first epochs carries its totals.
        """
        payload = {
            "epochs": [dataclasses.asdict(e) for e in self.epochs],
            "config": dataclasses.asdict(self.config),
        }
        if self.engine != "colt":
            payload["engine"] = self.engine
        if self.epochs and self.epochs[0].epoch:
            payload["totals"] = [self.total_cost, self.total_whatif]
        return json.dumps(payload, indent=indent)

    @classmethod
    def from_json(cls, data: Union[str, Dict]) -> "TunerTrace":
        """Rebuild a trace from :meth:`to_json` output.

        Args:
            data: The JSON string (or the already-parsed dict).

        Raises:
            ValueError: if the payload is not a trace (missing keys,
                malformed epochs or an unknown engine tag).
        """
        # Deferred import: the engine table imports the tuners, which
        # must stay importable without the bench package.
        from repro.engines import engine_spec

        if isinstance(data, str):
            data = json.loads(data)
        if not isinstance(data, dict) or "epochs" not in data or "config" not in data:
            raise ValueError("not a serialized TunerTrace (missing keys)")
        engine = data.get("engine", "colt")
        try:
            epochs = [EpochTrace(**entry) for entry in data["epochs"]]
            config = stored_config(engine_spec(engine).config_type, data["config"])
            total_cost, total_whatif = data.get("totals", (None, None))
        except TypeError as exc:
            raise ValueError(f"malformed TunerTrace payload: {exc}") from exc
        return cls(epochs, config, engine, total_cost, total_whatif)

    def render_timeline(self, cost_width: int = 24) -> str:
        """Render the run as a per-epoch text timeline."""
        if not self.epochs:
            return "(empty trace)"
        peak = max(e.execution_cost for e in self.epochs) or 1.0
        lines = [
            f"{'ep':>4} {'exec cost':<{cost_width + 10}} {'wi':>3} "
            f"{'r':>5} {'|M|':>4}  changes"
        ]
        for e in self.epochs:
            bar = "#" * max(1, int(e.execution_cost / peak * cost_width))
            changes = []
            if e.added:
                changes.append("+" + ",".join(e.added))
            if e.dropped:
                changes.append("-" + ",".join(e.dropped))
            lines.append(
                f"{e.epoch:>4} {bar:<{cost_width}} {e.execution_cost:>9.0f} "
                f"{e.whatif_used:>3} {e.improvement_ratio:>5.2f} "
                f"{len(e.materialized):>4}  {' '.join(changes)}"
            )
        lines.append(
            f"total cost {self.total_cost:,.0f}; what-if calls {self.total_whatif}"
        )
        return "\n".join(lines)


def trace_run(
    catalog: Catalog,
    workload: Sequence[Query],
    config: Optional[ColtConfig] = None,
    backend=None,
    engine: str = "colt",
) -> TunerTrace:
    """Run a tuning engine over a workload, one trace entry per epoch.

    Args:
        config: Tuning parameters; engines other than COLT derive their
            own configuration from it through the engine table.
        backend: Optional DBMS backend for the tuner (defaults to the
            local in-python engine) -- what lets a recorded cost trace
            be replayed through the identical harness.
        engine: Name of the engine to run (a key of
            :data:`repro.engines.ENGINES`).
    """
    from repro.engines import engine_spec

    tuner = engine_spec(engine).build(catalog, config, backend=backend)
    for query in workload:
        tuner.process_query(query)
    return TunerTrace.of(tuner)


def _short(name: str) -> str:
    """Compact index names for timeline rendering."""
    return name.replace("ix_", "")
