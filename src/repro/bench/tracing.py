"""Structured experiment traces.

``trace_run`` executes a tuning engine over a workload while recording,
per epoch, everything it decided: set compositions, probe budget grants
and usage, the improvement ratio, and the epoch's execution cost.  The
resulting :class:`TunerTrace` renders as a human-readable timeline --
the quickest way to *see* COLT hibernate, wake, and re-tune.  The
per-epoch records are built by one :class:`TraceAccumulator`, shared
with the fleet's replicas and the CLI.
"""

from __future__ import annotations

import dataclasses
import json
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Union

from repro.core.config import stored_config

if TYPE_CHECKING:
    from repro.core.config import ColtConfig
    from repro.core.loop import QueryOutcome, TuningLoop
    from repro.engine.catalog import Catalog
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


@dataclasses.dataclass
class TunerTrace:
    """A complete traced run.

    Attributes:
        epochs: One record per closed epoch.
        config: The traced tuner's configuration (the engine's own
            config type).
        engine: Name of the engine that ran (a key of
            :data:`repro.engines.ENGINES`).
    """

    epochs: List[EpochTrace]
    config: object
    engine: str = "colt"

    @property
    def total_cost(self) -> float:
        """Workload-wide total cost."""
        return sum(e.total_cost for e in self.epochs)

    @property
    def total_whatif(self) -> int:
        """Workload-wide what-if calls."""
        return sum(e.whatif_used for e in self.epochs)

    def to_json(self, indent: Optional[int] = None) -> str:
        """Serialize the trace to a JSON string.

        The payload is self-describing (config included), so fleet
        benchmarks can dump per-replica traces next to their
        ``results/*.txt`` reports and tests can assert per-epoch
        decisions machine-readably.  COLT payloads carry no engine tag
        (old dumps and new ones are the same bytes); every other engine
        tags its name so :meth:`from_json` can find the config type.
        """
        payload = {
            "epochs": [dataclasses.asdict(e) for e in self.epochs],
            "config": dataclasses.asdict(self.config),
        }
        if self.engine != "colt":
            payload["engine"] = self.engine
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
        except TypeError as exc:
            raise ValueError(f"malformed TunerTrace payload: {exc}") from exc
        return cls(epochs=epochs, config=config, engine=engine)

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


class TraceAccumulator:
    """Folds a tuner's ledger records into one :class:`EpochTrace` per epoch.

    The single builder of epoch records: :func:`trace_run`, the fleet's
    :class:`~repro.fleet.replica.TunerReplica` and the CLI timeline all
    feed it the outcomes of whichever engine they drive.
    """

    def __init__(self, tuner: TuningLoop) -> None:
        self.tuner = tuner
        self.epochs: List[EpochTrace] = []
        self._execution = 0.0
        self._total = 0.0
        self._whatif = 0

    def add(self, outcome: QueryOutcome) -> Optional[EpochTrace]:
        """Account one ledger record of the tuner.

        Returns:
            The epoch record this outcome closed, if it closed one.
        """
        self._execution += outcome.execution_cost
        self._total += outcome.total_cost
        self._whatif += outcome.whatif_calls
        reorg = outcome.reorganization
        if not outcome.epoch_ended or reorg is None:
            return None
        closed = EpochTrace(
            epoch=len(self.epochs),
            execution_cost=self._execution,
            total_cost=self._total,
            whatif_used=self._whatif,
            budget_granted=reorg.whatif_budget,
            improvement_ratio=reorg.improvement_ratio,
            materialized=[ix.name for ix in self.tuner.materialized_set],
            added=[_short(ix.name) for ix in reorg.materialize],
            dropped=[_short(ix.name) for ix in reorg.drop],
            hot=[ix.name for ix in reorg.hot],
        )
        self.epochs.append(closed)
        self._execution = self._total = 0.0
        self._whatif = 0
        return closed

    def trace(self) -> TunerTrace:
        """The epochs recorded so far as a trace of the tuner."""
        return TunerTrace(
            epochs=list(self.epochs),
            config=self.tuner.config,
            engine=self.tuner.engine_name,
        )


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
            local in-python engine) -- what lets the parity gate replay
            a recorded cost trace through the identical harness.
        engine: Name of the engine to run (a key of
            :data:`repro.engines.ENGINES`).
    """
    from repro.engines import engine_spec

    tuner = engine_spec(engine).build(catalog, config, backend=backend)
    accumulator = TraceAccumulator(tuner)
    for query in workload:
        accumulator.add(tuner.process_query(query))
    return accumulator.trace()


def _short(name: str) -> str:
    """Compact index names for timeline rendering."""
    return name.replace("ix_", "")
