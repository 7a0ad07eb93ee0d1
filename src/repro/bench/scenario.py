"""The store-backed scoreboard: one loop drives a tuner over a scenario.

Runs one tuning engine (or ``"none"``, the untuned baseline) over one
:class:`~repro.workload.adversarial.Scenario`, pricing every query's
*about-to-run* plan with
:meth:`~repro.executor.instrument.CountingStore.observed_cost` before
the tuner sees it (the plan is priced first because an epoch close may
drop the index -- and physical tree -- the plan references).  The
result carries the total observed execution cost, tuning overheads, the
first query whose epoch close quarantined an index, and a cumulative
regret curve sampled every ``sample_every`` queries.

Every store-backed comparison goes through :func:`run_scenario`:
``benchmarks/test_bandit_regret.py`` (``BENCH_bandit.json``),
``benchmarks/test_guardrails.py`` (``BENCH_guardrails.json``),
``repro audit`` and the CI gate ``tools/check_bandit_regret.py`` -- so
the committed numbers and the gates measure exactly the same thing.
"""

from __future__ import annotations

import dataclasses
import math
from typing import TYPE_CHECKING, Dict, List, Optional

from repro.core.config import ColtConfig
from repro.executor.instrument import CountingStore
from repro.optimizer.optimizer import Optimizer

if TYPE_CHECKING:
    from repro.workload.adversarial import Scenario


@dataclasses.dataclass
class ScenarioResult:
    """Outcome of one (engine, scenario) run.

    Attributes:
        engine: Engine label (``"none"`` = never materialize anything).
        scenario: Scenario name.
        queries: Query events processed.
        observed_cost: Total observed execution cost (priced plans).
        tuning_overhead: Probe/verify/build overhead the engine charged.
        verify_overhead: The guardrail verification share of
            ``tuning_overhead``.
        curve: Cumulative observed cost sampled every ``sample_every``
            queries (index 0 is after the first sample interval).
        sample_every: The curve's sampling stride.
        materialized: Final materialized index names, sorted.
        first_quarantine_query: 0-based index of the first query whose
            epoch close quarantined an index, or None.
    """

    engine: str
    scenario: str
    queries: int
    observed_cost: float
    tuning_overhead: float
    verify_overhead: float
    curve: List[float]
    sample_every: int
    materialized: List[str]
    first_quarantine_query: Optional[int]

    def to_dict(self) -> Dict:
        """JSON-compatible form for ``BENCH_bandit.json``."""
        return dataclasses.asdict(self)


def make_tuner(engine: str, scenario: Scenario, epoch_length: int = 20, storage_budget_pages: float = 400.0):
    """Build a tuner of the requested engine over a scenario's store.

    Every live engine (any name in :data:`repro.engines.ENGINES`) gets a
    matched epoch clock and storage budget, everything else staying at
    the engine's defaults; ``"none"`` returns None -- the do-nothing
    baseline.
    """
    if engine == "none":
        return None
    # Deferred import: the engine table imports the tuner packages.
    from repro.engines import engine_spec

    config = ColtConfig(
        epoch_length=epoch_length,
        storage_budget_pages=storage_budget_pages,
        composite_candidates=True,
        seed=0,
    )
    return engine_spec(engine).build(scenario.catalog, config, store=scenario.store)


def run_scenario(
    engine: str,
    scenario: Scenario,
    epoch_length: int = 20,
    storage_budget_pages: float = 400.0,
    sample_every: int = 20,
    tuner=None,
) -> ScenarioResult:
    """Drive one engine through a scenario's event stream.

    Args:
        engine: A loop engine's name, or ``"none"``.
        scenario: A freshly built scenario (its store will be mutated).
        epoch_length: Epoch clock for the live engines.
        storage_budget_pages: Storage budget for the live engines.
        sample_every: Stride of the cumulative-cost curve.
        tuner: Pre-built tuner (overrides ``engine`` construction);
            pass when comparing non-default configurations.

    Returns:
        The run's :class:`ScenarioResult`.
    """
    if tuner is None:
        tuner = make_tuner(engine, scenario, epoch_length, storage_budget_pages)
    optimizer = tuner.optimizer if tuner is not None else Optimizer(scenario.catalog)
    counting = CountingStore(scenario.store)
    observed = overhead = verify = 0.0
    first_quarantine: Optional[int] = None
    curve: List[float] = []
    queries = 0

    for event in scenario.events:
        if event.kind == "insert":
            if tuner is not None:
                tuner.process_insert(event.table, rows=list(event.rows))
            else:
                scenario.store.apply_inserts(event.table, list(event.rows))
            continue
        query = event.query
        observed += counting.observed_cost(optimizer.optimize(query).plan)
        if tuner is not None:
            outcome = tuner.run([query])[0]
            overhead += (
                outcome.whatif_overhead
                + outcome.verify_overhead
                + outcome.build_cost
            )
            verify += outcome.verify_overhead
            if (
                first_quarantine is None
                and outcome.reorganization is not None
                and outcome.reorganization.quarantined
            ):
                first_quarantine = queries
        queries += 1
        if queries % sample_every == 0:
            curve.append(observed)

    if queries % sample_every != 0:
        curve.append(observed)
    materialized: List[str] = []
    if tuner is not None:
        materialized = sorted(ix.name for ix in tuner.materialized_set)
    return ScenarioResult(
        engine=engine,
        scenario=scenario.name,
        queries=queries,
        observed_cost=observed,
        tuning_overhead=overhead,
        verify_overhead=verify,
        curve=curve,
        sample_every=sample_every,
        materialized=materialized,
        first_quarantine_query=first_quarantine,
    )


def curve_is_sane(curve: List[float]) -> bool:
    """CI smoke gate: finite, non-negative, non-decreasing cumulative cost."""
    return (
        bool(curve)
        and all(math.isfinite(value) for value in curve)
        and all(b >= a - 1e-9 for a, b in zip([0.0] + curve, curve))
    )
