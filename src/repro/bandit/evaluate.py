"""Shared scenario-evaluation harness for engine comparisons.

Runs one tuning engine over one :class:`~repro.workload.adversarial.
Scenario`, pricing every query's *about-to-run* plan on a
:class:`~repro.executor.instrument.CountingStore` before the tuner sees
it (the plan is priced first because an epoch close may drop the index
-- and physical tree -- the plan references).  The result carries the
total observed execution cost, tuning overheads, and a cumulative
regret curve sampled every ``sample_every`` queries, which is what the
regret benchmark plots and the CI smoke gate sanity-checks.

Used by ``benchmarks/test_bandit_regret.py`` and
``tools/check_bandit_regret.py`` so the committed ``BENCH_bandit.json``
and the CI gate measure exactly the same thing.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional

from repro.core.config import ColtConfig
from repro.executor.executor import execute
from repro.executor.instrument import CountingStore
from repro.guardrails.verify import observed_cost
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
        curve: Cumulative observed cost sampled every ``sample_every``
            queries (index 0 is after the first sample interval).
        sample_every: The curve's sampling stride.
        materialized: Final materialized index names, sorted.
    """

    engine: str
    scenario: str
    queries: int
    observed_cost: float
    tuning_overhead: float
    curve: List[float]
    sample_every: int
    materialized: List[str]

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
    # Deferred import: the engine table imports this package.
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
        tuner = make_tuner(
            engine,
            scenario,
            epoch_length=epoch_length,
            storage_budget_pages=storage_budget_pages,
        )
    counting = CountingStore(scenario.store)
    catalog = scenario.catalog
    observed = 0.0
    overhead = 0.0
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
        if tuner is not None:
            plan = tuner.optimizer.optimize(query).plan
        else:
            from repro.optimizer.optimizer import Optimizer

            plan = Optimizer(catalog).optimize(query).plan
        counting.counters.reset()
        execute(plan, counting)
        observed += observed_cost(counting.counters, catalog.params)
        if tuner is not None:
            outcome = tuner.run([query])[0]
            overhead += (
                outcome.whatif_overhead
                + outcome.verify_overhead
                + outcome.build_cost
            )
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
        curve=curve,
        sample_every=sample_every,
        materialized=materialized,
    )


def curve_is_sane(curve: List[float]) -> bool:
    """CI smoke gate: finite, non-negative, non-decreasing cumulative cost."""
    if not curve:
        return False
    previous = 0.0
    for value in curve:
        if not (value == value) or value in (float("inf"), float("-inf")):
            return False
        if value < previous - 1e-9:
            return False
        previous = value
    return True
