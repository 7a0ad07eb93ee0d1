"""The backend protocol is sufficient: ``name``, ``catalog``, ``optimize``.

A backend that defines only those three members -- the shape a
transactional DBMS adapter has (``BEGIN; CREATE/DROP INDEX ...; EXPLAIN;
ROLLBACK`` answers ``optimize(query, config)`` and nothing else) -- must
drive both engines to exactly the decisions the local backend does.  It
prices every call from scratch (a fresh plan cache, nothing retained
between calls), so equality also shows that the local backend's reuse
changes no number: its session caches (a fresh stream), its retained
caches (a cycled stream) and their re-pricing after row moves (a cycled
stream with inserts), with and without guardrail verification probes.
"""

import pytest

from repro.backend.base import Backend
from repro.backend.local import LocalBackend
from repro.core import ColtConfig
from repro.engines import engine_spec
from repro.guardrails.manager import GuardrailManager
from repro.optimizer.optimizer import Optimizer, PlanCache
from repro.workload import build_catalog, shifting_workload
from repro.workload.experiments import phase_distributions


class MinimalBackend(Backend):
    """Prices through a private optimizer; keeps no per-query state."""

    name = "minimal"

    def __init__(self, catalog):
        self._catalog = catalog
        self._optimizer = Optimizer(catalog)

    @property
    def catalog(self):
        return self._catalog

    def optimize(self, query, config=None, cache=None):
        if config is None:
            config = self.current_config()
        return self._optimizer.optimize(query, config=config, cache=PlanCache())


def _events(stream, catalog):
    """``(kind, payload)`` events; cycled streams repeat query objects."""
    queries = shifting_workload(
        phase_distributions(), catalog, phase_length=60, transition=10, seed=3
    ).queries
    if stream == "fresh":
        return [("query", q) for q in queries[:180]]
    # Each phase's first 20 queries, three times over, as the same objects.
    cycled = [queries[60 * (i // 60) + i % 20] for i in range(180)]
    events = []
    for i, query in enumerate(cycled):
        if stream == "cycled_with_inserts" and i % 7 == 3:
            events.append(("insert", query.tables[0]))
        events.append(("query", query))
    return events


def _run(engine, backend_type, stream, guarded):
    catalog = build_catalog()
    config = ColtConfig(epoch_length=15, storage_budget_pages=6000.0)
    tuner = engine_spec(engine).build(
        catalog,
        config,
        backend=backend_type(catalog),
        guardrails=GuardrailManager() if guarded else None,
    )
    decisions, total = [], 0.0
    for kind, payload in _events(stream, catalog):
        if kind == "insert":
            total += tuner.process_insert(payload, count=500).total_cost
            continue
        outcome = tuner.process_query(payload)
        total += outcome.total_cost
        reorg = outcome.reorganization
        if reorg is not None:
            decisions.append(
                (
                    outcome.index,
                    sorted(map(str, reorg.materialize)),
                    sorted(map(str, reorg.drop)),
                    sorted(map(str, reorg.hot)),
                    reorg.whatif_budget,
                )
            )
    return decisions, total


@pytest.mark.parametrize("guarded", [False, True], ids=["plain", "guarded"])
@pytest.mark.parametrize("stream", ["fresh", "cycled", "cycled_with_inserts"])
@pytest.mark.parametrize("engine", ["colt", "bandit"])
def test_three_member_backend_decides_like_the_local_one(engine, stream, guarded):
    minimal, minimal_total = _run(engine, MinimalBackend, stream, guarded)
    local, local_total = _run(engine, LocalBackend, stream, guarded)
    assert minimal == local
    assert any(materialize for _, materialize, *_ in local)  # the stream tunes
    assert minimal_total == local_total  # bit-identical, not approx
